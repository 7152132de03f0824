(** Columnar-native construction of resilience flow networks.

    The structural {!Resilience.Flow} path builds the linear-order
    network of [31] by hashing [(position, boundary tuple)] keys of
    boxed values and remembering each arc's fact in a hashtable.  This
    module is the interned-id replacement: each linear-order position
    arrives as a {!layer} of live tuple ids with {e packed int}
    boundary keys, node ids are assigned by {e sort-based renumbering}
    of the facing key vectors ({!Sorted.sort_uniq}; a key's node is its
    rank in the sorted distinct keys, looked up in a dense id -> rank
    table for single-id keys and by binary search for packed pairs —
    no hash table, no polymorphic hashing), and arcs are laid out
    contiguously per layer so a min-cut arc maps back to its
    [(layer, tuple id)] by binary search over layer base offsets plus
    an offset divide — an arc-id-indexed array view instead of a
    per-edge fact map.  Facts are only materialized by the caller, for
    the final contingency set.

    Node ids: 0 = source, 1 = sink, then one dense block per interior
    boundary. *)

type layer = {
  tids : int array; (** live tuple ids of the atom's relation, edge order *)
  src_keys : int array;
      (** packed left-boundary key per edge: 0 when the boundary is
          empty, the bare id for one variable,
          [(id0 lsl 31) lor id1] for two (ids < 2^31) *)
  dst_keys : int array; (** packed right-boundary key per edge *)
  exo : Bytes.t; (** per-edge: ['\001'] = exogenous (infinite capacity) *)
}

type t

val infinite : int
(** Re-export of {!Res_graph.Maxflow.infinite}. *)

val build : ?guard:(unit -> unit) -> layer array -> t
(** Renumber every boundary and add one arc per layer tuple —
    capacity 1, or {!infinite} for exogenous edges.  [guard] is polled
    every 4096 edges (cancellation hook). *)

val max_flow : t -> int
(** Dinic over the built network; a value [>= infinite] means some
    source–sink path is entirely exogenous (resilience undefined /
    unbreakable). *)

val min_cut_tuples : t -> (int * int) list
(** After {!max_flow}: the minimum cut as [(layer, tuple id)] pairs.
    Only unit-capacity arcs can appear (exogenous arcs are never
    saturated when the flow is finite). *)
