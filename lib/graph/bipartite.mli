(** Maximum bipartite matching (Hopcroft–Karp) and minimum vertex cover
    (König's theorem), maintained under edge insertions and deletions.

    Left vertices are [0 .. n_left-1], right vertices [0 .. n_right-1];
    {!add_edge} grows either range past the sizes given to {!create}.  A
    delta that may leave the matching below maximum marks it dirty, and
    the next query runs Hopcroft–Karp phases {e from the current
    matching}.  A single edge delta moves the maximum by at most one, so
    the repair is typically one layered phase; a bulk build pays one
    ordinary Hopcroft–Karp run on top of the greedy matching {!add_edge}
    keeps.  Parallel edges are kept with multiplicity (relevant when
    several tuples back the same vertex pair). *)

type t

val create : n_left:int -> n_right:int -> t
(** An edgeless graph with the given vertex ranges (either may be 0);
    sizing them up front spares the bulk builders array regrowth. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts an edge.  O(1); repair is deferred to the
    next query. *)

val remove_edge : t -> int -> int -> bool
(** [remove_edge g u v] deletes one copy of the edge; [false] when no such
    edge exists.  If the deleted copy was matched the pair is unmatched and
    repair is deferred to the next query. *)

val matching_size : t -> int
(** Size of a maximum matching of the current graph. *)

val matching_pairs : t -> (int * int) list
(** The [(left, right)] pairs of a maximum matching, ascending by left. *)

val min_vertex_cover : t -> int list * int list
(** König cover [(left, right)] of the current graph, computed on the
    maintained maximum matching; its size is {!matching_size}. *)
