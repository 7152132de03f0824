(** Incrementally maintained CSR adjacency.

    A compact {!Csr} base plus a mutable overlay (inserted-edge lists and a
    deleted-edge tombstone set).  Deltas are O(1) amortized: when the overlay
    outgrows a quarter of the base, the structure compacts back into a fresh
    {!Csr}.  Queries see the merged live edge set at all times.  The
    incremental z3 strategy keeps its interned middle tuples in one — the
    patched alternative to rebuilding an interned instance per delta. *)

type t

val build : n:int -> (int * int * int) array -> t
(** [build ~n edges] with [(src, dst, tuple_id)] triples, same contract as
    {!Csr.build} (no duplicate pairs, 31-bit ids). *)

val n_nodes : t -> int
val n_edges : t -> int
(** Live edges (base minus tombstones plus overlay). *)

val add : t -> src:int -> dst:int -> tid:int -> unit
(** Insert a live edge.  Node bounds grow as needed.
    @raise Invalid_argument if the pair is already live. *)

val remove : t -> src:int -> dst:int -> unit
(** Delete a live edge.
    @raise Invalid_argument if the pair is not live. *)

val mem : t -> int -> int -> bool
val tid_of : t -> int -> int -> int option

val succ : t -> int -> int list
(** Sorted live destinations of a source. *)

val pred : t -> int -> int list
(** Sorted live sources of a destination (scans the overlay; cheap while the
    overlay is small, which compaction guarantees). *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit
(** [iter_edges f t] calls [f src dst tid] on every live edge. *)

val edges : t -> (int * int * int) array
(** Live edges in unspecified order. *)

val compact : t -> unit
(** Force-merge the overlay into the base. *)

val snapshot : t -> Csr.t
(** Compact and return the base CSR for the current live edge set. *)
