(** CSR adjacency for an interned binary relation.

    A relation's live tuples [(col0.(tid), col1.(tid))] are stored
    twice: a forward index (per-source rows of sorted destinations) and
    a reverse index (per-destination rows of sorted sources), each row
    carrying the tuple id in a parallel array.  Rows double as the trie
    levels of a worst-case-optimal join: [succ]/[pred] are the level-2
    iterators given a bound level-1 value, and [srcs]/[dsts] are the
    level-1 frontiers.  Edge membership is an [O(log deg)] binary
    search.  The builder reads the interned columns in place through an
    array of live tuple ids, forming no edge records.  Each direction is
    two stable counting passes (by neighbour, then by row), so rows
    come out sorted in [O(n + m)] with no per-row sort.

    Construction is independent of the order of the live ids: the same
    tuple {e set} always produces byte-identical arrays (the determinism
    property the test suite pins). *)

type t

val build :
  fwd:bool -> rev:bool -> n:int -> col0:int array -> col1:int array -> int array -> t
(** [build ~fwd ~rev ~n ~col0 ~col1 live] indexes the tuples listed in
    [live]: tuple [tid] is the edge [(col0.(tid), col1.(tid))], ids in
    [0 .. n-1], [tid < 2^31], and no two live tuples share a
    [(src, dst)] pair (relations are sets).  Only the requested
    directions are built; accessors of an unbuilt one
    ([succ]/[srcs]/[mem]/[tid_of] need [fwd]; [pred]/[dsts] need [rev])
    must not be called.  The {!Instance} trie join knows its access
    plan statically and builds only the directions it probes.
    @raise Invalid_argument if [n] or a tuple id exceeds the packed
    31-bit budget, or an id is out of range. *)

val n_nodes : t -> int
val n_edges : t -> int

val succ : t -> int -> Sorted.slice
(** Sorted destinations of [src] (empty slice when out of range). *)

val pred : t -> int -> Sorted.slice
(** Sorted sources of [dst]. *)

val succ_tid : t -> int -> int -> int
(** Tuple id parallel to [succ]: the id of the [i]-th edge of the row. *)

val pred_tid : t -> int -> int -> int

val srcs : t -> int array
(** Sorted distinct sources with at least one outgoing edge. *)

val dsts : t -> int array

val mem : t -> int -> int -> bool
(** [mem t src dst] — O(log deg src). *)

val tid_of : t -> int -> int -> int option
(** The tuple id of edge [(src, dst)], if present. *)
