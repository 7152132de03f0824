(** CSR adjacency for an interned binary relation.

    A relation's tuples [(src, dst)] are stored twice: a forward index
    (per-source rows of sorted destinations) and a reverse index
    (per-destination rows of sorted sources), each row carrying the
    original tuple id in a parallel array.  Rows double as the trie
    levels of a worst-case-optimal join: [succ]/[pred] are the level-2
    iterators given a bound level-1 value, and [srcs]/[dsts] are the
    level-1 frontiers.  Edge membership is an [O(log deg)] binary
    search.  Each direction is built by two stable counting passes (by
    neighbour, then by row), so rows come out sorted in [O(n + m)]
    with no per-row sort.

    Construction is input-order independent: the same edge {e set}
    always produces byte-identical arrays, whatever order the edges
    arrive in (the determinism property the test suite pins). *)

type t

val build : n:int -> (int * int * int) array -> t
(** [build ~n edges] with [edges] an array of [(src, dst, tuple_id)],
    all ids in [0 .. n-1] and tuple ids < 2^31; duplicate [(src, dst)]
    pairs must not occur (relations are sets).
    @raise Invalid_argument if [n] or a tuple id exceeds the packed
    31-bit budget. *)

val build_dirs : fwd:bool -> rev:bool -> n:int -> (int * int * int) array -> t
(** [build] restricted to the requested directions — each counting sort
    is paid only when its side is wanted.  Accessors of an unbuilt
    direction ([succ]/[srcs]/[mem]/[tid_of] need [fwd]; [pred]/[dsts]
    need [rev]) must not be called; callers that know their access plan
    statically (the {!Instance} trie join) use this to halve index
    construction. *)

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
