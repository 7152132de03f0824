(** Sorted-set kernels over strictly increasing [int] arrays.

    Every candidate list in the trie join — CSR rows, frontiers, unary
    key columns — is a strictly sorted array (or a window into one), so
    set intersection reduces to merging with galloping (exponential
    probe + binary search) on skips.  Galloping makes the cost
    [O(min·log(max/min))] instead of [O(min + max)], which is the whole
    point when a tight unary atom meets a hub's adjacency row. *)

type slice = { arr : int array; off : int; len : int }
(** A read-only window [arr.(off) .. arr.(off+len-1)], strictly sorted. *)

val full : int array -> slice
val to_array : slice -> int array
val of_list : int list -> int array
(** Sort and dedup. *)

val is_strictly_sorted : int array -> bool

(** {2 The integer sort}

    Every sort of the plane (boundary renumbering, distinct-key vectors,
    unary key columns) goes through {!sort}.  Its keys are interned ids
    or ids packed as [(u lsl 31) lor v], so they are never negative, and
    an LSD radix sort orders them in linear time.  Precondition: every
    key is [>= 0]. *)

val sort : int array -> unit
(** Sort in place, ascending.  Arrays shorter than a small cutoff (64)
    use an insertion sort; longer ones an LSD radix sort that runs one
    counting pass per digit, over only the bits where some two keys
    differ — ids below [2^k] take about [k/11] passes, and the
    all-zero middle bits of packed keys cost nothing.
    @raise Invalid_argument on a negative key. *)

val sort_uniq : int array -> int array
(** The sorted distinct values of an array, in a fresh array (the
    argument is not modified).  Same precondition as {!sort}. *)

val dense_ranks : int array -> int array
(** [dense_ranks sorted], for a strictly sorted array of non-negative
    ids, is the id -> rank table [r] with [r.(sorted.(i)) = i] and [-1]
    for every other id up to the largest.  It has [last + 1] slots, so
    it is meant for ids of one dictionary, not for packed keys (those
    rank by {!lower_bound}). *)

val dense_rank : int array -> int -> int
(** [dense_rank r x]: the rank of [x] in the table, or [-1] if [x] is
    absent (including ids past the table's end). *)

val lower_bound : int array -> int -> int -> int -> int
(** [lower_bound arr lo hi x] is the least [i] in [lo..hi] with
    [arr.(i) >= x], or [hi] if none (indices in [lo..hi-1] are read). *)

val gallop : int array -> int -> int -> int -> int
(** Same postcondition as {!lower_bound}, but probes exponentially from
    [lo] first — O(log distance) when the answer is near [lo]. *)

val mem : slice -> int -> bool

val inter : slice -> slice -> int array
(** Galloping intersection. *)

val inter_naive : slice -> slice -> int array
(** Two-pointer merge intersection — the reference implementation the
    property suite checks {!inter} against. *)

val inter_many : slice list -> int array
(** Intersection of all slices, smallest-first.  [inter_many []] is
    invalid input; callers always have at least one support. *)
