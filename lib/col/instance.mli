(** A compiled columnar instance of a binary conjunctive query: the
    bridge from interned relation columns to worst-case-optimal witness
    enumeration.

    The caller (the [Eval] fast path) interns every constant of the
    query's relations into dense ids and hands over the raw columns;
    this module then

    {ol
    {- runs a Yannakakis-style {e semijoin reduction} to a fixpoint —
       for every variable, the values allowed are the intersection of
       its projections over all atoms containing it, and every atom
       drops tuples outside the allowed sets.  The surviving per-atom
       tuple sets are a sound over-approximation of witness
       participation: no tuple belonging to a witness is ever dropped,
       so the reduced instance has exactly the original witness set.
       The fixpoint computes live tuple-id sets only;}
    {- builds per-atom indexes over the survivors (sorted key columns
       for unary and diagonal atoms, {!Csr} adjacency for binary
       atoms, read straight off the columns) on the first {!enumerate}
       or {!sat} — never for a consumer that only reads {!live}, and
       never when the fixpoint is empty;}
    {- enumerates witnesses by a trie join: variables in a fixed greedy
       order, candidates for each variable obtained by galloping
       intersection of the supporting atoms' sorted rows and frontiers
       (leapfrog-style, worst-case optimal for the binary case).}}

    Enumeration is deterministic: candidates are visited in ascending
    id order under a statically chosen variable order. *)

type rel_data = { arity : int; col0 : int array; col1 : int array }
(** Interned columns of one relation, tuple id = array index.  [col1]
    is empty for arity 1.  Only tuples whose arity matches the query's
    may be included. *)

type t

val make : Res_cq.Query.t -> n:int -> (string * rel_data) list -> t
(** [make q ~n rels] with [n] the exclusive id bound (the dict size)
    and [rels] covering every relation of [q].  All atoms of [q] must
    have arity <= 2.  @raise Invalid_argument otherwise. *)

val without : t -> (string * int array) list -> t
(** [without t removed]: a fresh instance over [t]'s columns and plan
    that behaves as if the listed tuple ids (per relation, any order)
    were deleted, so a contingency set is re-checked without
    re-interning.  Each atom starts from [t]'s reduced live set if [t]
    is reduced, from all its tuples otherwise, minus a byte mask of the
    removed ids; a live set no removal touches is shared, not copied.
    Sound because the semijoin fixpoint of [D - removed] equals that of
    [reduced(D) - removed].  [t] is unchanged. *)

val reduce : t -> unit
(** Run the semijoin fixpoint: the per-atom live sets, no index.
    Idempotent; called automatically by the consumers below. *)

val enumerate : t -> emit:(int array -> unit) -> unit
(** Reduce, build the indexes on the first call (span [col/index])
    unless the fixpoint is empty, and call [emit] once per witness with
    the valuation as ids, indexed in [Query.vars] order.  The array is
    reused between calls — copy it if it must be retained. *)

val sat : t -> bool
(** Any witness at all?  Early exit. *)

val count : t -> int

val live : t -> string -> int array
(** After reduction: the sorted tuple ids of the relation that survive
    in at least one atom occurrence — the per-relation semijoin-reduced
    instance.  Memoized per relation; callers must not mutate the
    returned array. *)

val is_reduced : t -> bool
(** Has {!reduce} already run?  Lets callers attribute the semijoin cost
    to an observability span only when it is actually about to be
    paid. *)

val passes : t -> int
(** Number of semijoin fixpoint passes taken (>= 1 once reduced). *)
