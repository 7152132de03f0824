(** Evaluation of Boolean conjunctive queries: satisfaction and witness
    enumeration.

    A witness (paper Section 2) is a valuation of all existential variables
    that makes the query true; each witness determines the set of at most
    [m] facts it uses.  Witness enumeration drives both the exact resilience
    solver and the flow constructions.

    Two evaluation planes live behind this surface.  Queries whose atoms
    all have arity <= 2 (the paper's binary fragment) are compiled onto
    the columnar engine in [lib/col]: constants are interned to dense
    ids, relations become CSR adjacency, a Yannakakis-style semijoin
    reduction prunes dangling tuples, and witnesses are enumerated by a
    worst-case-optimal trie join.  Higher-arity queries run the
    structural backtracking join.  The query alone picks the plane.
    Both planes produce identical results; the differential test suite
    ([test/test_col.ml]) checks the columnar plane against
    {!backtracking_witnesses}. *)

type witness = {
  valuation : (Res_cq.Atom.var * Value.t) list; (* in Query.vars order *)
  facts : Database.Fact_set.t; (* the tuples this witness uses *)
}

val sat : Database.t -> Res_cq.Query.t -> bool
(** [D |= q], with early exit. *)

val witnesses : ?limit:int -> Database.t -> Res_cq.Query.t -> witness list
(** All witnesses (valuations), in canonical order — lexicographic on the
    valuation's values in [Query.vars] order, so the result is identical
    whichever plane enumerated it.  @raise Failure if more than [limit]
    (default 2_000_000) witnesses exist — a guard against accidental
    cross-product blowups in tests. *)

val backtracking_witnesses : ?limit:int -> Database.t -> Res_cq.Query.t -> witness list
(** {!witnesses} computed by the backtracking join whatever the query's
    arity: the same canonical order and limit.  It is the plane every
    query with an atom of arity > 2 runs on; on a binary query it is the
    reference the columnar plane is tested against. *)

val witness_fact_sets : Database.t -> Res_cq.Query.t -> Database.Fact_set.t list
(** The distinct fact sets of the witnesses (several valuations may map to
    the same fact set). *)

val count : Database.t -> Res_cq.Query.t -> int
(** Number of witnesses (valuations). *)

val facts_of_valuation :
  Res_cq.Query.t -> (Res_cq.Atom.var * Value.t) list -> Database.fact list
(** The facts a given valuation would use (whether or not present). *)

val reduce : Database.t -> Res_cq.Query.t -> Database.t
(** The semijoin-reduced instance: drops (right-arity) tuples of the
    query's relations that survive in no atom occurrence of the
    fixpoint — a sound pruning pass, [reduce db q] has exactly the same
    witness set as [db].  Identity when the query is not
    columnar-eligible.  Used as a pre-pass before flow-graph
    construction. *)

val columnar_eligible : Res_cq.Query.t -> bool
(** All atoms of arity <= 2, i.e. the query compiles onto the columnar
    plane. *)

(** {2 The columnar kernel view}

    The PTIME solvers (flow networks, bipartite matching, vertex
    covers) historically re-scanned structural tuples to build their
    graphs.  A {!view} is the compiled, semijoin-reduced columnar
    instance shared with them directly: interned columns, live tuple
    ids and id↔value maps, so graph construction runs on dense ints and
    facts are materialized only for the final contingency set. *)

type view

val view : Database.t -> Res_cq.Query.t -> view option
(** Compile [db] for [q]: intern the columns without reducing them —
    the semijoin fixpoint runs lazily on first {!view_live} (or any
    enumeration), so kernels that only read raw columns never pay for
    it.  [None] exactly when the query is not columnar-eligible —
    callers then take their structural path. *)

val view_n : view -> int
(** Exclusive bound of the interned id space (the dict size, < 2^31). *)

val view_value : view -> int -> Value.t
(** The structural value of an interned id. *)

val view_data : view -> string -> Res_col.Instance.rel_data
(** A relation's interned columns (all right-arity tuples, id order). *)

val view_live : view -> string -> int array
(** Sorted tuple ids of the relation surviving semijoin reduction. *)

val view_rows : view -> string -> Database.tuple array
(** Right-arity structural tuples of a relation, indexed by tuple id. *)

val view_fact : view -> string -> int -> Database.fact
(** The structural fact of one tuple id. *)

val view_sat_removed : view -> (string * int array) list -> bool
(** Satisfiability of the instance minus the given per-relation sorted
    tuple-id sets — the post-cut verification, re-using the interned
    columns instead of recompiling the database. *)

val view_removals_of_facts : view -> Database.fact list -> (string * int array) list
(** Map structural facts back to per-relation sorted tuple-id exclusion
    lists through the view's dict, in the shape {!view_sat_removed}
    expects.  Facts over unknown values, unknown relations or the wrong
    arity match no tuple and are dropped — removing them cannot change
    satisfiability. *)
