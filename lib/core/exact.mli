(** Exact resilience by branch-and-bound minimum hitting set.

    ρ(D, q) is the size of a minimum set of endogenous tuples hitting every
    witness of D ⊨ q (Definition 1).  This solver is correct for {e every}
    conjunctive query — it is the ground truth the PTIME algorithms are
    validated against, and the solver of last resort for NP-complete
    queries.  Exponential in the worst case; intended for instances up to a
    few hundred witnesses (all of the paper's gadgets at small formula
    sizes fit comfortably).

    Reductions applied before search: witness-set minimization (only
    ⊆-minimal witnesses matter), forced facts (singleton witnesses), and
    fact dominance (a fact whose witness set is contained in another's can
    be ignored).  After the reductions the witness hypergraph is split
    into connected components, each solved independently (ρ is the sum of
    the component optima).  Pruning bounds are the greedy
    disjoint-witness packing everywhere, plus the certificate-checked LP
    relaxation ({!Res_bounds.Lower}) at the root and shallow nodes; the
    incumbent is seeded by a locally-polished greedy cover
    ({!Res_bounds.Upper}).

    Witnesses are represented as {!Bitset}s over the dense fact-id
    universe, so the O(n²) reduction passes and the per-branch witness
    filtering are byte operations, and the (immutable-after-construction)
    sets are shared freely across domains.

    When [?pool] is an executor with more than one domain, components are
    solved concurrently and each component forks the top of its search
    tree into executor tasks.  The forked subtrees share one atomic
    incumbent (updated by compare-and-set, so an improvement found in any
    domain immediately tightens pruning in all), one LP call budget, and
    the caller's cancellation token.  Parallel search explores subtrees
    in a different interleaving than sequential search but returns the
    same resilience value; with [jobs = 1] (or no pool) the search is
    bit-for-bit the sequential program. *)

open Res_db

val resilience : ?pool:Res_exec.Executor.t -> Database.t -> Res_cq.Query.t -> Solution.t

(** {2 Deadline-aware search}

    The branch-and-bound incumbent is a genuine contingency set from the
    moment the greedy cover is computed, so interrupting the search still
    yields a {e sound upper bound} together with the set witnessing it. *)

type outcome =
  | Complete of Solution.t  (** the search finished; this is ρ exactly *)
  | Interrupted of { incumbent : Solution.t; lb : int }
      (** the token fired mid-search; [incumbent] is the best
          [Finite (ub, set)] found — [set] is a genuine contingency set of
          size [ub], so ρ ≤ ub (never [Unbreakable]: that case completes
          instantly) — and [lb] is the certified root lower bound, so
          [lb ≤ ρ ≤ ub] *)

val resilience_bounded :
  ?cancel:Cancel.t ->
  ?lp:bool ->
  ?pool:Res_exec.Executor.t ->
  ?seed:Database.fact list ->
  ?lp_state:int array option Atomic.t ->
  Database.t ->
  Res_cq.Query.t ->
  outcome
(** Like {!resilience}, but polls [cancel] at every branch node and at
    every candidate of the greedy cover's local-search polish.  Witness
    enumeration, the reductions and the greedy cover itself always run to
    completion.  When the token fires mid-parallel-search, every
    forked subtree stops at its next poll and the summed per-component
    incumbents/lower bounds still sandwich ρ.  [?lp] (default [true])
    switches the LP-relaxation pruning — exposed so the pruning bench
    can measure its effect.

    Warm starts for the streaming tier: [?seed] is a candidate hitting set
    (typically the previous delta's optimal contingency set); per component,
    if its restriction still hits every witness it becomes the initial
    incumbent when smaller than the greedy cover — validity is re-checked
    from scratch, so a stale seed costs nothing.  [?lp_state] carries the
    root simplex basis across calls: the basis found by this call's root LP
    is stored back, and the stored basis warm-starts the next.  Neither
    option changes any returned value, only search effort. *)

val solve_witnesses :
  ?cancel:Cancel.t ->
  ?lp:bool ->
  ?pool:Res_exec.Executor.t ->
  ?seed:Database.fact list ->
  ?lp_state:int array option Atomic.t ->
  ?cutoff:int ->
  exogenous:(Database.fact -> bool) ->
  Database.Fact_set.t list ->
  outcome
(** The search behind {!resilience_bounded}, over enumerated witness
    fact sets and a per-fact exogeneity predicate.

    [?cutoff:c] searches only for covers smaller than [c]: a [Complete s]
    is then exact when ρ < c, and otherwise a genuine contingency set of
    size ≥ c (the search proved nothing smaller exists below [c]).  Each
    witness component gets the share of [c] left after the other
    components' packing bounds, so the cut is sound across the split.
    Without a cutoff the search is exactly the uncut one. *)

(** {2 Search instrumentation}

    Cumulative counters over every hitting-set search since the last
    {!reset_stats}: branch nodes expanded, LP relaxations solved, prunes
    that {e only} the LP bound achieved (the packing bound alone would
    have kept branching), and greedy covers computed (one per connected
    component searched).  Unbreakable and unsatisfied instances are
    decided in preprocessing and touch none of them.  Backed by atomics,
    so totals are exact even when searches run on several domains. *)

type search_stats = {
  mutable nodes : int;
  mutable lp_calls : int;
  mutable lp_prunes : int;
  mutable covers : int;
}

val reset_stats : unit -> unit

val last_stats : unit -> search_stats
(** A snapshot copy (safe to keep across later searches). *)

val value : Database.t -> Res_cq.Query.t -> int option
(** [Some ρ], or [None] when {!Unbreakable}.  ρ = 0 iff D ⊭ q. *)

val value_exn : Database.t -> Res_cq.Query.t -> int
(** @raise Failure when {!Unbreakable}. *)

val is_contingency_set : Database.t -> Res_cq.Query.t -> Database.fact list -> bool
(** Does deleting these facts make the query false? *)

val in_res : Database.t -> Res_cq.Query.t -> int -> bool
(** The decision problem: [(D, k) ∈ RES(q)] (Definition 1) — [D ⊨ q] and
    some contingency set of size ≤ k exists. *)

val minimum_sets : ?limit:int -> Database.t -> Res_cq.Query.t -> Database.fact list list
(** All minimum contingency sets (up to [limit], default 1000) — the
    alternative "repairs" of equal cost.  Empty when the instance is
    unbreakable; [[ [] ]] when D does not satisfy q. *)
