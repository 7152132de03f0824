(** The resilience solver front end: plan, run, combine.

    {!plan} is the one place a component gets its algorithm.  It mirrors
    the classification pipeline — minimize, split into connected
    components (ρ is their minimum, Lemma 14), {!Classify} each — and
    picks each component's {!route} from the query alone: a polynomial
    algorithm ({!Flow}, a {!Special} solver, the trivial probe) for PTIME
    verdicts, {!Exact} branch-and-bound otherwise.  A PTIME class whose
    polynomial algorithm the paper only sketches for this query shape
    gets the fallback: the bipartite witness cover, then {!Exact} when the
    instance has no such cover — still correct, just not guaranteed
    polynomial (DESIGN.md §7).

    {!run} solves one planned component, {!combine} takes the minimum,
    and {!solve_plan} does both for a whole plan.  A plan depends on the
    query alone, so it can be built once and run on many databases: the
    engine ([lib/engine]) keeps one per canonical query class and solves
    each cache miss with {!solve_plan}.  The incremental session
    ([lib/inc]) keeps the same plan: it maintains the routes that have a
    dynamic twin and calls {!run} for the rest. *)

open Res_db

type trace = {
  component : Res_cq.Query.t;  (** normalized component actually solved *)
  algorithm : string;
  solution : Solution.t;
}

val solve : Database.t -> Res_cq.Query.t -> Solution.t
(** ρ(D, q) with a minimum contingency set. *)

val solve_traced : Database.t -> Res_cq.Query.t -> Solution.t * trace list

(** {2 Deadline-aware solving}

    The service layer cannot let an NP-complete component run unboundedly:
    [solve_bounded] threads a {!Cancel} token into every cancellable hot
    loop ({!Exact} branch nodes, {!Flow} network construction).  When the
    token fires the answer degrades gracefully into a {e certified
    interval}: any component that already finished, and any interrupted
    exact search's incumbent, yields a sound upper bound on ρ (deleting
    one component's contingency set falsifies the whole conjunction);
    interrupted searches also surface their certified root lower bound,
    and ρ being the minimum over components, the per-component intervals
    combine by {!Res_bounds.Interval.min_components}. *)

type bounded =
  | Done of Solution.t * trace list  (** finished before the deadline *)
  | Timeout of Res_bounds.Interval.t
      (** the token fired; the interval brackets ρ: [lb ≤ ρ], and when
          [ub = Some u] a genuine contingency set of size [u] was found
          ([witness_set]).  [ub = None] with status [Gap] means no bound
          was reached in time. *)

val solve_bounded :
  ?cancel:Cancel.t -> ?pool:Res_exec.Executor.t -> Database.t -> Res_cq.Query.t -> bounded
(** [?pool] is forwarded to the exact solver: NP-hard components fork the
    top of their branch-and-bound trees onto the executor's domains (see
    {!Exact.resilience_bounded}).  Omitted, or with [jobs = 1], solving
    is exactly the sequential program. *)

val interval_of_solution : Solution.t -> Res_bounds.Interval.t
(** [Finite (v, set)] ↦ the optimal interval [⟨v, v⟩]; [Unbreakable] ↦
    {!Res_bounds.Interval.unbreakable}. *)

val value : Database.t -> Res_cq.Query.t -> int option
(** [Some ρ] or [None] (unbreakable). *)

(** {2 The component plan} *)

(** A {!Special} solver, with the relation names its template — the
    {!Zoo} entry named below — matched. *)
type kernel =
  | Perm of { r : string }  (** [q_perm], Prop 33 *)
  | Aperm of { a : string; r : string }  (** [q_a_perm], Prop 33 *)
  | Z3 of { r : string; a : string }  (** [z3], Prop 36 *)
  | A3perm of { a : string; r : string }  (** [q_a_3perm], Prop 13 *)
  | Swx3perm of { s : string; r : string }  (** [q_swx_3perm], Prop 44 *)
  | Ts3conf of { t_rel : string; r : string; s_rel : string }  (** [q_ts_3conf], Prop 41 *)

type route =
  | Trivial  (** no endogenous atom: ρ is 0 or ∞ *)
  | Flow of { confluence : bool }  (** the linear flow, or Prop 31's confluence flow *)
  | Rep_flow of string  (** Prop 36: the flow, this relation's off-diagonal tuples exogenous *)
  | Template of { kernel : kernel; mirrored : bool }
      (** [mirrored]: only the component's mirror matched, so the kernel
          runs on the mirrored instance *)
  | Pair_collapse of Special.pair_collapse  (** Prop 35 case 1 *)
  | Fallback of string  (** bipartite witness cover, else exact; the string says why *)
  | Exact of string  (** branch-and-bound, under this algorithm name *)

type component = {
  query : Res_cq.Query.t;  (** the analyzed query: normalized, exogenous-split *)
  copies : (string * string) list;  (** {!Classify.component}'s split copies *)
  route : route;
}

val plan : Res_cq.Query.t -> component list
(** Minimize → split → {!Classify.classify_component} → route, one entry
    per connected component. *)

val route_db : Database.t -> component -> Database.t
(** The database the component's route solves against: each split copy
    materialized as its base relation's tuples and, for a mirrored
    template, every binary tuple reversed. *)

type answer =
  | Value of Solution.t
  | Interval of Res_bounds.Interval.t
      (** a deadline cut the route short; the interval brackets ρ *)

val run :
  ?cancel:Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  ?seed:Database.fact list ->
  ?lp_state:int array option Atomic.t ->
  Database.t ->
  component ->
  string * answer
(** Solve one planned component on the user's database: the algorithm
    that answered and its answer.  A data-dependent fallback (no bipartite
    witness cover) is taken here.  [?seed] and [?lp_state] warm-start an
    exact search, as in {!Exact.resilience_bounded}; other routes ignore
    them. *)

val combine : answer list -> answer
(** Lemma 14: the minimum over components — a [Value] when every
    component finished, else the intervals combined by
    {!Res_bounds.Interval.min_components}. *)

val interval_of_answer : answer -> Res_bounds.Interval.t
(** A [Value] as the degenerate optimal interval; an [Interval] as itself. *)

val solve_plan :
  ?cancel:Cancel.t -> ?pool:Res_exec.Executor.t -> Database.t -> component list -> bounded
(** {!solve_bounded} from a ready {!plan}: run every component, then
    {!combine}.  [solve_bounded db q] is [solve_plan db (plan q)]; a
    caller that solves many instances of one query (the engine's class
    cache) plans once and calls this per instance. *)

(** {2 The mirror symmetry}

    Reversing every binary atom ({!Query_iso.mirror}) together with every
    binary tuple is a global symmetry of resilience: ρ(D, q) =
    ρ(mirror D, mirror q), and contingency sets transfer through
    {!mirror_solution}.  The plan uses this to match a template in
    either orientation; {!Res_engine.Canon} uses it to merge a class with
    its mirror under one key. *)

val mirror_db : Database.t -> Res_cq.Query.t -> Database.t
(** Reverse every tuple of the relations that are binary in the query. *)

val mirror_solution : Res_cq.Query.t -> Solution.t -> Solution.t
(** Map a solution of the mirrored instance back to the original
    database's facts ([q] is the {e original} query). *)

val min_contingency : Database.t -> Res_cq.Query.t -> Database.fact -> int option
(** {!Responsibility.min_contingency}. *)
