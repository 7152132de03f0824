(** The resilience solver front end.

    Mirrors the classification pipeline: minimize the query, split it into
    connected components (ρ is the minimum over components, Lemma 14),
    normalize domination per component (Prop 18), then dispatch each
    component to the algorithm its {!Classify} verdict licenses:

    - PTIME verdicts run the matching polynomial algorithm — the generic
      linear flow ({!Flow}), one of the specialized solvers ({!Special}),
      or the trivial case;
    - NP-complete / open / unknown verdicts run the exact branch-and-bound
      solver ({!Exact}).

    A handful of PTIME classes whose polynomial algorithm the paper only
    sketches for the general (pseudo-linear, non-linear) case fall back to
    {!Exact} with an explanatory note — the answer is still correct, just
    not guaranteed polynomial (see DESIGN.md §7). *)

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

val min_solution : Solution.t -> Solution.t -> Solution.t
(** The combination of two components' answers (Lemma 14): the smaller
    [Finite] wins, [Unbreakable] is the identity. *)

val interval_of_solution : Solution.t -> Res_bounds.Interval.t
(** [Finite (v, set)] ↦ the optimal interval [⟨v, v⟩]; [Unbreakable] ↦
    {!Res_bounds.Interval.unbreakable}. *)

val value : Database.t -> Res_cq.Query.t -> int option
(** [Some ρ] or [None] (unbreakable). *)

val extend_db_for_split : Database.t -> (string * string) list -> Database.t
(** Materialize an exogenous split on the database: each [(copy, base)]
    of {!Classify.component}'s [copies] gets exactly the tuples of its
    base relation.  Exposed for the incremental session ([lib/inc]),
    which must present strategies with the same extended view the
    dispatcher solves against. *)

(** {2 The mirror symmetry}

    Reversing every binary atom ({!Query_iso.mirror}) together with every
    binary tuple is a global symmetry of resilience: ρ(D, q) =
    ρ(mirror D, mirror q), and contingency sets transfer through
    {!mirror_solution}.  The dispatcher uses this to match a template in
    either orientation; {!Res_engine.Canon} uses it to merge a class with
    its mirror under one key. *)

val mirror_db : Database.t -> Res_cq.Query.t -> Database.t
(** Reverse every tuple of the relations that are binary in the query. *)

val mirror_solution : Res_cq.Query.t -> Solution.t -> Solution.t
(** Map a solution of the mirrored instance back to the original
    database's facts ([q] is the {e original} query). *)

val min_contingency : Database.t -> Res_cq.Query.t -> Database.fact -> int option
(** {!Responsibility.min_contingency}. *)
