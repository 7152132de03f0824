(** Responsibility of a tuple for a query answer (Meliou et al. [31], the
    causality notion the paper builds on).

    A fact t is a {e counterfactual cause} of D ⊨ q under a contingency
    Γ (t ∉ Γ) if D − Γ ⊨ q but D − Γ − \{t\} ⊭ q.  Its responsibility is
    1/(1+|Γ|) for the smallest such Γ, and 0 if no contingency exists.
    Computing it is NP-hard in general (harder than resilience, as the
    paper remarks).

    It reduces to resilience on the minimized query, with one witness
    enumeration.  L, the resilience of the t-free witnesses, bounds every
    answer from below (unbreakable: t is no cause).  The answer is the
    minimum, over the distinct ⊆-minimal sets of endogenous facts other
    than t of the witnesses containing t, of that resilience with the set
    made exogenous; the scan stops once one reaches L.  Each subproblem
    runs on {!Flow.solve} over D − \{t\} when the query is self-join-free
    and linear (PTIME there, Freire et al.), else on
    {!Exact.solve_witnesses}. *)

open Res_db

type outcome =
  | Complete of int option  (** the smallest contingency size; [None]: not a cause *)
  | Interrupted of Res_bounds.Interval.t
      (** the token fired: [lb] is L's certified bound, [ub] the best
          survivor finished so far ([None] if none yet) *)

val min_contingency_bounded :
  ?cancel:Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  Res_cq.Query.t ->
  Database.fact ->
  outcome
(** Polls [cancel] inside every subproblem and between survivors. *)

val min_contingency : Database.t -> Res_cq.Query.t -> Database.fact -> int option
(** Size of the smallest contingency under which the fact is
    counterfactual; [None] if the fact is not a cause at all. *)

val responsibility : Database.t -> Res_cq.Query.t -> Database.fact -> float
(** 1/(1+|Γ|), or 0.0 when not a cause.  A fact in every witness has
    responsibility 1. *)

val ranking : Database.t -> Res_cq.Query.t -> (Database.fact * float) list
(** All endogenous facts with non-zero responsibility, most responsible
    first — the paper's motivating "explanation" use case.  One witness
    enumeration serves every fact. *)
