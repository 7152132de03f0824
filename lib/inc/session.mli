(** A streaming resilience session: one query, a versioned database, and an
    answer maintained under delta batches.

    The session keeps {!Resilience.Solver.plan}'s components and routes —
    the one place a component's algorithm is chosen — and maintains each
    route: dynamic flow repair ({!Incflow}) for a flow route, the
    incremental permutation-template structures ({!Dynspecial}) for the
    perm, A-perm and z3 kernels, the exact route warm-started (previous
    contingency set as seed incumbent, previous root LP basis), and
    {!Resilience.Solver.run} on the component for every other route,
    without reclassifying.  Components combine by
    {!Resilience.Solver.combine}.  Every strategy is exact: the answer
    after each batch equals a from-scratch solve of the current database
    (the differential suite pins this on random delta sequences).

    Deltas are expressed against the user's relations; alias routing and the
    mirror symmetry are handled internally, and all returned facts belong to
    the original database. *)

open Res_db

type t

(** A per-batch answer: the exact resilience, or — only when a [cancel]
    deadline interrupted a hard component — a bracketing interval. *)
type result = Resilience.Solver.answer =
  | Value of Resilience.Solution.t
  | Interval of Res_bounds.Interval.t

val create :
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  Res_cq.Query.t ->
  t
(** Plan, build the per-component structures, and compute the initial
    answer (available via {!last}). *)

val apply :
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  t ->
  Delta.t list ->
  result
(** Apply a delta batch (ineffective deltas are dropped first) and return
    the updated answer. *)

val last : t -> result
(** The answer as of the latest batch (or creation). *)

val query : t -> Res_cq.Query.t
val db : t -> Database.t
(** The current database (post all applied deltas). *)

val version : t -> int
(** Number of effective deltas applied so far. *)

val fingerprint : t -> string
(** Order-independent content fingerprint of the current database. *)

val strategies : t -> string list
(** Human-readable per-component strategy names, e.g. ["flow-repair"],
    ["pairs"], ["warm-exact"] — for diagnostics and tests. *)

val result_interval : result -> Res_bounds.Interval.t
(** A [Value] as the degenerate optimal interval; an [Interval] as itself. *)

val selfcheck : t -> bool
(** Audit the latest answer: a finite value must come with that many
    distinct present facts whose removal falsifies the query. *)
