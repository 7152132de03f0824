(** The batched solving engine.

    Classification (Theorem 37) and the component plan are per-{e query}
    while solving is per-{e instance}; an engine amortizes both across a
    stream of [(query, database)] instances.  Three query-level lookups
    come before any solve:

    - the {e query memo}: the query's own atoms and exogenous relations →
      its {!Canon.keyed} value (canonical key and renaming), so a query
      seen before is not canonicalized again;
    - the {e class cache}: canonical key → the class's canonical query
      (parsed once), its verdict and its {!Resilience.Solver.plan}, all
      built when the class is inserted;
    - the solve cache: (canonical key, instance digest) → solution.

    {!prepare} does the first two, once per request; the [*_prepared]
    entry points then solve without canonicalizing or planning again.
    Solving a cache miss happens on the {e canonical} instance, from the
    class's plan — the cached solution is valid for every member of the
    class and is mapped back through the instance's own renaming on each
    hit.  Both query-level caches are bounded by [classify_capacity]. *)

open Res_cq
open Res_db
open Resilience

type instance = { label : string; query : Query.t; db : Database.t }

type outcome = {
  label : string;
  query : Query.t;
  key : string;  (** canonical key (empty when the engine is uncached) *)
  verdict : Classify.verdict;
  solution : Solution.t;
  solve_cached : bool;  (** the solution came from the cache *)
}

type t

val create : ?cached:bool -> ?classify_capacity:int -> ?solve_capacity:int -> unit -> t
(** [cached] defaults to [true]; with [~cached:false] the engine degrades
    to plain per-instance [Classify]/[Solver] calls — the baseline the
    cache benchmarks compare against. *)

type prepared
(** A query admitted into the engine: its canonical key and renaming and
    its class (verdict and plan) — or, in an uncached engine, the query
    and its verdict alone. *)

val prepare : t -> Query.t -> prepared
(** Look the query up in the memo and the class cache, canonicalizing and
    planning only on a miss.  The server calls this once per request, at
    admission, and hands the result to the worker. *)

val verdict : prepared -> Classify.verdict

val canon : prepared -> Canon.keyed option
(** The canonical key and renaming; [None] in an uncached engine. *)

val classify : t -> Query.t -> Classify.verdict
(** Classification verdict of the query's isomorphism class:
    [verdict (prepare t q)]. *)

val solve : t -> Database.t -> Query.t -> Solution.t
(** ρ(D, q) with a minimum contingency set, via the caches. *)

val responsibility : t -> Database.t -> Query.t -> Database.fact -> int option * bool
(** Minimum contingency size of the fact ([None] when it is not a cause
    — in particular whenever its relation does not occur in the query),
    and whether the answer came from the responsibility cache.  Cached
    per (canonical key, canonical fact, instance digest): the stored
    size is renaming-invariant, so hits are shared across isomorphic
    instances with no back-translation.  Responsibility itself is
    1/(1+size). *)

val solve_versioned : t -> Vdb.t -> Query.t -> Solution.t * bool
(** Like {!solve} on the versioned database's current contents, but keyed
    by its O(1) content fingerprint instead of the O(|D|) instance digest —
    the re-solve fast path of the streaming tier.  Correct under mutation:
    every effective delta changes the fingerprint, so a stale entry can
    never be served; reverting the database restores the fingerprint and
    the hit.  The boolean reports whether the answer came from cache. *)

(** {2 Deadline-aware solving}

    An engine is shared by every worker of the service layer, so the
    caches and counters are guarded by an internal mutex.  The lock is
    {e never} held while classifying or solving — a slow exact search on
    one worker cannot stall another worker's cache hit. *)

type solve_outcome =
  | Solved of Solution.t * bool  (** the solution, and whether it was served from cache *)
  | Timed_out of Res_bounds.Interval.t
      (** deadline fired mid-search; carries
          {!Resilience.Solver.solve_bounded}'s certified interval
          [lb ≤ ρ ≤ ub], with the witness set translated back into the
          caller's fact space.  Only optimal results are cached —
          timed-out intervals never are. *)

val solve_bounded :
  t ->
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  Query.t ->
  solve_outcome
(** [solve_prepared t db (prepare t q)].  [?pool] is forwarded to the
    solver: a single hard instance parallelizes its exact search across
    the executor. *)

val solve_prepared :
  t ->
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  prepared ->
  solve_outcome
(** Solve an admitted query on a database: a solve-cache lookup, and on a
    miss {!Resilience.Solver.solve_plan} on the canonical instance with
    the class's plan.  An uncached engine runs
    {!Resilience.Solver.solve_bounded} on the query as given. *)

val responsibility_bounded :
  t ->
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  Query.t ->
  Database.fact ->
  Responsibility.outcome * bool
(** {!responsibility} under a deadline; an [Interrupted] answer is never
    cached. *)

val responsibility_prepared :
  t ->
  ?cancel:Resilience.Cancel.t ->
  ?pool:Res_exec.Executor.t ->
  Database.t ->
  prepared ->
  Database.fact ->
  Responsibility.outcome * bool
(** {!responsibility_bounded} for an admitted query. *)

val run : t -> ?pool:Res_exec.Executor.t -> instance list -> outcome list
(** Process a batch: instances are sorted by canonical key (stable), so
    each equivalence class is handled consecutively, then results are
    returned in the original input order.

    With [?pool] (jobs > 1) the equivalence classes are solved
    concurrently via {!Res_exec.Executor.parallel_map} — per class, not
    per instance, so the first solve of a class still fills the cache
    its siblings hit.  Results are identical to the sequential run and
    stay in input order. *)

val stats : t -> Stats.t

(** {2 Persistence hooks}

    The solve cache is the engine's durable state; these hooks let a
    disk-backed store (lib/shard's [Store]) tap its insertions and
    replay them after a restart.  Keys are [(canonical key or
    fingerprint-extended key, digest)] pairs exactly as the engine uses
    them internally. *)

val on_solve_insert : t -> (string * string -> Resilience.Solution.t -> unit) -> unit
(** Register the solve-cache insertion listener (at most one; replaces).
    Fires outside the cache's structural lock on every newly computed
    optimal solution — never on cache hits, timeouts, or seeds. *)

val seed_solve : t -> string * string -> Resilience.Solution.t -> unit
(** Warm-restart recovery: insert a recovered binding without firing the
    {!on_solve_insert} listener.  No-op if the key is already present or
    the cache is full. *)

val solve_cache_stats : t -> int * int * int
(** [(length, hits, misses)] of the solve cache — the warm-restart bench
    gate reads hits-after-restart from here. *)

(** {2 Instance files}

    One instance per line: [QUERY | FACTS], with an optional leading
    [@label] token; blank lines and [#] comments are ignored.
    {v
      @chain R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)
    v} *)

exception Parse_error of string

val parse_instances : string -> instance list
(** @raise Parse_error with a line number on malformed input. *)

val load_file : string -> instance list
(** @raise Parse_error / [Sys_error]. *)
