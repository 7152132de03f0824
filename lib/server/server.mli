(** The resilience service: a concurrent socket server over the engine.

    Architecture (see DESIGN.md):

    - a {!Net} listener takes connections on a Unix-domain or TCP
      socket and runs one reader thread per connection;
    - connection threads parse {!Protocol} lines; cheap requests (ping,
      classify, stats) run inline, solves are submitted to a bounded
      {!Pool} — when the queue is full the request is refused with
      [error busy] instead of queueing unboundedly (admission control);
    - each solve gets a {e deadline}: a {!Resilience.Cancel} token armed
      with the request deadline and the server's stop flag is threaded
      into the engine, so NP-hard searches abort cooperatively and answer
      [timeout bound=...] with the best sound upper bound found;
    - a solve that raises still answers exactly once, with
      [error internal: <exception>], counted as
      [requests.<kind>.internal_error], and its connection stays usable;
    - {!stop} is graceful ({!Net.stop}): the listener closes, in-flight
      solves are cancelled (their clients still get a [timeout] answer),
      queued jobs drain, and every thread is joined.

    All requests share one {!Res_engine.Batch} engine, so the canonical
    query/solution caches are warmed across connections; cache behaviour
    is surfaced through the metrics registry ([stats] command). *)

type config = {
  address : Net.address;
  workers : int;  (** fast-lane worker threads *)
  queue_capacity : int;  (** max queued (not yet running) fast-lane solves *)
  hard_workers : int;  (** hard-lane worker threads *)
  hard_queue : int;
      (** max queued hard-lane solves; beyond it hard requests are shed
          with a [busy lane=hard ...] reply while the fast lane keeps
          flowing — see {!Lanes} *)
  hard_timeout_ms : int option;
      (** deadline for hard-lane requests when neither the request nor
          [default_timeout_ms] carries one, so the hard lane stays
          {e anytime}: a queued NP-hard solve always answers with a
          certified interval *)
  default_timeout_ms : int option;
      (** deadline for requests that do not carry [timeout=MS]; [None]
          means such requests may run forever *)
  jobs : int;
      (** domains of the shared {!Res_exec.Executor}.  Worker threads all
          run on one domain (OCaml systhreads); with [jobs > 1] the
          server owns an executor onto which batch items fan out and
          exact searches fork their subtrees, so solves actually use
          [jobs] cores.  [<= 1] (the default) means no executor —
          byte-for-byte the old single-domain behaviour *)
  metrics_addr : Net.address option;
      (** when set, a second listener serving the metrics registry as
          Prometheus text over minimal HTTP — any request answers one
          [200 text/plain] scrape and closes.  [None] (the default)
          binds nothing; the [stats]/[stats/prom] protocol verbs remain
          available either way *)
}

val default_config : Net.address -> config
(** 4 fast workers (queue 64), 2 hard workers (queue 32, 10s anytime
    deadline), default timeout 30s, jobs 1, no metrics listener. *)

type t

val start : ?engine:Res_engine.Batch.t -> config -> t
(** Binds, listens and spawns the accept thread; returns immediately.
    [engine] defaults to a fresh cached engine.  A start that fails
    releases whatever it acquired (sockets, workers, executor) before
    the exception escapes.
    @raise Unix.Unix_error when an address cannot be bound, including
    [EADDRINUSE] for a socket path a live server answers on. *)

val stop : t -> unit
(** Graceful shutdown as described above.  Idempotent; a concurrent
    caller blocks until the shutdown completes.  Safe to call from a
    connection thread (the [shutdown] protocol command does). *)

val wait : t -> unit
(** Block until the server has fully stopped. *)

val metrics : t -> Metrics.t
val engine : t -> Res_engine.Batch.t

val src : Logs.src
(** The ["resilience.server"] log source: lifecycle events at info.
    Per-request lines are logged at debug by {!Net}'s ["resilience.net"]
    source. *)
