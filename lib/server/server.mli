(** The resilience service: a concurrent socket server over the engine.

    Architecture (see DESIGN.md):

    - an {e accept thread} takes connections on a Unix-domain or TCP
      socket and spawns one reader thread per connection;
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
    - {!stop} is graceful: the listener closes, in-flight solves are
      cancelled (their clients still get a [timeout] answer), queued jobs
      drain, and every thread is joined.

    All requests share one {!Res_engine.Batch} engine, so the canonical
    query/solution caches are warmed across connections; cache behaviour
    is surfaced through the metrics registry ([stats] command). *)

type address =
  | Unix_socket of string  (** path; an existing stale socket file is replaced *)
  | Tcp of string * int  (** bind address and port, e.g. [("127.0.0.1", 7227)] *)

val address_of_string : string -> (address, string) result
(** Command-line address syntax: a string containing ['/'] is a socket
    path, all digits is a port on 127.0.0.1, ["HOST:PORT"] is TCP, and
    anything else (including [""]) is an error. *)

val address_to_string : address -> string

type config = {
  address : address;
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
  metrics_addr : address option;
      (** when set, a second listener serving the metrics registry as
          Prometheus text over minimal HTTP — any request answers one
          [200 text/plain] scrape and closes.  [None] (the default)
          binds nothing; the [stats]/[stats/prom] protocol verbs remain
          available either way *)
}

val default_config : address -> config
(** 4 fast workers (queue 64), 2 hard workers (queue 32, 10s anytime
    deadline), default timeout 30s, jobs 1, no metrics listener. *)

type t

val start : ?engine:Res_engine.Batch.t -> config -> t
(** Binds, listens and spawns the accept thread; returns immediately.
    [engine] defaults to a fresh cached engine.
    @raise Unix.Unix_error when the address cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown as described above.  Idempotent; a concurrent
    caller blocks until the shutdown completes.  Safe to call from a
    connection thread (the [shutdown] protocol command does). *)

val wait : t -> unit
(** Block until the server has fully stopped. *)

val metrics : t -> Metrics.t
val engine : t -> Res_engine.Batch.t

val bind_listener : address -> Unix.file_descr
(** Bind (but not listen) a socket for this address, replacing a stale
    Unix-socket file.  Exposed for the shard router, which fronts the
    same addresses with its own accept loop.
    @raise Unix.Unix_error when the address cannot be bound. *)

val src : Logs.src
(** The ["resilience.server"] log source: lifecycle events at info,
    per-request lines at debug. *)
