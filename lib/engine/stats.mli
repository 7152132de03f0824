(** Engine instrumentation: cache hit/miss counters and per-phase time,
    surfaced as a {!Fmt} report and through {!Logs}.

    Phase times are wall-clock seconds ([Unix.gettimeofday], the clock of
    the server's latency histograms), summed over calls.  They are not
    CPU time: [Sys.time] is process-wide, so under server threads or
    executor domains it would also count every other thread's work.
    Concurrent calls therefore add up their overlapping wall times. *)

type t = {
  mutable instances : int;  (** instances pushed through the engine *)
  mutable canon_hits : int;
      (** query-memo hits: a query seen before, its canonical key and
          renaming reused without canonicalizing *)
  mutable canon_misses : int;  (** canonicalizations ({!Canon.keyed} calls) *)
  mutable classify_hits : int;  (** class-cache hits: verdict and plan reused *)
  mutable classify_misses : int;
      (** classes built: the canonical query parsed, classified and planned *)
  mutable solve_hits : int;
  mutable solve_misses : int;
  mutable solve_timeouts : int;
      (** bounded solves whose deadline fired before the search finished;
          these are never cached *)
  mutable resp_hits : int;  (** responsibility cache hits *)
  mutable resp_misses : int;
  mutable canon_time : float;  (** seconds spent computing canonical keys (memo misses) *)
  mutable digest_time : float;  (** seconds spent translating + digesting databases *)
  mutable classify_time : float;
      (** seconds spent classifying and planning classes (misses only) *)
  mutable solve_time : float;  (** seconds spent in the solvers (misses only) *)
  mutable resp_time : float;
      (** seconds spent computing responsibility (misses only) *)
}

val create : unit -> t
val reset : t -> unit

val canon_hit_rate : t -> float
val classify_hit_rate : t -> float
val solve_hit_rate : t -> float
val resp_hit_rate : t -> float
val total_time : t -> float

val pp : Format.formatter -> t -> unit
(** Multi-line engine report (counters, hit rates, per-phase timings). *)

val log_summary : t -> unit
(** Emit a one-line summary at [Logs.Info] level on the
    ["resilience.engine"] source. *)

val src : Logs.src
