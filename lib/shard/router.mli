(** The consistent-hash router: one process fronting a fleet of shard
    servers over the ordinary {!Res_server.Protocol}.

    Requests are routed by the {e canonical} query key ({!Res_engine.Canon}),
    so every member of a renaming/mirror class lands on the same shard
    and warms the same cache.  Batches and binary bulk frames
    scatter-gather: instances are grouped by owning shard, sub-requests
    run on their shards concurrently with other clients, and the items
    are reassembled in input order.

    Failure handling, per shard:
    - {e retries with backoff} — a failed forward is retried on the same
      shard, then fails over along the ring's {!Ring.successors} order.
      Failover is sound because shards are stateless below their caches:
      any shard computes the same answer, the moved keys just warm a
      different cache.
    - {e circuit breaker} — [breaker_threshold] consecutive failures
      open the breaker for [breaker_cooldown_ms]; an open breaker is
      skipped by the retry plan (no connect timeout paid per request)
      and re-probed by the health thread, which closes it on a
      successful ping.
    - {e busy passes through} — a [busy lane=...] reply is load
      shedding, not failure; it is returned to the client verbatim and
      neither trips the breaker nor fails over (the successor would
      melt too).

    Watch sessions live on the shard that registered them: the router
    allocates fleet-global watch ids and pins each to its shard, so
    [watch delta]/[close] follow.  A watch dies with its shard — the
    one stateful exception to transparent failover, documented in
    DESIGN.md §15.

    [ping], [stats] and [stats/prom] answer locally ([stats] reports the
    router's own registry: per-shard outcomes, failovers, breaker
    states).  [shutdown] stops the router {e and} forwards a [shutdown]
    to every reachable shard — one verb takes the whole fleet down. *)

type config = {
  address : Res_server.Net.address;  (** where the router listens *)
  shards : Res_server.Net.address list;
  replicas : int;  (** virtual points per shard on the ring *)
  retries : int;  (** attempts on the owning shard before failing over *)
  backoff_ms : int;  (** base backoff, doubled per attempt *)
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  health_period_ms : int;  (** health-ping cadence; [<= 0] disables *)
}

val default_config :
  address:Res_server.Net.address -> shards:Res_server.Net.address list -> config
(** 128 replicas, 2 retries, 50ms backoff, breaker threshold 3,
    cooldown 1000ms, health period 500ms. *)

type t

val start : config -> t
(** @raise Invalid_argument on an empty shard list.
    @raise Unix.Unix_error when the address cannot be bound. *)

val stop : t -> unit
val wait : t -> unit
val metrics : t -> Res_server.Metrics.t

val route_key : t -> string -> Res_server.Net.address option
(** Where this canonical key currently routes (diagnostics). *)

val routing_key : Res_engine.Query_memo.t -> string -> string
(** The ring key of a ["QUERY | FACTS"] body (or bare query): the
    canonical {!Res_engine.Canon} key when the query parses, the trimmed
    query text otherwise.  Exposed so a client given the fleet directly
    ([--fleet]) picks the same shard the router would.  A query already
    in [memo] is not canonicalized again; the router routes through its
    own memo and reports its misses as the [router.canon_misses] gauge. *)
