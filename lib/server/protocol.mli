(** The line protocol of the resilience service.

    Requests and responses are single LF-terminated lines of UTF-8 text.
    Requests:
    {v
      ping
      classify QUERY
      solve [timeout=MS] QUERY | FACTS
      resp [timeout=MS] FACT | QUERY | FACTS
      batch [timeout=MS] QUERY | FACTS ;; QUERY | FACTS ;; ...
      watch register [timeout=MS] QUERY | FACTS
      watch delta [timeout=MS] ID DELTAS
      watch close ID
      stats
      stats/prom
      quit
      shutdown
    v}

    Responses start with a status word:
    {v
      ok <payload>
      timeout bound=<N|none> lb=<M> gap=<G|inf>
      error <message>
    v}

    [solve] answers [ok rho=N set={f1; f2; ...}] or [ok unbreakable];
    when its deadline fires first it answers with a {e certified
    interval}: [bound] is the best sound upper bound the interrupted
    search had established (ρ ≤ bound; [none] when no contingency set
    was reached), [lb] its certified lower bound (lb ≤ ρ, from the
    LP/packing certificate), and [gap = bound - lb] ([inf] when no
    finite upper bound exists).  [batch] answers one [ok] line with
    [;;]-separated per-instance results ([rho=N], [unbreakable], or on
    timeout [timeout], [timeout:LB..] and [timeout:LB..UB] — the
    certified bracket) sharing a single deadline.  [stats] answers the
    metrics registry as space-separated [key=value] pairs.  [quit]
    closes the connection; [shutdown] additionally stops the whole
    server gracefully.

    {b The one multi-line response.}  [stats/prom] answers the metrics
    registry in Prometheus text exposition format: several lines,
    terminated by a line that is exactly [# EOF] ({!prom_terminator}).
    Clients issuing [stats/prom] must read until that line; every other
    response remains a single line.

    {b The streaming tier (v4).}  [watch register] parses one instance,
    builds an incremental session ({!Res_inc.Session}) and answers
    [ok watch=ID rho=N set={...} version=V fp=X] (or [unbreakable], or —
    when a deadline interrupted a hard component — [interval lb=M ub=N]).
    [watch delta ID DELTAS] applies a [;]-separated batch of signed facts
    ([+R(1, 2); -S(3)]) to the session and answers the updated value in
    the same shape; [version] counts effective deltas and [fp] is the
    database content fingerprint, so a client can tell a no-op batch from
    a missed one.  [watch close ID] retires the session.  Watch ids are
    server-global: a session registered on one connection may be fed from
    another, and it survives its registering connection.

    {b Load shedding (v5).}  A request aimed at a saturated admission
    lane is answered [busy lane=<fast|hard> depth=N capacity=N
    retry-after-ms=MS] — the 429 of this protocol.  The request was not
    queued; the client should back off and retry.  Routers forward
    [busy] verbatim (shedding is intentional, not a shard failure).

    {b Responsibility (v6).}  [resp FACT | QUERY | FACTS] answers
    [ok responsibility=R contingency=K] with R = 1/(1+K) for the
    smallest contingency set under which FACT is a counterfactual cause
    of the query being true, or [responsibility=0.0000 contingency=none]
    when it is not a cause; a trailing [cached] marks an engine cache
    hit.  When its deadline fires first it answers the same [timeout]
    line as [solve], bracketing the contingency size K: [bound] is the
    best surviving witness finished so far, [lb] the certified bound
    without a survivor constraint.

    {b Versioning.}  This is protocol {!version} 6.  v1 timeout lines
    were exactly [timeout bound=<N|none>]; v2 appended [lb=]/[gap=]
    fields and refined batch timeout items from [timeout:N] to
    [timeout:LB..UB]; v3 added the [stats/prom] verb; v4 added the
    [watch] verbs; v5 added the [busy] response and the binary bulk
    framing of {!Frame}; v6 adds the [resp] verb (a new verb only —
    older clients are unaffected). *)

type request =
  | Ping
  | Classify of string  (** query text *)
  | Solve of { timeout_ms : int option; body : string }  (** ["QUERY | FACTS"] *)
  | Resp of { timeout_ms : int option; fact : string; body : string }
      (** [fact] is the fact text, [body] the usual ["QUERY | FACTS"] *)
  | Batch of { timeout_ms : int option; bodies : string list }
  | Watch_register of { timeout_ms : int option; body : string }
  | Watch_delta of { timeout_ms : int option; id : int; deltas : string }
  | Watch_close of int
  | Stats
  | Stats_prom
  | Quit
  | Shutdown

val parse : string -> (request, string) result
(** Never raises; malformed lines come back as [Error msg] ready to be
    wrapped in an [error] response. *)

val split_on_string : string -> string -> string list
(** [split_on_string sep s] cuts [s] at every occurrence of [sep]
    (the [;;] between batch items); [n] separators give [n + 1] parts. *)

val ok : string -> string
val error : string -> string

val busy : lane:string -> depth:int -> capacity:int -> string
(** The load-shedding reply: [busy lane=... depth=... capacity=...
    retry-after-ms=...]. *)

val version : int
(** The protocol generation this build speaks (6). *)

val prom_terminator : string
(** The line ("# EOF") ending a [stats/prom] reply. *)

val prom_reply : string -> string
(** Frame a Prometheus text payload as a [stats/prom] response:
    newline-terminate it if needed and append {!prom_terminator}. *)

val solution : cached:bool -> Resilience.Solution.t -> string
(** The [ok] response line for a completed solve. *)

val resp_reply : cached:bool -> int option -> string
(** The [ok responsibility=... contingency=...] line for a minimum
    contingency size ([None] = not a cause). *)

val timeout : Res_bounds.Interval.t -> string
(** The [timeout bound=... lb=... gap=...] response line for a certified
    interval. *)

val batch_item : Res_engine.Batch.solve_outcome -> string

val watch_reply : id:int -> Res_inc.Session.t -> Res_inc.Session.result -> string
(** [ok watch=ID <answer> version=V fp=X] — the current answer stamped
    with the session's database version and fingerprint. *)

val watch_closed : id:int -> string

val stats_line : (string * string) list -> string
