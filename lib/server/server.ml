let src = Logs.Src.create "resilience.server" ~doc:"Resilience service layer"

module Log = (val Logs.src_log src : Logs.LOG)

module Obs = Res_obs.Obs

type config = {
  address : Net.address;
  workers : int;
  queue_capacity : int;
  hard_workers : int;
  hard_queue : int;
  hard_timeout_ms : int option;
  default_timeout_ms : int option;
  jobs : int;
  metrics_addr : Net.address option;
}

let default_config address =
  {
    address;
    workers = 4;
    queue_capacity = 64;
    hard_workers = 2;
    hard_queue = 32;
    hard_timeout_ms = Some 10_000;
    default_timeout_ms = Some 30_000;
    jobs = 1;
    metrics_addr = None;
  }

(* A one-shot synchronization cell: the connection thread blocks on
   [read] while the worker [fill]s the response, preserving one-request-
   at-a-time ordering per connection.  The first fill wins; [fill]
   reports whether it was the one. *)
module Ivar = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  let fill t x =
    Mutex.protect t.m (fun () ->
        t.v = None
        && begin
             t.v <- Some x;
             Condition.signal t.c;
             true
           end)

  let read t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let x = Option.get t.v in
    Mutex.unlock t.m;
    x
end

type t = {
  cfg : config;
  engine : Res_engine.Batch.t;
  metrics : Metrics.t;
  lanes : Lanes.t;
  exec : Res_exec.Executor.t option;
      (* the multicore substrate, shared by every worker thread's solves
         when [cfg.jobs > 1]; [None] keeps solving single-domain *)
  listener : Net.t;
  metrics_listener : Net.t option;  (* the Prometheus scrape endpoint *)
  stop_flag : bool ref;
  latency : Metrics.histogram;
  solve_latency : Metrics.histogram;
      (* solve/batch time on the worker, excluding queueing and I/O —
         the series dashboards alert on *)
  resp_latency : Metrics.histogram;
      (* responsibility time on the worker (v6) *)
  gap : Metrics.histogram;
      (* certified gap (ub - lb) of timed-out solves; infinite gaps (no
         finite upper bound) land in the implicit +∞ bucket *)
  watch_latency : Metrics.histogram;
      (* whole watch-batch time on the worker *)
  watch_delta_latency : Metrics.histogram;
      (* the same time amortized per delta of the batch — the number the
         streaming tier's ≥10x-vs-from-scratch claim is made on *)
  watchers : (int, watcher) Hashtbl.t;
  watchers_lock : Mutex.t;
  mutable next_watch : int;
}

(* A registered streaming session.  [m] serializes delta batches aimed at
   the same watcher (they may arrive from several connections); distinct
   watchers proceed in parallel on the worker pool.  [lane] is fixed at
   registration from the query's verdict: every delta of a PTIME watch
   rides the fast lane, every delta of a hard one pays the hard queue. *)
and watcher = {
  watch_id : int;
  m : Mutex.t;
  session : Res_inc.Session.t;
  lane : Lanes.lane;
}

let metrics t = t.metrics
let engine t = t.engine

let count t kind outcome =
  Metrics.inc (Metrics.counter t.metrics (Printf.sprintf "requests.%s.%s" kind outcome))

let now () = Unix.gettimeofday ()

(* --- request execution -------------------------------------------------- *)

let cancel_for t deadline =
  let stop = Resilience.Cancel.of_flag t.stop_flag in
  match deadline with
  | None -> stop
  | Some d -> Resilience.Cancel.all [ stop; Resilience.Cancel.of_deadline d ]

(* Hard-lane requests always get a deadline: even when the server-wide
   default is [None], a hard request without [timeout=MS] is bounded by
   [hard_timeout_ms], so the hard lane is {e anytime} — a queued NP-hard
   solve answers with a certified [lb ≤ ρ ≤ ub] interval rather than
   occupying a worker forever. *)
let deadline_of t ?lane timeout_ms =
  let default =
    match (t.cfg.default_timeout_ms, lane) with
    | (Some _ as s), _ -> s
    | None, Some Lanes.Hard -> t.cfg.hard_timeout_ms
    | None, _ -> None
  in
  let ms = match timeout_ms with Some _ as s -> s | None -> default in
  Option.map (fun ms -> now () +. (float_of_int ms /. 1000.)) ms

(* Classify-first admission: each instance's query is prepared here, on
   the connection thread before any queue slot is consumed — a memoized
   lookup of its canonical key and class, so microseconds for a query
   seen before.  The lane is the instances' joint verdict, and the
   prepared queries travel with the job: the worker neither
   canonicalizes nor plans again. *)
let lane_for t instances =
  let admitted =
    List.map
      (fun (inst : Res_engine.Batch.instance) -> (inst, Res_engine.Batch.prepare t.engine inst.query))
      instances
  in
  (Lanes.lane_of_verdicts (List.map (fun (_, p) -> Res_engine.Batch.verdict p) admitted), admitted)

let expired deadline = match deadline with Some d -> now () >= d | None -> false

let observe_gap t iv =
  match Res_bounds.Interval.gap iv with
  | Some g -> Metrics.observe t.gap (float_of_int g)
  | None -> Metrics.observe t.gap infinity

let solve_one t ~cancel ~deadline ((inst : Res_engine.Batch.instance), prepared) =
  let outcome =
    if expired deadline then Res_engine.Batch.Timed_out (Res_bounds.Interval.lower_only 0)
    else Res_engine.Batch.solve_prepared t.engine ~cancel ?pool:t.exec inst.db prepared
  in
  (match outcome with
  | Res_engine.Batch.Timed_out iv -> observe_gap t iv
  | Res_engine.Batch.Solved _ -> ());
  outcome

(* Parse errors are caught on the connection thread (before a queue slot
   is consumed); this runs on a worker. *)
let run_solve t ~kind ~deadline instances fill =
  Obs.span ~cat:"server" "solve" @@ fun () ->
  let t0 = now () in
  let fill reply =
    Metrics.observe t.solve_latency (now () -. t0);
    fill reply
  in
  let cancel = cancel_for t deadline in
  match (kind, instances) with
  | "solve", inst :: _ -> begin
    match solve_one t ~cancel ~deadline inst with
    | Res_engine.Batch.Solved (sol, cached) ->
      count t "solve" "ok";
      fill (Protocol.solution ~cached sol)
    | Res_engine.Batch.Timed_out iv ->
      count t "solve" "timeout";
      fill (Protocol.timeout iv)
  end
  | _, instances ->
    (* batch items are independent: with an executor they fan out across
       its domains (the per-item deadline/cancel semantics are those of
       the sequential loop — every item still answers) *)
    let solve_all =
      match t.exec with
      | Some exec when Res_exec.Executor.jobs exec > 1 ->
        Res_exec.Executor.parallel_map exec
      | _ -> List.map
    in
    let outcomes = solve_all (fun inst -> solve_one t ~cancel ~deadline inst) instances in
    let any_timeout =
      List.exists (function Res_engine.Batch.Timed_out _ -> true | _ -> false) outcomes
    in
    count t kind (if any_timeout then "timeout" else "ok");
    fill (Protocol.ok (String.concat " ;; " (List.map Protocol.batch_item outcomes)))

(* Every lane job goes through here, and every admitted job answers
   exactly once: an exception escaping the job fills the reply with
   [error "internal: <exn>"] instead of leaving the connection blocked on
   the ivar.  [busy] and [error] encode the shed and internal-error
   replies for the wire format at hand (text lines by default). *)
let submit_lane ?(busy = Fun.id) ?(error = Protocol.error) t ~kind ~lane job =
  let ivar = Ivar.create () in
  let run () =
    try job (fun reply -> ignore (Ivar.fill ivar reply))
    with exn ->
      let msg = Printexc.to_string exn in
      Log.err (fun m -> m "%s job raised: %s" kind msg);
      if Ivar.fill ivar (error ("internal: " ^ msg)) then count t kind "internal_error"
  in
  match Lanes.submit t.lanes lane run with
  | Lanes.Queued -> Ivar.read ivar
  | Lanes.Busy { depth; capacity } ->
    count t kind "rejected";
    Metrics.inc (Metrics.counter t.metrics ("lane." ^ Lanes.lane_name lane ^ ".shed"));
    busy (Protocol.busy ~lane:(Lanes.lane_name lane) ~depth ~capacity)

let submit_solve t ~kind ~timeout_ms body_lines =
  match
    List.concat_map (fun body -> Res_engine.Batch.parse_instances body) body_lines
  with
  | exception Res_engine.Batch.Parse_error msg ->
    count t kind "error";
    Protocol.error msg
  | [] ->
    count t kind "error";
    Protocol.error "no instance given"
  | instances ->
    let lane, admitted = lane_for t instances in
    let deadline = deadline_of t ~lane timeout_ms in
    submit_lane t ~kind ~lane (fun fill -> run_solve t ~kind ~deadline admitted fill)

(* The responsibility verb (v6): one fact against one instance.  Same
   classify-first admission and the same deadline semantics as solve: a
   request whose deadline fired in the queue, or mid-search, answers
   [timeout] with the bounds reached so far. *)
let run_resp t ~deadline ((inst : Res_engine.Batch.instance), prepared) fact fill =
  Obs.span ~cat:"server" "resp" @@ fun () ->
  let t0 = now () in
  let outcome =
    if expired deadline then
      (Resilience.Responsibility.Interrupted (Res_bounds.Interval.lower_only 0), false)
    else
      Res_engine.Batch.responsibility_prepared t.engine ~cancel:(cancel_for t deadline)
        ?pool:t.exec inst.db prepared fact
  in
  Metrics.observe t.resp_latency (now () -. t0);
  match outcome with
  | Resilience.Responsibility.Complete r, cached ->
    count t "resp" "ok";
    fill (Protocol.resp_reply ~cached r)
  | Resilience.Responsibility.Interrupted iv, _ ->
    count t "resp" "timeout";
    fill (Protocol.timeout iv)

let submit_resp t ~timeout_ms ~fact_s body =
  match Res_engine.Batch.parse_instances body with
  | exception Res_engine.Batch.Parse_error msg ->
    count t "resp" "error";
    Protocol.error msg
  | [ inst ] -> begin
    match Res_db.Fact_syntax.fact fact_s with
    | exception Res_db.Fact_syntax.Parse_error msg ->
      count t "resp" "error";
      Protocol.error ("fact: " ^ msg)
    | fact ->
      let lane, admitted = lane_for t [ inst ] in
      let deadline = deadline_of t ~lane timeout_ms in
      submit_lane t ~kind:"resp" ~lane (fun fill -> run_resp t ~deadline (List.hd admitted) fact fill)
  end
  | _ ->
    count t "resp" "error";
    Protocol.error "resp: exactly one \"QUERY | FACTS\" instance expected"

(* The binary bulk path: same engine, same lanes, same deadline
   semantics — only the wire format differs.  The reply is a frame
   payload, built here and written by the connection thread. *)
let run_bulk t ~deadline instances fill =
  Obs.span ~cat:"server" "bulk" @@ fun () ->
  let t0 = now () in
  let cancel = cancel_for t deadline in
  let solve_all =
    match t.exec with
    | Some exec when Res_exec.Executor.jobs exec > 1 -> Res_exec.Executor.parallel_map exec
    | _ -> List.map
  in
  let outcomes = solve_all (fun inst -> solve_one t ~cancel ~deadline inst) instances in
  let items =
    List.map
      (function
        | Res_engine.Batch.Solved (Resilience.Solution.Unbreakable, _) -> Frame.Unbreakable
        | Res_engine.Batch.Solved (Resilience.Solution.Finite (v, _), cached) ->
          Frame.Solved { rho = v; cached }
        | Res_engine.Batch.Timed_out iv ->
          Frame.Timeout
            { lb = Res_bounds.Interval.lb iv; ub = Res_bounds.Interval.ub iv })
      outcomes
  in
  let any_timeout = List.exists (function Frame.Timeout _ -> true | _ -> false) items in
  count t "bulk" (if any_timeout then "timeout" else "ok");
  Metrics.observe t.solve_latency (now () -. t0);
  fill (Frame.encode_reply (Frame.Items items))

let execute_frame t request =
  match Result.bind request Frame.decode_request with
  | Error msg ->
    count t "bulk" "error";
    Frame.encode_reply (Frame.Error msg)
  | Ok (Frame.Bulk { timeout_ms; instances = [] }) ->
    ignore timeout_ms;
    count t "bulk" "error";
    Frame.encode_reply (Frame.Error "bulk: no instance given")
  | Ok (Frame.Bulk { timeout_ms; instances }) ->
    let lane, admitted = lane_for t instances in
    let deadline = deadline_of t ~lane timeout_ms in
    let frame_error msg = Frame.encode_reply (Frame.Error msg) in
    submit_lane ~busy:frame_error ~error:frame_error t ~kind:"bulk" ~lane (fun fill ->
        run_bulk t ~deadline admitted fill)

(* --- the streaming (watch) tier ----------------------------------------- *)

let find_watcher t id =
  Mutex.protect t.watchers_lock (fun () -> Hashtbl.find_opt t.watchers id)

let run_watch_register t ~lane ~deadline (inst : Res_engine.Batch.instance) fill =
  Obs.span ~cat:"server" "watch.register" @@ fun () ->
  let cancel = cancel_for t deadline in
  match Res_inc.Session.create ~cancel ?pool:t.exec inst.db inst.query with
  | exception Resilience.Cancel.Cancelled ->
    count t "watch_register" "timeout";
    fill (Protocol.error "watch register: deadline fired while building the session")
  | session ->
    let w =
      Mutex.protect t.watchers_lock (fun () ->
          let id = t.next_watch in
          t.next_watch <- id + 1;
          let w = { watch_id = id; m = Mutex.create (); session; lane } in
          Hashtbl.replace t.watchers id w;
          w)
    in
    count t "watch_register" "ok";
    fill (Protocol.watch_reply ~id:w.watch_id session (Res_inc.Session.last session))

let run_watch_delta t ~deadline (w : watcher) deltas fill =
  Obs.span ~cat:"server" "watch.delta" @@ fun () ->
  let cancel = cancel_for t deadline in
  let t0 = now () in
  let result =
    Mutex.protect w.m (fun () -> Res_inc.Session.apply ~cancel ?pool:t.exec w.session deltas)
  in
  let dt = now () -. t0 in
  Metrics.observe t.watch_latency dt;
  Metrics.observe t.watch_delta_latency (dt /. float_of_int (max 1 (List.length deltas)));
  count t "watch_delta" (match result with Res_inc.Session.Value _ -> "ok" | _ -> "timeout");
  fill (Protocol.watch_reply ~id:w.watch_id w.session result)

let submit_watch t ~kind ~lane ~timeout_ms job =
  let deadline = deadline_of t ~lane timeout_ms in
  submit_lane t ~kind ~lane (fun fill -> job ~deadline fill)

let watch_register t ~timeout_ms body =
  match Res_engine.Batch.parse_instances body with
  | exception Res_engine.Batch.Parse_error msg ->
    count t "watch_register" "error";
    Protocol.error msg
  | [ inst ] ->
    (* the session plans in the user's vocabulary; admission fixes its lane *)
    let lane, _ = lane_for t [ inst ] in
    submit_watch t ~kind:"watch_register" ~lane ~timeout_ms (fun ~deadline fill ->
        run_watch_register t ~lane ~deadline inst fill)
  | _ ->
    count t "watch_register" "error";
    Protocol.error "watch register: exactly one \"QUERY | FACTS\" instance expected"

let watch_delta t ~timeout_ms id deltas_s =
  match Res_db.Delta.parse deltas_s with
  | exception Res_db.Fact_syntax.Parse_error msg ->
    count t "watch_delta" "error";
    Protocol.error ("deltas: " ^ msg)
  | deltas -> begin
    match find_watcher t id with
    | None ->
      count t "watch_delta" "error";
      Protocol.error (Printf.sprintf "no such watch id %d" id)
    | Some w ->
      submit_watch t ~kind:"watch_delta" ~lane:w.lane ~timeout_ms (fun ~deadline fill ->
          run_watch_delta t ~deadline w deltas fill)
  end

let watch_close t id =
  let found =
    Mutex.protect t.watchers_lock (fun () ->
        if Hashtbl.mem t.watchers id then begin
          Hashtbl.remove t.watchers id;
          true
        end
        else false)
  in
  if found then begin
    count t "watch_close" "ok";
    Protocol.watch_closed ~id
  end
  else begin
    count t "watch_close" "error";
    Protocol.error (Printf.sprintf "no such watch id %d" id)
  end

let stats_reply t =
  Protocol.stats_line
    (("protocol.version", string_of_int Protocol.version) :: Metrics.render t.metrics)

let execute t line =
  match Obs.span ~cat:"server" "parse" (fun () -> Protocol.parse line) with
  | Error msg ->
    count t "invalid" "error";
    Net.Reply (Protocol.error msg)
  | Ok Protocol.Ping ->
    count t "ping" "ok";
    Net.Reply (Protocol.ok "pong")
  | Ok Protocol.Stats ->
    count t "stats" "ok";
    Net.Reply (stats_reply t)
  | Ok Protocol.Stats_prom ->
    count t "stats_prom" "ok";
    Net.Reply (Protocol.prom_reply (Metrics.render_prometheus t.metrics))
  | Ok (Protocol.Classify q_s) -> begin
    match Res_cq.Parser.query_opt q_s with
    | Error msg ->
      count t "classify" "error";
      Net.Reply (Protocol.error ("query: " ^ msg))
    | Ok q ->
      let verdict = Res_engine.Batch.classify t.engine q in
      count t "classify" "ok";
      Net.Reply (Protocol.ok (Resilience.Classify.verdict_to_string verdict))
  end
  | Ok (Protocol.Solve { timeout_ms; body }) ->
    Net.Reply (submit_solve t ~kind:"solve" ~timeout_ms [ body ])
  | Ok (Protocol.Resp { timeout_ms; fact; body }) ->
    Net.Reply (submit_resp t ~timeout_ms ~fact_s:fact body)
  | Ok (Protocol.Batch { timeout_ms; bodies }) ->
    Net.Reply (submit_solve t ~kind:"batch" ~timeout_ms bodies)
  | Ok (Protocol.Watch_register { timeout_ms; body }) ->
    Net.Reply (watch_register t ~timeout_ms body)
  | Ok (Protocol.Watch_delta { timeout_ms; id; deltas }) ->
    Net.Reply (watch_delta t ~timeout_ms id deltas)
  | Ok (Protocol.Watch_close id) -> Net.Reply (watch_close t id)
  | Ok Protocol.Quit ->
    count t "quit" "ok";
    Net.Close (Protocol.ok "bye")
  | Ok Protocol.Shutdown ->
    count t "shutdown" "ok";
    Net.Shutdown (Protocol.ok "shutting down")

(* --- lifecycle ----------------------------------------------------------- *)

(* The server's part of {!Net.stop}, run once the listener is closed and
   every connection's read side is shut. *)
let drain t =
  Log.info (fun m -> m "stopping: draining in-flight work");
  (* cooperative cancellation of every in-flight solve; their clients
     still receive a [timeout] answer *)
  t.stop_flag := true;
  Option.iter Net.stop t.metrics_listener;
  (* drain the queues, join the workers, then retire the executor's
     domains (no solve can be in flight once the lanes are down) *)
  Lanes.shutdown t.lanes;
  Option.iter Res_exec.Executor.shutdown t.exec;
  (* every watch session dies with the server that owns it: drop them
     now (after the lanes drained, so no delta job can still hold one)
     and account for the drain — [watchers.active] reads 0 from here
     on, and [watchers.drained] records how many were retired *)
  let drained =
    Mutex.protect t.watchers_lock (fun () ->
        let n = Hashtbl.length t.watchers in
        Hashtbl.reset t.watchers;
        n)
  in
  if drained > 0 then Metrics.inc ~by:drained (Metrics.counter t.metrics "watchers.drained")

let stop t = Net.stop t.listener
let wait t = Net.wait t.listener

(* A deliberately minimal HTTP/1.0 responder for Prometheus scrapes:
   whatever the request head says, the answer is one 200 with the
   current exposition text and the connection closes. *)
let scrape t _ (c : Net.conn) =
  if Obs.enabled () then Obs.instant ~cat:"server" "scrape";
  (* read (a chunk of) the request head and ignore it *)
  ignore (Unix.read c.fd (Bytes.create 2048) 0 2048);
  let body = Metrics.render_prometheus t.metrics in
  Printf.fprintf c.oc
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body;
  flush c.oc

let register_engine_gauges metrics (engine : Res_engine.Batch.t) =
  let s = Res_engine.Batch.stats engine in
  let g name f = Metrics.gauge metrics name f in
  g "engine.canon_hits" (fun () -> float_of_int s.Res_engine.Stats.canon_hits);
  g "engine.canon_misses" (fun () -> float_of_int s.Res_engine.Stats.canon_misses);
  g "engine.classify_hits" (fun () -> float_of_int s.Res_engine.Stats.classify_hits);
  g "engine.classify_misses" (fun () -> float_of_int s.Res_engine.Stats.classify_misses);
  g "engine.solve_hits" (fun () -> float_of_int s.Res_engine.Stats.solve_hits);
  g "engine.solve_misses" (fun () -> float_of_int s.Res_engine.Stats.solve_misses);
  g "engine.solve_timeouts" (fun () -> float_of_int s.Res_engine.Stats.solve_timeouts);
  g "engine.solve_hit_rate" (fun () -> Res_engine.Stats.solve_hit_rate s);
  g "engine.classify_hit_rate" (fun () -> Res_engine.Stats.classify_hit_rate s);
  g "engine.resp_hits" (fun () -> float_of_int s.Res_engine.Stats.resp_hits);
  g "engine.resp_misses" (fun () -> float_of_int s.Res_engine.Stats.resp_misses);
  g "engine.resp_hit_rate" (fun () -> Res_engine.Stats.resp_hit_rate s)

let register_executor_gauges metrics =
  let g name pick =
    Metrics.gauge metrics name (fun () ->
        float_of_int (pick (Res_exec.Executor.stats ())))
  in
  g "executor.tasks_run" (fun s -> s.Res_exec.Executor.tasks_run);
  g "executor.steals" (fun s -> s.Res_exec.Executor.steals);
  g "executor.parks" (fun s -> s.Res_exec.Executor.parks)

let start ?engine:(eng = Res_engine.Batch.create ()) cfg =
  (* whatever is acquired is released again when a later step fails: a
     failed start leaves no socket bound and no worker running *)
  let acquired = ref [] in
  let hold release x =
    acquired := (fun () -> release x) :: !acquired;
    x
  in
  match
    let listener = hold Net.stop (Net.listen ~cat:"server" cfg.address) in
    let metrics_listener = Option.map (fun a -> hold Net.stop (Net.listen a)) cfg.metrics_addr in
    let lanes =
      hold Lanes.shutdown
        (Lanes.create ~fast_workers:cfg.workers ~fast_capacity:cfg.queue_capacity
           ~hard_workers:cfg.hard_workers ~hard_capacity:cfg.hard_queue)
    in
    let exec =
      if cfg.jobs > 1 then
        Some (hold Res_exec.Executor.shutdown (Res_exec.Executor.create ~jobs:cfg.jobs ()))
      else None
    in
    let metrics = Metrics.create () in
    {
      cfg;
      engine = eng;
      metrics;
      lanes;
      exec;
      listener;
      metrics_listener;
      stop_flag = ref false;
      latency = Metrics.histogram metrics "latency.request";
      solve_latency = Metrics.histogram metrics "latency.solve";
      resp_latency = Metrics.histogram metrics "latency.resp";
      gap =
        Metrics.histogram
          ~buckets:[ 0.; 1.; 2.; 3.; 5.; 8.; 13.; 21. ]
          metrics "solve.gap";
      watch_latency = Metrics.histogram metrics "latency.watch";
      watch_delta_latency = Metrics.histogram metrics "latency.watch_delta";
      watchers = Hashtbl.create 16;
      watchers_lock = Mutex.create ();
      next_watch = 1;
    }
  with
  | exception e ->
    List.iter (fun release -> release ()) !acquired;
    raise e
  | t ->
    let metrics = t.metrics and lanes = t.lanes in
    Metrics.gauge metrics "watchers.active" (fun () ->
        float_of_int (Mutex.protect t.watchers_lock (fun () -> Hashtbl.length t.watchers)));
    (* [queue.*] keeps its pre-lane meaning (the fast/general queue) so
       existing dashboards survive; the per-lane series are new in v5 *)
    Metrics.gauge metrics "queue.depth" (fun () -> float_of_int (Lanes.depth lanes Lanes.Fast));
    Metrics.gauge metrics "queue.running" (fun () ->
        float_of_int (Lanes.running lanes Lanes.Fast));
    Metrics.gauge metrics "lane.fast.depth" (fun () ->
        float_of_int (Lanes.depth lanes Lanes.Fast));
    Metrics.gauge metrics "lane.fast.running" (fun () ->
        float_of_int (Lanes.running lanes Lanes.Fast));
    Metrics.gauge metrics "lane.hard.depth" (fun () ->
        float_of_int (Lanes.depth lanes Lanes.Hard));
    Metrics.gauge metrics "lane.hard.running" (fun () ->
        float_of_int (Lanes.running lanes Lanes.Hard));
    Metrics.gauge metrics "connections.active" (fun () -> float_of_int (Net.active t.listener));
    register_engine_gauges metrics eng;
    register_executor_gauges metrics;
    Option.iter (fun l -> Net.serve l ~drain:ignore (scrape t)) t.metrics_listener;
    Option.iter
      (fun a ->
        Log.info (fun m ->
            m "metrics scrape endpoint on %s"
              (match a with
              | Net.Tcp (h, p) -> Printf.sprintf "http://%s:%d/metrics" h p
              | a -> Net.address_to_string a)))
      cfg.metrics_addr;
    let handler = { Net.line = execute t; frame = execute_frame t; finish = ignore } in
    Net.serve t.listener ~drain:(fun () -> drain t) (Net.lines ~latency:t.latency (fun () -> handler));
    Log.info (fun m ->
        m "listening on %s (fast lane %d workers/queue %d, hard lane %d/%d, jobs %d, default timeout %s)"
          (Net.address_to_string cfg.address)
          cfg.workers cfg.queue_capacity cfg.hard_workers cfg.hard_queue
          (max 1 cfg.jobs)
          (match cfg.default_timeout_ms with Some ms -> Printf.sprintf "%dms" ms | None -> "none"));
    t
