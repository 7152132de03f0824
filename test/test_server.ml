(* The service layer: metrics registry, line protocol, worker pool,
   cooperative-cancellation soundness, and a concurrent flood of a live
   server over a Unix-domain socket (the PR's acceptance scenario). *)

open Res_db
module Cancel = Resilience.Cancel
module Metrics = Res_server.Metrics
module Protocol = Res_server.Protocol
module Pool = Res_server.Pool
module Server = Res_server.Server

let qp = Res_cq.Parser.query

(* --- metrics registry ---------------------------------------------------- *)

let metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests.solve.ok" in
  Metrics.inc c;
  Metrics.inc c ~by:3;
  Alcotest.(check int) "incremented" 4 (Metrics.counter_value c);
  (* registering the same name returns the same instrument *)
  let c' = Metrics.counter m "requests.solve.ok" in
  Metrics.inc c';
  Alcotest.(check int) "shared" 5 (Metrics.counter_value c);
  Alcotest.(check (list (pair string string)))
    "rendered" [ ("requests.solve.ok", "5") ] (Metrics.render m)

let metrics_gauges () =
  let m = Metrics.create () in
  let v = ref 1.5 in
  Metrics.gauge m "queue.depth" (fun () -> !v);
  Alcotest.(check (list (pair string string)))
    "sampled at render time" [ ("queue.depth", "1.5") ] (Metrics.render m);
  v := 42.0;
  Alcotest.(check (list (pair string string)))
    "re-sampled" [ ("queue.depth", "42") ] (Metrics.render m)

let metrics_histograms () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[ 0.01; 0.1 ] m "latency" in
  Metrics.observe h 0.005;
  Metrics.observe h 0.05;
  Metrics.observe h 3.0;
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  let kvs = Metrics.render m in
  let get k = List.assoc k kvs in
  Alcotest.(check string) "first bucket" "1" (get "latency.le_0.01");
  Alcotest.(check string) "second bucket" "1" (get "latency.le_0.1");
  Alcotest.(check string) "overflow bucket" "1" (get "latency.le_inf");
  Alcotest.(check string) "count key" "3" (get "latency.count");
  (* 5 + 50 + 3000 ms *)
  Alcotest.(check string) "sum in ms" "3055.0" (get "latency.sum_ms")

let metrics_render_sorted () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "b");
  Metrics.inc (Metrics.counter m "a");
  Metrics.gauge m "c" (fun () -> 0.0);
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b"; "c" ]
    (List.map fst (Metrics.render m))

let metrics_concurrent () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" in
  let threads =
    List.init 8 (fun _ -> Thread.create (fun () -> for _ = 1 to 1000 do Metrics.inc c done) ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no lost increments" 8000 (Metrics.counter_value c)

(* --- line protocol ------------------------------------------------------- *)

let req = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<request>") ( = )

let parse_ok line expected () =
  match Protocol.parse line with
  | Ok r -> Alcotest.check req line expected r
  | Error msg -> Alcotest.failf "%S should parse, got: %s" line msg

let parse_err line () =
  match Protocol.parse line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%S should be rejected" line

let protocol_responses () =
  let f1 = Database.fact "R" [ Value.i 1; Value.i 2 ] in
  let f2 = Database.fact "R" [ Value.i 3; Value.i 3 ] in
  Alcotest.(check string) "solution" "ok rho=2 set={R(1,2); R(3,3)}"
    (Protocol.solution ~cached:false (Resilience.Solution.Finite (2, [ f1; f2 ])));
  Alcotest.(check string) "cached suffix" "ok rho=0 set={} cached"
    (Protocol.solution ~cached:true (Resilience.Solution.Finite (0, [])));
  Alcotest.(check string) "unbreakable" "ok unbreakable"
    (Protocol.solution ~cached:false Resilience.Solution.Unbreakable);
  let module I = Res_bounds.Interval in
  Alcotest.(check string) "timeout with interval" "timeout bound=7 lb=3 gap=4"
    (Protocol.timeout (I.of_bounds ~lb:3 ~ub:(Some 7) ()));
  Alcotest.(check string) "timeout with tight interval" "timeout bound=7 lb=7 gap=0"
    (Protocol.timeout (I.of_bounds ~lb:7 ~ub:(Some 7) ()));
  Alcotest.(check string) "timeout without bound" "timeout bound=none lb=0 gap=inf"
    (Protocol.timeout (I.lower_only 0));
  Alcotest.(check string) "error is one line" "error a b"
    (Protocol.error "a\nb");
  Alcotest.(check string) "batch timeout item" "timeout:2..5"
    (Protocol.batch_item (Res_engine.Batch.Timed_out (I.of_bounds ~lb:2 ~ub:(Some 5) ())));
  Alcotest.(check string) "batch timeout item, lb only" "timeout:1.."
    (Protocol.batch_item (Res_engine.Batch.Timed_out (I.lower_only 1)));
  Alcotest.(check string) "batch timeout item, nothing known" "timeout"
    (Protocol.batch_item (Res_engine.Batch.Timed_out (I.lower_only 0)));
  Alcotest.(check string) "stats line" "ok a=1 b=2"
    (Protocol.stats_line [ ("a", "1"); ("b", "2") ])

(* --- worker pool --------------------------------------------------------- *)

let pool_runs_jobs () =
  let pool = Pool.create ~workers:3 ~capacity:32 in
  let hits = Atomic.make 0 in
  for _ = 1 to 20 do
    Alcotest.(check bool) "admitted" true
      (Pool.submit pool (fun () -> Atomic.incr hits))
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran before shutdown returned" 20 (Atomic.get hits)

let pool_backpressure () =
  let pool = Pool.create ~workers:1 ~capacity:2 in
  let release = Mutex.create () in
  let sync = Mutex.create () in
  let started_cond = Condition.create () in
  let started = ref false in
  Mutex.lock release;
  (* park the only worker so the queue can fill *)
  let parked =
    Pool.submit pool (fun () ->
        Mutex.lock sync;
        started := true;
        Condition.signal started_cond;
        Mutex.unlock sync;
        Mutex.lock release;
        Mutex.unlock release)
  in
  Alcotest.(check bool) "worker parked" true parked;
  (* block until the worker has actually picked the job up — condition
     wait, not a Thread.yield spin (no burnt cycles, no scheduler luck) *)
  Mutex.lock sync;
  while not !started do
    Condition.wait started_cond sync
  done;
  Mutex.unlock sync;
  Alcotest.(check bool) "queue slot 1" true (Pool.submit pool ignore);
  Alcotest.(check bool) "queue slot 2" true (Pool.submit pool ignore);
  Alcotest.(check bool) "full: refused" false (Pool.submit pool ignore);
  Alcotest.(check int) "depth" 2 (Pool.depth pool);
  Mutex.unlock release;
  Pool.shutdown pool;
  Alcotest.(check bool) "after shutdown: refused" false (Pool.submit pool ignore)

let pool_job_exception_survives () =
  let pool = Pool.create ~workers:1 ~capacity:8 in
  let ok = ref false in
  ignore (Pool.submit pool (fun () -> failwith "job bug"));
  ignore (Pool.submit pool (fun () -> ok := true));
  Pool.shutdown pool;
  Alcotest.(check bool) "worker survived the raising job" true !ok

(* --- cancellation tokens ------------------------------------------------- *)

let cancel_steps () =
  let t = Cancel.of_steps 5 in
  for i = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "poll %d live" i) false (Cancel.cancelled t)
  done;
  Alcotest.(check bool) "budget exhausted" true (Cancel.cancelled t);
  Alcotest.(check bool) "sticky" true (Cancel.cancelled t)

let cancel_flag_and_all () =
  let flag = ref false in
  let t = Cancel.all [ Cancel.never; Cancel.of_flag flag ] in
  Alcotest.(check bool) "live" false (Cancel.cancelled t);
  flag := true;
  Alcotest.(check bool) "fires through [all]" true (Cancel.cancelled t);
  Alcotest.check Alcotest.unit "guard raises" ()
    (try Cancel.guard t; Alcotest.fail "guard must raise" with Cancel.Cancelled -> ())

(* --- soundness of interrupted searches ----------------------------------- *)

(* Reused from the robustness suite: arbitrary small queries with
   self-joins and random exogenous marks. *)
let random_query st =
  let vars = [| "x"; "y"; "z"; "w"; "u" |] in
  let rels = [| ("R", 2); ("S", 2); ("A", 1); ("B", 1); ("W", 3) |] in
  let n_atoms = 1 + Random.State.int st 4 in
  let atoms =
    List.init n_atoms (fun _ ->
        let rel, ar = rels.(Random.State.int st 5) in
        Res_cq.Atom.make rel (List.init ar (fun _ -> vars.(Random.State.int st 5))))
  in
  let exo = if Random.State.bool st then [] else [ fst rels.(Random.State.int st 5) ] in
  Res_cq.Query.make ~exo atoms

(* The acceptance property: a cancelled exact solve's partial answer is
   always a certified interval — the carried set is a genuine contingency
   set of size ub, and the certified lower bound really lower-bounds ρ:
   lb ≤ ρ ≤ ub, cross-checked against the uninterrupted run on the same
   instance. *)
let prop_interrupted_bound_sound =
  QCheck.Test.make ~count:120 ~name:"cancelled exact solve yields a sound certified interval"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 60))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed; 23 |] in
      let q = random_query st in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:6 q in
      match Resilience.Exact.resilience_bounded ~cancel:(Cancel.of_steps steps) db q with
      | Resilience.Exact.Complete s ->
        (* finishing under a step budget must give the exact answer *)
        Resilience.Solution.equal_value s (Resilience.Exact.resilience db q)
      | Resilience.Exact.Interrupted { incumbent = Resilience.Solution.Finite (ub, set); lb } ->
        List.length set = ub
        && lb <= ub
        && Resilience.Exact.is_contingency_set db q set
        && (match Resilience.Exact.value db q with
           | Some rho -> lb <= rho && rho <= ub
           | None -> false)
      | Resilience.Exact.Interrupted { incumbent = Resilience.Solution.Unbreakable; _ } -> false)

(* Same property through the component-splitting front end: the timeout
   interval must bracket the true minimum over components. *)
let prop_solver_bounded_sound =
  QCheck.Test.make ~count:120 ~name:"solve_bounded timeout interval brackets rho"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed; 31 |] in
      let q = random_query st in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:6 q in
      match Resilience.Solver.solve_bounded ~cancel:(Cancel.of_steps steps) db q with
      | Resilience.Solver.Done (s, _) ->
        Resilience.Solution.equal_value s (Resilience.Solver.solve db q)
      | Resilience.Solver.Timeout iv -> begin
        let module I = Res_bounds.Interval in
        I.valid iv
        &&
        match I.ub iv with
        | None ->
          (* only a lower bound: it must not exceed the true answer *)
          (match Resilience.Solver.value db q with
          | Some rho -> I.lb iv <= rho
          | None -> true)
        | Some ub ->
          Resilience.Exact.is_contingency_set db q (I.witness_set iv)
          && (match Resilience.Solver.value db q with
             | Some rho -> I.lb iv <= rho && rho <= ub
             | None -> false)
      end)

(* Deterministic gadget version: interrupt the search on a 3SAT chain
   gadget at growing step budgets — the incumbent must stay sound and
   can only improve. *)
let gadget_interruption_monotone () =
  let f = Res_sat.Cnf.make ~n_vars:4 [ [ 1; 2; 3 ]; [ -1; -2; 4 ]; [ -3; -4; 1 ]; [ 2; -4; -1 ] ] in
  let inst = Resilience.Reductions.sat3_to_chain f in
  let exact =
    match Resilience.Exact.value inst.db inst.query with
    | Some v -> v
    | None -> Alcotest.fail "gadget instances are breakable"
  in
  let last = ref max_int in
  List.iter
    (fun steps ->
      match
        Resilience.Exact.resilience_bounded ~cancel:(Cancel.of_steps steps) inst.db inst.query
      with
      | Resilience.Exact.Complete (Resilience.Solution.Finite (v, _)) ->
        Alcotest.(check int) "complete = exact" exact v;
        last := v
      | Resilience.Exact.Complete Resilience.Solution.Unbreakable ->
        Alcotest.fail "gadget instances are breakable"
      | Resilience.Exact.Interrupted { incumbent = Resilience.Solution.Finite (ub, set); lb } ->
        Alcotest.(check bool) "sound" true (exact <= ub);
        Alcotest.(check bool) "lower bound certified" true (lb <= exact);
        Alcotest.(check bool) "genuine contingency set" true
          (Resilience.Exact.is_contingency_set inst.db inst.query set);
        Alcotest.(check bool) "incumbent never degrades" true (ub <= !last);
        last := ub
      | Resilience.Exact.Interrupted { incumbent = Resilience.Solution.Unbreakable; _ } ->
        Alcotest.fail "interruption never reports unbreakable")
    [ 1; 10; 100; 1_000; 10_000; 1_000_000_000 ]

(* The deadline covers the greedy cover's local-search polish too: a step
   budget the polish alone exhausts stops the solve before its first
   branch node, and the polished-so-far cover still brackets ρ. *)
let polish_stops_at_the_token () =
  let db = Db_gen.random_graph ~seed:2 ~nodes:20 ~edges:60 ~rel:"R" in
  let q = Res_cq.Parser.query "R(x,y), R(y,z)" in
  let rho = Option.get (Resilience.Exact.value db q) in
  Resilience.Exact.reset_stats ();
  match Resilience.Exact.resilience_bounded ~cancel:(Cancel.of_steps 20) db q with
  | Resilience.Exact.Interrupted { incumbent = Resilience.Solution.Finite (ub, set); lb } ->
    Alcotest.(check int) "no branch node expanded" 0 (Resilience.Exact.last_stats ()).nodes;
    Alcotest.(check bool) "lb <= rho <= ub" true (lb <= rho && rho <= ub);
    Alcotest.(check bool) "genuine contingency set" true
      (List.length set = ub && Resilience.Exact.is_contingency_set db q set)
  | _ -> Alcotest.fail "a 20-step budget must interrupt the solve"

(* --- a live server over a Unix socket ------------------------------------ *)

open Sock

let server_basics () =
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd, ic, oc = connect path in
  Alcotest.(check string) "ping" "ok pong" (request ic oc "ping");
  Alcotest.(check string) "classify"
    "ok NP-complete: 2-chain (Props 29/30/38)"
    (request ic oc "classify R(x,y), R(y,z)");
  Alcotest.(check string) "solve" "ok rho=2 set={R(1,2); R(3,3)}"
    (request ic oc "solve R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)");
  Alcotest.(check string) "second solve hits the cache" "ok rho=2 set={R(1,2); R(3,3)} cached"
    (request ic oc "solve R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)");
  Alcotest.(check string) "batch" "ok rho=1 ;; unbreakable"
    (request ic oc "batch A(x), R(x,y) | A(1); R(1,2) ;; R^x(x,y) | R(1,1)");
  Alcotest.(check bool) "malformed request answered, not dropped" true
    (starts_with "error" (request ic oc "frobnicate the database"));
  Alcotest.(check bool) "parse error in solve" true
    (starts_with "error" (request ic oc "solve R(x | R(1,2)"));
  Alcotest.(check bool) "stats" true (starts_with "ok " (request ic oc "stats"));
  Alcotest.(check string) "quit" "ok bye" (request ic oc "quit");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop server;
  Server.wait server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* Admission canonicalizes each distinct query once: identical solves,
   a resp and a classify of one query cost one canonicalization between
   them (the [engine.canon_*] gauges), and a relation-renamed copy costs
   one more — then hits the solve cache of its class. *)
let one_canon_per_query () =
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd, ic, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  let gauge name =
    String.split_on_char ' ' (request ic oc "stats")
    |> List.find_map (fun kv ->
           match String.split_on_char '=' kv with
           | [ k; v ] when k = name -> Some (int_of_string v)
           | _ -> None)
    |> Option.get
  in
  let n = 5 in
  for i = 1 to n do
    Alcotest.(check string) "solve"
      ("ok rho=1 set={A(1)}" ^ if i > 1 then " cached" else "")
      (request ic oc "solve A(x), R(x,y), R(y,x) | A(1); R(1,2); R(2,1)")
  done;
  Alcotest.(check bool) "resp" true
    (starts_with "ok " (request ic oc "resp R(1,2) | A(x), R(x,y), R(y,x) | A(1); R(1,2); R(2,1)"));
  Alcotest.(check bool) "classify" true
    (starts_with "ok PTIME" (request ic oc "classify A(x), R(x,y), R(y,x)"));
  Alcotest.(check int) "one canonicalization" 1 (gauge "engine.canon_misses");
  Alcotest.(check int) "every other admission a memo hit" (n + 1) (gauge "engine.canon_hits");
  Alcotest.(check string) "renamed copy served from its class's cache entry"
    "ok rho=1 set={B(1)} cached"
    (request ic oc "solve B(x), S(x,y), S(y,x) | B(1); S(1,2); S(2,1)");
  Alcotest.(check int) "the renamed copy costs one more" 2 (gauge "engine.canon_misses");
  Alcotest.(check int) "still one class" 1 (gauge "engine.classify_misses")

(* A dense random 2-chain instance: the query class is NP-complete
   (Props 29/30/38) and at this density the branch-and-bound runs for
   tens of seconds uninterrupted — any [ok] answer before the deadline
   would mean the deadline was not enforced. *)
let hard_body =
  lazy
    (let db = Db_gen.random_graph ~seed:42 ~nodes:30 ~edges:400 ~rel:"R" in
     let facts =
       Database.facts db
       |> List.map (Format.asprintf "%a" Database.pp_fact)
       |> String.concat "; "
     in
     "R(x,y), R(y,z) | " ^ facts)

let flood () =
  let path = temp_socket_path () in
  let config =
    { (Server.default_config (Net.Unix_socket path)) with workers = 4; queue_capacity = 64 }
  in
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let hard = Lazy.force hard_body in
  let hard_timeout_ms = 300 in
  (* The grace covers more than the cancellation probe interval: systhreads
     share one runtime lock, so the 4 workers' CPU-bound searches serialize
     and a request's wall time includes every concurrently-admitted solve's
     remaining budget.  Uninterrupted, one hard instance alone runs for tens
     of seconds — staying an order of magnitude under that is what proves
     the deadline is enforced. *)
  let grace = 8.0 in
  let n_clients = 8 in
  let hard_per_client = 2 in
  (* per client: ping, classify, 3 easy solves, 2 hard solves, 1 batch,
     1 malformed — 9 requests *)
  let requests_per_client = 7 + hard_per_client in
  let failures = Array.make n_clients [] in
  let client i () =
    let note fmt = Printf.ksprintf (fun m -> failures.(i) <- m :: failures.(i)) fmt in
    try
      let fd, ic, oc = connect path in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      if request ic oc "ping" <> "ok pong" then note "bad ping reply";
      if not (starts_with "ok " (request ic oc "classify R(x,y), R(y,x)")) then
        note "bad classify reply";
      for k = 0 to 2 do
        let r =
          request ic oc
            (Printf.sprintf "solve R(x,y), R(y,z) | R(1,2); R(2,3); R(3,%d)" (3 + ((i + k) mod 2)))
        in
        if not (starts_with "ok rho=" r) then note "bad easy solve reply: %s" r
      done;
      for _ = 1 to hard_per_client do
        let t0 = Unix.gettimeofday () in
        let r = request ic oc (Printf.sprintf "solve timeout=%d %s" hard_timeout_ms hard) in
        let elapsed = Unix.gettimeofday () -. t0 in
        if not (starts_with "timeout bound=" r) then
          note "hard request did not time out: %s" (String.sub r 0 (min 60 (String.length r)));
        if elapsed > (float_of_int hard_timeout_ms /. 1000.) +. grace then
          note "hard request exceeded deadline + grace: %.2fs" elapsed
      done;
      if not (starts_with "ok " (request ic oc "batch A(x) | A(1) ;; A(x) | A(2)")) then
        note "bad batch reply";
      if not (starts_with "error" (request ic oc "bogus request")) then
        note "malformed request not rejected"
    with e -> note "client crashed: %s" (Printexc.to_string e)
  in
  let threads = List.init n_clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i msgs ->
      List.iter (fun m -> Alcotest.failf "client %d: %s" i m) (List.rev msgs))
    failures;
  (* the server survived the flood: it still answers, and its counters
     are consistent with what was sent *)
  let fd, ic, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let stats = request ic oc "stats" in
  Alcotest.(check bool) "stats after flood" true (starts_with "ok " stats);
  let kvs =
    String.split_on_char ' ' stats
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some j ->
             Some (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
           | None -> None)
  in
  let requests_total =
    List.fold_left
      (fun acc (k, v) -> if starts_with "requests." k then acc + int_of_string v else acc)
      0 kvs
  in
  (* every client request plus this stats request was counted exactly once *)
  Alcotest.(check int) "request counters consistent"
    ((n_clients * requests_per_client) + 1)
    requests_total;
  let timeouts = try int_of_string (List.assoc "requests.solve.timeout" kvs) with Not_found -> 0 in
  Alcotest.(check int) "every hard request timed out" (n_clients * hard_per_client) timeouts;
  Alcotest.(check bool) "latency histogram observed every request" true
    (try int_of_string (List.assoc "latency.request.count" kvs) >= n_clients * requests_per_client
     with Not_found -> false)

(* Graceful shutdown drains live watch sessions: after [stop], no watcher
   is leaked — [watchers.active] reads 0 and the drain is accounted. *)
let shutdown_drains_watchers () =
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  let fd, ic, oc = connect path in
  Alcotest.(check bool) "watch registered" true
    (starts_with "ok watch=1 " (request ic oc "watch register R(x,y), R(y,x) | R(1,2); R(2,1)"));
  Alcotest.(check bool) "second watch registered" true
    (starts_with "ok watch=2 " (request ic oc "watch register A(x), R(x,y) | A(1); R(1,2)"));
  Server.stop server;
  Server.wait server;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  ignore ic;
  ignore oc;
  let kvs = Metrics.render (Server.metrics server) in
  Alcotest.(check (option string)) "no watcher survives stop" (Some "0")
    (List.assoc_opt "watchers.active" kvs);
  Alcotest.(check (option string)) "the drain is accounted" (Some "2")
    (List.assoc_opt "watchers.drained" kvs)

let protocol_shutdown () =
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  let fd, ic, oc = connect path in
  Alcotest.(check string) "shutdown acknowledged" "ok shutting down" (request ic oc "shutdown");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.wait server;
  (* idempotent *)
  Server.stop server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A lane job that raises must still answer.  The engine's solve-cache
   listener is the path a failing persistence write takes; here it always
   raises.  The request gets one [error internal: ...] reply and the
   connection keeps serving: the raising solve did insert its answer
   before the listener ran, so the repeat is a cache hit.  The receive
   timeout turns a swallowed reply into a test failure instead of a hang
   (the server is then left running: stopping it would join the stuck
   connection thread). *)
let raising_listener_replies () =
  let path = temp_socket_path () in
  let engine = Res_engine.Batch.create () in
  Res_engine.Batch.on_solve_insert engine (fun _ _ -> failwith "persist: disk full");
  let server =
    Server.start ~engine { (Server.default_config (Net.Unix_socket path)) with workers = 2 }
  in
  let fd, ic, oc = connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let answer line =
    match request ic oc line with
    | reply -> reply
    | exception (Sys_blocked_io | Sys_error _ | End_of_file | Unix.Unix_error _) ->
      Alcotest.failf "no reply to %S within 10 s" line
  in
  let solve = "solve R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)" in
  let reply = answer solve in
  Alcotest.(check bool)
    ("internal error reported: " ^ reply)
    true
    (starts_with "error internal: " reply);
  Alcotest.(check string) "next request answered" "ok rho=2 set={R(1,2); R(3,3)} cached"
    (answer solve);
  (* the binary bulk path submits through the same guard *)
  let module Frame = Res_server.Frame in
  let inst = List.hd (Res_engine.Batch.parse_instances "A(x), R(x,y) | A(1); R(1,2)") in
  Frame.write_frame oc (Frame.encode_request (Frame.Bulk { timeout_ms = None; instances = [ inst ] }));
  (match Frame.read_frame ic with
  | Ok payload -> (
    match Frame.decode_reply payload with
    | Ok (Frame.Error msg) ->
      Alcotest.(check bool) ("bulk internal error: " ^ msg) true (starts_with "internal: " msg)
    | _ -> Alcotest.fail "bulk: expected an error reply")
  | Error msg -> Alcotest.failf "bulk: bad frame: %s" msg
  | exception (Sys_blocked_io | Sys_error _ | End_of_file | Unix.Unix_error _) ->
    Alcotest.fail "no bulk reply within 10 s");
  Alcotest.(check string) "connection still serves" "ok pong" (answer "ping");
  let kvs = Metrics.render (Server.metrics server) in
  Alcotest.(check (option string)) "internal error counted" (Some "1")
    (List.assoc_opt "requests.solve.internal_error" kvs);
  Alcotest.(check (option string)) "bulk internal error counted" (Some "1")
    (List.assoc_opt "requests.bulk.internal_error" kvs);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop server;
  Server.wait server

(* A relation used with two arities is a parse error on every verb that
   takes a query, through the server and through a router in front of
   it; the connection answers and keeps serving. *)
let mixed_arity_replies () =
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  let router_path = temp_socket_path () in
  let router =
    Res_shard.Router.start
      {
        (Res_shard.Router.default_config ~address:(Net.Unix_socket router_path)
           ~shards:[ Net.Unix_socket path ])
        with
        health_period_ms = 0;
      }
  in
  Fun.protect ~finally:(fun () ->
      Res_shard.Router.stop router;
      Server.stop server)
  @@ fun () ->
  List.iter
    (fun target ->
      let fd, ic, oc = connect target in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      List.iter
        (fun line ->
          let reply = request ic oc line in
          Alcotest.(check bool) (line ^ " -> " ^ reply) true (starts_with "error " reply);
          Alcotest.(check string) ("ping after " ^ line) "ok pong" (request ic oc "ping"))
        [
          "classify R(x), R(x,y)";
          "solve R(x), R(x,y) | R(1,2)";
          "batch A(x) | A(1) ;; R(x), R(x,y) | R(1,2)";
          "resp R(1,2) | R(x), R(x,y) | R(1,2)";
          "watch register R(x), R(x,y) | R(1,2)";
        ];
      Unix.close fd)
    [ path; router_path ]

(* A start that fails late (here: the metrics listener cannot bind)
   releases the main socket it had already bound. *)
let failed_start_releases () =
  let path = temp_socket_path () in
  let cfg =
    {
      (Server.default_config (Net.Unix_socket path)) with
      metrics_addr = Some (Net.Unix_socket "/nonexistent-dir/m.sock");
    }
  in
  (match Server.start cfg with
  | server ->
    Server.stop server;
    Alcotest.fail "start succeeded without its metrics listener"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Alcotest.(check bool) "connect refused" true
    (match Net.connect (Net.Unix_socket path) with
    | c ->
      Net.close c;
      false
    | exception Unix.Unix_error _ -> true)

(* A live server keeps its socket path; a stale file is still replaced. *)
let live_socket_refused () =
  let path = temp_socket_path () in
  let cfg = { (Server.default_config (Net.Unix_socket path)) with workers = 1; hard_workers = 1 } in
  let first = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop first) @@ fun () ->
  (match Server.start cfg with
  | second ->
    Server.stop second;
    Alcotest.fail "a second server took over a live socket"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  let fd, ic, oc = connect path in
  Alcotest.(check string) "the first server still answers" "ok pong" (request ic oc "ping");
  Unix.close fd;
  let stale = temp_socket_path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let server = Server.start { cfg with address = Net.Unix_socket stale } in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd, ic, oc = connect stale in
  Alcotest.(check string) "a stale file is replaced" "ok pong" (request ic oc "ping");
  Unix.close fd

(* --- the shared socket front end ----------------------------------------- *)

let net_latency () = Metrics.histogram (Metrics.create ()) "latency.request"

let net_raising_handler () =
  let path = temp_socket_path () in
  let l = Net.listen (Net.Unix_socket path) in
  let handler =
    {
      Net.line = (function "boom" -> failwith "kaboom" | _ -> Net.Reply "ok pong");
      frame = (fun _ -> failwith "frame kaboom");
      finish = ignore;
    }
  in
  Net.serve l ~drain:ignore (Net.lines ~latency:(net_latency ()) (fun () -> handler));
  Fun.protect ~finally:(fun () -> Net.stop l) @@ fun () ->
  let fd, ic, oc = connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Alcotest.(check string) "a raising handler answers" "error internal: Failure(\"kaboom\")"
    (request ic oc "boom");
  let module Frame = Res_server.Frame in
  Frame.write_frame oc (Frame.encode_request (Frame.Bulk { timeout_ms = None; instances = [] }));
  (match Result.bind (Frame.read_frame ic) Frame.decode_reply with
  | Ok (Frame.Error msg) ->
    Alcotest.(check string) "so does a raising frame handler" "internal: Failure(\"frame kaboom\")" msg
  | _ -> Alcotest.fail "expected an error frame");
  Alcotest.(check string) "the connection keeps serving" "ok pong" (request ic oc "ping");
  Unix.close fd

(* [shutdown] makes a connection thread lead the stop; a second caller
   that arrives while the drain runs returns only once it finished. *)
let net_stop_from_connection () =
  let path = temp_socket_path () in
  let l = Net.listen (Net.Unix_socket path) in
  let m = Mutex.create () and c = Condition.create () in
  let draining = ref false and drained = ref false in
  let drain () =
    Mutex.protect m (fun () ->
        draining := true;
        Condition.broadcast c);
    Thread.delay 0.2;
    drained := true
  in
  let handler = { Net.line = (fun _ -> Net.Shutdown "ok bye"); frame = Fun.const ""; finish = ignore } in
  Net.serve l ~drain (Net.lines ~latency:(net_latency ()) (fun () -> handler));
  let fd, ic, oc = connect path in
  Alcotest.(check string) "the reply comes before the stop" "ok bye" (request ic oc "shutdown");
  Mutex.lock m;
  while not !draining do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Net.stop l;
  Alcotest.(check bool) "the second caller waited for the drain" true !drained;
  Alcotest.(check bool) "not running" false (Net.running l);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Net.stop l;
  Net.wait l;
  Unix.close fd

(* One address syntax for --metrics-addr, --fleet, --shard and the router:
   a '/' makes a path, so "./m:9" is a socket and not host "./m". *)
let address_syntax () =
  let show = function
    | Ok (Net.Unix_socket p) -> "unix " ^ p
    | Ok (Net.Tcp (h, p)) -> Printf.sprintf "tcp %s %d" h p
    | Error _ -> "error"
  in
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string) input expect (show (Net.address_of_string input)))
    [
      ("", "error");
      ("9100", "tcp 127.0.0.1 9100");
      ("h:9", "tcp h 9");
      ("./m:9", "unix ./m:9");
      ("m.sock", "error");
    ]

(* Responsibility keeps its deadline.  On this NP-hard 2-chain instance
   the uncancelled responsibility of the self-loop R(4,4) runs for tens
   of seconds; [resp timeout=200] must still answer within the deadline
   plus slack — an answer or a certified [timeout bound=… lb=…] — and a
   following [shutdown] must stop the server. *)
let resp_keeps_deadline () =
  let db = Db_gen.random_graph ~seed:7 ~nodes:25 ~edges:90 ~rel:"R" in
  let facts = List.map (Format.asprintf "%a" Database.pp_fact) (Database.facts db) in
  let line = "resp timeout=200 R(4,4) | R(x,y), R(y,z) | " ^ String.concat "; " facts in
  let path = temp_socket_path () in
  let server = Server.start { (Server.default_config (Net.Unix_socket path)) with workers = 2 } in
  let fd, ic, oc = connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let t0 = Unix.gettimeofday () in
  let reply = request ic oc line in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    ("an answer or a certified timeout: " ^ reply)
    true
    (starts_with "ok responsibility=" reply
    || (starts_with "timeout bound=" reply && List.exists (starts_with "lb=") (String.split_on_char ' ' reply)));
  Alcotest.(check bool) (Printf.sprintf "replied after %.3f s" elapsed) true (elapsed < 1.5);
  Alcotest.(check string) "shutdown acknowledged" "ok shutting down" (request ic oc "shutdown");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.wait server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "metrics: counters" `Quick metrics_counters;
    Alcotest.test_case "metrics: gauges" `Quick metrics_gauges;
    Alcotest.test_case "metrics: histograms" `Quick metrics_histograms;
    Alcotest.test_case "metrics: render sorted" `Quick metrics_render_sorted;
    Alcotest.test_case "metrics: concurrent increments" `Quick metrics_concurrent;
    Alcotest.test_case "protocol: ping" `Quick (parse_ok "ping" Protocol.Ping);
    Alcotest.test_case "protocol: stats trimmed" `Quick (parse_ok "  stats  " Protocol.Stats);
    Alcotest.test_case "protocol: classify" `Quick
      (parse_ok "classify R(x,y), R(y,z)" (Protocol.Classify "R(x,y), R(y,z)"));
    Alcotest.test_case "protocol: solve with deadline" `Quick
      (parse_ok "solve timeout=250 Q | F"
         (Protocol.Solve { timeout_ms = Some 250; body = "Q | F" }));
    Alcotest.test_case "protocol: solve without deadline" `Quick
      (parse_ok "solve Q | F" (Protocol.Solve { timeout_ms = None; body = "Q | F" }));
    Alcotest.test_case "protocol: batch" `Quick
      (parse_ok "batch timeout=9 a | b ;; c | d"
         (Protocol.Batch { timeout_ms = Some 9; bodies = [ "a | b"; "c | d" ] }));
    Alcotest.test_case "protocol: unknown command" `Quick (parse_err "frobnicate");
    Alcotest.test_case "protocol: empty line" `Quick (parse_err "");
    Alcotest.test_case "protocol: bad timeout" `Quick (parse_err "solve timeout=abc Q | F");
    Alcotest.test_case "protocol: zero timeout" `Quick (parse_err "solve timeout=0 Q | F");
    Alcotest.test_case "protocol: solve without body" `Quick (parse_err "solve");
    Alcotest.test_case "protocol: batch with empty instance" `Quick (parse_err "batch a ;; ;; b");
    Alcotest.test_case "protocol: responses" `Quick protocol_responses;
    Alcotest.test_case "pool: runs all jobs" `Quick pool_runs_jobs;
    Alcotest.test_case "pool: backpressure" `Quick pool_backpressure;
    Alcotest.test_case "pool: job exception survives" `Quick pool_job_exception_survives;
    Alcotest.test_case "cancel: step budget" `Quick cancel_steps;
    Alcotest.test_case "cancel: flag and all" `Quick cancel_flag_and_all;
    QCheck_alcotest.to_alcotest prop_interrupted_bound_sound;
    QCheck_alcotest.to_alcotest prop_solver_bounded_sound;
    Alcotest.test_case "gadget: interruption monotone + sound" `Quick gadget_interruption_monotone;
    Alcotest.test_case "cancel: the token stops the cover polish" `Quick polish_stops_at_the_token;
    Alcotest.test_case "server: basics over a socket" `Quick server_basics;
    Alcotest.test_case "server: one canonicalization per distinct query" `Quick one_canon_per_query;
    Alcotest.test_case "server: concurrent flood with deadlines" `Slow flood;
    Alcotest.test_case "server: shutdown drains watchers" `Quick shutdown_drains_watchers;
    Alcotest.test_case "server: protocol shutdown" `Quick protocol_shutdown;
    Alcotest.test_case "server: raising lane job still replies" `Quick raising_listener_replies;
    Alcotest.test_case "server: mixed-arity query answered" `Quick mixed_arity_replies;
    Alcotest.test_case "server: failed start releases its socket" `Quick failed_start_releases;
    Alcotest.test_case "server: live socket path refused" `Quick live_socket_refused;
    Alcotest.test_case "net: raising handler keeps the connection" `Quick net_raising_handler;
    Alcotest.test_case "net: stop from a connection thread" `Quick net_stop_from_connection;
    Alcotest.test_case "address: command-line syntax" `Quick address_syntax;
    Alcotest.test_case "server: resp keeps its deadline" `Quick resp_keeps_deadline;
  ]
