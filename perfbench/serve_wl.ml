(* The service workloads: two closed-loop connections (one per core of the
   reference box) from the bench process to a [resilience serve] child
   over a Unix socket, directly (serve_mix) or through a one-shard
   [resilience route] child (serve_routed).

   Each connection replays its own script of tiny requests (3–10 facts):
   ~60% hot reads — solve, resp and classify repeats of a fixed set of
   instances, including relation-renamed and mirrored copies, which the
   engine caches answer — ~30% cold solves of never-repeated databases,
   and ~10% [watch delta] writes to sessions registered during set-up. *)

open Res_cq
open Res_db
open Resilience
module P = Res_server.Protocol

type kind = Hit | Miss | Delta

let kind_name = function Hit -> "hit" | Miss -> "miss" | Delta -> "delta"

type variant = { vid : int; base : int; q : Query.t; db : Database.t; fact : Database.fact }

type session = {
  sq : Query.t;
  mutable dbs : Database.t list;  (* after each step, newest first *)
  mutable steps : Delta.t list list;  (* newest first *)
  mutable wid : int;
  mutable db_at : Database.t array;  (* db_at.(k): after k steps *)
  mutable step_at : Delta.t list array;  (* step_at.(k-1): the k-th batch *)
  mutable local : Res_inc.Session.t option;  (* in-process mirror, traced runs *)
}

type check =
  | Hot_solve of variant
  | Hot_resp of variant
  | Hot_classify of variant * Zoo.expected
  | Cold of Query.t * Database.t
  | Watch of session * int

type op = { kind : kind; mutable line : string; check : check }

type inputs = {
  bases : (Zoo.entry * Database.t * Database.fact) array;
  variants : variant array;
  sessions : session array array;  (* per connection *)
  scripts : op array array;  (* per connection *)
}

let conns = 2
let sessions_per_conn = 4

let watch_classes =
  [| "q_chain"; "q_perm"; "q_a_perm"; "q_ac_conf"; "q_triangle"; "q_vc"; "q_a_3perm"; "q_rats" |]

(* ---- input generation ---------------------------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let delta_text d =
  match d with
  | Delta.Insert f -> "+" ^ Inputs.fact_text f
  | Delta.Delete f -> "-" ^ Inputs.fact_text f

(* One batch of 1–2 deltas on distinct facts: deletions of present facts
   and insertions over the 4-value domain, so the database stays tiny. *)
let add_step st s =
  let db = List.hd s.dbs in
  let rels = Query.relations s.sq in
  let one () =
    let facts = Database.facts db in
    if facts <> [] && Random.State.bool st then Delta.delete (pick st facts)
    else
      let r = pick st rels in
      Delta.insert
        (Database.fact r (List.init (Query.arity_of s.sq r) (fun _ -> Value.i (Random.State.int st 4))))
  in
  let batch =
    List.init (1 + Random.State.int st 2) (fun _ -> one ())
    |> List.sort_uniq (fun a b -> compare (Delta.fact_of a) (Delta.fact_of b))
  in
  s.dbs <- Delta.apply_db db batch :: s.dbs;
  s.steps <- batch :: s.steps;
  List.length s.steps

let gen ~seed ~ops ~hot =
  let st = Inputs.rng seed 1 in
  let bases =
    Array.init hot (fun b ->
        let e = Inputs.zoo_entry b in
        let db = Inputs.tiny_db ~seed:((seed * 7919) + b) e.query in
        (e, db, pick st (Database.endogenous_facts db e.query)))
  in
  let variants =
    Array.init (4 * hot) (fun vid ->
        let base = vid / 4 in
        let (e : Zoo.entry), db, fact = bases.(base) in
        let q, db, fact =
          if vid mod 4 >= 2 then (Query_iso.mirror e.query, Solver.mirror_db db e.query, Inputs.mirror_fact e.query fact)
          else (e.query, db, fact)
        in
        if vid mod 2 = 1 then
          { vid; base; q = Inputs.rename_query "N" q; db = Inputs.rename_db "N" db; fact = Inputs.rename_fact "N" fact }
        else { vid; base; q; db; fact })
  in
  let sessions =
    Array.init conns (fun c ->
        Array.init sessions_per_conn (fun i ->
            let sid = (c * sessions_per_conn) + i in
            let q = (Zoo.find watch_classes.(sid mod Array.length watch_classes)).query in
            let db = Inputs.tiny_db ~seed:((seed * 31) + sid) q in
            { sq = q; dbs = [ db ]; steps = []; wid = -1; db_at = [||]; step_at = [||]; local = None }))
  in
  let scripts =
    Array.init conns (fun c ->
        let st = Inputs.rng seed (100 + c) in
        let script =
          Array.init ops (fun j ->
              let r = Random.State.int st 100 in
              if r < 60 then begin
                let v = variants.(Random.State.int st (Array.length variants)) in
                let e, _, _ = bases.(v.base) in
                if r < 25 then { kind = Hit; line = "solve " ^ Inputs.body_text v.q v.db; check = Hot_solve v }
                else if r < 45 then
                  { kind = Hit;
                    line = "resp " ^ Inputs.fact_text v.fact ^ " | " ^ Inputs.body_text v.q v.db;
                    check = Hot_resp v }
                else { kind = Hit; line = "classify " ^ Inputs.query_text v.q; check = Hot_classify (v, e.expected) }
              end
              else if r < 90 then begin
                let e = Inputs.zoo_entry (Random.State.int st (Array.length Inputs.serve_classes)) in
                let tiny = Inputs.tiny_db ~seed:(Random.State.bits st) e.query in
                (* fresh constants: a never-seen instance digest *)
                let db = Inputs.shift_db (4 * (1 + j + (c * 10_000_000))) tiny in
                { kind = Miss; line = "solve " ^ Inputs.body_text e.query db; check = Cold (e.query, db) }
              end
              else begin
                let s = sessions.(c).(Random.State.int st sessions_per_conn) in
                { kind = Delta; line = ""; check = Watch (s, add_step st s) }
              end)
        in
        Array.iter
          (fun s ->
            s.db_at <- Array.of_list (List.rev s.dbs);
            s.step_at <- Array.of_list (List.rev s.steps))
          sessions.(c);
        script)
  in
  { bases; variants; sessions; scripts }

(* ---- the service under test ------------------------------------------------ *)

type service = {
  server : int;
  router : int option;
  routed : bool;  (* clients go through the router *)
  target : string;  (* the socket clients use *)
  server_sock : string;
  router_sock : string;
  clients : Util.conn array;
}

(* Start the server, and a one-shard router in front of it when [router]:
   always for serve_routed, and in traced serve_mix runs, which send the
   hot reads through it a second time to measure the router hop. *)
let start ~cli ~dir ~routed ~router ~tag =
  let server_sock = Filename.concat dir (tag ^ "-s.sock") in
  let router_sock = Filename.concat dir (tag ^ "-r.sock") in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ server_sock; router_sock ];
  let log = Filename.concat dir (tag ^ ".log") in
  let server = Util.spawn ~log [| cli; "serve"; "--socket"; server_sock |] in
  Util.close (Util.connect_wait server_sock);
  let router =
    if router then Some (Util.spawn ~log [| cli; "route"; "--socket"; router_sock; "--shard"; server_sock |])
    else None
  in
  let target = if routed then router_sock else server_sock in
  let clients =
    Array.init conns (fun _ ->
        let c = Util.connect_wait target in
        if Util.request c "ping" <> "ok pong" then failwith "service did not answer ping";
        c)
  in
  { server; router; routed; target; server_sock; router_sock; clients }

let stop svc =
  Array.iter Util.close svc.clients;
  (* a router's shutdown stops its shard too *)
  (match Util.connect (if svc.router = None then svc.server_sock else svc.router_sock) with
  | Some c ->
    (try ignore (Util.request c "shutdown") with End_of_file | Sys_error _ -> ());
    Util.close c
  | None -> ());
  Option.iter (fun pid -> Util.reap pid) svc.router;
  Util.reap svc.server

(* Register every session on its connection and fill in the delta lines,
   then send every hot request once so the timed phase sees warm caches. *)
let prime svc inp =
  Array.iteri
    (fun c sessions ->
      Array.iter
        (fun s ->
          let reply = Util.request svc.clients.(c) ("watch register " ^ Inputs.body_text s.sq s.db_at.(0)) in
          match Option.bind (Util.field "watch" reply) int_of_string_opt with
          | Some id -> s.wid <- id
          | None -> failwith ("watch register failed: " ^ reply))
        sessions)
    inp.sessions;
  Array.iter
    (Array.iter (fun op ->
         match op.check with
         | Watch (s, k) ->
           op.line <-
             Printf.sprintf "watch delta %d %s" s.wid (String.concat "; " (List.map delta_text s.step_at.(k - 1)))
         | _ -> ()))
    inp.scripts;
  let seen = Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun op ->
         if op.kind = Hit && not (Hashtbl.mem seen op.line) then begin
           Hashtbl.replace seen op.line ();
           ignore (Util.request svc.clients.(0) op.line)
         end))
    inp.scripts

(* ---- answer checking ------------------------------------------------------ *)

let check inp done_ =
  let value = Hashtbl.create 256 and resp = Hashtbl.create 256 and memo = Hashtbl.create 4096 in
  let base_value b =
    match Hashtbl.find_opt value b with
    | Some v -> v
    | None ->
      let (e : Zoo.entry), db, _ = inp.bases.(b) in
      let v = Exact.value db e.query in
      Hashtbl.replace value b v;
      v
  in
  let base_resp b =
    match Hashtbl.find_opt resp b with
    | Some v -> v
    | None ->
      let (e : Zoo.entry), db, fact = inp.bases.(b) in
      let v = Oracle.min_contingency db e.query fact in
      Hashtbl.replace resp b v;
      v
  in
  let memoized key f =
    match Hashtbl.find_opt memo key with
    | Some ok -> ok
    | None ->
      let ok = f () in
      Hashtbl.replace memo key ok;
      ok
  in
  List.map
    (fun (op, reply) ->
      Report.classify_reply reply ~correct:(fun () ->
          match op.check with
          | Hot_solve v ->
            memoized (`Solve v.vid, reply) (fun () -> Oracle.check_solve_reply v.db v.q (base_value v.base) reply)
          | Hot_resp v -> Oracle.check_resp_reply (base_resp v.base) reply
          | Hot_classify (_, e) -> Oracle.check_classify_reply e reply
          | Cold (q, db) -> Oracle.check_solve_reply db q (Exact.value db q) reply
          | Watch (s, k) ->
            memoized (`Watch (s.wid, k), reply) (fun () -> Oracle.check_watch_reply s.db_at.(k) s.sq reply)))
    done_

(* ---- traced replay ---------------------------------------------------------- *)

(* In-process mirrors of what the server does for each request, through
   the same public functions, each under its layer's span. *)
type mirror = {
  solutions : Solution.t array;  (* per variant, for encoding hit replies *)
  resps : int option array;
  verdicts : string array;
}

(* Build the mirror and bring every local session up to the batches the
   server has applied (those of the ops done so far). *)
let mirror inp done_ =
  Array.iter
    (Array.iter (fun s -> s.local <- Some (Res_inc.Session.create s.db_at.(0) s.sq)))
    inp.sessions;
  List.iter
    (fun op ->
      match op.check with
      | Watch (s, k) -> Option.iter (fun l -> ignore (Res_inc.Session.apply l s.step_at.(k - 1))) s.local
      | _ -> ())
    done_;
  {
    solutions = Array.map (fun v -> Solver.solve v.db v.q) inp.variants;
    resps = Array.map (fun v -> Solver.min_contingency v.db v.q v.fact) inp.variants;
    verdicts = Array.map (fun v -> Classify.verdict_to_string (Classify.verdict_of v.q)) inp.variants;
  }

let parse_body tr body =
  let sp name f = Spans.span tr name f in
  let i = String.index body '|' in
  let q = sp "cq.parse" (fun () -> Parser.query (String.sub body 0 i)) in
  let db =
    sp "db.facts_parse" (fun () ->
        Database.of_facts (Fact_syntax.facts (String.sub body (i + 1) (String.length body - i - 1))))
  in
  (q, db)

(* Returns the number of witnesses counted (misses only). *)
let replay tr mir op =
  let sp name f = Spans.span tr name f in
  let canon q db = ignore (sp "engine.canon" (fun () -> Res_engine.Canon.(instance_digest (keyed q) q db))) in
  match (sp "server.parse" (fun () -> P.parse op.line), op.check) with
  | Ok (P.Solve { body; _ }), Hot_solve v ->
    let q, db = parse_body tr body in
    canon q db;
    ignore (sp "server.encode" (fun () -> P.solution ~cached:true mir.solutions.(v.vid)));
    0
  | Ok (P.Solve { body; _ }), _ ->
    let q, db = parse_body tr body in
    canon q db;
    ignore (sp "core.classify" (fun () -> Classify.classify q));
    ignore (sp "db.view" (fun () -> Eval.view db q));
    ignore (sp "db.reduce" (fun () -> Eval.reduce db q));
    let w = sp "db.witnesses" (fun () -> Eval.count db q) in
    let sol = sp "core.solve" (fun () -> Solver.solve db q) in
    ignore (sp "server.encode" (fun () -> P.solution ~cached:false sol));
    w
  | Ok (P.Resp { fact; body; _ }), Hot_resp v ->
    let q, db = parse_body tr body in
    let f = sp "db.facts_parse" (fun () -> Fact_syntax.fact fact) in
    ignore
      (sp "engine.canon" (fun () ->
           let k = Res_engine.Canon.keyed q in
           (Res_engine.Canon.instance_digest k q db, Res_engine.Canon.translate_fact k q f)));
    ignore (sp "server.encode" (fun () -> P.resp_reply ~cached:true mir.resps.(v.vid)));
    0
  | Ok (P.Classify text), Hot_classify (v, _) ->
    let q = sp "cq.parse" (fun () -> Parser.query text) in
    ignore (sp "engine.canon" (fun () -> Res_engine.Canon.key q));
    ignore (sp "server.encode" (fun () -> P.ok mir.verdicts.(v.vid)));
    0
  | Ok (P.Watch_delta { id; deltas; _ }), Watch (s, _) ->
    Option.iter
      (fun local ->
        let ds = sp "db.delta_parse" (fun () -> Delta.parse deltas) in
        let res = sp "inc.apply" (fun () -> Res_inc.Session.apply local ds) in
        ignore (sp "server.encode" (fun () -> P.watch_reply ~id local res)))
      s.local;
    0
  | _ -> 0

(* ---- the run ------------------------------------------------------------- *)

let stats_of svc =
  let c = Util.connect_wait svc.server_sock in
  let reply = Util.request c "stats" in
  Util.close c;
  fun key -> Option.value ~default:0 (Option.bind (Util.field key reply) int_of_string_opt)

(* The processes that serve the clients' requests. *)
let serving svc = svc.server :: (if svc.routed then Option.to_list svc.router else [])
let serving_cpu svc = List.fold_left (fun acc pid -> acc +. Util.proc_cpu_s pid) 0. (serving svc)

let median_ms xs = Util.median xs *. 1000.

let run ~cli ~dir ~routed ~seed ~seconds ~trace ~smoke =
  let ops = if smoke then 400 else int_of_float (seconds *. 4500.) in
  let hot = if smoke then 40 else 160 in
  let reps = if trace then 1 else 3 in
  let tag = if routed then "routed" else "mix" in
  (* set up [reps] times, keeping the last service; each set-up is timed
     from input generation to the end of the warm-up pass *)
  let setups =
    List.init reps (fun r ->
        Gc.compact ();
        let (inp, svc), dt =
          Util.time (fun () ->
              let inp = gen ~seed ~ops ~hot in
              let svc = start ~cli ~dir ~routed ~router:(routed || trace) ~tag:(Printf.sprintf "%s%d" tag r) in
              prime svc inp;
              (inp, svc))
        in
        if r < reps - 1 then stop svc;
        (inp, svc, dt))
  in
  let inp, svc, _ = List.nth setups (reps - 1) in
  let lat = Array.map (fun s -> Array.make (Array.length s) 0.) inp.scripts in
  let replies = Array.map (fun s -> Array.make (Array.length s) "") inp.scripts in
  let pos = Array.make conns 0 in
  (* Drive both connections closed-loop until [until] or until [share] of
     each script is done; [send c j op] performs one request and returns
     its reply. *)
  let phase ~until ~share send =
    let worker c =
      let script = inp.scripts.(c) in
      let limit = int_of_float (share *. float (Array.length script)) in
      let lost = ref false in
      while (not !lost) && pos.(c) < limit && Util.now () < until do
        let j = pos.(c) in
        let t0 = Util.now () in
        let reply =
          try send c j script.(j)
          with End_of_file | Sys_error _ | Unix.Unix_error _ ->
            lost := true;
            "error connection lost"
        in
        lat.(c).(j) <- Util.now () -. t0;
        replies.(c).(j) <- reply;
        pos.(c) <- j + 1
      done
    in
    Array.iter Thread.join (Array.init conns (fun c -> Thread.create worker c))
  in
  let t0 = Util.now () in
  let cpu0 = serving_cpu svc in
  (* a traced run keeps the second half of the script for its traced half *)
  phase ~until:(t0 +. if trace then seconds /. 2. else seconds) ~share:(if trace then 0.5 else 1.) (fun c _ op -> Util.request svc.clients.(c) op.line);
  let elapsed = Util.now () -. t0 in
  let cpu_s = serving_cpu svc -. cpu0 in
  let rss_mb = List.fold_left (fun acc pid -> acc +. Util.proc_peak_rss_mb pid) 0. (serving svc) in
  let untraced_pos = Array.copy pos in
  let done_until upto =
    List.concat (List.init conns (fun c -> List.init upto.(c) (fun j -> (inp.scripts.(c).(j), replies.(c).(j)))))
  in
  let layers, extras =
    if not trace then ([], [])
    else begin
      let mir = mirror inp (List.map fst (done_until pos)) in
      (* the hop: hot reads go both through the router and directly *)
      let side_name = if routed then "client.rtt_direct" else "client.rtt_routed" in
      let side = Array.init conns (fun _ -> Util.connect_wait (if routed then svc.server_sock else svc.router_sock)) in
      let tracks = Array.init conns Spans.track in
      let wits = Array.make conns 0 in
      let stats0 = stats_of svc in
      let router_cpu0 = Option.fold ~none:0. ~some:Util.proc_cpu_s svc.router in
      let gc0 = Gc.minor_words () in
      Spans.enabled := true;
      phase ~until:(Util.now () +. (seconds /. 2.)) ~share:1. (fun c j op ->
          let tr = tracks.(c) in
          Spans.op tr ~op:((c * 10_000_000) + j) "op" (fun () ->
              let reply =
                Spans.span tr ("client.rtt_" ^ kind_name op.kind) (fun () -> Util.request svc.clients.(c) op.line)
              in
              if op.kind = Hit then ignore (Spans.span tr side_name (fun () -> Util.request side.(c) op.line));
              wits.(c) <- wits.(c) + replay tr mir op;
              reply));
      Spans.enabled := false;
      let router_cpu = Option.fold ~none:0. ~some:Util.proc_cpu_s svc.router -. router_cpu0 in
      let stats1 = stats_of svc in
      Array.iter Util.close side;
      let ops = Array.fold_left ( + ) 0 pos - Array.fold_left ( + ) 0 untraced_pos in
      let minor = (Gc.minor_words () -. gc0) /. float (max 1 ops) /. 1e6 in
      let tbl = Spans.aggregate () in
      let untraced =
        List.concat
          (List.init conns (fun c ->
               List.init untraced_pos.(c) (fun j -> (kind_name inp.scripts.(c).(j).kind, lat.(c).(j)))))
      in
      let traced =
        List.concat
          (List.init conns (fun c ->
               List.init (pos.(c) - untraced_pos.(c)) (fun k ->
                   let j = untraced_pos.(c) + k in
                   ((c * 10_000_000) + j, kind_name inp.scripts.(c).(j).kind, lat.(c).(j)))))
      in
      let layers =
        Report.common_layers tbl ~ops ~witnesses:(Array.fold_left ( + ) 0 wits) ~minor_mwords:minor
        @ Report.overhead ~untraced ~traced ~span_self:(Spans.self_by_op ())
      in
      let durations name =
        List.filter_map
          (fun (s : Spans.span) -> if s.name = name then Some (s.t1 -. s.t0) else None)
          (Spans.all_spans ())
      in
      let rtt name =
        let d = durations ("client." ^ name) in
        (Printf.sprintf "client.%s_ms" name, median_ms d, "ms", Printf.sprintf "median of %d" (List.length d))
      in
      let per_call metric span =
        match Spans.self_per_call tbl span with
        | Some (s, n) -> [ (metric, s *. 1e6, "us", Printf.sprintf "mean of %d calls" n) ]
        | None -> []
      in
      let ratio name =
        let d key = stats1 key - stats0 key in
        let h = d (Printf.sprintf "engine.%s_hits" name) and m = d (Printf.sprintf "engine.%s_misses" name) in
        ( Printf.sprintf "engine.%s_hit_ratio" name,
          (if h + m > 0 then float h /. float (h + m) else 0.),
          "ratio",
          Printf.sprintf "%d hits / %d lookups" h (h + m) )
      in
      let extras =
        [ rtt "rtt_hit"; rtt "rtt_miss"; rtt "rtt_delta"; ratio "solve"; ratio "resp" ]
        @ per_call "core.solve_miss_us" "core.solve"
        @ per_call "inc.apply_us" "inc.apply"
        @
        let hits = durations "client.rtt_hit" and side = durations side_name in
        let via_router, direct = if routed then (hits, side) else (side, hits) in
        let routed_requests = if routed then ops else List.length side in
        [
          ( "shard.hop_ms",
            median_ms via_router -. median_ms direct,
            "ms",
            Printf.sprintf "routed minus direct median hot-read rtt, %d samples" (List.length side) );
          ( "shard.router_cpu_ms_per_op",
            router_cpu *. 1000. /. float (max 1 routed_requests),
            "ms",
            Printf.sprintf "over %d routed requests" routed_requests );
        ]
      in
      (layers, extras)
    end
  in
  stop svc;
  let all = done_until pos in
  let failures = Report.tally (check inp all) in
  {
    Report.setup_s = List.map (fun (_, _, dt) -> dt) setups;
    lat = Array.concat (List.init conns (fun c -> Array.sub lat.(c) 0 untraced_pos.(c)));
    elapsed;
    cpu_s;
    rss_mb;
    attempted = List.length all;
    failures;
    layers;
    extras;
  }
