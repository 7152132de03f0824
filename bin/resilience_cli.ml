(* Command-line front end: classify queries, solve resilience instances,
   list witnesses, browse the paper's query zoo, search for IJPs, and
   build hardness gadgets. *)

open Cmdliner
open Res_db

let parse_query s =
  match Res_cq.Parser.query_opt s with
  | Ok q -> q
  | Error msg ->
    Printf.eprintf "query parse error: %s\n" msg;
    exit 2

let load_db db_file facts_inline =
  try
    match (db_file, facts_inline) with
    | Some path, _ -> Fact_syntax.load_file path
    | None, Some text -> Fact_syntax.database text
    | None, None ->
      prerr_endline "no database given: use --db FILE or --facts \"R(1,2); ...\"";
      exit 2
  with Fact_syntax.Parse_error msg ->
    Printf.eprintf "database parse error: %s\n" msg;
    exit 2

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Conjunctive query, e.g. \"R(x,y), R(y,z)\"; mark exogenous relations with ^x.")

let db_file_arg =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc:"Database file, one fact per line (e.g. R(1,2)).")

let facts_arg =
  Arg.(value & opt (some string) None & info [ "facts" ] ~docv:"FACTS" ~doc:"Inline facts, ';'-separated.")

(* --- multicore --------------------------------------------------------- *)

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for multicore solving.  0 picks the machine's recommended \
               domain count (overridable via \\$(b,RES_JOBS)); 1, the default, solves \
               sequentially on the calling domain.")

let resolve_jobs = function
  | 0 -> Res_exec.Executor.default_jobs ()
  | n when n >= 1 -> n
  | _ ->
    prerr_endline "--jobs must be >= 0";
    exit 2

(* Run [f] with an executor when more than one domain was asked for —
   and with [None] otherwise, so --jobs 1 stays the sequential program
   with no domain machinery at all. *)
let with_pool jobs f =
  match resolve_jobs jobs with
  | 1 -> f None
  | jobs -> Res_exec.Executor.with_executor ~jobs (fun pool -> f (Some pool))

(* --- tracing ----------------------------------------------------------- *)

(* [--trace FILE]: switch the observability layer on for the run and
   write the Chrome trace_event JSON when the process exits.  The write
   hangs off [at_exit] rather than an unwind handler because the
   timeout paths leave through [exit 124] — which runs [at_exit] but
   unwinds no OCaml frames. *)
let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some path ->
    Res_obs.Obs.set_enabled true;
    at_exit (fun () ->
        let dumps = Res_obs.Obs.drain () in
        (try Res_obs.Trace.write_file path dumps
         with Sys_error msg -> Printf.eprintf "cannot write trace: %s\n" msg);
        prerr_string (Res_obs.Trace.summary dumps);
        Printf.eprintf "trace written to %s\n" path);
    f ()

let trace_file_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a solve trace (B&B nodes, LP calls, cache probes, executor \
               activity) and write it as Chrome trace_event JSON to \\$(docv) on exit \
               — load it in about://tracing or ui.perfetto.dev.  A top-spans-by-self-time \
               summary goes to stderr.")

(* --- JSON rendering ---------------------------------------------------- *)

(* Responses are flat enough to render by hand, with the trace
   exporter's escaper. *)
let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Res_obs.Trace.add_str b s;
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat "," items ^ "]"

let fact_str f = Format.asprintf "%a" Database.pp_fact f

let query_str q = Format.asprintf "%a" Res_cq.Query.pp q

(* Shared JSON view of a certified interval (the [rho] field is added
   only when the interval is optimal and finite). *)
let interval_fields iv =
  let module I = Res_bounds.Interval in
  let status =
    match (I.status iv, I.ub iv) with
    | I.Optimal, None -> "unbreakable"
    | I.Optimal, Some _ -> "optimal"
    | I.Gap, _ -> "timeout"
  in
  (match (I.status iv, I.ub iv) with
  | I.Optimal, Some v -> [ ("rho", string_of_int v) ]
  | _ -> [])
  @ [
      ("status", json_str status);
      ("lb", string_of_int (I.lb iv));
      ("ub", (match I.ub iv with Some u -> string_of_int u | None -> "null"));
      ("gap", (match I.gap iv with Some g -> string_of_int g | None -> "null"));
      ("set", json_list (List.map (fun f -> json_str (fact_str f)) (I.witness_set iv)));
    ]

(* --- classify --------------------------------------------------------- *)

let classify_cmd =
  let run query_s json =
    let report = Resilience.Classify.classify (parse_query query_s) in
    if json then
      print_endline
        (json_obj
           [
             ("query", json_str (query_str report.Resilience.Classify.original));
             ("minimized", json_str (query_str report.Resilience.Classify.minimized));
             ("verdict", json_str (Resilience.Classify.verdict_to_string report.Resilience.Classify.verdict));
             ( "components",
               json_list
                 (List.map
                    (fun (c : Resilience.Classify.component) ->
                      json_obj
                        [
                          ("query", json_str (query_str c.query));
                          ("family", json_str (Resilience.Family.to_string c.family));
                          ("verdict", json_str (Resilience.Classify.verdict_to_string c.verdict));
                        ])
                    report.Resilience.Classify.components) );
             ("notes", json_list (List.map json_str report.Resilience.Classify.notes));
           ])
    else Format.printf "%a@." Resilience.Classify.pp_report report
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as a single JSON object.") in
  Cmd.v (Cmd.info "classify" ~doc:"Decide the complexity of RES(q) (Theorem 37 and extensions)")
    Term.(const run $ query_arg $ json_arg)

(* --- solve ------------------------------------------------------------ *)

(* Certified bounds of the whole instance, independent of the solver: ρ
   is exactly the minimum hitting set of the full query's witnesses, so
   the LP/packing/flow-dual lower bounds and the polished greedy cover
   apply to the instance directly. *)
let print_bounds db q =
  match Res_bounds.Ilp.of_instance db q with
  | None ->
    print_endline "certified bounds: unbreakable (a witness uses only exogenous tuples)"
  | Some ilp ->
    let order = Resilience.Linearity.linear_order q in
    let lower = Res_bounds.Lower.best ?order ilp in
    let upper = Res_bounds.Upper.best ilp in
    Printf.printf "certified bounds: lb=%d (%s) ub=%d (cover) gap=%d\n"
      (Res_bounds.Lower.value lower)
      (Res_bounds.Lower.name lower)
      upper.Res_bounds.Upper.value
      (upper.Res_bounds.Upper.value - Res_bounds.Lower.value lower)

let solve_cmd =
  let run query_s db_file facts_inline explain timeout json bounds jobs trace_file =
    with_trace trace_file @@ fun () ->
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let cancel =
      match timeout with
      | Some secs when secs > 0. -> Resilience.Cancel.of_timeout secs
      | Some _ ->
        prerr_endline "--timeout must be positive";
        exit 2
      | None -> Resilience.Cancel.never
    in
    let outcome = with_pool jobs (fun pool -> Resilience.Solver.solve_bounded ~cancel ?pool db q) in
    match outcome with
    | Resilience.Solver.Done (solution, traces) ->
      if json then
        print_endline (json_obj (interval_fields (Resilience.Solver.interval_of_solution solution)))
      else begin
        (match solution with
        | Resilience.Solution.Unbreakable ->
          print_endline "resilience: unbreakable (a witness uses only exogenous tuples)"
        | Resilience.Solution.Finite (v, facts) ->
          Printf.printf "resilience: %d\n" v;
          print_endline "minimum contingency set:";
          List.iter (fun f -> Format.printf "  %a@." Database.pp_fact f) facts);
        if bounds then print_bounds db q;
        if explain then
          List.iter
            (fun (t : Resilience.Solver.trace) ->
              Format.printf "component %a -> %s@." Res_cq.Query.pp t.component t.algorithm)
            traces
      end
    | Resilience.Solver.Timeout iv ->
      let module I = Res_bounds.Interval in
      if json then print_endline (json_obj (interval_fields iv))
      else begin
        (match I.ub iv with
        | Some u ->
          Printf.printf "timeout: search interrupted; certified interval [%d, %d] (gap %d)\n"
            (I.lb iv) u (u - I.lb iv);
          print_endline "contingency set achieving the upper bound (possibly not minimum):";
          List.iter (fun f -> Format.printf "  %a@." Database.pp_fact f) (I.witness_set iv)
        | None ->
          Printf.printf
            "timeout: search interrupted; certified lower bound %d, no upper bound established\n"
            (I.lb iv))
      end;
      exit 124
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Show which algorithm solved each component.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Deadline for the solve; on expiry exit with code 124 and print the \
                 certified interval established so far instead of running forever.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON object with status, lb/ub/gap and the contingency set.")
  in
  let bounds_arg =
    Arg.(value & flag & info [ "bounds" ]
           ~doc:"Also print the certified LP/packing lower bound and greedy-cover upper \
                 bound of the instance, with the certificate that produced each.")
  in
  Cmd.v (Cmd.info "solve" ~doc:"Compute the resilience of a database w.r.t. a query")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg $ explain_arg $ timeout_arg $ json_arg
          $ bounds_arg $ jobs_arg $ trace_file_arg)

(* --- watch ------------------------------------------------------------ *)

(* Streaming front end for the incremental session: the initial answer,
   then one updated answer per delta batch read from stdin (or --script).
   The same verbs are available over the wire as protocol v4's "watch". *)
let watch_cmd =
  let run query_s db_file facts_inline script explain validate json jobs trace_file =
    with_trace trace_file @@ fun () ->
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let ic =
      match script with
      | None -> stdin
      | Some path -> (
        try open_in path
        with Sys_error msg ->
          prerr_endline msg;
          exit 2)
    in
    with_pool jobs @@ fun pool ->
    let session = Res_inc.Session.create ?pool db q in
    if explain then
      Printf.eprintf "strategies: %s\n%!"
        (String.concat ", " (Res_inc.Session.strategies session));
    let print_result r =
      if json then
        print_endline
          (json_obj
             (("version", string_of_int (Res_inc.Session.version session))
             :: ("fp", json_str (Res_inc.Session.fingerprint session))
             :: interval_fields (Res_inc.Session.result_interval r)))
      else begin
        let body =
          match r with
          | Res_inc.Session.Value Resilience.Solution.Unbreakable -> "unbreakable"
          | Res_inc.Session.Value (Resilience.Solution.Finite (v, facts)) ->
            Printf.sprintf "rho=%d set={%s}" v (String.concat "; " (List.map fact_str facts))
          | Res_inc.Session.Interval iv ->
            let module I = Res_bounds.Interval in
            Printf.sprintf "interval lb=%d ub=%s" (I.lb iv)
              (match I.ub iv with Some u -> string_of_int u | None -> "none")
        in
        Printf.printf "%s version=%d\n%!" body (Res_inc.Session.version session)
      end
    in
    let check () =
      if validate && not (Res_inc.Session.selfcheck session) then begin
        Printf.eprintf "selfcheck FAILED at version %d\n" (Res_inc.Session.version session);
        exit 1
      end
    in
    print_result (Res_inc.Session.last session);
    check ();
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line when String.trim line = "" || (String.trim line).[0] = '#' -> loop ()
      | line -> begin
        match Res_db.Delta.parse line with
        | exception Fact_syntax.Parse_error msg ->
          Printf.eprintf "delta parse error: %s\n" msg;
          exit 2
        | deltas ->
          print_result (Res_inc.Session.apply ?pool session deltas);
          check ();
          loop ()
      end
    in
    loop ();
    if script <> None then close_in ic
  in
  let script_arg =
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE"
           ~doc:"Read delta batches from \\$(docv) instead of stdin: one batch per line, \
                 ';'-separated signed facts (e.g. \"+R(1, 2); -S(3)\"), # comments.")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print the per-component maintenance strategy to stderr before streaming.")
  in
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"After every batch, audit the answer (facts present, removal falsifies \
                 the query); exit 1 on the first failure.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON object per answer with version, fingerprint and bounds.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Maintain the resilience of a database under a stream of insert/delete deltas")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg $ script_arg $ explain_arg
          $ validate_arg $ json_arg $ jobs_arg $ trace_file_arg)

(* --- batch ------------------------------------------------------------ *)

let batch_cmd =
  let run file no_cache repeat show_stats jobs trace_file =
    with_trace trace_file @@ fun () ->
    let instances =
      try Res_engine.Batch.load_file file with
      | Res_engine.Batch.Parse_error msg ->
        Printf.eprintf "instance file error: %s\n" msg;
        exit 2
      | Sys_error msg ->
        prerr_endline msg;
        exit 2
    in
    let workload = List.concat (List.init (max 1 repeat) (fun _ -> instances)) in
    let engine = Res_engine.Batch.create ~cached:(not no_cache) () in
    let outcomes = with_pool jobs (fun pool -> Res_engine.Batch.run engine ?pool workload) in
    List.iter
      (fun (o : Res_engine.Batch.outcome) ->
        let rho =
          match o.solution with
          | Resilience.Solution.Unbreakable -> "unbreakable"
          | Resilience.Solution.Finite (v, _) -> string_of_int v
        in
        Printf.printf "%-10s rho=%-12s %s%s\n" o.label rho
          (Resilience.Classify.verdict_to_string o.verdict)
          (if o.solve_cached then "  [cached]" else ""))
      outcomes;
    if show_stats then
      Format.printf "%a@." Res_engine.Stats.pp (Res_engine.Batch.stats engine)
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Instance file: one \"QUERY | FACTS\" per line, optional \\@label prefix, # comments.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable canonical-query caching (baseline mode).")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc:"Process the instance list N times.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print engine cache/timing statistics.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Solve a file of (query, database) instances through the caching engine")
    Term.(const run $ file_arg $ no_cache_arg $ repeat_arg $ stats_arg $ jobs_arg
          $ trace_file_arg)

(* --- serve / client ----------------------------------------------------- *)

let address_of socket port host =
  match (socket, port) with
  | Some path, None -> Res_server.Net.Unix_socket path
  | None, Some p -> Res_server.Net.Tcp (host, p)
  | Some _, Some _ ->
    prerr_endline "choose one of --socket PATH / --port N, not both";
    exit 2
  | None, None ->
    prerr_endline "no address given: use --socket PATH or --port N";
    exit 2

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"TCP port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind/connect address.")

let parse_address s =
  match Res_server.Net.address_of_string s with
  | Ok a -> a
  | Error msg ->
    prerr_endline msg;
    exit 2

(* A listener that cannot bind (the path a live server answers on, a
   missing directory, a port in use) is reported, not a crash. *)
let listening start =
  try start ()
  with Unix.Unix_error (e, _, arg) ->
    Printf.eprintf "cannot listen on %s: %s\n" arg (Unix.error_message e);
    exit 3

let serve_cmd =
  let run socket port host workers queue hard_workers hard_queue timeout_ms no_timeout
      verbose jobs metrics_addr trace_dir shard_id persist_dir =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs_threaded.enable ();
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning));
    (match trace_dir with
     | None -> ()
     | Some dir ->
       Res_obs.Obs.set_enabled true;
       at_exit (fun () ->
           (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
           let path = Filename.concat dir (Printf.sprintf "trace-%d.json" (Unix.getpid ())) in
           let dumps = Res_obs.Obs.drain () in
           (try
              Res_obs.Trace.write_file path dumps;
              Printf.eprintf "trace written to %s\n" path
            with Sys_error msg -> Printf.eprintf "cannot write trace: %s\n" msg)));
    let cfg =
      {
        Res_server.Server.address = address_of socket port host;
        workers;
        queue_capacity = queue;
        hard_workers;
        hard_queue;
        hard_timeout_ms = Some 10_000;
        default_timeout_ms = (if no_timeout then None else Some timeout_ms);
        jobs = resolve_jobs jobs;
        metrics_addr = Option.map parse_address metrics_addr;
      }
    in
    (match shard_id with
    | Some id -> Logs.info (fun m -> m "shard id %s" id)
    | None -> ());
    (* the persistent store attaches to the engine before the listener
       opens, so the very first request already sees the warm cache *)
    let engine = Res_engine.Batch.create () in
    let store =
      Option.map
        (fun dir ->
          let s = Res_shard.Store.attach ~dir engine in
          Logs.info (fun m ->
              m "persistent cache %s: %d entries recovered (%d bytes of torn tail discarded)"
                dir (Res_shard.Store.recovered s)
                (Res_shard.Store.truncated_bytes s));
          s)
        persist_dir
    in
    let srv = listening (fun () -> Res_server.Server.start ~engine cfg) in
    let graceful _ = ignore (Thread.create (fun () -> Res_server.Server.stop srv) ()) in
    Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
    Res_server.Server.wait srv;
    Option.iter Res_shard.Store.close store
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker threads solving requests.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-control bound on queued fast-lane requests; beyond it clients \
                 get a \"busy\" reply.")
  in
  let hard_workers_arg =
    Arg.(value & opt int 2 & info [ "hard-workers" ] ~docv:"N"
           ~doc:"Worker threads of the hard (NP-hard) admission lane.")
  in
  let hard_queue_arg =
    Arg.(value & opt int 32 & info [ "hard-queue" ] ~docv:"N"
           ~doc:"Admission-control bound on queued hard-lane requests.")
  in
  let shard_id_arg =
    Arg.(value & opt (some string) None & info [ "shard-id" ] ~docv:"ID"
           ~doc:"Name of this shard in a routed fleet (logging only; routing is by address).")
  in
  let persist_dir_arg =
    Arg.(value & opt (some string) None & info [ "persist-dir" ] ~docv:"DIR"
           ~doc:"Persist the solve cache to an append-only log under DIR and recover it \
                 on startup, so the shard restarts warm.")
  in
  let timeout_arg =
    Arg.(value & opt int 30_000 & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline for requests without their own timeout=MS.")
  in
  let no_timeout_arg =
    Arg.(value & flag & info [ "no-timeout" ] ~doc:"No default deadline (requests may run forever).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log every request (debug level).")
  in
  let metrics_addr_arg =
    Arg.(value & opt (some string) None & info [ "metrics-addr" ] ~docv:"ADDR"
           ~doc:"Serve the metrics registry as a Prometheus scrape endpoint on ADDR \
                 (PORT, HOST:PORT, or a Unix-socket path containing a '/', e.g. \
                 ./metrics.sock).")
  in
  let trace_dir_arg =
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"Enable tracing; on shutdown write DIR/trace-<pid>.json (Chrome trace format).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resilience service: a concurrent socket server with per-request \
             deadlines, cooperative cancellation and a metrics registry (see the protocol \
             in the README)")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers_arg $ queue_arg
          $ hard_workers_arg $ hard_queue_arg $ timeout_arg $ no_timeout_arg
          $ verbose_arg $ jobs_arg $ metrics_addr_arg $ trace_dir_arg $ shard_id_arg
          $ persist_dir_arg)

(* Client exit codes, pinned by test/cli/fleet.t: 2 usage/parse errors
   (cmdliner's own convention), 3 cannot connect, 4 connection lost
   mid-conversation, 5 the server spoke something that is not the
   protocol. *)
let client_cmd =
  let run socket port host fleet retry bulk requests =
    let targets =
      match fleet with
      | Some spec -> begin
        let parts =
          String.split_on_char ',' spec |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if parts = [] then begin
          prerr_endline "empty --fleet: expected a comma-separated list of addresses";
          exit 2
        end;
        List.map parse_address parts
      end
      | None -> [ address_of socket port host ]
    in
    let named = List.map (fun a -> (Res_server.Net.address_to_string a, a)) targets in
    let ring = Res_shard.Ring.create (List.map fst named) in
    let conns : (string, in_channel * out_channel) Hashtbl.t = Hashtbl.create 4 in
    let connect_to name addr =
      match Res_server.Net.connect ~retries:retry addr with
      | c -> (c.ic, c.oc)
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf
          "cannot connect to %s: %s\n\
           (is the server running there? --retry N waits N x 100ms for it)\n"
          name (Unix.error_message e);
        exit 3
    in
    let channels_for key =
      let name =
        match Res_shard.Ring.route ring key with Some n -> n | None -> fst (List.hd named)
      in
      match Hashtbl.find_opt conns name with
      | Some c -> c
      | None ->
        let c = connect_to name (List.assoc name named) in
        Hashtbl.replace conns name c;
        c
    in
    (* Requests without an instance (ping, stats, quit...) ride to the
       shard of the empty key — one fixed member of the fleet. *)
    let key_of_line line =
      match Res_server.Protocol.parse line with
      | Ok (Res_server.Protocol.Solve { body; _ })
      | Ok (Res_server.Protocol.Resp { body; _ })
      | Ok (Res_server.Protocol.Watch_register { body; _ }) ->
        Res_shard.Router.routing_key body
      | Ok (Res_server.Protocol.Classify q_s) -> Res_shard.Router.routing_key q_s
      | Ok (Res_server.Protocol.Batch { bodies = b :: _; _ }) -> Res_shard.Router.routing_key b
      | _ -> ""
    in
    let valid_first_line r =
      let has p = String.starts_with ~prefix:p r in
      has "ok" || has "error" || has "busy" || has "timeout" || has "#"
    in
    let send line =
      let ic, oc = channels_for (key_of_line line) in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      let multi_line =
        (* stats/prom is the protocol's one multi-line reply: read until
           the "# EOF" terminator. *)
        String.lowercase_ascii (String.trim line) = "stats/prom"
      in
      let rec recv first =
        match input_line ic with
        | reply ->
          if first && not (valid_first_line reply) then begin
            Printf.eprintf
              "malformed reply %S\n\
               (not a protocol response — is that address really a resilience server?)\n"
              (String.sub reply 0 (min 80 (String.length reply)));
            exit 5
          end;
          print_endline reply;
          if multi_line && reply <> Res_server.Protocol.prom_terminator then recv false
        | exception End_of_file ->
          prerr_endline
            "connection closed before the reply finished\n\
             (the server crashed or was stopped mid-request; check its logs)";
          exit 4
      in
      recv true
    in
    let send_bulk file =
      let instances =
        try Res_engine.Batch.load_file file
        with
        | Res_engine.Batch.Parse_error msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 2
        | Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
      in
      let key =
        match instances with
        | (inst : Res_engine.Batch.instance) :: _ ->
          Res_shard.Router.routing_key
            (Format.asprintf "%a" Res_cq.Query.pp inst.query)
        | [] ->
          Printf.eprintf "%s: no instances\n" file;
          exit 2
      in
      let ic, oc = channels_for key in
      Res_server.Frame.write_frame oc
        (Res_server.Frame.encode_request
           (Res_server.Frame.Bulk { timeout_ms = None; instances }));
      match Res_server.Frame.read_frame ic with
      | exception End_of_file ->
        prerr_endline "connection closed before the bulk reply finished";
        exit 4
      | Error msg ->
        Printf.eprintf "malformed bulk reply: %s\n" msg;
        exit 5
      | Ok payload -> begin
        match Res_server.Frame.decode_reply payload with
        | Ok (Res_server.Frame.Items items) ->
          List.iter (fun it -> print_endline (Res_server.Frame.item_to_string it)) items
        | Ok (Res_server.Frame.Error msg) -> print_endline ("error " ^ msg)
        | Error msg ->
          Printf.eprintf "malformed bulk reply: %s\n" msg;
          exit 5
      end
    in
    Option.iter send_bulk bulk;
    if requests = [] && bulk = None then begin
      try
        while true do
          send (input_line stdin)
        done
      with End_of_file -> ()
    end
    else List.iter send requests
  in
  let retry_arg =
    Arg.(value & opt int 50 & info [ "retry" ] ~docv:"N"
           ~doc:"Connection attempts (100ms apart) before giving up — lets scripts start \
                 the client right after the server.")
  in
  let fleet_arg =
    Arg.(value & opt (some string) None & info [ "fleet" ] ~docv:"ADDR,ADDR,..."
           ~doc:"Address the fleet directly (no router): each request is sent to the \
                 shard its canonical query key consistently hashes to.")
  in
  let bulk_arg =
    Arg.(value & opt (some string) None & info [ "bulk" ] ~docv:"FILE"
           ~doc:"Send the instance file as one binary v5 bulk frame and print the \
                 per-instance results.")
  in
  let requests_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"Protocol lines to send; with none (and no --bulk), lines are read from stdin.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send protocol requests to a running resilience server, router or fleet and \
             print the replies")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ fleet_arg $ retry_arg $ bulk_arg
          $ requests_arg)

let route_cmd =
  let run socket port host shards replicas retries backoff breaker_threshold
      breaker_cooldown health_period verbose =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs_threaded.enable ();
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning));
    let shards = List.map parse_address shards in
    if shards = [] then begin
      prerr_endline "no shards given: use --shard ADDR (repeatable)";
      exit 2
    end;
    let cfg =
      {
        (Res_shard.Router.default_config ~address:(address_of socket port host) ~shards)
        with
        replicas;
        retries;
        backoff_ms = backoff;
        breaker_threshold;
        breaker_cooldown_ms = breaker_cooldown;
        health_period_ms = health_period;
      }
    in
    let r = listening (fun () -> Res_shard.Router.start cfg) in
    let graceful _ = ignore (Thread.create (fun () -> Res_shard.Router.stop r) ()) in
    Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
    Res_shard.Router.wait r
  in
  let shards_arg =
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"ADDR"
           ~doc:"A shard server address (Unix-socket path, HOST:PORT or PORT); repeatable.")
  in
  let replicas_arg =
    Arg.(value & opt int 128 & info [ "replicas" ] ~docv:"N"
           ~doc:"Virtual points per shard on the consistent-hash ring.")
  in
  let retries_arg =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Attempts on the owning shard before failing over along the ring.")
  in
  let backoff_arg =
    Arg.(value & opt int 50 & info [ "backoff-ms" ] ~docv:"MS"
           ~doc:"Base retry backoff, doubled per attempt.")
  in
  let breaker_threshold_arg =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"Consecutive failures opening a shard's circuit breaker.")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt int 1000 & info [ "breaker-cooldown-ms" ] ~docv:"MS"
           ~doc:"How long an open breaker skips its shard before re-probing.")
  in
  let health_period_arg =
    Arg.(value & opt int 500 & info [ "health-period-ms" ] ~docv:"MS"
           ~doc:"Health-ping cadence; 0 disables the health thread.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log routing decisions (debug level).")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the consistent-hash router over a fleet of shard servers: canonical \
             query keys map to shards, failures retry with backoff and fail over along \
             the ring, saturated shards shed load with \"busy\" replies")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ shards_arg $ replicas_arg
          $ retries_arg $ backoff_arg $ breaker_threshold_arg $ breaker_cooldown_arg
          $ health_period_arg $ verbose_arg)

(* --- witnesses ---------------------------------------------------------- *)

let witnesses_cmd =
  let run query_s db_file facts_inline =
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let ws = Eval.witnesses db q in
    Printf.printf "%d witnesses\n" (List.length ws);
    List.iter
      (fun (w : Eval.witness) ->
        let vals =
          List.map (fun (v, x) -> Printf.sprintf "%s=%s" v (Value.to_string x)) w.valuation
        in
        Printf.printf "  (%s) via {%s}\n" (String.concat ", " vals)
          (String.concat "; "
             (List.map (Format.asprintf "%a" Database.pp_fact)
                (Database.Fact_set.elements w.facts))))
      ws
  in
  Cmd.v (Cmd.info "witnesses" ~doc:"Enumerate the witnesses of D |= q")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg)

(* --- gen ----------------------------------------------------------------- *)

let gen_cmd =
  let run family seed nodes edges rows cols count rel out =
    let db =
      try
        match family with
        | "power-law" -> Db_gen.power_law ~seed ~nodes ~edges ~rel
        | "bipartite" -> Db_gen.bipartite ~seed ~left:nodes ~right:nodes ~edges ~rel
        | "random" -> Db_gen.random_graph ~seed ~nodes ~edges ~rel
        | "grid" -> Db_gen.grid_graph ~rows ~cols ~rel
        | "chain" -> Db_gen.chain_db ~length:count ~rel
        | "cycle" -> Db_gen.cycle_db ~length:count ~rel
        | "unary" -> Db_gen.unary ~count ~rel
        | other ->
          Printf.eprintf "unknown family %S (power-law|bipartite|random|grid|chain|cycle|unary)\n" other;
          exit 2
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    (* order-stable FNV-style fold over the canonical fact listing: equal
       databases always print equal checksums — the cram test pins them. *)
    let checksum =
      List.fold_left
        (fun h f ->
          let s = Format.asprintf "%a" Database.pp_fact f in
          String.fold_left (fun h c -> ((h * 31) + Char.code c) land 0x3FFFFFFF) h s)
        5381 (Database.facts db)
    in
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter (fun f -> output_string oc (Format.asprintf "%a\n" Database.pp_fact f)) (Database.facts db);
      close_out oc);
    Printf.printf "family=%s tuples=%d checksum=%08x\n" family (Database.size db) checksum
  in
  let family_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY"
           ~doc:"power-law|bipartite|random|grid|chain|cycle|unary")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed (deterministic).") in
  let nodes_arg = Arg.(value & opt int 1000 & info [ "nodes" ] ~docv:"N" ~doc:"Node count (per side for bipartite).") in
  let edges_arg = Arg.(value & opt int 5000 & info [ "edges" ] ~docv:"N" ~doc:"Edge count (exact for power-law/bipartite).") in
  let rows_arg = Arg.(value & opt int 100 & info [ "rows" ] ~docv:"N" ~doc:"Grid rows.") in
  let cols_arg = Arg.(value & opt int 100 & info [ "cols" ] ~docv:"N" ~doc:"Grid columns.") in
  let count_arg = Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N" ~doc:"Length for chain/cycle, size for unary.") in
  let rel_arg = Arg.(value & opt string "R" & info [ "rel" ] ~docv:"NAME" ~doc:"Relation name.") in
  let out_arg = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the facts (one per line, solve-compatible) to \\$(docv).") in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a deterministic benchmark database (graph families up to millions \
             of tuples) and print its size and checksum")
    Term.(const run $ family_arg $ seed_arg $ nodes_arg $ edges_arg $ rows_arg $ cols_arg
          $ count_arg $ rel_arg $ out_arg)

(* --- zoo ---------------------------------------------------------------- *)

let zoo_cmd =
  let run () =
    Printf.printf "%-16s %-14s %-55s %s\n" "name" "paper" "classifier" "reference";
    List.iter
      (fun (en : Resilience.Zoo.entry) ->
        let v = Resilience.Classify.verdict_of en.query in
        Printf.printf "%-16s %-14s %-55s %s\n" en.name
          (Resilience.Zoo.expected_to_string en.expected)
          (Resilience.Classify.verdict_to_string v)
          en.reference)
      Resilience.Zoo.all
  in
  Cmd.v (Cmd.info "zoo" ~doc:"Classify every named query from the paper") Term.(const run $ const ())

(* --- ijp ----------------------------------------------------------------- *)

let ijp_cmd =
  let run query_s joins strict certify =
    let q = parse_query query_s in
    if certify then begin
      match Resilience.Certificate.search ~max_joins:joins q with
      | Some cert ->
        Format.printf "hardness certificate found: IJP with %d tuples, cost %d@."
          (Database.size cert.Resilience.Certificate.ijp) cert.Resilience.Certificate.cost;
        Printf.printf "verifies on K3/P4/star/K4: %b\n" (Resilience.Certificate.verify cert)
      | None -> Printf.printf "no hardness certificate up to %d joins\n" joins
    end
    else begin
      match Resilience.Ijp.search ~max_joins:joins ~strict q with
      | Some (db, a, b) ->
        Format.printf "IJP found (%d tuples), endpoints %a / %a@." (Database.size db)
          Database.pp_fact a Database.pp_fact b;
        Format.printf "%a@." Database.pp db
      | None -> Printf.printf "no %sIJP found up to %d joins\n" (if strict then "composable " else "") joins
    end
  in
  let joins_arg = Arg.(value & opt int 2 & info [ "joins" ] ~docv:"K" ~doc:"Maximum canonical copies.") in
  let strict_arg = Arg.(value & flag & info [ "strict" ] ~doc:"Require composability (validated VC reduction).") in
  let certify_arg = Arg.(value & flag & info [ "certify" ] ~doc:"Produce and verify a full hardness certificate (Section 9).") in
  Cmd.v
    (Cmd.info "ijp" ~doc:"Search for an Independent Join Path (Definition 48 / Appendix C.2)")
    Term.(const run $ query_arg $ joins_arg $ strict_arg $ certify_arg)

(* --- gadget ----------------------------------------------------------------- *)

let gadget_cmd =
  let run kind cnf_s solve =
    let bad msg =
      prerr_endline msg;
      exit 2
    in
    let literal tok =
      match int_of_string_opt tok with
      | Some l when l <> 0 -> l
      | _ -> bad (Printf.sprintf "invalid CNF literal %S: expected a nonzero integer" tok)
    in
    let clauses =
      String.split_on_char ',' cnf_s
      |> List.map (fun c ->
             match List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim c)) with
             | [] -> bad (Printf.sprintf "empty clause in CNF %S" cnf_s)
             | toks -> List.map literal toks)
    in
    let n_vars = List.fold_left (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c) 0 clauses in
    let f = Res_sat.Cnf.make ~n_vars clauses in
    let inst =
      match kind with
      | "chain" -> Resilience.Reductions.sat3_to_chain f
      | "achain" -> Resilience.Reductions.sat3_to_chain ~with_a:true f
      | "acchain" -> Resilience.Reductions.sat3_to_chain ~with_a:true ~with_c:true f
      | "triangle" -> Resilience.Reductions.sat3_to_triangle f
      | "tripod" -> Resilience.Reductions.sat3_to_tripod f
      | "abperm" -> Resilience.Reductions.sat3_to_abperm f
      | "sxy3perm" -> Resilience.Reductions.sat3_to_sxy3perm f
      | other ->
        Printf.eprintf "unknown gadget %S\n" other;
        exit 2
    in
    Printf.printf "%s\n" inst.description;
    Format.printf "query: %a@." Res_cq.Query.pp inst.query;
    Printf.printf "tuples: %d, decision threshold k = %d\n" (Database.size inst.db) inst.k;
    Printf.printf "formula satisfiable (DPLL): %b\n" (Res_sat.Dpll.satisfiable f);
    if solve then begin
      match Resilience.Exact.value inst.db inst.query with
      | Some rho ->
        Printf.printf "exact resilience: %d -> (D,k) %s RES(q)\n" rho
          (if rho <= inst.k then "IN" else "NOT IN")
      | None -> print_endline "unbreakable"
    end
  in
  let kind_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc:"chain|achain|acchain|triangle|tripod|abperm|sxy3perm")
  in
  let cnf_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CNF" ~doc:"Clauses as DIMACS-ish literals, e.g. \"1 2 3, -1 -2 3\".")
  in
  let solve_arg = Arg.(value & flag & info [ "solve" ] ~doc:"Also solve the produced instance exactly.") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Build a hardness-reduction gadget database from a CNF formula")
    Term.(const run $ kind_arg $ cnf_arg $ solve_arg)

(* --- repairs ----------------------------------------------------------------- *)

let repairs_cmd =
  let run query_s db_file facts_inline limit =
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let sets = Resilience.Exact.minimum_sets ~limit db q in
    match sets with
    | [] -> print_endline "no contingency set exists (unbreakable)"
    | [ [] ] -> print_endline "the query is already false; nothing to delete"
    | _ ->
      Printf.printf "%d minimum contingency sets (size %d):\n" (List.length sets)
        (List.length (List.hd sets));
      List.iter
        (fun s ->
          Printf.printf "  { %s }\n"
            (String.concat "; " (List.map (Format.asprintf "%a" Database.pp_fact) s)))
        sets
  in
  let limit_arg = Arg.(value & opt int 50 & info [ "limit" ] ~docv:"N" ~doc:"Maximum repairs to list.") in
  Cmd.v
    (Cmd.info "repairs" ~doc:"Enumerate all minimum contingency sets (optimal repairs)")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg $ limit_arg)

(* --- blame --------------------------------------------------------------------- *)

let blame_cmd =
  let run query_s db_file facts_inline =
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let ranking = Resilience.Responsibility.ranking db q in
    if ranking = [] then print_endline "no endogenous tuple is a cause"
    else begin
      Printf.printf "%-30s responsibility\n" "tuple";
      List.iter
        (fun (f, r) -> Format.printf "%-30s %.4f@." (Format.asprintf "%a" Database.pp_fact f) r)
        ranking
    end
  in
  Cmd.v
    (Cmd.info "blame" ~doc:"Rank tuples by responsibility for the query answer (Meliou et al.)")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg)

(* --- responsibility -------------------------------------------------------------- *)

let responsibility_cmd =
  let run query_s fact_s db_file facts_inline json =
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    let fact =
      try Res_db.Fact_syntax.fact fact_s
      with Res_db.Fact_syntax.Parse_error msg ->
        Printf.eprintf "fact: %s\n" msg;
        exit 2
    in
    let r = Resilience.Solver.min_contingency db q fact in
    let rho = match r with None -> 0.0 | Some k -> 1.0 /. float_of_int (1 + k) in
    if json then
      print_endline
        (json_obj
           [
             ("fact", json_str (fact_str fact));
             ("responsibility", Printf.sprintf "%.4f" rho);
             ("contingency", (match r with Some k -> string_of_int k | None -> "null"));
           ])
    else begin
      match r with
      | None -> print_endline "not a cause (responsibility 0)"
      | Some k -> Printf.printf "responsibility %.4f (min contingency %d)\n" rho k
    end
  in
  let fact_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "fact" ] ~docv:"FACT"
          ~doc:"The tuple whose responsibility is computed, e.g. \"R(1, 2)\".")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as a JSON object.") in
  Cmd.v
    (Cmd.info "responsibility"
       ~doc:
         "Responsibility of one tuple for the query answer: 1/(1+k) for the smallest \
          contingency of size k under which the tuple is counterfactual (Meliou et al.)")
    Term.(const run $ query_arg $ fact_arg $ db_file_arg $ facts_arg $ json_arg)

(* --- propagate ------------------------------------------------------------------- *)

let propagate_cmd =
  let run query_s db_file facts_inline head_s =
    let q = parse_query query_s in
    let db = load_db db_file facts_inline in
    (* head syntax: "x=1,y=alice" *)
    let head =
      if head_s = "" then []
      else
        String.split_on_char ',' head_s
        |> List.map (fun kv ->
               match String.index_opt kv '=' with
               | Some i ->
                 let v = String.trim (String.sub kv 0 i) in
                 let raw = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
                 let value =
                   match int_of_string_opt raw with Some n -> Value.i n | None -> Value.s raw
                 in
                 (v, value)
               | None ->
                 prerr_endline "head bindings must look like x=1,y=alice";
                 exit 2)
    in
    if head = [] then begin
      (* list output tuples with their side effects *)
      let vars = Res_cq.Query.vars q in
      let all = Resilience.Dp.side_effects_all db q ~head:vars in
      Printf.printf "%d output tuples (head = all variables)\n" (List.length all);
      List.iter
        (fun (tuple, s) ->
          Printf.printf "  (%s): %s\n"
            (String.concat ", " (List.map Value.to_string tuple))
            (match s with
            | Resilience.Solution.Finite (v, _) -> Printf.sprintf "side effect %d" v
            | Resilience.Solution.Unbreakable -> "undeletable"))
        all
    end
    else begin
      match Resilience.Dp.side_effect db q ~head with
      | Resilience.Solution.Finite (v, facts) ->
        Printf.printf "minimum source side-effect: %d\n" v;
        List.iter (fun f -> Format.printf "  delete %a@." Database.pp_fact f) facts
      | Resilience.Solution.Unbreakable -> print_endline "output tuple cannot be deleted"
    end
  in
  let head_arg =
    Arg.(value & opt string "" & info [ "head" ] ~docv:"BINDINGS" ~doc:"Output tuple to delete, e.g. \"x=1,z=3\".")
  in
  Cmd.v
    (Cmd.info "propagate"
       ~doc:"Deletion propagation with source side-effects for a non-Boolean query")
    Term.(const run $ query_arg $ db_file_arg $ facts_arg $ head_arg)

(* --- trace-check / scrape ------------------------------------------------ *)

let trace_check_cmd =
  let run file prom =
    if prom then begin
      let text =
        try Res_obs.Trace_check.read_file file
        with Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      match Res_obs.Trace_check.check_prometheus text with
      | Ok samples -> Printf.printf "valid Prometheus exposition: %d samples\n" samples
      | Error msg ->
        Printf.eprintf "invalid Prometheus exposition: %s\n" msg;
        exit 1
    end
    else begin
      match Res_obs.Trace_check.check_trace_file file with
      | Ok r ->
        Printf.printf
          "valid Chrome trace: %d events on %d track(s), max depth %d, %d orphan end(s), %d open span(s)\n"
          r.Res_obs.Trace_check.events r.tracks r.max_depth r.orphan_ends r.open_spans
      | Error msg ->
        Printf.eprintf "invalid trace: %s\n" msg;
        exit 1
    end
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"File to validate.")
  in
  let prom_arg =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Validate as Prometheus text exposition instead of a Chrome trace.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace_event JSON file (or, with --prom, Prometheus text)")
    Term.(const run $ file_arg $ prom_arg)

let scrape_cmd =
  let run socket port host =
    let c =
      try Res_server.Net.connect (address_of socket port host)
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
        exit 3
    in
    output_string c.oc "GET /metrics HTTP/1.0\r\nHost: resilience\r\n\r\n";
    flush c.oc;
    let reply = In_channel.input_all c.ic in
    Res_server.Net.close c;
    (* print only the body: drop the HTTP header block *)
    print_string
      (match Res_server.Protocol.split_on_string "\r\n\r\n" reply with
      | _head :: (_ :: _ as body) -> String.concat "\r\n\r\n" body
      | _ -> reply)
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:"Fetch one Prometheus scrape from a server started with --metrics-addr")
    Term.(const run $ socket_arg $ port_arg $ host_arg)

let () =
  let doc = "resilience of conjunctive queries with self-joins (PODS 2020 reproduction)" in
  let info = Cmd.info "resilience" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ classify_cmd; solve_cmd; watch_cmd; batch_cmd; serve_cmd; route_cmd; client_cmd; witnesses_cmd; gen_cmd; zoo_cmd; ijp_cmd; gadget_cmd; repairs_cmd; blame_cmd; responsibility_cmd; propagate_cmd; trace_check_cmd; scrape_cmd ]))
