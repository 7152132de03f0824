(* The repository benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--cli PATH] [--out DIR] [--smoke]
     main.exe --pin

   Workloads: serve_mix, serve_routed, solve_ptime, solve_hard (see
   LAYERS.md).  The last line of standard output is one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Lines before it
   are the run record, which is also written to DIR as JSON.  The process
   exits 1 when any answer is wrong. *)

let workloads = [ "serve_mix"; "serve_routed"; "solve_ptime"; "solve_hard" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve_mix|serve_routed|solve_ptime|solve_hard) [--seed N] [--seconds S] \
     [--trace 0|1] [--cli PATH] [--out DIR] [--smoke] | --pin";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  out : string;
  smoke : bool;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = Pinned.seed;
        seconds = 10.;
        trace = false;
        cli = "_build/default/bin/resilience_cli.exe";
        out = ".perfbench-out";
        smoke = false;
      }
  in
  let rec go = function
    | "--workload" :: w :: rest ->
      a := { !a with workload = w };
      go rest
    | "--seed" :: n :: rest ->
      a := { !a with seed = int_of_string n };
      go rest
    | "--seconds" :: s :: rest ->
      a := { !a with seconds = float_of_string s };
      go rest
    | "--trace" :: t :: rest ->
      a := { !a with trace = t = "1" };
      go rest
    | "--cli" :: p :: rest ->
      a := { !a with cli = p };
      go rest
    | "--out" :: d :: rest ->
      a := { !a with out = d };
      go rest
    | "--smoke" :: rest ->
      a := { !a with smoke = true };
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload workloads) then usage ();
  !a

(* ---- run record --------------------------------------------------------------- *)

let commit () =
  let read p = try Some (String.trim (Util.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when Util.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with Some c -> c | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let str s = "\"" ^ String.escaped s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metric (name, value, unit) = (name, obj [ ("value", num value); ("unit", str unit) ])

(* Run the CLI's trace validator on a written trace file. *)
let trace_check ~cli ~out path =
  let log = Filename.concat out "trace-check.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli [| cli; "trace-check"; path |] Unix.stdin fd fd in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (true, String.trim (Util.read_file log))
  | _ -> (false, String.trim (Util.read_file log))

let pin () =
  let values l = String.concat "; " (List.map (fun v -> string_of_int (Option.get v)) l) in
  let ptime = Inputs.ptime_pool ~seed:Pinned.seed ~scale:1 in
  let hard = Inputs.hard_pool ~seed:Pinned.seed ~size:100 in
  Printf.printf "let ptime = [| %s |]\n" (values (List.map (fun (s : Inputs.sized) -> Resilience.Solver.value s.db s.query) ptime));
  Printf.printf "let hard = [| %s |]\n"
    (values (List.map (fun (h : Inputs.hard) -> Resilience.Solver.value h.h.db h.h.query) hard))

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--pin" then (pin (); exit 0);
  let a = parse_args () in
  if not (Sys.file_exists a.cli) then (prerr_endline ("resilience CLI not found at " ^ a.cli); exit 2);
  if not (Sys.file_exists a.out) then Sys.mkdir a.out 0o755;
  at_exit Util.kill_all;
  let run () =
    match a.workload with
    | "serve_mix" | "serve_routed" ->
      Serve_wl.run ~cli:a.cli ~dir:a.out ~routed:(a.workload = "serve_routed") ~seed:a.seed ~seconds:a.seconds
        ~trace:a.trace ~smoke:a.smoke
    | w -> Solve_wl.run ~hard:(w = "solve_hard") ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~smoke:a.smoke
  in
  let o = run () in
  let lat = Array.copy o.lat in
  Array.sort compare lat;
  let n = Array.length lat in
  let pct p = Util.percentile lat p in
  let p50, b50 = pct 50. and p90, b90 = pct 90. and p99, b99 = pct 99. in
  let fops = float (max 1 n) in
  let failed = Report.failed o in
  let fail_ratio = float failed /. float (max 1 o.attempted) in
  let e2e =
    [
      ("setup_s", Util.median o.setup_s, "s");
      ("ops_per_s", float n /. o.elapsed, "1/s");
      ("latency_p50_ms", p50 *. 1000., "ms");
      ("latency_p90_ms", p90 *. 1000., "ms");
      ("latency_p99_ms", p99 *. 1000., "ms");
      ("cpu_ms_per_op", o.cpu_s *. 1000. /. fops, "ms");
      ("rss_mb", o.rss_mb, "MiB");
    ]
  in
  let trace_file = Filename.concat a.out (Printf.sprintf "trace-%s-s%d.json" a.workload a.seed) in
  let trace_ok, trace_msg =
    if a.trace then begin
      Spans.write_chrome trace_file;
      trace_check ~cli:a.cli ~out:a.out trace_file
    end
    else (true, "")
  in
  let record =
    obj
      [
        ("workload", str a.workload);
        ("seed", string_of_int a.seed);
        ("nproc", string_of_int (Util.nproc ()));
        ("commit", str (commit ()));
        ("ocaml", str Sys.ocaml_version);
        ("run_seconds", num a.seconds);
        ("timed_seconds", num o.elapsed);
        ("trace", string_of_bool a.trace);
        ("smoke", string_of_bool a.smoke);
        ("setup_s_samples", "[" ^ String.concat ", " (List.map num o.setup_s) ^ "]");
        ("latency_samples", string_of_int n);
        ( "percentiles",
          obj
            (List.map
               (fun (k, v, beyond) -> (k, obj [ ("ms", num (v *. 1000.)); ("samples", string_of_int n); ("beyond", string_of_int beyond) ]))
               [ ("p50", p50, b50); ("p90", p90, b90); ("p99", p99, b99) ]) );
        ("attempted", string_of_int o.attempted);
        ("failures", obj (List.map (fun (k, v) -> (k, string_of_int v)) o.failures));
        ("fail_ratio", num fail_ratio);
        ("end_to_end", obj (List.map metric e2e));
        ("per_layer", obj (List.map metric o.layers));
        ( "layer_detail",
          obj (List.map (fun (k, v, u, base) -> (k, obj [ ("value", num v); ("unit", str u); ("base", str base) ])) o.extras) );
      ]
  in
  let record_file =
    Filename.concat a.out (Printf.sprintf "run-%s-s%d-t%d.json" a.workload a.seed (if a.trace then 1 else 0))
  in
  Out_channel.with_open_bin record_file (fun oc -> output_string oc (record ^ "\n"));
  Printf.printf "run workload=%s seed=%d nproc=%d commit=%s ocaml=%s run_seconds=%g timed_seconds=%.3f\n" a.workload
    a.seed (Util.nproc ()) (commit ()) Sys.ocaml_version a.seconds o.elapsed;
  Printf.printf "set-up: %s s (median of %d)\n" (String.concat " " (List.map (Printf.sprintf "%.3f") o.setup_s))
    (List.length o.setup_s);
  List.iter
    (fun (k, v, beyond) -> Printf.printf "latency %s %.3f ms  (%d samples, %d beyond)\n" k (v *. 1000.) n beyond)
    [ ("p50", p50, b50); ("p90", p90, b90); ("p99", p99, b99) ];
  Printf.printf "fail_ratio %g  (%d of %d attempted%s)\n" fail_ratio failed o.attempted
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %s=%d" k v) o.failures));
  if not a.trace then List.iter (fun (k, v, u) -> Printf.printf "metric %s %.6g %s\n" k v u) e2e
  else begin
    List.iter (fun (k, v, u) -> Printf.printf "layer %s %.6g %s\n" k v u) o.layers;
    List.iter (fun (k, v, u, base) -> Printf.printf "layer %s %.6g %s  (%s)\n" k v u base) o.extras;
    print_string "self time by span (ms per op):\n";
    let tbl = Spans.aggregate () in
    let ops = match Hashtbl.find_opt tbl "op" with Some a -> a.count | None -> 1 in
    Hashtbl.fold (fun k (v : Spans.agg) acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, (x : Spans.agg)) (_, y) -> compare y.self x.self)
    |> List.iter (fun (k, (v : Spans.agg)) ->
           Printf.printf "  %-22s %8d calls %12.4f ms/op\n" k v.count (v.self *. 1000. /. float ops));
    Printf.printf "trace %s: trace-check %s: %s\n" trace_file (if trace_ok then "ok" else "FAILED") trace_msg
  end;
  Printf.printf "record %s\n" record_file;
  let correct = Report.mismatches o = 0 && trace_ok in
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int failed);
         ("metrics", obj (List.map metric (if a.trace then o.layers else e2e)));
       ]);
  exit (if correct then 0 else 1)
