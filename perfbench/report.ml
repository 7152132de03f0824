(* What a workload run hands back to [Main] for printing. *)

type outcome = {
  setup_s : float list;  (* one per set-up repetition *)
  lat : float array;  (* seconds per completed timed op, tracing off *)
  elapsed : float;  (* wall seconds of the timed phase *)
  cpu_s : float;  (* CPU seconds of the serving processes in the timed phase *)
  rss_mb : float;  (* their peak resident set *)
  attempted : int;
  failures : (string * int) list;  (* busy / timeout / error / mismatch counts *)
  layers : (string * float * string) list;  (* per-layer metrics, traced runs only *)
  extras : (string * float * string * string) list;  (* name, value, unit, base *)
}

let failed o = List.fold_left (fun acc (_, n) -> acc + n) 0 o.failures
let mismatches o = Option.value ~default:0 (List.assoc_opt "mismatch" o.failures)

(* Tally the failure class of each checked reply. *)
let tally results =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r with
      | None -> ()
      | Some cls -> Hashtbl.replace tbl cls (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cls)))
    results;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Classify one service reply: [None] when it is a correct answer. *)
let classify_reply ~correct reply =
  if Util.starts_with ~prefix:"busy" reply then Some "busy"
  else if Util.starts_with ~prefix:"timeout" reply then Some "timeout"
  else if Util.starts_with ~prefix:"error" reply then Some "error"
  else if correct () then None
  else Some "mismatch"

(* Tracing overhead and span coverage from the untraced and traced ops of
   one run, matched by op class (kind or instance): the traced op time
   minus the untraced mean of its class, and the share of untraced op
   time that the op's non-root spans account for. *)
let overhead ~untraced ~traced ~span_self =
  let means = Hashtbl.create 16 in
  List.iter
    (fun (cls, d) ->
      let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt means cls) in
      Hashtbl.replace means cls (s +. d, n + 1))
    untraced;
  let over = ref 0. and base = ref 0. and covered = ref 0. and n = ref 0 in
  List.iter
    (fun (op, cls, d) ->
      match Hashtbl.find_opt means cls with
      | Some (s, k) ->
        let m = s /. float k in
        over := !over +. (d -. m);
        base := !base +. m;
        covered := !covered +. Option.value ~default:0. (Hashtbl.find_opt span_self op);
        incr n
      | None -> ())
    traced;
  let n = max 1 !n in
  [
    ("trace.overhead_ms_per_op", !over /. float n *. 1000., "ms");
    ("trace.span_coverage", (if !base > 0. then !covered /. !base else nan), "ratio");
  ]

(* The per-layer metrics every workload's traced run reports: self time
   per op of the spans around each layer's entry points. *)
let common_layers tbl ~ops ~witnesses ~minor_mwords =
  let per name scale = Spans.self_per_op tbl ~ops name *. scale in
  [
    ("server.parse_us", per "server.parse" 1e6, "us");
    ("cq.parse_us", per "cq.parse" 1e6, "us");
    ("db.facts_parse_us", per "db.facts_parse" 1e6, "us");
    ("engine.canon_us", per "engine.canon" 1e6, "us");
    ("core.classify_us", per "core.classify" 1e6, "us");
    ("db.view_ms", per "db.view" 1e3, "ms");
    ("db.reduce_ms", per "db.reduce" 1e3, "ms");
    ("db.witnesses", float witnesses /. float (max 1 ops), "count");
    ("core.solve_ms", per "core.solve" 1e3, "ms");
    ("server.encode_us", per "server.encode" 1e6, "us");
    ("gc.minor_mwords_per_op", minor_mwords, "Mwords");
  ]
