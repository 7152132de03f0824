(* The solve workloads: one closed-loop caller running [Solver.solve] over a
   pool of generated instances, server and engine bypassed.

   solve_ptime cycles through sixteen PTIME instances, a quarter of them at
   10^5 tuples and the rest at 10^4; solve_hard cycles through a hundred
   NP-complete instances at jobs 1, a few percent of them a heavier 3SAT
   gadget so that p99 falls inside that band. *)

open Res_cq
open Res_db
open Resilience

type inst = {
  s : Inputs.sized;
  cnf : (Res_sat.Cnf.t * int) option;
  pinned : int option;  (* ρ pinned for the default seed *)
}

let pool ~hard ~seed ~smoke =
  if hard then
    let size = if smoke then 12 else 100 in
    Inputs.hard_pool ~seed ~size
    |> List.mapi (fun i (h : Inputs.hard) ->
           { s = h.h; cnf = h.cnf; pinned = (if seed = Pinned.seed && not smoke then Some Pinned.hard.(i) else None) })
    |> Array.of_list
  else
    Inputs.ptime_pool ~seed ~scale:(if smoke then 100 else 1)
    |> List.mapi (fun i s ->
           { s; cnf = None; pinned = (if seed = Pinned.seed && not smoke then Some Pinned.ptime.(i) else None) })
    |> Array.of_list

(* One set-up: generate the pool and run one warm-up pass over it (the
   hard pool) or over one 10^4 instance per family (the PTIME pool). *)
let setup ~hard ~seed ~smoke =
  let p = pool ~hard ~seed ~smoke in
  let warm = if hard then Array.to_list p else List.filteri (fun i _ -> i < 4) (Array.to_list p) in
  List.iter (fun x -> ignore (Solver.solve x.s.db x.s.query)) warm;
  p

(* ---- answer checking -------------------------------------------------- *)

let witness_isets db q =
  let ids = Hashtbl.create 1024 in
  let id (f : Database.fact) =
    match Hashtbl.find_opt ids f with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids f i;
      i
  in
  Eval.witness_fact_sets db q
  |> List.map (fun fs ->
         Database.Fact_set.fold
           (fun (f : Database.fact) acc ->
             if Query.is_exogenous q f.rel then acc else Res_bounds.Iset.add (id f) acc)
           fs Res_bounds.Iset.empty)

(* A returned solution is correct when its contingency set is valid, its
   size matches the value pinned for the default seed, and — on the hard
   pool — it respects the certified LP lower bound and the 3SAT
   reduction's threshold (satisfiable iff ρ ≤ k). *)
let check_solution x sol =
  match sol with
  | Solution.Unbreakable -> false
  | Solution.Finite (rho, facts) ->
    Oracle.valid_set x.s.db x.s.query rho facts
    && (match x.pinned with Some v -> v = rho | None -> true)
    && (x.cnf = None || Res_bounds.Lower.lp_value (witness_isets x.s.db x.s.query) <= rho)
    && match x.cnf with Some (cnf, k) -> Res_sat.Dpll.satisfiable cnf = (rho <= k) | None -> true

(* Every op's answer is compared with the verified first answer of its
   instance (the solver is deterministic, so they must be equal). *)
let check pool results =
  let verified = Hashtbl.create 128 in
  List.map
    (fun (i, sol) ->
      let ok =
        match Hashtbl.find_opt verified i with
        | Some first -> sol = first
        | None ->
          let ok = check_solution pool.(i) sol in
          if ok then Hashtbl.replace verified i sol;
          ok
      in
      if ok then None else Some "mismatch")
    results

(* ---- traced ops --------------------------------------------------------- *)

type probe = { line : string; isets : Res_bounds.Iset.t list option }

let traced_op tr ~hard x probe =
  let sp name f = Spans.span tr name f in
  let (sol, algos), solve_dt =
    sp "core.solve" (fun () -> Util.time (fun () -> Solver.solve_traced x.s.db x.s.query))
  in
  (match sp "server.parse" (fun () -> Res_server.Protocol.parse probe.line) with
  | Ok (Res_server.Protocol.Solve { body; _ }) ->
    let i = String.index body '|' in
    let q = sp "cq.parse" (fun () -> Parser.query (String.sub body 0 i)) in
    let db =
      sp "db.facts_parse" (fun () ->
          Database.of_facts (Fact_syntax.facts (String.sub body (i + 1) (String.length body - i - 1))))
    in
    ignore (sp "engine.canon" (fun () -> Res_engine.Canon.(instance_digest (keyed q) q db)))
  | _ -> ());
  ignore (sp "core.classify" (fun () -> Classify.classify x.s.query));
  ignore (sp "db.view" (fun () -> Eval.view x.s.db x.s.query));
  ignore (sp "db.reduce" (fun () -> Eval.reduce x.s.db x.s.query));
  let w = sp "db.witnesses" (fun () -> Eval.count x.s.db x.s.query) in
  ignore (sp "server.encode" (fun () -> Res_server.Protocol.solution ~cached:false sol));
  let exact =
    if hard then begin
      ignore (sp "db.witness_sets" (fun () -> Eval.witness_fact_sets x.s.db x.s.query));
      Option.iter (fun isets -> ignore (sp "bounds.lp" (fun () -> Res_bounds.Lower.lp_value isets))) probe.isets;
      Exact.reset_stats ();
      ignore (sp "core.exact" (fun () -> Exact.resilience x.s.db x.s.query));
      Some (Exact.last_stats ())
    end
    else None
  in
  (sol, List.map (fun (t : Solver.trace) -> t.algorithm) algos, solve_dt, w, exact)

(* ---- the run ------------------------------------------------------------ *)

let run ~hard ~seed ~seconds ~trace ~smoke =
  let reps = if trace then 1 else 3 in
  let setups =
    List.init reps (fun _ ->
        (* drop the previous repetition's pool before timing the next *)
        Gc.compact ();
        Util.time (fun () -> setup ~hard ~seed ~smoke))
  in
  let pool = fst (List.nth setups (reps - 1)) in
  let n = Array.length pool in
  let results = ref [] and lat = ref [] and untraced = ref [] in
  let solve_op j =
    let i = j mod n in
    let x = pool.(i) in
    let sol, dt = Util.time (fun () -> Solver.solve x.s.db x.s.query) in
    results := (i, sol) :: !results;
    (i, dt)
  in
  (* the timed phase, tracing off; a traced run spends half of it here *)
  let span = if trace then seconds /. 2. else seconds in
  let cpu0 = Util.self_cpu_s () in
  let t0 = Util.now () in
  let j = ref 0 in
  while Util.now () -. t0 < span do
    let i, dt = solve_op !j in
    lat := dt :: !lat;
    untraced := (pool.(i).s.name, dt) :: !untraced;
    incr j
  done;
  let elapsed = Util.now () -. t0 in
  let cpu_s = Util.self_cpu_s () -. cpu0 in
  let layers, extras =
    if not trace then ([], [])
    else begin
      let probes =
        Array.map
          (fun x ->
            {
              line = "solve " ^ Inputs.body_text x.s.query x.s.db;
              isets = (if hard then Some (witness_isets x.s.db x.s.query) else None);
            })
          pool
      in
      Spans.enabled := true;
      let tr = Spans.track 0 in
      let gc0 = Gc.minor_words () in
      let t1 = Util.now () in
      let traced = ref [] and wits = ref 0 and ops = ref 0 in
      let per_algo = Hashtbl.create 8 in
      let ex = { Exact.nodes = 0; lp_calls = 0; lp_prunes = 0; covers = 0 } in
      while Util.now () -. t1 < seconds /. 2. do
        let i = !j mod n in
        let x = pool.(i) in
        let op = !j in
        let (sol, algos, solve_dt, w, exact), dt = Util.time (fun () -> Spans.op tr ~op "op" (fun () -> traced_op tr ~hard x probes.(i))) in
        results := (i, sol) :: !results;
        traced := (op, x.s.name, dt) :: !traced;
        wits := !wits + w;
        let key = String.concat "+" (List.sort_uniq compare algos) in
        let s, k = Option.value ~default:(0., 0) (Hashtbl.find_opt per_algo key) in
        Hashtbl.replace per_algo key (s +. solve_dt, k + 1);
        Option.iter
          (fun (e : Exact.search_stats) ->
            ex.nodes <- ex.nodes + e.nodes;
            ex.lp_calls <- ex.lp_calls + e.lp_calls;
            ex.lp_prunes <- ex.lp_prunes + e.lp_prunes;
            ex.covers <- ex.covers + e.covers)
          exact;
        incr j;
        incr ops
      done;
      Spans.enabled := false;
      let ops = !ops in
      let minor = (Gc.minor_words () -. gc0) /. float (max 1 ops) /. 1e6 in
      let tbl = Spans.aggregate () in
      let layers =
        Report.common_layers tbl ~ops ~witnesses:!wits ~minor_mwords:minor
        @ Report.overhead ~untraced:!untraced ~traced:!traced ~span_self:(Spans.self_by_op ())
      in
      let per name = Spans.self_per_op tbl ~ops name in
      let fops = float (max 1 ops) in
      let extras =
        (match Spans.self_per_call tbl "core.classify" with
         | Some (s, n) -> [ ("core.classify_ms", s *. 1e3, "ms", Printf.sprintf "mean of %d calls" n) ]
         | None -> [])
        @ (if hard then
             [
               ("db.witness_sets_ms", per "db.witness_sets" *. 1e3, "ms", "per op");
               ("bounds.lp_ms", per "bounds.lp" *. 1e3, "ms", "per op");
               ("core.exact_ms", per "core.exact" *. 1e3, "ms", "per op");
               ("exact.nodes", float ex.nodes /. fops, "count", Printf.sprintf "%d over %d ops" ex.nodes ops);
               ("exact.lp_calls", float ex.lp_calls /. fops, "count", Printf.sprintf "%d over %d ops" ex.lp_calls ops);
               ("exact.lp_prunes", float ex.lp_prunes /. fops, "count", Printf.sprintf "%d over %d ops" ex.lp_prunes ops);
               ("exact.covers", float ex.covers /. fops, "count", Printf.sprintf "%d over %d ops" ex.covers ops);
               ( "exact.lp_prune_ratio",
                 (if ex.lp_calls > 0 then float ex.lp_prunes /. float ex.lp_calls else 0.),
                 "ratio",
                 Printf.sprintf "%d/%d" ex.lp_prunes ex.lp_calls );
             ]
           else
             [
               ( "db.view_share",
                 (let s = per "core.solve" in if s > 0. then per "db.view" /. s else 0.),
                 "ratio",
                 "db.view self / core.solve self" );
             ])
        @ (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_algo []
          |> List.sort compare
          |> List.map (fun (algo, (s, k)) ->
                 (Printf.sprintf "core.solve_ms[%s]" algo, s /. float k *. 1e3, "ms", Printf.sprintf "mean of %d ops" k)))
      in
      (layers, extras)
    end
  in
  let failures = Report.tally (check pool (List.rev !results)) in
  {
    Report.setup_s = List.map snd setups;
    lat = Array.of_list (List.rev !lat);
    elapsed;
    cpu_s;
    rss_mb = Util.proc_peak_rss_mb 0;
    attempted = List.length !results;
    failures;
    layers;
    extras;
  }
