open Res_cq
open Res_db
open Resilience
module Executor = Res_exec.Executor
module Obs = Res_obs.Obs

type instance = { label : string; query : Query.t; db : Database.t }

type outcome = {
  label : string;
  query : Query.t;
  key : string;
  verdict : Classify.verdict;
  solution : Solution.t;
  solve_cached : bool;
}

(* A canonical query class: the representative parsed once, its verdict,
   and its component plan.  All three are built when the entry is
   inserted, so a class shared by many threads is immutable from then on
   (no lazy part is forced concurrently). *)
type cls = { canonical : Query.t; verdict : Classify.verdict; plan : Solver.component list }

type prepared =
  | Plain of { query : Query.t; verdict : Classify.verdict }
  | Keyed of { query : Query.t; keyed : Canon.keyed; cls : cls }

type t = {
  cached : bool;
  memo : Query_memo.t;  (* the query's own structure → its canonical key and renaming *)
  classes : (string, cls) Cache.t;  (* canonical key → class *)
  solve_cache : (string * string, Solution.t) Cache.t;
  resp_cache : (string * string, int option) Cache.t;
  stats : Stats.t;
  lock : Mutex.t;
      (* guards the caches and the stats; never held while classifying or
         solving, so a slow exact search cannot stall other threads'
         cache hits *)
}

let create ?(cached = true) ?(classify_capacity = 4096) ?(solve_capacity = 4096) () =
  {
    cached;
    memo = Query_memo.create ~capacity:classify_capacity ();
    classes = Cache.create ~capacity:classify_capacity ();
    solve_cache = Cache.create ~capacity:solve_capacity ();
    resp_cache = Cache.create ~capacity:solve_capacity ();
    stats = Stats.create ();
    lock = Mutex.create ();
  }

let stats t = t.stats

(* Persistence hooks: the solve cache is the engine's durable state (the
   memo and the class cache rebuild in microseconds from query text).  A
   listener sees every optimal solution as it is inserted; seeding
   bypasses the listener so log replay cannot echo. *)
let on_solve_insert t f = Cache.set_on_insert t.solve_cache f
let seed_solve t key sol = Cache.seed t.solve_cache key sol
let solve_cache_stats t =
  (Cache.length t.solve_cache, Cache.hits t.solve_cache, Cache.misses t.solve_cache)

let locked t f = Mutex.protect t.lock f

(* Wall-clock time, the clock of the server's histograms (see stats.mli). *)
let with_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [Canon.keyed], once per distinct query. *)
let keyed t q =
  let k, miss = Query_memo.keyed t.memo q in
  locked t (fun () ->
      match miss with
      | None -> t.stats.canon_hits <- t.stats.canon_hits + 1
      | Some dt ->
        t.stats.canon_misses <- t.stats.canon_misses + 1;
        t.stats.canon_time <- t.stats.canon_time +. dt);
  k

let class_of t (k : Canon.keyed) =
  let hit =
    locked t (fun () ->
        match Cache.find t.classes k.key with
        | Some c ->
          t.stats.classify_hits <- t.stats.classify_hits + 1;
          Some c
        | None -> None)
  in
  match hit with
  | Some c -> c
  | None ->
    let c, dt =
      with_time (fun () ->
          Obs.span ~cat:"engine" "classify" (fun () ->
              let canonical = Canon.canonical_query k.key in
              { canonical; verdict = Classify.verdict_of canonical; plan = Solver.plan canonical }))
    in
    locked t (fun () ->
        t.stats.classify_misses <- t.stats.classify_misses + 1;
        t.stats.classify_time <- t.stats.classify_time +. dt;
        Cache.add t.classes k.key c);
    c

let prepare t q =
  if not t.cached then begin
    let v, dt = with_time (fun () -> Classify.verdict_of q) in
    locked t (fun () ->
        t.stats.classify_misses <- t.stats.classify_misses + 1;
        t.stats.classify_time <- t.stats.classify_time +. dt);
    Plain { query = q; verdict = v }
  end
  else
    let keyed = keyed t q in
    Keyed { query = q; keyed; cls = class_of t keyed }

let verdict = function Plain p -> p.verdict | Keyed k -> k.cls.verdict
let canon = function Plain _ -> None | Keyed k -> Some k.keyed
let classify t q = verdict (prepare t q)

type solve_outcome =
  | Solved of Solution.t * bool
  | Timed_out of Res_bounds.Interval.t

(* The interval's witness set lives in canonical fact space; reuse the
   solution translation to map it back.  Bounds and status are invariant
   under the renaming. *)
let translate_interval_back k q iv =
  let module I = Res_bounds.Interval in
  match (I.ub iv, I.witness_set iv) with
  | Some u, (_ :: _ as ws) -> begin
    match Canon.translate_solution_back k q (Solution.Finite (u, ws)) with
    | Solution.Finite (u', ws') -> I.of_bounds ~witness_set:ws' ~lb:(I.lb iv) ~ub:(Some u') ()
    | Solution.Unbreakable -> iv
  end
  | _ -> iv

(* On a miss the *canonical* instance is solved from the class's plan, so
   the stored solution is reusable by — and translatable back to — every
   instance of the class with the same database digest.  A timed-out
   search is never cached: its bound is not the exact answer, and a retry
   with a longer deadline must not be poisoned by it. *)
let solve_keyed_bounded t ?(cancel = Resilience.Cancel.never) ?pool (k : Canon.keyed) cls db q =
  let dg, dt_dg = with_time (fun () -> Canon.instance_digest k q db) in
  let hit =
    locked t (fun () ->
        t.stats.digest_time <- t.stats.digest_time +. dt_dg;
        match Cache.find t.solve_cache (k.key, dg) with
        | Some sol ->
          t.stats.solve_hits <- t.stats.solve_hits + 1;
          Some sol
        | None -> None)
  in
  match hit with
  | Some sol -> Solved (Canon.translate_solution_back k q sol, true)
  | None ->
    let res, dt =
      with_time (fun () ->
          Obs.span ~cat:"engine" "solve" (fun () ->
              Solver.solve_plan ~cancel ?pool (Canon.translate_db k q db) cls.plan))
    in
    (match res with
    | Solver.Done (sol, _) ->
      locked t (fun () ->
          t.stats.solve_misses <- t.stats.solve_misses + 1;
          t.stats.solve_time <- t.stats.solve_time +. dt;
          Cache.add t.solve_cache (k.key, dg) sol);
      Solved (Canon.translate_solution_back k q sol, false)
    | Solver.Timeout iv ->
      locked t (fun () ->
          t.stats.solve_timeouts <- t.stats.solve_timeouts + 1;
          t.stats.solve_time <- t.stats.solve_time +. dt);
      Timed_out (translate_interval_back k q iv))

(* The uncached engine's path: no canonical key, the solver plans the
   query itself. *)
let solve_plain t ?cancel ?pool db q =
  let res, dt = with_time (fun () -> Solver.solve_bounded ?cancel ?pool db q) in
  match res with
  | Solver.Done (sol, _) ->
    locked t (fun () ->
        t.stats.solve_misses <- t.stats.solve_misses + 1;
        t.stats.solve_time <- t.stats.solve_time +. dt);
    Solved (sol, false)
  | Solver.Timeout iv ->
    locked t (fun () ->
        t.stats.solve_timeouts <- t.stats.solve_timeouts + 1;
        t.stats.solve_time <- t.stats.solve_time +. dt);
    Timed_out iv

let solve_prepared t ?cancel ?pool db = function
  | Plain { query; _ } -> solve_plain t ?cancel ?pool db query
  | Keyed { query; keyed; cls } -> solve_keyed_bounded t ?cancel ?pool keyed cls db query

let solve_bounded t ?cancel ?pool db q =
  if not t.cached then solve_plain t ?cancel ?pool db q
  else solve_prepared t ?cancel ?pool db (prepare t q)

let solve t db q =
  match solve_bounded t db q with
  | Solved (sol, _) -> sol
  | Timed_out _ -> assert false

(* Fingerprint fast path for the streaming tier.  The versioned database's
   O(1) content fingerprint stands in for the O(|D|) canonical instance
   digest.  Unlike the digest it is neither renaming- nor mirror-invariant
   and covers the whole database, so the witnessing renaming is folded into
   the cache key and hits are shared only between instances with literally
   equal databases — what is bought is that re-solving a mutated-then-
   reverted instance costs no per-fact hashing at all.  The stored value is
   the solution already translated into the caller's vocabulary, sound
   because equal key ⟹ equal canonical class, renaming and database
   content.  A miss falls through to {!solve_keyed_bounded}, which also
   feeds the digest-keyed entry for cross-instance sharing. *)
let solve_versioned t (vdb : Vdb.t) q =
  if not t.cached then (solve t (Vdb.db vdb) q, false)
  else begin
    let k = keyed t q in
    let rel_repr =
      String.concat ","
        (List.map (fun (a, b) -> a ^ ">" ^ b) (List.sort compare k.renaming.rel_map))
      ^ if k.renaming.mirrored then "~m" else ""
    in
    let fast_key = (k.key ^ "|" ^ rel_repr, "fp:" ^ Vdb.fingerprint vdb) in
    let hit =
      locked t (fun () ->
          match Cache.find t.solve_cache fast_key with
          | Some sol ->
            t.stats.solve_hits <- t.stats.solve_hits + 1;
            Some sol
          | None -> None)
    in
    match hit with
    | Some sol -> (sol, true)
    | None -> begin
      match solve_keyed_bounded t k (class_of t k) (Vdb.db vdb) q with
      | Solved (sol, cached) ->
        locked t (fun () -> Cache.add t.solve_cache fast_key sol);
        (sol, cached)
      | Timed_out _ -> assert false (* Cancel.never cannot fire *)
    end
  end

(* Responsibility through the same canonical lens: the fact is translated
   into the canonical vocabulary alongside the database, so instances of
   one class share entries whenever digest and canonical fact coincide.
   The cached value is the minimum contingency size — an [int option] is
   invariant under the renaming, so no back-translation is needed on a
   hit.  As with solving, a timed-out answer is never cached. *)
let resp_miss t ?cancel ?pool db q f =
  let r, dt =
    with_time (fun () ->
        Obs.span ~cat:"engine" "responsibility" (fun () ->
            Responsibility.min_contingency_bounded ?cancel ?pool db q f))
  in
  locked t (fun () ->
      t.stats.resp_misses <- t.stats.resp_misses + 1;
      t.stats.resp_time <- t.stats.resp_time +. dt);
  r

let responsibility_prepared t ?cancel ?pool db p (f : Database.fact) =
  match p with
  | Plain { query; _ } -> (resp_miss t ?cancel ?pool db query f, false)
  | Keyed { query = q; keyed = k; cls } -> begin
    match Canon.translate_fact k q f with
    | None -> (Responsibility.Complete None, false) (* relation absent from the query *)
    | Some cf ->
      let dg, dt_dg = with_time (fun () -> Canon.instance_digest k q db) in
      let cache_key = (k.Canon.key ^ "|" ^ Canon.fact_repr cf.rel cf.tuple, dg) in
      let hit =
        locked t (fun () ->
            t.stats.digest_time <- t.stats.digest_time +. dt_dg;
            match Cache.find t.resp_cache cache_key with
            | Some r ->
              t.stats.resp_hits <- t.stats.resp_hits + 1;
              Some r
            | None -> None)
      in
      match hit with
      | Some r -> (Responsibility.Complete r, true)
      | None ->
        let r = resp_miss t ?cancel ?pool (Canon.translate_db k q db) cls.canonical cf in
        (match r with
        | Responsibility.Complete r -> locked t (fun () -> Cache.add t.resp_cache cache_key r)
        | Responsibility.Interrupted _ -> ());
        (r, false)
  end

let responsibility_bounded t ?cancel ?pool db q f =
  if not t.cached then (resp_miss t ?cancel ?pool db q f, false)
  else responsibility_prepared t ?cancel ?pool db (prepare t q) f

let responsibility t db q f =
  match responsibility_bounded t db q f with
  | Responsibility.Complete r, cached -> (r, cached)
  | Responsibility.Interrupted _, _ -> assert false (* Cancel.never cannot fire *)

let count_instance t = locked t (fun () -> t.stats.instances <- t.stats.instances + 1)

let class_key = function Plain _ -> None | Keyed k -> Some k.keyed.Canon.key

let solve_item t (i, (inst : instance), p) =
  match solve_prepared t inst.db p with
  | Solved (solution, solve_cached) ->
    let key = Option.value ~default:"" (class_key p) in
    (i, { label = inst.label; query = inst.query; key; verdict = verdict p; solution; solve_cached })
  | Timed_out _ -> assert false (* Cancel.never cannot fire *)

let run t ?pool instances =
  let with_keys = List.mapi (fun i (inst : instance) -> (i, inst, prepare t inst.query)) instances in
  (* group equivalence classes consecutively; stable, so equal keys keep
     input order *)
  let sorted =
    List.stable_sort
      (fun (_, _, p1) (_, _, p2) ->
        match (class_key p1, class_key p2) with
        | Some a, Some b -> compare a b
        | _ -> 0)
      with_keys
  in
  let solve_one ((_, (inst : instance), _) as item) =
    count_instance t;
    if Obs.enabled () then
      Obs.span ~cat:"engine" "item" ~args:[ ("label", inst.label) ] (fun () -> solve_item t item)
    else solve_item t item
  in
  (* Parallelism is per equivalence class, not per instance: within one
     class the first solve fills the cache the rest hit, so running a
     class's instances concurrently would only duplicate the hard solve.
     Distinct classes share nothing and fan out across the executor. *)
  let outcomes =
    match pool with
    | Some pool when Executor.jobs pool > 1 ->
      let same_class (_, _, p1) (_, _, p2) =
        match (class_key p1, class_key p2) with Some a, Some b -> a = b | _ -> false
      in
      let groups =
        List.fold_left
          (fun acc item ->
            match acc with
            | (hd :: _ as g) :: rest when same_class hd item -> (item :: g) :: rest
            | _ -> [ item ] :: acc)
          [] sorted
        |> List.rev_map List.rev
      in
      List.concat (Executor.parallel_map pool (List.map solve_one) groups)
    | _ -> List.map solve_one sorted
  in
  List.sort (fun (i, _) (j, _) -> compare i j) outcomes |> List.map snd

(* --- instance files ----------------------------------------------------- *)

exception Parse_error of string

let parse_line lineno line =
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno m))) fmt in
  let label, body =
    if String.length line > 0 && line.[0] = '@' then begin
      match String.index_opt line ' ' with
      | Some i ->
        ( String.sub line 1 (i - 1),
          String.sub line (i + 1) (String.length line - i - 1) )
      | None -> fail "label without an instance"
    end
    else (Printf.sprintf "#%d" lineno, line)
  in
  match String.index_opt body '|' with
  | None -> fail "expected \"QUERY | FACTS\""
  | Some i ->
    let query_s = String.trim (String.sub body 0 i) in
    let facts_s = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
    let query =
      match Parser.query_opt query_s with
      | Ok q -> q
      | Error msg -> fail "query: %s" msg
    in
    let db =
      try Fact_syntax.database facts_s
      with Fact_syntax.Parse_error msg -> fail "facts: %s" msg
    in
    { label; query; db }

let parse_instances text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (lineno, line) -> parse_line lineno line)

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_instances (In_channel.input_all ic))
