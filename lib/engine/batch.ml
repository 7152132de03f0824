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

type t = {
  cached : bool;
  classify_cache : (string, Classify.verdict) Cache.t;
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
    classify_cache = Cache.create ~capacity:classify_capacity ();
    solve_cache = Cache.create ~capacity:solve_capacity ();
    resp_cache = Cache.create ~capacity:solve_capacity ();
    stats = Stats.create ();
    lock = Mutex.create ();
  }

let stats t = t.stats

(* Persistence hooks: the solve cache is the engine's durable state (the
   classify cache rebuilds in microseconds from query text).  A listener
   sees every optimal solution as it is inserted; seeding bypasses the
   listener so log replay cannot echo. *)
let on_solve_insert t f = Cache.set_on_insert t.solve_cache f
let seed_solve t key sol = Cache.seed t.solve_cache key sol
let solve_cache_stats t =
  (Cache.length t.solve_cache, Cache.hits t.solve_cache, Cache.misses t.solve_cache)

let locked t f = Mutex.protect t.lock f

let with_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Canonicalization is pure; only the time accounting needs the lock. *)
let timed_canon t f =
  let r, dt = with_time (fun () -> Obs.span ~cat:"engine" "canon" f) in
  locked t (fun () -> t.stats.canon_time <- t.stats.canon_time +. dt);
  r

let classify_keyed t (k : Canon.keyed) =
  let hit =
    locked t (fun () ->
        match Cache.find t.classify_cache k.key with
        | Some v ->
          t.stats.classify_hits <- t.stats.classify_hits + 1;
          Some v
        | None -> None)
  in
  match hit with
  | Some v -> v
  | None ->
    let v, dt =
      with_time (fun () ->
          Obs.span ~cat:"engine" "classify" (fun () ->
              Classify.verdict_of (Canon.canonical_query k.key)))
    in
    locked t (fun () ->
        t.stats.classify_misses <- t.stats.classify_misses + 1;
        t.stats.classify_time <- t.stats.classify_time +. dt;
        (* two threads may race to the same miss; both insertions store
           the same verdict, so the duplicate work is harmless *)
        Cache.add t.classify_cache k.key v);
    v

let classify t q =
  if not t.cached then begin
    let v, dt = with_time (fun () -> Classify.verdict_of q) in
    locked t (fun () ->
        t.stats.classify_misses <- t.stats.classify_misses + 1;
        t.stats.classify_time <- t.stats.classify_time +. dt);
    v
  end
  else classify_keyed t (timed_canon t (fun () -> Canon.keyed q))

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

(* On a miss the *canonical* instance is solved, so the stored solution is
   reusable by — and translatable back to — every instance of the class
   with the same database digest.  A timed-out search is never cached:
   its bound is not the exact answer, and a retry with a longer deadline
   must not be poisoned by it. *)
let solve_keyed_bounded t ?(cancel = Resilience.Cancel.never) ?pool (k : Canon.keyed) db q =
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
              Solver.solve_bounded ~cancel ?pool (Canon.translate_db k q db)
                (Canon.canonical_query k.key)))
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

let solve_keyed t k db q =
  match solve_keyed_bounded t k db q with
  | Solved (sol, cached) -> (sol, cached)
  | Timed_out _ -> assert false (* Cancel.never cannot fire *)

let solve_bounded t ?cancel ?pool db q =
  if not t.cached then begin
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
  end
  else solve_keyed_bounded t ?cancel ?pool (timed_canon t (fun () -> Canon.keyed q)) db q

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
    let k = timed_canon t (fun () -> Canon.keyed q) in
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
      match solve_keyed_bounded t k (Vdb.db vdb) q with
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
let responsibility_bounded t ?cancel ?pool db q (f : Database.fact) =
  let miss db q f =
    let r, dt =
      with_time (fun () ->
          Obs.span ~cat:"engine" "responsibility" (fun () ->
              Responsibility.min_contingency_bounded ?cancel ?pool db q f))
    in
    locked t (fun () ->
        t.stats.resp_misses <- t.stats.resp_misses + 1;
        t.stats.resp_time <- t.stats.resp_time +. dt);
    r
  in
  if not t.cached then (miss db q f, false)
  else begin
    let k = timed_canon t (fun () -> Canon.keyed q) in
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
        let r = miss (Canon.translate_db k q db) (Canon.canonical_query k.key) cf in
        (match r with
        | Responsibility.Complete r -> locked t (fun () -> Cache.add t.resp_cache cache_key r)
        | Responsibility.Interrupted _ -> ());
        (r, false)
  end

let responsibility t db q f =
  match responsibility_bounded t db q f with
  | Responsibility.Complete r, cached -> (r, cached)
  | Responsibility.Interrupted _, _ -> assert false (* Cancel.never cannot fire *)

let count_instance t = locked t (fun () -> t.stats.instances <- t.stats.instances + 1)

let solve_item t (i, (inst : instance), keyed) =
  match keyed with
  | None ->
    let verdict = classify t inst.query in
    let solution = solve t inst.db inst.query in
    (i, { label = inst.label; query = inst.query; key = ""; verdict; solution; solve_cached = false })
  | Some k ->
    let verdict = classify_keyed t k in
    let solution, solve_cached = solve_keyed t k inst.db inst.query in
    (i, { label = inst.label; query = inst.query; key = k.Canon.key; verdict; solution; solve_cached })

let run t ?pool instances =
  let indexed = List.mapi (fun i (inst : instance) -> (i, inst)) instances in
  let with_keys =
    if not t.cached then List.map (fun (i, inst) -> (i, inst, None)) indexed
    else
      List.map
        (fun (i, (inst : instance)) ->
          (i, inst, Some (timed_canon t (fun () -> Canon.keyed inst.query))))
        indexed
  in
  (* group equivalence classes consecutively; stable, so equal keys keep
     input order *)
  let sorted =
    List.stable_sort
      (fun (_, _, k1) (_, _, k2) ->
        match (k1, k2) with
        | Some a, Some b -> compare a.Canon.key b.Canon.key
        | _ -> 0)
      with_keys
  in
  let solve_one (i, (inst : instance), keyed) =
    count_instance t;
    if Obs.enabled () then
      Obs.span ~cat:"engine" "item" ~args:[ ("label", inst.label) ] (fun () ->
          solve_item t (i, inst, keyed))
    else solve_item t (i, inst, keyed)
  in
  (* Parallelism is per equivalence class, not per instance: within one
     class the first solve fills the cache the rest hit, so running a
     class's instances concurrently would only duplicate the hard solve.
     Distinct classes share nothing and fan out across the executor. *)
  let outcomes =
    match pool with
    | Some pool when Executor.jobs pool > 1 ->
      let same_class a b =
        match (a, b) with
        | (_, _, Some k1), (_, _, Some k2) -> k1.Canon.key = k2.Canon.key
        | _ -> false
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
