(* Differential testing of the batched engine (lib/engine/) against the
   exact solver: random queries from the Theorem 37 fragment × random
   databases, pushed through the canonical-key caches.  The engine must
   (a) agree with Exact on every PTIME-classified instance, (b) return a
   byte-identical solution from the cache on a second run, and (c) always
   return a genuine minimum contingency set after translating the cached
   canonical solution back into the instance's vocabulary. *)

open Res_db
open Resilience
module Engine = Res_engine.Batch
module Canon = Res_engine.Canon

let qp = Res_cq.Parser.query

(* one shared engine across the whole differential run, so late iterations
   exercise a populated cache (including cross-query hits between
   isomorphic fragment members) *)
let engine = lazy (Engine.create ())

(* shared with test_exec/test_obs — see test/generators.ml *)
let solution_equal = Generators.solution_equal

let prop_engine_differential =
  QCheck.Test.make ~count:600
    ~name:"differential: engine = exact on PTIME instances; cached rerun identical"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query = Generators.fragment_query seed in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:5 query in
      let eng = Lazy.force engine in
      let first = Engine.solve eng db query in
      let second = Engine.solve eng db query in
      let cached_identical = solution_equal first second in
      let agrees_with_exact =
        match Engine.classify eng query with
        | Classify.Ptime _ -> Solution.value first = Exact.value db query
        | _ -> true
      in
      let solution_genuine =
        match first with
        | Solution.Unbreakable -> Exact.value db query = None
        | Solution.Finite (v, facts) ->
          List.length facts = v
          && List.for_all (Database.mem db) facts
          && Exact.is_contingency_set db query facts
      in
      if not cached_identical then QCheck.Test.fail_report "cached rerun differs";
      if not agrees_with_exact then QCheck.Test.fail_report "engine disagrees with exact";
      if not solution_genuine then QCheck.Test.fail_report "solution is not a minimum contingency set";
      true)

(* --- canonical-key laws ------------------------------------------------- *)

(* arbitrary small queries, beyond the fragment (multiple self-joins,
   a ternary relation, random exogenous marks) — Generators.random_query *)
let random_query = Generators.random_query

(* a random bijective renaming of the query's relations (arities are per
   relation, so any injective renaming is an isomorphism) *)
let rename_relations st q =
  let rels = Res_cq.Query.relations q in
  let fresh = List.mapi (fun i r -> (r, Printf.sprintf "N%d%d" (Random.State.int st 3) i)) rels in
  let atoms =
    List.map
      (fun (a : Res_cq.Atom.t) -> Res_cq.Atom.make (List.assoc a.rel fresh) a.args)
      (Res_cq.Query.atoms q)
  in
  let exo =
    List.filter_map
      (fun (r, r') -> if Res_cq.Query.is_exogenous q r then Some r' else None)
      fresh
  in
  Res_cq.Query.make ~exo atoms

let prop_canon_key_invariant =
  QCheck.Test.make ~count:300 ~name:"canon: key invariant under renaming and mirroring"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 17 |] in
      let q = random_query st in
      let k = Canon.key q in
      Canon.key (rename_relations st q) = k
      && Canon.key (Query_iso.mirror q) = k)

(* The query memo and the class cache must be invisible: for a random
   query, a relation-renamed copy and its mirror, [prepare] — a memo miss,
   then a hit — hands back exactly [Canon.keyed]'s key and renaming, and ρ
   solved from the class's plan equals the plain solver's. *)
let memo_engine = lazy (Engine.create ())

let prop_memo_matches_canon =
  QCheck.Test.make ~count:200
    ~name:"engine: memoized key and renaming = Canon.keyed, rho = Solver.solve"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 41 |] in
      let q = random_query st in
      let eng = Lazy.force memo_engine in
      List.for_all
        (fun v ->
          let expected = Canon.keyed v in
          let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 v in
          let rho = Solution.value (Solver.solve db v) in
          List.for_all
            (fun _ ->
              let p = Engine.prepare eng v in
              if Engine.canon p <> Some expected then
                QCheck.Test.fail_reportf "memoized key differs for %s" (Res_cq.Query.to_string v);
              match Engine.solve_prepared eng db p with
              | Engine.Solved (s, _) -> Solution.value s = rho
              | Engine.Timed_out _ -> false)
            [ 1; 2 ])
        [ q; rename_relations st q; Query_iso.mirror q ])

let prop_canon_key_sound =
  QCheck.Test.make ~count:300
    ~name:"canon: key parses back to an isomorphic-up-to-mirror representative"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 23 |] in
      let q = random_query st in
      let rep = Canon.canonical_query (Canon.key q) in
      (Query_iso.isomorphic q rep || Query_iso.isomorphic (Query_iso.mirror q) rep)
      && Canon.key rep = Canon.key q)

let prop_canon_distinguishes =
  (* two queries with equal keys must be isomorphic up to mirror — check on
     pairs of independently generated queries, which frequently collide on
     shape but differ in decorations *)
  QCheck.Test.make ~count:300 ~name:"canon: equal keys only for equivalent queries"
    QCheck.(pair (int_bound 10_000_000) (int_bound 10_000_000))
    (fun (s1, s2) ->
      let q1 = random_query (Random.State.make [| s1; 31 |]) in
      let q2 = random_query (Random.State.make [| s2; 31 |]) in
      Canon.key q1 <> Canon.key q2
      || Query_iso.isomorphic q1 q2
      || Query_iso.isomorphic (Query_iso.mirror q1) q2)

(* --- engine unit cases --------------------------------------------------- *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let engine_translates_solutions_back () =
  (* the S-instance is the R-instance renamed: the second solve is served
     from the first one's cache entry and must come back in S-vocabulary *)
  let eng = Engine.create () in
  let q1 = qp "R(x,y), R(y,z)" in
  let db1 = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  let q2 = qp "S(x,y), S(y,z)" in
  let db2 = Database.of_int_rows [ ("S", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  (match Engine.solve eng db1 q1 with
  | Solution.Finite (v, _) -> check_int "rho of R-chain" 2 v
  | Solution.Unbreakable -> Alcotest.fail "breakable");
  (match Engine.solve eng db2 q2 with
  | Solution.Finite (v, facts) ->
    check_int "rho of renamed chain" 2 v;
    check_bool "facts are S-facts of db2" true (List.for_all (Database.mem db2) facts)
  | Solution.Unbreakable -> Alcotest.fail "breakable");
  check_int "second solve hit the cache" 1 (Engine.stats eng).Res_engine.Stats.solve_hits

let engine_mirror_instance_shares_cache () =
  let eng = Engine.create () in
  let q1 = qp "A(x), R(x,y)" in
  let db1 = Database.of_int_rows [ ("A", [ [ 1 ] ]); ("R", [ [ 1; 2 ] ]) ] in
  let q2 = qp "A(x), R(y,x)" in
  let db2 = Database.of_int_rows [ ("A", [ [ 1 ] ]); ("R", [ [ 2; 1 ] ]) ] in
  let s1 = Engine.solve eng db1 q1 in
  let s2 = Engine.solve eng db2 q2 in
  check_int "same value" (Solution.value_exn s1) (Solution.value_exn s2);
  let st = Engine.stats eng in
  check_int "second solve hit the cache" 1 st.Res_engine.Stats.solve_hits;
  (match s2 with
  | Solution.Finite (_, facts) ->
    check_bool "facts un-mirrored into db2's vocabulary" true
      (List.for_all (Database.mem db2) facts)
  | Solution.Unbreakable -> Alcotest.fail "breakable");
  check_int "one canonical class" 1
    (st.Res_engine.Stats.solve_misses)

let engine_uncached_baseline_agrees () =
  let eng_on = Engine.create () in
  let eng_off = Engine.create ~cached:false () in
  let query = qp "A(x), R(x,y), R(z,y), C(z)" in
  List.iter
    (fun seed ->
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      check_bool "cached = uncached" true
        (solution_equal (Engine.solve eng_on db query) (Engine.solve eng_off db query)))
    [ 1; 2; 3; 4; 5 ]

let batch_run_preserves_order_and_dedupes () =
  let text =
    "# demo workload\n\
     @chain R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)\n\
     @renamed S(x,y), S(y,z) | S(1,2); S(2,3); S(3,3)\n\
     @perm A(x), R(x,y), R(y,x) | A(1); R(1,2); R(2,1)\n"
  in
  let instances = Engine.parse_instances text in
  check_int "three instances parsed" 3 (List.length instances);
  let eng = Engine.create () in
  let outcomes = Engine.run eng instances in
  check_bool "input order preserved" true
    (List.map (fun (o : Engine.outcome) -> o.label) outcomes = [ "chain"; "renamed"; "perm" ]);
  let chain = List.nth outcomes 0 and renamed = List.nth outcomes 1 in
  check_bool "renamed chain shares the canonical key" true (chain.key = renamed.key);
  check_bool "renamed chain solved from cache" true renamed.solve_cached;
  check_int "classification ran once per class" 2 (Engine.stats eng).Res_engine.Stats.classify_misses

let cache_lru_evicts_oldest () =
  let c = Res_engine.Cache.create ~capacity:10 () in
  for i = 1 to 10 do
    Res_engine.Cache.add c i (i * i)
  done;
  (* touch 1..5 so 6..10 are the least recently used *)
  for i = 1 to 5 do
    ignore (Res_engine.Cache.find c i)
  done;
  Res_engine.Cache.add c 11 121;
  check_bool "capacity respected" true (Res_engine.Cache.length c <= 10);
  check_bool "recently used survived" true (Res_engine.Cache.mem c 1 && Res_engine.Cache.mem c 11);
  check_bool "an old entry was evicted" true (Res_engine.Cache.evictions c > 0)

let suite =
  [
    Alcotest.test_case "engine: cross-query cache translation" `Quick engine_translates_solutions_back;
    Alcotest.test_case "engine: mirrored instance shares cache" `Quick engine_mirror_instance_shares_cache;
    Alcotest.test_case "engine: uncached baseline agrees" `Quick engine_uncached_baseline_agrees;
    Alcotest.test_case "batch: order, dedupe, per-class classify" `Quick batch_run_preserves_order_and_dedupes;
    Alcotest.test_case "cache: LRU eviction" `Quick cache_lru_evicts_oldest;
    QCheck_alcotest.to_alcotest prop_canon_key_invariant;
    QCheck_alcotest.to_alcotest prop_canon_key_sound;
    QCheck_alcotest.to_alcotest prop_memo_matches_canon;
    QCheck_alcotest.to_alcotest prop_canon_distinguishes;
    QCheck_alcotest.to_alcotest prop_engine_differential;
  ]
