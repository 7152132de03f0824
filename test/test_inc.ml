(* The incremental subsystem (lib/inc) and its supporting layers: dynamic
   residual repair in Maxflow, the versioned database, warm-started
   simplex/B&B, the fingerprint fast path of the engine cache — each against its from-scratch counterpart — and
   the headline differential property: a streaming session agrees with a
   from-scratch solve after {e every} prefix of a random delta sequence,
   across the query zoo, both evaluation planes, and multicore pools. *)

open Res_db
open Resilience
module Session = Res_inc.Session
module Incflow = Res_inc.Incflow
module Maxflow = Res_graph.Maxflow

let qp = Res_cq.Parser.query

let vi i = Value.Int i

(* --- Maxflow.remove_edge ----------------------------------------------- *)

(* Delete edges one by one from a random network; after each deletion the
   incrementally repaired value must equal a from-scratch max-flow of the
   surviving edges. *)
let prop_maxflow_removal =
  QCheck.Test.make ~count:300 ~name:"maxflow: incremental edge deletion = rebuild"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 7 |] in
      let n = 4 + Random.State.int st 6 in
      let m = 6 + Random.State.int st 20 in
      let specs =
        List.init m (fun _ ->
            let src = Random.State.int st n in
            let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
            let cap = if Random.State.int st 5 = 0 then Maxflow.infinite else 1 + Random.State.int st 3 in
            (src, dst, cap))
      in
      let g = Maxflow.create n in
      let edges = List.map (fun (src, dst, cap) -> (Maxflow.add_edge g ~src ~dst ~cap, (src, dst, cap))) specs in
      let value = ref (Maxflow.max_flow g ~src:0 ~dst:1) in
      let remaining = ref edges in
      let ok = ref true in
      while !remaining <> [] && !ok do
        let i = Random.State.int st (List.length !remaining) in
        let e, _ = List.nth !remaining i in
        remaining := List.filter (fun (e', _) -> e' <> e) !remaining;
        value := !value - Maxflow.remove_edge g ~source:0 ~sink:1 e;
        value := !value + Maxflow.flow_limited g ~src:0 ~dst:1 ~limit:(max 0 (Maxflow.infinite - !value));
        let fresh = Maxflow.create n in
        List.iter (fun (_, (src, dst, cap)) -> ignore (Maxflow.add_edge fresh ~src ~dst ~cap)) !remaining;
        let expect = min (Maxflow.max_flow fresh ~src:0 ~dst:1) Maxflow.infinite in
        if min !value Maxflow.infinite <> expect then ok := false
      done;
      if not !ok then QCheck.Test.fail_report "incremental flow value diverged from rebuild";
      true)

(* --- Vdb ----------------------------------------------------------------- *)

let random_fact st (q : Res_cq.Query.t) =
  let rels = Res_cq.Query.relations q in
  let rel = List.nth rels (Random.State.int st (List.length rels)) in
  let ar = Res_cq.Query.arity_of q rel in
  Database.fact rel (List.init ar (fun _ -> vi (Random.State.int st 4)))

let random_delta st q db =
  let f =
    (* bias deletes towards present facts so they are usually effective *)
    if Random.State.bool st then random_fact st q
    else begin
      match Database.facts db with
      | [] -> random_fact st q
      | facts -> List.nth facts (Random.State.int st (List.length facts))
    end
  in
  if Random.State.bool st then Delta.insert f else Delta.delete f

let prop_vdb =
  QCheck.Test.make ~count:300 ~name:"vdb: db/version/fingerprint track deltas; revert restores fp"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 23 |] in
      let q = Generators.fragment_query seed in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      let v = Vdb.create db in
      let fp0 = Vdb.fingerprint v in
      let deltas = List.init 10 (fun _ -> random_delta st q (Vdb.db v)) in
      let eff = List.concat_map (fun d -> Vdb.apply v [ d ]) deltas in
      let by_hand = Delta.apply_db db deltas in
      let sorted d = List.sort compare (Database.facts d) in
      if sorted (Vdb.db v) <> sorted by_hand then QCheck.Test.fail_report "db contents diverged";
      if Vdb.version v <> List.length eff then QCheck.Test.fail_report "version != effective count";
      if Vdb.fingerprint v <> Vdb.fingerprint_of by_hand then
        QCheck.Test.fail_report "fingerprint != one-shot fingerprint of same contents";
      (* undo every effective delta in reverse: the fingerprint is content-
         determined, so it must come back exactly *)
      let undo = List.rev_map (function Delta.Insert f -> Delta.delete f | Delta.Delete f -> Delta.insert f) eff in
      ignore (Vdb.apply v undo);
      if Vdb.fingerprint v <> fp0 then QCheck.Test.fail_report "revert did not restore fingerprint";
      true)

(* --- engine fingerprint fast path (cache-under-mutation regression) ----- *)

let prop_engine_versioned =
  QCheck.Test.make ~count:150
    ~name:"engine: solve_versioned correct under mutation, hits after revert"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 29 |] in
      let q = Generators.fragment_query seed in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      let engine = Res_engine.Batch.create () in
      let v = Vdb.create db in
      let check () =
        let got, _ = Res_engine.Batch.solve_versioned engine v q in
        let expect = Solver.solve (Vdb.db v) q in
        if Solution.value got <> Solution.value expect then
          QCheck.Test.fail_report "versioned solve diverged from from-scratch after mutation"
      in
      check ();
      let _, hit = Res_engine.Batch.solve_versioned engine v q in
      if not hit then QCheck.Test.fail_report "identical re-solve missed the cache";
      let eff = ref [] in
      for _ = 1 to 5 do
        eff := !eff @ Vdb.apply v [ random_delta st q (Vdb.db v) ];
        check ()
      done;
      ignore
        (Vdb.apply v
           (List.rev_map
              (function Delta.Insert f -> Delta.delete f | Delta.Delete f -> Delta.insert f)
              !eff));
      let _, hit = Res_engine.Batch.solve_versioned engine v q in
      if not hit then QCheck.Test.fail_report "revert to a seen fingerprint missed the cache";
      true)

(* --- warm-started simplex and B&B ---------------------------------------- *)

let prop_simplex_warm =
  QCheck.Test.make ~count:300 ~name:"simplex: warm basis reaches the cold objective"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 31 |] in
      let n_sets = 2 + Random.State.int st 6 in
      let sets =
        List.init n_sets (fun _ ->
            Res_bounds.Iset.of_list (List.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st 6)))
      in
      let cold, basis = Res_bounds.Lower.lp_value_warm sets in
      let warm, _ = Res_bounds.Lower.lp_value_warm ~warm:basis sets in
      if cold <> warm then QCheck.Test.fail_report "warm restart changed the LP bound";
      if cold <> Res_bounds.Lower.lp_value sets then
        QCheck.Test.fail_report "lp_value_warm disagrees with lp_value";
      (* a stale basis from a *different* instance must also be harmless *)
      let other =
        List.init n_sets (fun _ ->
            Res_bounds.Iset.of_list (List.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st 6)))
      in
      let _, stale = Res_bounds.Lower.lp_value_warm other in
      let with_stale, _ = Res_bounds.Lower.lp_value_warm ~warm:stale sets in
      if cold <> with_stale then QCheck.Test.fail_report "stale warm basis changed the LP bound";
      true)

let prop_exact_seeded =
  QCheck.Test.make ~count:150 ~name:"exact: seed + lp_state leave the value unchanged"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 37 |] in
      let q = Generators.fragment_query seed in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      let base =
        match Exact.resilience_bounded db q with
        | Exact.Complete s -> s
        | Exact.Interrupted _ -> assert false (* no cancel token *)
      in
      let good_seed = match base with Solution.Finite (_, facts) -> facts | _ -> [] in
      let junk_seed = List.init 3 (fun _ -> random_fact st q) in
      let lp_state = Atomic.make None in
      List.iter
        (fun seed_facts ->
          match Exact.resilience_bounded ~seed:seed_facts ~lp_state db q with
          | Exact.Complete s ->
            if Solution.value s <> Solution.value base then
              QCheck.Test.fail_report "seeded search changed the value"
          | Exact.Interrupted _ -> assert false)
        [ good_seed; junk_seed; good_seed ];
      true)

(* --- Incflow against Flow and Exact ---------------------------------------- *)

(* Binary queries: [Flow.solve] runs the columnar kernel, an independent
   construction, so it serves as the oracle. *)
let incflow_queries =
  lazy
    [|
      qp "A(x), R(x,y), B(y)";
      qp "A^x(x), R(x,y), B(y)";
      qp "R(x,y), S(y,z)";
      qp "A(x), R(x,y), S(y,z), B(z)";
    |]

(* Arity 3: [Flow.solve] builds the same {!Witness_net} as [Incflow], so
   both are held to the exact search instead. *)
let arity3_queries =
  lazy
    [|
      qp "A(x), R(x,y,z), S(z,w)";
      qp "R^x(x,y,z), S(z,w)";
      qp "R(x,x,y), S(y,z)";
      qp "R(x,y,z), T(z,w,u), B(u)";
    |]

(* [Incflow] over a random delta sequence: after every batch its value must
   equal [oracle] (None = unbreakable) and its cut must be a genuine
   contingency set of that size. *)
let incflow_differential ~name ~seed_tag queries oracle =
  QCheck.Test.make ~count:200 ~name
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; seed_tag |] in
      let qs = Lazy.force queries in
      let q = qs.(seed mod Array.length qs) in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      let t = Option.get (Incflow.create db q) in
      let cur = ref db in
      let check () =
        let expect = oracle !cur q in
        match Incflow.solution t with
        | Solution.Unbreakable ->
          if expect <> None then QCheck.Test.fail_report "incflow unbreakable, oracle finite"
        | Solution.Finite (v, facts) ->
          if expect <> Some v then
            QCheck.Test.fail_report
              (Printf.sprintf "incflow %d, oracle %s" v
                 (match expect with Some e -> string_of_int e | None -> "unbreakable"));
          if not (List.for_all (Database.mem !cur) facts) then
            QCheck.Test.fail_report "incflow cut names an absent fact";
          if List.length facts <> v then QCheck.Test.fail_report "incflow cut size != value";
          if Eval.sat (Database.remove_all !cur facts) q then
            QCheck.Test.fail_report "incflow cut does not falsify the query"
      in
      check ();
      for _ = 1 to 8 do
        let d = random_delta st q !cur in
        let eff = Delta.effective !cur [ d ] in
        cur := Delta.apply_db !cur [ d ];
        Incflow.apply t eff;
        check ()
      done;
      true)

let prop_incflow =
  incflow_differential ~name:"incflow: value and solution match Flow.solve per delta" ~seed_tag:41
    incflow_queries (fun db q -> Solution.value (Flow.solve_exn db q))

let prop_structural_arity3 =
  incflow_differential ~name:"witness net: arity-3 Incflow and Flow.solve match Exact"
    ~seed_tag:53 arity3_queries (fun db q ->
      let expect = Exact.value db q in
      if Solution.value (Flow.solve_exn db q) <> expect then
        QCheck.Test.fail_report "Flow.solve disagrees with the exact search";
      expect)

(* --- the headline differential: sessions across the zoo ------------------ *)

let session_pool =
  lazy
    (Array.of_list
       (List.map (fun (e : Zoo.entry) -> e.query) Zoo.all
       @ [
           (* mirror-matched variants of the incremental templates *)
           qp "R(x,x), R(y,x), A(y)";
           qp "A(x), R(y,x), R(x,y)";
           (* multi-component: one streaming, one hard *)
           qp "R(x,y), R(y,x), S(u,v), S(v,w), S(w,u)";
           (* arity 3: runs on the backtracking join *)
           qp "R(x,y,z), S(z,w)";
         ]))

let run_session_differential ?pool st q db =
  let s = Session.create ?pool db q in
  let cur = ref db in
  let check () =
    (match Session.last s with
    | Session.Value got ->
      let expect = Solver.solve !cur q in
      if Solution.value got <> Solution.value expect then
        QCheck.Test.fail_report
          (Printf.sprintf "session %s, scratch %s (strategies: %s)"
             (match Solution.value got with Some v -> string_of_int v | None -> "unbreakable")
             (match Solution.value expect with Some v -> string_of_int v | None -> "unbreakable")
             (String.concat "," (Session.strategies s)))
    | Session.Interval _ -> QCheck.Test.fail_report "interval without a deadline");
    if not (Session.selfcheck s) then QCheck.Test.fail_report "selfcheck failed";
    if Session.fingerprint s <> Vdb.fingerprint_of !cur then
      QCheck.Test.fail_report "session fingerprint diverged"
  in
  check ();
  for _ = 1 to 6 do
    let d = random_delta st q !cur in
    cur := Delta.apply_db !cur [ d ];
    ignore (Session.apply ?pool s [ d ]);
    check ()
  done

let prop_session =
  QCheck.Test.make ~count:220 ~name:"session = from-scratch on every prefix (zoo)"
    QCheck.(int_bound 100_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 43 |] in
      let qs = Lazy.force session_pool in
      let q = qs.(seed mod Array.length qs) in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      run_session_differential st q db;
      true)

let prop_session_jobs4 =
  QCheck.Test.make ~count:30 ~name:"session = from-scratch with a 4-domain pool"
    QCheck.(int_bound 100_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 47 |] in
      let qs = Lazy.force session_pool in
      let q = qs.(seed mod Array.length qs) in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:4 q in
      Res_exec.Executor.with_executor ~jobs:4 (fun pool ->
          run_session_differential ~pool st q db;
          true))

(* --- deterministic spot checks ------------------------------------------- *)

let strategy_selection () =
  let expect q facts strat =
    let s = Session.create (Fact_syntax.database facts) (qp q) in
    Alcotest.(check (list string)) q [ strat ] (Session.strategies s)
  in
  expect "A(x), R(x,y), B(y)" "A(1); R(1,2); B(2)" "flow-repair";
  expect "R(x,y), R(y,x)" "R(1,2); R(2,1)" "pairs";
  expect "A(x), R(x,y), R(y,x)" "A(1); R(1,2); R(2,1)" "cover-aperm";
  expect "R(x,x), R(x,y), A(y)" "R(1,1); R(1,2); A(2)" "cover-z3";
  expect "R(x,x), R(y,x), A(y)" "R(1,1); R(2,1); A(2)" "cover-z3";
  expect "R(x,y), R(y,z), R(z,x)" "R(1,2); R(2,3); R(3,1)" "warm-exact";
  expect "A(x), R(x,y), R(y,z), R(z,y)" "A(1); R(1,2); R(2,3); R(3,2)" "recompute";
  expect "A^x(x), R^x(x,y)" "A(1); R(1,2)" "trivial"

let watch_session_basic () =
  let q = qp "R(x,y), R(y,x)" in
  let db = Fact_syntax.database "R(1,2); R(2,1); R(3,3)" in
  let s = Session.create db q in
  (match Session.last s with
  | Session.Value (Solution.Finite (v, _)) -> Alcotest.(check int) "initial rho" 2 v
  | _ -> Alcotest.fail "expected finite");
  (match Session.apply s (Delta.parse "-R(3, 3); +R(4, 5); +R(5, 4)") with
  | Session.Value (Solution.Finite (v, _)) -> Alcotest.(check int) "after batch" 2 v
  | _ -> Alcotest.fail "expected finite");
  Alcotest.(check int) "version counts effective deltas" 3 (Session.version s);
  (* an ineffective batch changes nothing, including the fingerprint *)
  let fp = Session.fingerprint s in
  ignore (Session.apply s (Delta.parse "+R(4, 5); -R(9, 9)"));
  Alcotest.(check int) "ineffective batch skipped" 3 (Session.version s);
  Alcotest.(check string) "fingerprint unchanged" fp (Session.fingerprint s)

(* The split-copy naming hazard under deltas: a user relation named like
   a copy ([A__2], [H__1]) must be neither filled from nor merged with the
   base relation's copies, before or after updates. *)
let split_copies_under_deltas () =
  List.iter
    (fun (query, facts, batches) ->
      let q = qp query in
      let cur = ref (Fact_syntax.database facts) in
      let s = Session.create !cur q in
      let check () =
        let expect = Exact.value !cur q in
        Alcotest.(check (option int)) (query ^ ": solver") expect (Solver.value !cur q);
        match Session.last s with
        | Session.Value v -> Alcotest.(check (option int)) (query ^ ": session") expect (Solution.value v)
        | Session.Interval _ -> Alcotest.fail "interval without a deadline"
      in
      check ();
      List.iter
        (fun batch ->
          let ds = Delta.parse batch in
          cur := Delta.apply_db !cur ds;
          ignore (Session.apply s ds);
          check ())
        batches)
    [
      ("A(x,y), A__2(y,z)", "A(1,2); A(2,3)", [ "+A__2(2,5)"; "-A(1,2)"; "+A(1,2); -A__2(2,5)" ]);
      ( "H^x(x,y), H^x(y,z), H__1(x,y)",
        "H(1,2); H(2,3); H__1(1,2)",
        [ "+H__1(2,3)"; "+H(3,4)"; "-H__1(1,2)"; "-H(2,3)" ] );
    ]

(* The streaming families at scale: each must stay on its incremental
   route (never [recompute]), and after alternating delete-initial /
   insert-fresh deltas the maintained answer must equal a from-scratch
   solve at every 10th prefix. *)
let streaming_families () =
  let n = 10_000 in
  let k = n / 5 and u = n / 10 in
  let st = Random.State.make [| 2026; n |] in
  let node st = vi (Random.State.int st k) in
  let families =
    [
      ( "R(x,y), R(y,x)",
        Db_gen.power_law ~seed:31 ~nodes:k ~edges:n ~rel:"R",
        (fun st -> Delta.insert (Database.fact "R" [ node st; node st ])),
        "pairs" );
      ( "A(x), R(x,y), R(y,x)",
        Database.union
          (Db_gen.power_law ~seed:37 ~nodes:k ~edges:(n - k) ~rel:"R")
          (Db_gen.unary ~count:k ~rel:"A"),
        (fun st ->
          if Random.State.bool st then Delta.insert (Database.fact "R" [ node st; node st ])
          else Delta.insert (Database.fact "A" [ node st ])),
        "cover-aperm" );
      ( "A(x), R(x,y), B(y)",
        Database.union
          (Db_gen.bipartite ~seed:41 ~left:u ~right:u ~edges:(n - (2 * u)) ~rel:"R")
          (Database.union (Db_gen.unary ~count:u ~rel:"A")
             (Database.of_rows [ ("B", List.init u (fun i -> [ vi (u + i) ])) ])),
        (fun st ->
          let left () = vi (Random.State.int st u) and right () = vi (u + Random.State.int st u) in
          match Random.State.int st 3 with
          | 0 -> Delta.insert (Database.fact "A" [ left () ])
          | 1 -> Delta.insert (Database.fact "B" [ right () ])
          | _ -> Delta.insert (Database.fact "R" [ left (); right () ])),
        "flow-repair" );
    ]
  in
  List.iter
    (fun (qs, db, fresh, strategy) ->
      let q = qp qs in
      let s = Session.create db q in
      Alcotest.(check (list string)) (qs ^ ": strategy") [ strategy ] (Session.strategies s);
      let initial = Array.of_list (Database.facts db) in
      let cur = ref db in
      let check i =
        match Session.last s with
        | Session.Value got ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: after %d deltas" qs i)
            (Solver.value !cur q) (Solution.value got)
        | Session.Interval _ -> Alcotest.fail "interval without a deadline"
      in
      check 0;
      for i = 1 to 50 do
        let d =
          if i mod 2 = 0 then Delta.delete initial.(Random.State.int st (Array.length initial))
          else fresh st
        in
        cur := Delta.apply_db !cur [ d ];
        ignore (Session.apply s [ d ]);
        if i mod 10 = 0 then check i
      done)
    families

let suite =
  [
    Alcotest.test_case "session: split copies never alias user relations" `Quick
      split_copies_under_deltas;
    Alcotest.test_case "strategy selection" `Quick strategy_selection;
    Alcotest.test_case "session basics" `Quick watch_session_basic;
    QCheck_alcotest.to_alcotest prop_maxflow_removal;
    QCheck_alcotest.to_alcotest prop_vdb;
    QCheck_alcotest.to_alcotest prop_engine_versioned;
    QCheck_alcotest.to_alcotest prop_simplex_warm;
    QCheck_alcotest.to_alcotest prop_exact_seeded;
    QCheck_alcotest.to_alcotest prop_incflow;
    QCheck_alcotest.to_alcotest prop_structural_arity3;
    QCheck_alcotest.to_alcotest prop_session;
    QCheck_alcotest.to_alcotest prop_session_jobs4;
    Alcotest.test_case "session: streaming families stay incremental" `Quick streaming_families;
  ]
