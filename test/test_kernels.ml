(* Differential testing of the columnar PTIME solver kernels:
   [Flow.solve] and [Special]'s Pairs/APerm/Z3 strategies build their
   flow networks and bipartite cover graphs on interned ids through
   [Eval.view] + [Res_col.Flowbuild]/[Res_col.Matchbuild].  The
   reference is the exact branch-and-bound solver ([Exact.value]).
   Four layers:

   - solver-level qcheck differentials: kernel values must equal the
     exact resilience across the binary zoo × random databases,
     sequentially and on a 4-domain pool;
   - strategy-level differentials: Flow and each Special strategy
     compared directly on its own template, with the returned
     contingency set checked to falsify the query;
   - an oracle over every polynomial route of the plan: the returned set
     is duplicate-free, endogenous, falsifying, of size ρ and
     irredundant;
   - adversarial units: repeated-variable atoms R(x,x), exogenous
     relations and per-fact exogenity, multi-component databases,
     empty cuts, unbreakable instances — plus [Db_gen] family
     instances, too large for the exact solver, solved at jobs 1 and 4
     against values pinned when the structural graph builders still
     cross-checked the kernels. *)

open Res_db
open Resilience

let qp = Res_cq.Parser.query

let value_str = function None -> "unbreakable" | Some v -> string_of_int v

let solve_value ?pool db q =
  match Solver.solve_bounded ?pool db q with
  | Solver.Done (s, _) -> Solution.value s
  | Solver.Timeout _ -> Alcotest.fail "unexpected timeout without a cancel token"

(* a solution is sound when removing its facts falsifies the query *)
let check_falsifies name db q = function
  | Solution.Unbreakable -> ()
  | Solution.Finite (v, facts) ->
    if List.length facts <> v then Alcotest.failf "%s: |facts| <> value" name;
    if Eval.sat (Database.remove_all db facts) q then
      Alcotest.failf "%s: contingency set does not falsify the query" name

(* --- solver-level differentials over the zoo ----------------------------- *)

let binary_zoo =
  lazy (List.filter (fun (en : Zoo.entry) -> Eval.columnar_eligible en.query) Zoo.all)

let random_db_for st q =
  let seed = Random.State.int st 1_000_000 in
  let domain = 1 + Random.State.int st 6 in
  let tuples = Random.State.int st 12 in
  Db_gen.random_for_query ~seed ~domain ~tuples_per_relation:tuples q

let prop_solver_zoo =
  QCheck.Test.make ~count:150
    ~name:"differential: kernel solver values = exact across the binary zoo"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let zoo = Lazy.force binary_zoo in
      let en = List.nth zoo (seed mod List.length zoo) in
      let st = Random.State.make [| seed; 977 |] in
      let db = random_db_for st en.query in
      let ker = solve_value db en.query in
      let exact = Exact.value db en.query in
      if ker <> exact then
        QCheck.Test.fail_reportf "%s: kernel=%s exact=%s" en.name (value_str ker)
          (value_str exact);
      true)

let prop_solver_zoo_pool =
  QCheck.Test.make ~count:60
    ~name:"differential: kernel path under a 4-domain pool = exact"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let zoo = Lazy.force binary_zoo in
      let en = List.nth zoo (seed mod List.length zoo) in
      let st = Random.State.make [| seed; 991 |] in
      let db = random_db_for st en.query in
      let ker =
        Res_exec.Executor.with_executor ~jobs:4 (fun pool -> solve_value ~pool db en.query)
      in
      ker = Exact.value db en.query)

(* --- strategy-level differentials ---------------------------------------- *)

(* run one strategy: its value must be the exact resilience and its
   contingency set must falsify the query *)
let against_exact name db q solve =
  let ker = solve db q in
  check_falsifies name db q ker;
  let exact = Exact.value db q in
  if Solution.value ker <> exact then
    Alcotest.failf "%s: kernel=%s exact=%s" name (value_str (Solution.value ker))
      (value_str exact);
  ker

let prop_flow_kernel =
  QCheck.Test.make ~count:120
    ~name:"differential: Flow kernel = exact on linear queries"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let queries =
        [|
          qp "A(x), R(x,y), B(y)";
          qp "A(x), R(x,y), S(y,z), C(z)";
          qp "A(x), R(x,y), R(z,y), C(z)";
          qp "R(x,x), S(x,y)";
          qp "A^x(x), R(x,y), B(y)";
        |]
      in
      let q = queries.(seed mod Array.length queries) in
      let st = Random.State.make [| seed; 1009 |] in
      let db = random_db_for st q in
      let solve db q =
        match Flow.solve db q with
        | Some s -> s
        | None -> Alcotest.fail "query should be linear"
      in
      ignore (against_exact "flow" db q solve);
      true)

let prop_special_kernels =
  QCheck.Test.make ~count:120
    ~name:"differential: Special Pairs/APerm/Z3 kernels = exact"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let cases =
        [|
          ("perm", qp "R(x,y), R(y,x)", fun db q -> Special.solve_perm ~r:"R" db q);
          ( "aperm",
            qp "A(x), R(x,y), R(y,x)",
            fun db q -> Special.solve_a_perm ~a:"A" ~r:"R" db q );
          ("z3", qp "R(x,x), R(x,y), A(y)", fun db q -> Special.solve_z3 ~r:"R" ~a:"A" db q);
        |]
      in
      let name, q, solve = cases.(seed mod Array.length cases) in
      let st = Random.State.make [| seed; 1013 |] in
      let db =
        Db_gen.random_for_query
          ~seed:(Random.State.int st 1_000_000)
          ~domain:(2 + Random.State.int st 7)
          ~tuples_per_relation:(Random.State.int st 40)
          q
      in
      ignore (against_exact name db q solve);
      true)

(* --- every polynomial route returns an irredundant minimum set ---------- *)

(* The solvers return a route's cut or cover as it stands, with no
   shrinking pass: its size is the route's flow value or matching size,
   which the paper shows is ρ, so no fact of it can be spared.  Checked
   per planned component on the database its route reads (the split
   copies materialized, unmirrored: a mirrored template's answer is
   already mapped back to the user's facts).  Beside the binary zoo, the
   queries of the routes no zoo entry takes: trivial, REP flow, pair
   collapse, a mirrored template, the witness cover and two components. *)
let route_queries =
  lazy
    (List.map (fun (en : Zoo.entry) -> (en.name, en.query)) (Lazy.force binary_zoo)
    @ List.map
        (fun s -> (s, qp s))
        [
          "A^x(x), R^x(x,y)";
          "R(x,x), R(x,y), A(y), B(y)";
          "R(x,y), R(y,x), B^x(y)";
          "R(x,x), R(y,x), A(y)";
          "R(x,y), R(y,x), S^x(x,z), T^x(y,z)";
          "R(x,y), R(y,x), A(u), S(u,v), B(v)";
        ])

let prop_routes_irredundant =
  QCheck.Test.make ~count:300
    ~name:"oracle: every polynomial route returns an irredundant minimum contingency set"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let queries = Lazy.force route_queries in
      let name, query = List.nth queries (seed mod List.length queries) in
      let st = Random.State.make [| seed; 1019 |] in
      let db = random_db_for st query in
      List.iter
        (fun (c : Solver.component) ->
          let q = c.query in
          let db_c = Solver.route_db db { c with route = Solver.Trivial } in
          match Solver.run db c with
          | algorithm, _ when String.starts_with ~prefix:"exact" algorithm -> ()
          | algorithm, Solver.Interval _ ->
            QCheck.Test.fail_reportf "%s / %s: interval without a deadline" name algorithm
          | algorithm, Solver.Value s -> (
            let fail msg = QCheck.Test.fail_reportf "%s / %s: %s" name algorithm msg in
            let exact = Exact.value db_c q in
            match s with
            | Solution.Unbreakable -> if exact <> None then fail "unbreakable, exact is finite"
            | Solution.Finite (v, facts) ->
              let falsified facts = not (Eval.sat (Database.remove_all db_c facts) q) in
              if List.length (List.sort_uniq Database.compare_fact facts) <> List.length facts
              then fail "duplicate facts";
              if
                not
                  (List.for_all
                     (fun (f : Database.fact) ->
                       Database.mem db f && not (Res_cq.Query.is_exogenous q f.rel))
                     facts)
              then fail "a fact is exogenous or not in the database";
              if not (falsified facts) then fail "the set does not falsify the query";
              if v <> List.length facts || Some v <> exact then
                fail (Printf.sprintf "size %d, value %d, exact %s" (List.length facts) v
                        (value_str exact));
              List.iter
                (fun f ->
                  if falsified (List.filter (fun g -> Database.compare_fact g f <> 0) facts) then
                    fail "restoring one fact leaves the query false")
                facts))
        (Solver.plan query);
      true)

(* --- Db_gen families at jobs 1 and 4 ------------------------------------- *)

(* each instance with the resilience the kernel and structural builders
   agreed on *)
let family_instances () =
  let n = 2_000 in
  let k = n / 5 in
  [
    ("perm", qp "R(x,y), R(y,x)", Db_gen.power_law ~seed:3 ~nodes:k ~edges:n ~rel:"R", 58);
    ( "aperm",
      qp "A(x), R(x,y), R(y,x)",
      Database.union
        (Db_gen.power_law ~seed:5 ~nodes:k ~edges:(n - k) ~rel:"R")
        (Db_gen.unary ~count:k ~rel:"A"),
      45 );
    ( "linear",
      qp "A(x), R(x,y), B(y)",
      Database.union
        (Db_gen.bipartite ~seed:7 ~left:k ~right:k ~edges:(n - (2 * k)) ~rel:"R")
        (Database.union
           (Db_gen.unary ~count:k ~rel:"A")
           (Database.of_rows [ ("B", List.init k (fun i -> [ Value.i (k + i) ])) ])),
      372 );
    ( "ac_conf",
      qp "A(x), R(x,y), R(z,y), C(z)",
      Database.union
        (Db_gen.bipartite ~seed:11 ~left:k ~right:k ~edges:(n - (2 * k)) ~rel:"R")
        (Database.union
           (Db_gen.unary ~count:k ~rel:"A")
           (Database.of_rows [ ("C", List.init k (fun i -> [ Value.i i ]) ) ])),
      377 );
    ( "z3",
      qp "R(x,x), R(x,y), A(y)",
      Database.union
        (Db_gen.power_law ~seed:13 ~nodes:k ~edges:(n - k - (k / 4)) ~rel:"R")
        (Database.union
           (Database.of_rows [ ("R", List.init (k / 4) (fun i -> [ Value.i i; Value.i i ])) ])
           (Db_gen.unary ~count:k ~rel:"A")),
      101 );
  ]

let db_gen_families_jobs () =
  List.iter
    (fun (name, q, db, pinned) ->
      let ker = solve_value db q in
      Alcotest.(check (option int)) (name ^ ": pinned value at jobs 1") (Some pinned) ker;
      let ker4 =
        Res_exec.Executor.with_executor ~jobs:4 (fun pool -> solve_value ~pool db q)
      in
      Alcotest.(check (option int)) (name ^ ": jobs 4 = jobs 1") ker ker4)
    (family_instances ())

(* --- adversarial units --------------------------------------------------- *)

let adversarial_repeated_variable () =
  (* R(x,x) atoms: only diagonal tuples match; the kernel layer filters
     them from the interned columns *)
  let q = qp "R(x,x), S(x,y)" in
  let db =
    Database.of_int_rows
      [ ("R", [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ]; [ 3; 4 ] ]); ("S", [ [ 1; 9 ]; [ 2; 9 ] ]) ]
  in
  let s = against_exact "diag" db q (fun db q -> Flow.solve_exn db q) in
  Alcotest.(check (option int)) "two independent witnesses" (Some 2) (Solution.value s)

let adversarial_exogenous_relation () =
  (* an exogenous relation gives its layer infinite capacity; with every
     layer exogenous the instance is unbreakable *)
  let q = qp "A^x(x), R(x,y), B(y)" in
  let db =
    Database.of_int_rows [ ("A", [ [ 1 ] ]); ("R", [ [ 1; 2 ] ]); ("B", [ [ 2 ] ]) ]
  in
  let s = against_exact "exo-rel" db q (fun db q -> Flow.solve_exn db q) in
  Alcotest.(check (option int)) "cut through R or B" (Some 1) (Solution.value s);
  let q_all = qp "A^x(x), R^x(x,y), B^x(y)" in
  let s = against_exact "exo-all" db q_all (fun db q -> Flow.solve_exn db q) in
  Alcotest.(check bool) "unbreakable" true (s = Solution.Unbreakable)

let adversarial_fact_exogenous () =
  (* per-fact exogenity (the Prop 36 off-diagonal trick) keeps the
     exact value *)
  let q = qp "R(x,x), R(x,y), A(y)" in
  let db =
    Database.of_int_rows
      [ ("R", [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ]; [ 2; 3 ] ]); ("A", [ [ 2 ]; [ 3 ] ]) ]
  in
  let off_diag (f : Database.fact) =
    f.rel = "R" && match f.tuple with [ a; b ] -> not (Value.equal a b) | _ -> false
  in
  let solve db q = Flow.solve_exn ~fact_exogenous:off_diag db q in
  ignore (against_exact "fact-exo" db q solve)

let adversarial_multi_component () =
  (* two disconnected blocks: the cut must break both *)
  let q = qp "A(x), R(x,y), B(y)" in
  let block base =
    Database.of_int_rows
      [
        ("A", [ [ base ] ]);
        ("R", [ [ base; base + 1 ]; [ base; base + 2 ] ]);
        ("B", [ [ base + 1 ]; [ base + 2 ] ]);
      ]
  in
  let db = Database.union (block 10) (block 20) in
  let s = against_exact "components" db q (fun db q -> Flow.solve_exn db q) in
  Alcotest.(check (option int)) "one A-fact per block" (Some 2) (Solution.value s)

let adversarial_empty_cut () =
  (* unsatisfied query: resilience 0, empty contingency set (the kernel
     path must survive an empty semijoin fixpoint) *)
  let q = qp "A(x), R(x,y), B(y)" in
  let db = Database.of_int_rows [ ("A", [ [ 1 ] ]); ("B", [ [ 9 ] ]) ] in
  let s = against_exact "empty" db q (fun db q -> Flow.solve_exn db q) in
  Alcotest.(check bool) "finite empty" true (s = Solution.Finite (0, []));
  (* and for the Special strategies *)
  let qperm = qp "R(x,y), R(y,x)" in
  let db1 = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  let s = against_exact "perm-empty" db1 qperm (fun db q -> Special.solve_perm ~r:"R" db q) in
  Alcotest.(check bool) "no two-way pair" true (s = Solution.Finite (0, []))

let adversarial_duplicates_and_arity () =
  (* duplicate rows and wrong-arity rows in the self-join relation *)
  let q = qp "R(x,y), R(y,x)" in
  let db =
    Database.of_rows
      [
        ( "R",
          [
            [ Value.i 1; Value.i 2 ];
            [ Value.i 1; Value.i 2 ];
            [ Value.i 2; Value.i 1 ];
            [ Value.i 7 ];
            [ Value.i 3; Value.i 3 ];
          ] );
      ]
  in
  let s = against_exact "dup" db q (fun db q -> Special.solve_perm ~r:"R" db q) in
  Alcotest.(check (option int)) "pair {1,2} and loop {3}" (Some 2) (Solution.value s)

(* A kernel solve compiles its instance once: the falsification check
   replays the removals on the kernel's view instead of interning the
   database a second time.  Counted as [col/intern] span openings with
   tracing on. *)
let kernel_compiles_once () =
  let module Obs = Res_obs.Obs in
  let interns f =
    let saved = Obs.enabled () in
    Obs.set_enabled true;
    Obs.clear ();
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled saved;
        Obs.clear ())
      (fun () ->
        ignore (f ());
        List.fold_left
          (fun n (d : Obs.dump) ->
            n
            + List.length
                (List.filter
                   (fun (e : Res_obs.Event.t) ->
                     e.phase = Res_obs.Event.Begin && e.cat = "col" && e.name = "intern")
                   d.events))
          0 (Obs.drain ()))
  in
  let perm = qp "R(x,y), R(y,x)" in
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 1 ]; [ 3; 4 ]; [ 4; 3 ]; [ 5; 5 ]; [ 5; 6 ] ]) ] in
  Alcotest.(check int) "perm solve: one col/intern" 1
    (interns (fun () -> Special.solve_perm ~r:"R" db perm));
  let linear = qp "A(x), R(x,y), B(y)" in
  let db =
    Database.of_int_rows
      [ ("A", [ [ 1 ]; [ 2 ] ]); ("R", [ [ 1; 3 ]; [ 2; 3 ]; [ 2; 4 ] ]); ("B", [ [ 3 ]; [ 4 ] ]) ]
  in
  Alcotest.(check int) "linear flow solve: one col/intern" 1
    (interns (fun () -> Flow.solve_exn db linear))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_solver_zoo;
    QCheck_alcotest.to_alcotest prop_solver_zoo_pool;
    QCheck_alcotest.to_alcotest prop_flow_kernel;
    QCheck_alcotest.to_alcotest prop_special_kernels;
    QCheck_alcotest.to_alcotest prop_routes_irredundant;
    Alcotest.test_case "db_gen families: kernel = pinned values at jobs 1/4" `Slow
      db_gen_families_jobs;
    Alcotest.test_case "adversarial: repeated-variable atoms" `Quick
      adversarial_repeated_variable;
    Alcotest.test_case "adversarial: exogenous relations" `Quick adversarial_exogenous_relation;
    Alcotest.test_case "adversarial: per-fact exogenity" `Quick adversarial_fact_exogenous;
    Alcotest.test_case "adversarial: multi-component databases" `Quick
      adversarial_multi_component;
    Alcotest.test_case "adversarial: empty cuts" `Quick adversarial_empty_cut;
    Alcotest.test_case "kernel solves compile once" `Quick kernel_compiles_once;
    Alcotest.test_case "adversarial: duplicates and wrong arity" `Quick
      adversarial_duplicates_and_arity;
  ]
