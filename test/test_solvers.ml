(* Tests for the resilience solvers: the exact branch-and-bound solver, the
   generic linear flow, the specialized PTIME solvers, and the dispatching
   front end — including the paper's semantic laws as properties. *)

open Res_db
open Resilience

let q = Res_cq.Parser.query
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rho db query =
  match Exact.value db query with Some v -> v | None -> -1

(* --- exact solver unit cases -------------------------------------------- *)

let exact_section2_example () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  check_int "chain example" 2 (rho db (q "R(x,y), R(y,z)"))

let exact_zero_when_false () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  check_int "unsatisfied query" 0 (rho db (q "R(x,y), R(y,z), R(z,x)"))

let exact_unbreakable () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  check_bool "all-exogenous witness" true (Exact.value db (q "R^x(x,y)") = None)

let exact_example11 () =
  (* Example 11: with R endogenous ρ = 1 via R(1,2); making R exogenous
     (as naive domination would) forces both A tuples *)
  let db =
    Database.of_int_rows
      [ ("A", [ [ 1 ]; [ 5 ] ]); ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ]; [ 5; 1 ]; [ 2; 5 ] ]) ]
  in
  let query = q "A(x), R(x,y), R(y,z), R(z,x)" in
  check_int "R endogenous: single tuple suffices" 1 (rho db query);
  check_int "R exogenous: need both A tuples" 2
    (rho db (q "A(x), R^x(x,y), R^x(y,z), R^x(z,x)"))

let exact_contingency_is_real () =
  let db = Db_gen.random_graph ~seed:3 ~nodes:5 ~edges:14 ~rel:"R" in
  let query = q "R(x,y), R(y,z)" in
  match Exact.resilience db query with
  | Solution.Finite (v, facts) ->
    check_int "set size matches value" v (List.length facts);
    check_bool "deleting it falsifies" true (Exact.is_contingency_set db query facts)
  | Solution.Unbreakable -> Alcotest.fail "should be breakable"

let exact_in_res () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  let query = q "R(x,y), R(y,z)" in
  check_bool "(D,2) in RES" true (Exact.in_res db query 2);
  check_bool "(D,1) not in RES" false (Exact.in_res db query 1);
  (* D not satisfying q is not in RES by Definition 1 *)
  let db0 = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  check_bool "unsatisfied not in RES" false (Exact.in_res db0 query 5)

let exact_perm_pairs () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 1 ]; [ 3; 4 ]; [ 4; 3 ]; [ 5; 5 ]; [ 1; 3 ] ]) ] in
  check_int "qperm counts pairs + loop" 3 (rho db (q "R(x,y), R(y,x)"))

(* --- flow solver --------------------------------------------------------- *)

let flow_rejects_nonlinear () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("S", [ [ 2; 3 ] ]); ("T", [ [ 3; 1 ] ]) ] in
  check_bool "triangle not linear" true (Flow.solve db (q "R(x,y), S(y,z), T(z,x)") = None)

let flow_linear_agrees () =
  let query = q "A(x), R(x,y), S(y,z)" in
  for seed = 1 to 25 do
    let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:7 query in
    match Flow.solve db query with
    | Some s ->
      check_bool
        (Printf.sprintf "flow=exact seed %d" seed)
        true
        (Solution.value s = Exact.value db query)
    | None -> Alcotest.fail "linear query must flow"
  done

let flow_unbreakable () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("S", [ [ 2; 3 ] ]) ] in
  check_bool "exogenous-only witness detected" true
    (Flow.solve db (q "R^x(x,y), S^x(y,z)") = Some Solution.Unbreakable)

let flow_fact_exogenous () =
  (* force one specific tuple uncuttable *)
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("S", [ [ 2; 3 ] ]) ] in
  let pinned (f : Database.fact) = f.rel = "R" in
  match Flow.solve ~fact_exogenous:pinned db (q "R(x,y), S(y,z)") with
  | Some (Solution.Finite (1, [ f ])) -> Alcotest.(check string) "cuts S" "S" f.rel
  | _ -> Alcotest.fail "expected to cut the S tuple"

let flow_confluence_lemma55 () =
  (* qACconf: duplicate edges for the two R-atom positions must not be
     double-counted (Prop 31 / Lemma 55) *)
  let query = q "A(x), R(x,y), R(z,y), C(z)" in
  for seed = 1 to 40 do
    let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
    match Flow.solve db query with
    | Some s ->
      check_bool
        (Printf.sprintf "confluence flow seed %d" seed)
        true
        (Solution.value s = Exact.value db query)
    | None -> Alcotest.fail "qACconf is linear"
  done

(* --- specialized solvers -------------------------------------------------- *)

let agree name query_str ~solver ~trials ~domain ~tuples =
  let query = q query_str in
  for seed = 1 to trials do
    let db = Db_gen.random_for_query ~seed ~domain ~tuples_per_relation:tuples query in
    let s = solver db query in
    if Solution.value s <> Exact.value db query then
      Alcotest.failf "%s: seed %d, special=%s exact=%s" name seed
        (Format.asprintf "%a" Solution.pp s)
        (match Exact.value db query with Some v -> string_of_int v | None -> "inf")
  done

let special_perm () =
  agree "qperm" "R(x,y), R(y,x)" ~solver:(Special.solve_perm ~r:"R") ~trials:40 ~domain:5
    ~tuples:12

let special_a_perm () =
  agree "qAperm" "A(x), R(x,y), R(y,x)"
    ~solver:(Special.solve_a_perm ~a:"A" ~r:"R")
    ~trials:40 ~domain:4 ~tuples:10

let special_z3 () =
  agree "z3" "R(x,x), R(x,y), A(y)" ~solver:(Special.solve_z3 ~r:"R" ~a:"A") ~trials:40
    ~domain:4 ~tuples:10

let special_a3perm () =
  agree "qA3perm-R" "A(x), R(x,y), R(y,z), R(z,y)"
    ~solver:(Special.solve_a3perm ~a:"A" ~r:"R")
    ~trials:60 ~domain:4 ~tuples:10

let special_swx3perm () =
  agree "qSwx3perm-R" "S(w,x), R(x,y), R(y,z), R(z,y)"
    ~solver:(Special.solve_swx3perm ~s:"S" ~r:"R")
    ~trials:60 ~domain:4 ~tuples:8

let special_ts3conf () =
  agree "qTS3conf" "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)"
    ~solver:(Special.solve_ts3conf ~t_rel:"T" ~r:"R" ~s_rel:"S")
    ~trials:60 ~domain:4 ~tuples:8

let ts3conf_forced_tuples () =
  (* a tuple present in T, R and S at once is forced into every
     contingency set (Prop 41) *)
  let db =
    Database.of_int_rows
      [ ("T", [ [ 1; 2 ] ]); ("S", [ [ 1; 2 ] ]); ("R", [ [ 1; 2 ] ]) ]
  in
  let query = q "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)" in
  match Special.solve_ts3conf ~t_rel:"T" ~r:"R" ~s_rel:"S" db query with
  | Solution.Finite (1, [ f ]) ->
    Alcotest.(check string) "forced R tuple" "R" f.rel
  | s -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Solution.pp s)

(* --- dispatcher ------------------------------------------------------------ *)

let solver_agreement_cases =
  [
    ("q_rats", "R(x,y), A(x), T(z,x), S(y,z)", 5, 8);
    ("q_ac_conf", "A(x), R(x,y), R(z,y), C(z)", 4, 8);
    ("q_perm", "R(x,y), R(y,x)", 5, 10);
    ("q_a_perm", "A(x), R(x,y), R(y,x)", 4, 10);
    ("z3", "R(x,x), R(x,y), A(y)", 4, 10);
    ("z3 expansion", "R(x,x), B(x), R(x,y), A(y)", 4, 8);
    ("q_a_3perm", "A(x), R(x,y), R(y,z), R(z,y)", 4, 10);
    ("q_swx_3perm", "S(w,x), R(x,y), R(y,z), R(z,y)", 4, 8);
    ("q_ts_3conf", "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)", 4, 8);
    ("q_chain (hard)", "R(x,y), R(y,z)", 4, 8);
    ("q_ab_perm (hard)", "A(x), R(x,y), R(y,x), B(y)", 4, 8);
    ("mirrored a3perm", "A(x), R(y,x), R(z,y), R(y,z)", 4, 8);
    ("two components", "R(x,y), R(y,z), A(u), S(u,v)", 4, 6);
  ]

let solver_agreement (name, qs, domain, tuples) () =
  let query = q qs in
  for seed = 1 to 25 do
    let db = Db_gen.random_for_query ~seed ~domain ~tuples_per_relation:tuples query in
    if Solver.value db query <> Exact.value db query then
      Alcotest.failf "%s seed %d: solver %s vs exact %s" name seed
        (match Solver.value db query with Some v -> string_of_int v | None -> "inf")
        (match Exact.value db query with Some v -> string_of_int v | None -> "inf")
  done

let solver_trace_algorithms () =
  let db = Db_gen.random_for_query ~seed:1 ~domain:4 ~tuples_per_relation:8 (q "R(x,y), R(y,x)") in
  let _, traces = Solver.solve_traced db (q "R(x,y), R(y,x)") in
  match traces with
  | [ t ] ->
    check_bool "uses the Prop 33 algorithm" true
      (String.length t.algorithm > 0 && not (String.equal t.algorithm "exact"))
  | _ -> Alcotest.fail "one component expected"

(* Names of the form R__k are user relations like any other: the
   exogenous split must neither fill an empty one with R's tuples nor
   merge one with its own copies of R.  The same holds for the helper
   relations of the Prop 35 pair collapse: the answer is the flow's cut
   as it stands, so a stray helper fact would count toward the value. *)
let split_copies_are_fresh () =
  List.iter
    (fun (query, facts, expect) ->
      let db = Fact_syntax.database facts and query' = q query in
      Alcotest.(check (option int)) (query ^ ": exact") (Some expect) (Exact.value db query');
      Alcotest.(check (option int)) (query ^ ": solver") (Some expect) (Solver.value db query'))
    [
      ("A(x,y), A__2(y,z)", "A(1,2); A(2,3)", 0);
      ("H^x(x,y), H^x(y,z), H__1(x,y)", "H(1,2); H(2,3); H__1(1,2)", 1);
      ("R(x,y), R(y,x), B^x(y)", "R(1,2); R(2,1); B(1); B(2); R__pay(7); R__pair(1,7)", 1);
      ("R(x,y), R(y,x), B^x(y)", "R(1,2); R(2,1); B(1); B(2); R__1(1,7); R__2(7)", 1);
    ]

(* --- semantic laws as properties ------------------------------------------- *)

let law_queries =
  [ "R(x,y), R(y,z)"; "A(x), R(x,y), R(y,x)"; "A(x), R(x,y), R(z,y), C(z)"; "R(x), S(x,y), R(y)" ]

let prop_deletion_monotone =
  QCheck.Test.make ~count:60 ~name:"deleting a tuple never increases resilience"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, qi) ->
      let query = q (List.nth law_queries qi) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:7 query in
      match Database.endogenous_facts db query with
      | [] -> true
      | f :: _ -> begin
        match (Exact.value db query, Exact.value (Database.remove db f) query) with
        | Some v, Some v' -> v' <= v && v' >= v - 1
        | None, _ -> true
        | Some _, None -> false
      end)

let prop_resilience_zero_iff_unsat =
  QCheck.Test.make ~count:60 ~name:"rho = 0 iff D does not satisfy q"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, qi) ->
      let query = q (List.nth law_queries qi) in
      let db = Db_gen.random_for_query ~seed ~domain:5 ~tuples_per_relation:4 query in
      match Exact.value db query with
      | Some 0 -> not (Eval.sat db query)
      | Some _ -> Eval.sat db query
      | None -> Eval.sat db query)

let prop_domination_preserves_rho =
  (* Proposition 18 on Example 17's q2: marking the dominated relations
     exogenous does not change resilience *)
  QCheck.Test.make ~count:50 ~name:"Prop 18: normalization preserves resilience"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let query = q "R(x,y), A(y), R(z,y), S(y,z)" in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      let normalized = Domination.normalize query in
      Exact.value db query = Exact.value db normalized)

let prop_components_min =
  (* Lemma 14: resilience of a disconnected query is the min over components *)
  QCheck.Test.make ~count:50 ~name:"Lemma 14: rho = min over components"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let query = q "R(x,y), R(y,z), B(u), S(u,v)" in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:5 query in
      let whole = Exact.value db query in
      let parts = List.map (Exact.value db) (Res_cq.Components.split query) in
      let min_part =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | None, v -> v
            | Some a, Some b -> Some (min a b)
            | Some a, None -> Some a)
          None parts
      in
      whole = min_part)

let prop_sj_variation_harder =
  (* Lemma 21 empirically: the lifted instance has the same resilience as
     the base instance *)
  QCheck.Test.make ~count:30 ~name:"Lemma 21 lifting preserves resilience"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let base = q "R(x,y), S(y,z), T(z,x)" in
      let db = Db_gen.random_for_query ~seed ~domain:3 ~tuples_per_relation:6 base in
      if not (Eval.sat db base) then true
      else begin
        let inst =
          Reductions.sjfree_to_sj_variation db ~base ~target:(q "R(x,y), R(y,z), R(z,x)")
        in
        Exact.value inst.db inst.query = Some inst.k
      end)

(* --- the mirror symmetry (Solver.mirror_db / mirror_solution) ------------- *)

let mirror_queries =
  [
    "R(x,y), R(y,z)";
    "A(x), R(x,y), R(y,x)";
    "A(x), R(x,y), R(z,y), C(z)";
    "R(x), S(x,y), R(y)";
    "T^x(x,y), R(x,y), R(z,y)";
    "R(x,x), R(x,y), A(y)";
  ]

let prop_mirror_invariance =
  QCheck.Test.make ~count:120 ~name:"rho invariant under mirror_db + mirrored query"
    QCheck.(pair (int_bound 10_000) (int_bound 5))
    (fun (seed, qi) ->
      let query = q (List.nth mirror_queries qi) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      Solver.value (Solver.mirror_db db query) (Query_iso.mirror query) = Solver.value db query)

let prop_mirror_solution_valid =
  QCheck.Test.make ~count:120
    ~name:"mirror_solution maps back to a contingency set of the original"
    QCheck.(pair (int_bound 10_000) (int_bound 5))
    (fun (seed, qi) ->
      let query = q (List.nth mirror_queries qi) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      let mirrored_sol = Solver.solve (Solver.mirror_db db query) (Query_iso.mirror query) in
      match Solver.mirror_solution query mirrored_sol with
      | Solution.Unbreakable -> Exact.value db query = None
      | Solution.Finite (v, facts) ->
        List.length facts = v
        && List.for_all (Database.mem db) facts
        && Exact.is_contingency_set db query facts
        && Exact.value db query = Some v)

let prop_mirror_involution =
  QCheck.Test.make ~count:60 ~name:"mirror_db is an involution"
    QCheck.(pair (int_bound 10_000) (int_bound 5))
    (fun (seed, qi) ->
      let query = q (List.nth mirror_queries qi) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      let back = Solver.mirror_db (Solver.mirror_db db query) query in
      List.sort compare (Database.facts back) = List.sort compare (Database.facts db))

let suite =
  [
    Alcotest.test_case "exact: Section 2 example" `Quick exact_section2_example;
    Alcotest.test_case "exact: rho=0 when unsatisfied" `Quick exact_zero_when_false;
    Alcotest.test_case "exact: unbreakable" `Quick exact_unbreakable;
    Alcotest.test_case "exact: Example 11" `Quick exact_example11;
    Alcotest.test_case "exact: contingency set is real" `Quick exact_contingency_is_real;
    Alcotest.test_case "exact: RES decision (Def 1)" `Quick exact_in_res;
    Alcotest.test_case "exact: permutation pairs" `Quick exact_perm_pairs;
    Alcotest.test_case "flow: rejects non-linear" `Quick flow_rejects_nonlinear;
    Alcotest.test_case "flow: agrees on linear sj-free" `Quick flow_linear_agrees;
    Alcotest.test_case "flow: unbreakable detection" `Quick flow_unbreakable;
    Alcotest.test_case "flow: per-fact exogenous" `Quick flow_fact_exogenous;
    Alcotest.test_case "flow: confluence (Lemma 55)" `Quick flow_confluence_lemma55;
    Alcotest.test_case "special: qperm (Prop 33)" `Quick special_perm;
    Alcotest.test_case "special: qAperm (Prop 33)" `Quick special_a_perm;
    Alcotest.test_case "special: z3 (Prop 36)" `Quick special_z3;
    Alcotest.test_case "special: qA3perm-R (Prop 13)" `Quick special_a3perm;
    Alcotest.test_case "special: qSwx3perm-R (Prop 44)" `Quick special_swx3perm;
    Alcotest.test_case "special: qTS3conf (Prop 41)" `Quick special_ts3conf;
    Alcotest.test_case "special: qTS3conf forced tuples" `Quick ts3conf_forced_tuples;
  ]
  @ List.map
      (fun ((name, _, _, _) as case) ->
        Alcotest.test_case ("solver agreement: " ^ name) `Slow (solver_agreement case))
      solver_agreement_cases
  @ [
      Alcotest.test_case "solver: trace reports algorithm" `Quick solver_trace_algorithms;
      QCheck_alcotest.to_alcotest prop_deletion_monotone;
      QCheck_alcotest.to_alcotest prop_resilience_zero_iff_unsat;
      QCheck_alcotest.to_alcotest prop_domination_preserves_rho;
      QCheck_alcotest.to_alcotest prop_components_min;
      QCheck_alcotest.to_alcotest prop_sj_variation_harder;
      QCheck_alcotest.to_alcotest prop_mirror_invariance;
      QCheck_alcotest.to_alcotest prop_mirror_solution_valid;
      QCheck_alcotest.to_alcotest prop_mirror_involution;
      Alcotest.test_case "solver: split copies never alias user relations" `Quick
        split_copies_are_fresh;
    ]
