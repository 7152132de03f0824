(* Edge-case tests sweeping the thinner corners of the API surface:
   max-flow introspection, classifier precedence, guard rejections in the
   specialized solvers, zoo integrity, and partition combinatorics. *)

open Res_db
open Resilience

let q = Res_cq.Parser.query
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- max-flow introspection ---------------------------------------------- *)

let maxflow_edge_introspection () =
  let module M = Res_graph.Maxflow in
  let net = M.create 3 in
  let e1 = M.add_edge net ~src:0 ~dst:1 ~cap:5 in
  let e2 = M.add_edge net ~src:1 ~dst:2 ~cap:3 in
  check_int "cap e1" 5 (M.edge_cap net e1);
  check_bool "endpoints e1" true (M.edge_endpoints net e1 = (0, 1));
  let f = M.max_flow net ~src:0 ~dst:2 in
  check_int "flow" 3 f;
  check_int "flow on e1" 3 (M.flow_on net e1);
  check_int "flow on e2" 3 (M.flow_on net e2)

let maxflow_cut_side () =
  let module M = Res_graph.Maxflow in
  let net = M.create 3 in
  let _ = M.add_edge net ~src:0 ~dst:1 ~cap:1 in
  let _ = M.add_edge net ~src:1 ~dst:2 ~cap:M.infinite in
  let _ = M.max_flow net ~src:0 ~dst:2 in
  let side, cut = M.min_cut net ~src:0 in
  check_bool "source on source side" true side.(0);
  check_bool "sink on sink side" false side.(2);
  check_int "cut is the unit edge" 1 (List.length cut)

let maxflow_self_loop_harmless () =
  let module M = Res_graph.Maxflow in
  let net = M.create 3 in
  let _ = M.add_edge net ~src:1 ~dst:1 ~cap:7 in
  let _ = M.add_edge net ~src:0 ~dst:1 ~cap:2 in
  let _ = M.add_edge net ~src:1 ~dst:2 ~cap:2 in
  check_int "loop ignored by flow" 2 (M.max_flow net ~src:0 ~dst:2)

(* --- classifier precedence ------------------------------------------------ *)

let triad_beats_patterns () =
  (* sj1rats has three R-atoms forming both a triad and chains; the triad
     verdict must win (it is checked first, Thm 24) *)
  match Classify.verdict_of (q "A(x), R(x,y), R(y,z), R(z,x)") with
  | Classify.Np_complete (Classify.Triad _) -> ()
  | v -> Alcotest.failf "expected triad, got %s" (Classify.verdict_to_string v)

let path_beats_two_atom_patterns () =
  (* disjoint R-atoms connected through S: path fires before any two-atom
     analysis *)
  match Classify.verdict_of (q "R(x,y), S(y,z), R(z,w)") with
  | Classify.Np_complete Classify.Binary_path -> ()
  | v -> Alcotest.failf "expected binary path, got %s" (Classify.verdict_to_string v)

let duplicate_atoms_collapse_to_sjfree () =
  (* R(x,y), R(x,y) is a single atom after dedup: sj-free *)
  match Classify.verdict_of (Res_cq.Query.make [ Res_cq.Atom.make "R" [ "x"; "y" ]; Res_cq.Atom.make "R" [ "x"; "y" ] ]) with
  | Classify.Ptime _ -> ()
  | v -> Alcotest.failf "expected PTIME, got %s" (Classify.verdict_to_string v)

let single_atom_queries () =
  List.iter
    (fun qs ->
      match Classify.verdict_of (q qs) with
      | Classify.Ptime _ -> ()
      | v -> Alcotest.failf "%s should be PTIME, got %s" qs (Classify.verdict_to_string v))
    [ "R(x,y)"; "R(x,x)"; "A(x)" ]

(* --- specialized solver guards -------------------------------------------- *)

let unbound_perm_rejects_endogenous_guard () =
  (* an endogenous binary atom on both permutation variables breaks the
     pair-collapse encoding; the solver must decline, not mis-answer *)
  let query = q "R(x,y), R(y,x), D(x,y)" in
  let db = Db_gen.random_for_query ~seed:1 ~domain:3 ~tuples_per_relation:6 query in
  match Special.pair_collapse ~r:"R" query with
  | None -> ()
  | Some pc ->
    let s = Special.solve_pair_collapse pc db query in
    (* if it does answer, it must agree with exact *)
    check_bool "agrees if claimed" true (Solution.value s = Exact.value db query)

let witness_bipartite_empty_db () =
  check_bool "no witnesses: rho 0" true
    (Special.solve_witness_bipartite Database.empty (q "R(x,y), R(y,x)")
    = Some (Solution.Finite (0, [])))

let flow_empty_db () =
  match Flow.solve Database.empty (q "A(x), R(x,y)") with
  | Some (Solution.Finite (0, [])) -> ()
  | _ -> Alcotest.fail "empty database has resilience 0"

let solver_empty_db () =
  check_bool "dispatcher on empty db" true (Solver.value Database.empty (q "R(x,y), R(y,z)") = Some 0)

(* --- zoo integrity ---------------------------------------------------------- *)

let zoo_names_unique () =
  let names = List.map (fun (e : Zoo.entry) -> e.name) Zoo.all in
  check_int "no duplicate names" (List.length names) (List.length (List.sort_uniq compare names))

let zoo_queries_parse_and_minimal () =
  List.iter
    (fun (e : Zoo.entry) ->
      (* every zoo query except Example 22's non-minimal illustration is
         minimal *)
      if e.name <> "q_ex22" then
        check_bool (e.name ^ " minimal") true (Res_cq.Homomorphism.is_minimal e.query))
    Zoo.all

let zoo_find_known () =
  let e = Zoo.find "q_chain" in
  check_bool "found" true (Res_cq.Query.equal e.query (q "R(x,y), R(y,z)"))

let zoo_find_unknown () =
  check_bool "unknown raises" true
    (match Zoo.find "no_such_query" with exception Not_found -> true | _ -> false)

(* --- partitions combinatorics ----------------------------------------------- *)

let bell_recurrence =
  QCheck.Test.make ~count:6 ~name:"partition counts satisfy the Bell recurrence"
    QCheck.(int_bound 5)
    (fun n ->
      let n = n + 2 in
      let count k = Seq.fold_left (fun a _ -> a + 1) 0 (Ijp.partitions (List.init k Fun.id)) in
      let binom n k =
        let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
        go 1 1
      in
      (* B(n+1) = sum_k C(n,k) B(k) *)
      count (n + 1) = List.fold_left (fun acc k -> acc + (binom n k * count k)) 0 (List.init (n + 1) Fun.id))

(* --- value structure ---------------------------------------------------------- *)

let value_triple_structure () =
  let t = Value.triple (Value.i 1) (Value.i 2) (Value.i 3) in
  check_bool "nested pair" true (t = Value.pair (Value.i 1) (Value.pair (Value.i 2) (Value.i 3)));
  check_bool "hash consistent" true (Value.hash t = Value.hash (Value.triple (Value.i 1) (Value.i 2) (Value.i 3)))

let solution_helpers () =
  let s = Solution.Finite (2, []) in
  check_bool "value" true (Solution.value s = Some 2);
  check_int "value_exn" 2 (Solution.value_exn s);
  check_bool "unbreakable raises" true
    (match Solution.value_exn Solution.Unbreakable with exception Failure _ -> true | _ -> false);
  check_bool "equal_value" true (Solution.equal_value s (Solution.Finite (2, [])));
  check_bool "not equal" false (Solution.equal_value s Solution.Unbreakable)

let suite =
  [
    Alcotest.test_case "maxflow edge introspection" `Quick maxflow_edge_introspection;
    Alcotest.test_case "maxflow cut sides" `Quick maxflow_cut_side;
    Alcotest.test_case "maxflow self-loops" `Quick maxflow_self_loop_harmless;
    Alcotest.test_case "classify: triad precedence" `Quick triad_beats_patterns;
    Alcotest.test_case "classify: path precedence" `Quick path_beats_two_atom_patterns;
    Alcotest.test_case "classify: duplicate atoms" `Quick duplicate_atoms_collapse_to_sjfree;
    Alcotest.test_case "classify: single atoms" `Quick single_atom_queries;
    Alcotest.test_case "unbound perm: endogenous guard" `Quick unbound_perm_rejects_endogenous_guard;
    Alcotest.test_case "witness bipartite: empty db" `Quick witness_bipartite_empty_db;
    Alcotest.test_case "flow: empty db" `Quick flow_empty_db;
    Alcotest.test_case "solver: empty db" `Quick solver_empty_db;
    Alcotest.test_case "zoo: unique names" `Quick zoo_names_unique;
    Alcotest.test_case "zoo: minimality" `Quick zoo_queries_parse_and_minimal;
    Alcotest.test_case "zoo: find known" `Quick zoo_find_known;
    Alcotest.test_case "zoo: find unknown" `Quick zoo_find_unknown;
    QCheck_alcotest.to_alcotest bell_recurrence;
    Alcotest.test_case "value triple structure" `Quick value_triple_structure;
    Alcotest.test_case "solution helpers" `Quick solution_helpers;
  ]
