(* Tests for the database layer: structured values, instances, witness
   enumeration, generators. *)

open Res_db

let q = Res_cq.Parser.query
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- values ------------------------------------------------------------ *)

let value_compare () =
  check_bool "ints" true (Value.compare (Value.i 1) (Value.i 2) < 0);
  check_bool "equal pairs" true
    (Value.equal (Value.pair (Value.i 1) (Value.i 2)) (Value.pair (Value.i 1) (Value.i 2)));
  check_bool "tag distinguishes" false (Value.equal (Value.tag "x" (Value.i 1)) (Value.i 1));
  check_bool "pair ne triple" false
    (Value.equal (Value.pair (Value.i 1) (Value.i 2)) (Value.triple (Value.i 1) (Value.i 2) (Value.i 3)))

let value_pp () =
  Alcotest.(check string) "pair rendering" "<1.2>" (Value.to_string (Value.pair (Value.i 1) (Value.i 2)));
  Alcotest.(check string) "tag rendering" "1^x" (Value.to_string (Value.tag "x" (Value.i 1)))

(* --- database ----------------------------------------------------------- *)

let db_set_semantics () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] in
  check_int "duplicates collapse" 2 (Database.size db)

let db_add_remove () =
  let f = Database.fact "R" [ Value.i 1; Value.i 2 ] in
  let db = Database.add Database.empty f in
  check_bool "mem" true (Database.mem db f);
  let db' = Database.remove db f in
  check_bool "removed" false (Database.mem db' f);
  check_int "empty" 0 (Database.size db');
  check_int "removing absent is noop" 0 (Database.size (Database.remove db' f))

let db_relations_and_domain () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("A", [ [ 3 ] ]) ] in
  check_bool "relations sorted order" true (Database.relations db = [ "A"; "R" ]);
  check_int "active domain" 3 (List.length (Database.active_domain db))

let db_restrict_union () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("A", [ [ 3 ] ]) ] in
  let r_only = Database.restrict db [ "R" ] in
  check_int "restricted" 1 (Database.size r_only);
  let u = Database.union r_only (Database.of_int_rows [ ("A", [ [ 4 ] ]) ]) in
  check_int "union" 2 (Database.size u)

let db_endogenous_facts () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("T", [ [ 1; 2 ] ]) ] in
  let query = q "T^x(x,y), R(x,y)" in
  check_int "only endogenous facts" 1 (List.length (Database.endogenous_facts db query))

(* --- evaluation --------------------------------------------------------- *)

let eval_sat () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  check_bool "chain sat" true (Eval.sat db (q "R(x,y), R(y,z)"));
  check_bool "triangle unsat" false (Eval.sat db (q "R(x,y), R(y,z), R(z,x)"))

let eval_witnesses_paper_example () =
  (* Section 2: D = {R(1,2), R(2,3), R(3,3)} has chain witnesses
     (1,2,3), (2,3,3), (3,3,3) *)
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  let ws = Eval.witnesses db (q "R(x,y), R(y,z)") in
  check_int "three witnesses" 3 (List.length ws);
  let vals =
    List.map
      (fun (w : Eval.witness) -> List.map (fun (_, v) -> Value.to_string v) w.valuation)
      ws
    |> List.sort compare
  in
  check_bool "valuations" true (vals = [ [ "1"; "2"; "3" ]; [ "2"; "3"; "3" ]; [ "3"; "3"; "3" ] ])

let eval_witness_fact_sets () =
  (* witness (3,3,3) uses a single tuple *)
  let db = Database.of_int_rows [ ("R", [ [ 3; 3 ] ]) ] in
  let sets = Eval.witness_fact_sets db (q "R(x,y), R(y,z)") in
  check_int "one set" 1 (List.length sets);
  check_int "one fact in it" 1 (Database.Fact_set.cardinal (List.hd sets))

let eval_repeated_var_atom () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 1 ]; [ 1; 2 ] ]) ] in
  check_int "R(x,x) matches diagonal only" 1 (Eval.count db (q "R(x,x)"))

let eval_cross_product () =
  let db = Database.of_int_rows [ ("A", [ [ 1 ]; [ 2 ] ]); ("B", [ [ 5 ]; [ 6 ]; [ 7 ] ]) ] in
  check_int "disconnected query multiplies" 6 (Eval.count db (q "A(x), B(y)"))

let eval_exogenous_in_witness () =
  let db = Database.of_int_rows [ ("T", [ [ 1; 2 ] ]); ("R", [ [ 1; 2 ] ]) ] in
  let ws = Eval.witnesses db (q "T^x(x,y), R(x,y)") in
  check_int "exogenous facts included in witness facts" 2
    (Database.Fact_set.cardinal (List.hd ws).facts)

let eval_limit_guard () =
  let db = Database.of_int_rows [ ("A", List.init 40 (fun i -> [ i ])); ("B", List.init 40 (fun i -> [ i ])) ] in
  Alcotest.check_raises "limit" (Eval.Witness_limit 100) (fun () ->
      ignore (Eval.witnesses ~limit:100 db (q "A(x), B(y)")));
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  Alcotest.check_raises "one witness past the limit" (Eval.Witness_limit 1) (fun () ->
      ignore (Eval.witnesses ~limit:1 db (q "R(x,y)")))

let eval_facts_of_valuation () =
  let query = q "R(x,y), R(y,z)" in
  let facts = Eval.facts_of_valuation query [ ("x", Value.i 1); ("y", Value.i 2); ("z", Value.i 3) ] in
  check_int "two facts" 2 (List.length facts)

(* --- generators --------------------------------------------------------- *)

let gen_deterministic () =
  let query = q "R(x,y), A(x)" in
  let d1 = Db_gen.random_for_query ~seed:4 ~domain:5 ~tuples_per_relation:6 query in
  let d2 = Db_gen.random_for_query ~seed:4 ~domain:5 ~tuples_per_relation:6 query in
  check_bool "same seed same db" true (Database.facts d1 = Database.facts d2)

let gen_chain_shape () =
  let db = Db_gen.chain_db ~length:5 ~rel:"R" in
  check_int "5 tuples" 5 (Database.size db);
  check_int "4 chain witnesses" 4 (Eval.count db (q "R(x,y), R(y,z)"))

let gen_cycle_shape () =
  let db = Db_gen.cycle_db ~length:5 ~rel:"R" in
  check_int "5 witnesses around the cycle" 5 (Eval.count db (q "R(x,y), R(y,z)"))

let gen_grid () =
  let db = Db_gen.grid_pairs ~n:3 ~rel:"R" in
  check_int "9 tuples" 9 (Database.size db)

let suite =
  [
    Alcotest.test_case "value comparison" `Quick value_compare;
    Alcotest.test_case "value printing" `Quick value_pp;
    Alcotest.test_case "database set semantics" `Quick db_set_semantics;
    Alcotest.test_case "database add/remove" `Quick db_add_remove;
    Alcotest.test_case "relations and domain" `Quick db_relations_and_domain;
    Alcotest.test_case "restrict and union" `Quick db_restrict_union;
    Alcotest.test_case "endogenous facts" `Quick db_endogenous_facts;
    Alcotest.test_case "eval satisfaction" `Quick eval_sat;
    Alcotest.test_case "witnesses (paper Section 2 example)" `Quick eval_witnesses_paper_example;
    Alcotest.test_case "witness fact sets collapse" `Quick eval_witness_fact_sets;
    Alcotest.test_case "repeated-variable atom" `Quick eval_repeated_var_atom;
    Alcotest.test_case "cross product count" `Quick eval_cross_product;
    Alcotest.test_case "exogenous facts in witnesses" `Quick eval_exogenous_in_witness;
    Alcotest.test_case "witness limit guard" `Quick eval_limit_guard;
    Alcotest.test_case "facts of valuation" `Quick eval_facts_of_valuation;
    Alcotest.test_case "generator determinism" `Quick gen_deterministic;
    Alcotest.test_case "chain generator" `Quick gen_chain_shape;
    Alcotest.test_case "cycle generator" `Quick gen_cycle_shape;
    Alcotest.test_case "grid generator" `Quick gen_grid;
  ]
