(* Exhaustive tests over the enumerated two-R-atom fragment: Theorem 37's
   completeness (the classifier is total — never Unknown/Open there), and
   dispatcher soundness (every PTIME query is solved by a polynomial
   algorithm that agrees with the exact solver). *)

open Res_db
open Resilience

let q = Res_cq.Parser.query
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fragment = Generators.fragment_list

let shapes_nonempty () =
  let shapes = Query_gen.two_r_atom_shapes () in
  (* exactly the paper's taxonomy: chain, two confluences, permutation,
     four REP variants, and the disjoint (path) shape *)
  check_int "nine shapes up to isomorphism" 9 (List.length shapes);
  (* the canonical patterns all appear *)
  List.iter
    (fun s ->
      check_bool (s ^ " among shapes") true
        (List.exists (fun sh -> Query_iso.matches_template sh s) shapes))
    [ "R(x,y), R(y,z)"; "R(x,y), R(z,y)"; "R(x,y), R(y,x)"; "R(x,x), R(x,y)"; "R(x,y), R(z,w)" ]

let totality () =
  (* Theorem 37: complete dichotomy — no Unknown and no Open in the
     two-R-atom fragment *)
  let bad = ref [] in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ | Classify.Np_complete _ -> ()
      | v -> bad := (query, v) :: !bad)
    (Lazy.force fragment);
  match !bad with
  | [] -> ()
  | (query, v) :: _ ->
    Alcotest.failf "classifier not total: %s -> %s (+%d more)"
      (Res_cq.Query.to_string query)
      (Classify.verdict_to_string v)
      (List.length !bad - 1)

let fragment_size () =
  check_bool "hundreds of queries enumerated" true (List.length (Lazy.force fragment) >= 400)

let ptime_dispatch_is_polynomial () =
  (* no PTIME-classified query in the fragment may fall back to the exact
     solver *)
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ ->
        let db = Db_gen.random_for_query ~seed:1 ~domain:4 ~tuples_per_relation:6 query in
        let _, traces = Solver.solve_traced db query in
        List.iter
          (fun (t : Solver.trace) ->
            if String.length t.algorithm >= 5 && String.sub t.algorithm 0 5 = "exact" then
              Alcotest.failf "PTIME query solved by exact: %s (%s)"
                (Res_cq.Query.to_string query) t.algorithm)
          traces
      | _ -> ())
    (Lazy.force fragment)

let ptime_solver_agreement () =
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ ->
        for seed = 1 to 2 do
          let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
          if Solver.value db query <> Exact.value db query then
            Alcotest.failf "disagreement on %s (seed %d)" (Res_cq.Query.to_string query) seed
        done
      | _ -> ())
    (Lazy.force fragment)

(* --- the bipartite witness-cover solver ------------------------------- *)

let wbc_qrats_style () =
  (* qrats normalized: only A and S endogenous; every witness has two
     endogenous facts *)
  let query = Domination.normalize (q "R(x,y), A(x), T(z,x), S(y,z)") in
  for seed = 1 to 20 do
    let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:7 query in
    match Special.solve_witness_bipartite db query with
    | Some s ->
      check_bool
        (Printf.sprintf "qrats seed %d" seed)
        true
        (Solution.value s = Exact.value db query)
    | None -> Alcotest.fail "two endogenous groups must be bipartite"
  done

let wbc_guarded_permutation () =
  let query = q "R(x,y), R(y,x), H^x(x,y)" in
  for seed = 1 to 20 do
    let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
    match Special.solve_witness_bipartite db query with
    | Some s ->
      check_bool
        (Printf.sprintf "guarded perm seed %d" seed)
        true
        (Solution.value s = Exact.value db query)
    | None -> Alcotest.fail "twin collapse must make the permutation bipartite"
  done

let wbc_unbreakable () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  check_bool "all-exogenous witness" true
    (Special.solve_witness_bipartite db (q "R^x(x,y)") = Some Solution.Unbreakable)

let wbc_rejects_triangles () =
  (* the chain query has witnesses with two same-relation facts whose
     conflict graph has odd cycles on cyclic instances *)
  let db = Db_gen.cycle_db ~length:3 ~rel:"R" in
  let query = q "R(x,y), R(y,z)" in
  match Special.solve_witness_bipartite db query with
  | None -> () (* odd cycle: correctly inapplicable *)
  | Some s ->
    (* if it answered, it must agree with exact *)
    check_bool "agrees if applicable" true (Solution.value s = Exact.value db query)

let wbc_forced_singletons () =
  (* loop witness R(3,3) forces its own deletion *)
  let db = Database.of_int_rows [ ("R", [ [ 3; 3 ]; [ 1; 2 ]; [ 2; 1 ] ]) ] in
  let query = q "R(x,y), R(y,x)" in
  match Special.solve_witness_bipartite db query with
  | Some (Solution.Finite (v, facts)) ->
    check_int "single pair + loop" 2 v;
    check_bool "loop forced" true
      (List.mem (Database.fact "R" [ Value.i 3; Value.i 3 ]) facts)
  | _ -> Alcotest.fail "applicable instance"

let counts_match_report () =
  let p = ref 0 and npc = ref 0 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ -> incr p
      | Classify.Np_complete _ -> incr npc
      | _ -> ())
    (Lazy.force fragment);
  check_int "fragment size" (List.length (Lazy.force fragment)) (!p + !npc);
  check_bool "both classes populated" true (!p > 50 && !npc > 50)

let suite =
  [
    Alcotest.test_case "shape enumeration covers the patterns" `Quick shapes_nonempty;
    Alcotest.test_case "Theorem 37 totality (no Unknown/Open)" `Slow totality;
    Alcotest.test_case "fragment size" `Slow fragment_size;
    Alcotest.test_case "PTIME dispatch never uses exact" `Slow ptime_dispatch_is_polynomial;
    Alcotest.test_case "PTIME solver agreement sweep" `Slow ptime_solver_agreement;
    Alcotest.test_case "witness cover: qrats-style" `Quick wbc_qrats_style;
    Alcotest.test_case "witness cover: guarded permutation" `Quick wbc_guarded_permutation;
    Alcotest.test_case "witness cover: unbreakable" `Quick wbc_unbreakable;
    Alcotest.test_case "witness cover: inapplicable cases" `Quick wbc_rejects_triangles;
    Alcotest.test_case "witness cover: forced singletons" `Quick wbc_forced_singletons;
    Alcotest.test_case "fragment verdict counts" `Slow counts_match_report;
  ]

(* --- the three-R-atom fragment (Section 8 roadmap) ---------------------- *)

let fragment3 = Generators.fragment3_list

let three_atom_shapes () =
  let shapes = Query_gen.three_r_atom_shapes () in
  check_bool "dozens of shapes" true (List.length shapes >= 30);
  List.iter
    (fun s ->
      check_bool (s ^ " among 3-atom shapes") true
        (List.exists (fun sh -> Query_iso.matches_template sh s) shapes))
    [
      "R(x,y), R(y,z), R(z,w)" (* 3-chain *);
      "R(x,y), R(z,y), R(z,w)" (* 3-confluence *);
      "R(x,y), R(y,z), R(w,z)" (* chain-confluence *);
      "R(x,y), R(y,z), R(z,y)" (* permutation plus R *);
      "R(x,y), R(y,z), R(z,x)" (* triangle *);
    ]

let three_atom_verdict_tally () =
  let p = ref 0 and npc = ref 0 and op = ref 0 and unk = ref 0 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ -> incr p
      | Classify.Np_complete _ -> incr npc
      | Classify.Open_problem _ -> incr op
      | Classify.Unknown _ | Classify.Heuristic _ -> incr unk)
    (Lazy.force fragment3);
  (* Section 8 is a partial classification: all four buckets exist, and
     decided queries dominate *)
  check_bool "ptime bucket" true (!p > 0);
  check_bool "npc bucket" true (!npc > 0);
  check_bool "open bucket" true (!op > 0);
  check_bool "unknown bucket (the roadmap)" true (!unk > 0);
  check_bool "most of the space is decided" true (!p + !npc > !unk + !op)

let three_atom_ptime_agreement () =
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ ->
        for seed = 1 to 2 do
          let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
          if Solver.value db query <> Exact.value db query then
            Alcotest.failf "3-atom disagreement on %s (seed %d)"
              (Res_cq.Query.to_string query) seed
        done
      | _ -> ())
    (Lazy.force fragment3)

let three_atom_triangle_is_npc () =
  (* every decoration of the sj1-triangle keeps the triad *)
  List.iter
    (fun query ->
      if Query_iso.matches_template query "R(x,y), R(y,z), R(z,x), U0(x)" then begin
        match Classify.verdict_of query with
        | Classify.Np_complete (Classify.Triad _) -> ()
        | v -> Alcotest.failf "expected triad NPC, got %s" (Classify.verdict_to_string v)
      end)
    (Lazy.force fragment3)

let suite =
  suite
  @ [
      Alcotest.test_case "3-atom shapes cover Section 8 patterns" `Slow three_atom_shapes;
      Alcotest.test_case "3-atom verdict tally (Section 8 roadmap)" `Slow three_atom_verdict_tally;
      Alcotest.test_case "3-atom PTIME agreement sweep" `Slow three_atom_ptime_agreement;
      Alcotest.test_case "3-atom triangles stay NPC" `Slow three_atom_triangle_is_npc;
    ]

(* --- Prop 35 case-1 pair-collapse flow ---------------------------------- *)

let unbound_perm_flow_agreement () =
  List.iter
    (fun qs ->
      let query = q qs in
      for seed = 1 to 15 do
        let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
        match Special.pair_collapse ~r:"R" query with
        | Some pc ->
          let s = Special.solve_pair_collapse pc db query in
          check_bool
            (Printf.sprintf "%s seed %d" qs seed)
            true
            (Solution.value s = Exact.value db query)
        | None -> Alcotest.failf "pair-collapse must apply to %s" qs
      done)
    [
      "R(x,y), R(y,x)";
      "R(x,y), R(y,x), H^x(x,y)";
      "R(x,y), R(y,x), H^x(y,x)";
      "R(x,y), R(y,x), U0(x)";
      "R(x,y), R(y,x), U0(x), H^x(x,x)";
    ]

let unbound_perm_flow_rejects_bound () =
  (* bound permutations must not be claimed *)
  let query = q "A(x), R(x,y), R(y,x), B(y)" in
  check_bool "bound rejected" true (Special.pair_collapse ~r:"R" query = None)

let suite =
  suite
  @ [
      Alcotest.test_case "Prop 35 pair-collapse flow agreement" `Slow unbound_perm_flow_agreement;
      Alcotest.test_case "Prop 35 flow rejects bound permutations" `Quick unbound_perm_flow_rejects_bound;
    ]

(* Prop 18 (domination normalization preserves resilience) across the
   enumerated fragment, on random instances. *)
let normalization_preserves_rho () =
  let count = ref 0 in
  List.iteri
    (fun i query ->
      if i mod 7 = 0 then begin
        (* sample every 7th query to keep runtime bounded *)
        incr count;
        let normalized = Domination.normalize query in
        let db = Db_gen.random_for_query ~seed:i ~domain:4 ~tuples_per_relation:6 query in
        if Exact.value db query <> Exact.value db normalized then
          Alcotest.failf "Prop 18 violated on %s" (Res_cq.Query.to_string query)
      end)
    (Lazy.force fragment);
  check_bool "sampled enough" true (!count > 40)

let suite =
  suite
  @ [ Alcotest.test_case "Prop 18 across the fragment" `Slow normalization_preserves_rho ]

(* --- open problems: regression probes ----------------------------------- *)

let z7_flow_agreement =
  (* seeds bounded to a range exhaustively verified offline — z6 (which this
     probe used to cover too) has counterexamples in this very range, see
     {!z6_flow_counterexample} *)
  QCheck.Test.make ~count:80 ~name:"open z7: standard flow matches exact (no counterexample known)"
    QCheck.(map (fun s -> 1 + s) (int_bound 9_999))
    (fun seed ->
      let query = q "A(x), R(x,y), R(y,x), R(y,y)" in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
      match Flow.solve db query with
      | Some s -> Solution.value s = Exact.value db query
      | None -> false)

let z6_flow_counterexample () =
  (* regression: standard flow does NOT solve the open query z6 — it
     over-counts on this random instance (3 vs the exact 2), so any PTIME
     algorithm for z6 needs more than the naive flow network.  First such
     seeds under 10 000: 97, 2953, 6480, 8320, 8896. *)
  let query = q "A(x), R(x,y), R(y,y), R(y,z), C(z)" in
  let db = Db_gen.random_for_query ~seed:97 ~domain:4 ~tuples_per_relation:8 query in
  check_bool "exact rho is 2" true (Exact.value db query = Some 2);
  match Flow.solve db query with
  | Some s -> check_bool "naive flow over-counts here" true (Solution.value s = Some 3)
  | None -> Alcotest.fail "query is linear"

let qas3conf_flow_counterexample () =
  (* regression: the concrete instance where naive flow over-counts *)
  let query = q "A(x), R(x,y), R(z,y), R(z,w), S^x(z,w)" in
  let db =
    Fact_syntax.database
      "A(0); A(2); A(3); R(0,0); R(1,3); R(2,0); R(2,1); R(2,2); R(2,3); S(0,3); S(1,0); S(1,3); S(2,3); S(3,1)"
  in
  check_bool "exact rho is 1" true (Exact.value db query = Some 1);
  match Flow.solve db query with
  | Some s -> check_bool "naive flow over-counts here" true (Solution.value s <> Some 1)
  | None -> Alcotest.fail "query is linear"

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest z7_flow_agreement;
      Alcotest.test_case "z6 naive-flow counterexample" `Quick z6_flow_counterexample;
      Alcotest.test_case "qAS3conf naive-flow counterexample" `Quick qas3conf_flow_counterexample;
    ]
