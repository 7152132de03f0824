(* Experiment harness: one experiment per table/figure of the paper (see
   DESIGN.md §3 and EXPERIMENTS.md).  Each prints the rows the figure
   reports, regenerated by this implementation.  Performance is measured
   by perfbench/ (BENCHMARK.json), not here.

   Run with: dune exec bench/main.exe *)

open Res_db
open Res_sat
open Resilience

let q = Res_cq.Parser.query

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let rho_s db query =
  match Exact.value db query with Some v -> string_of_int v | None -> "inf"

let verdict query = Classify.verdict_to_string (Classify.verdict_of query)

(* ------------------------------------------------------------------ *)

let table1_query_classes () =
  section "Table 1: query-class annotations";
  Printf.printf "%-16s %-8s %-8s %-6s %-10s %s\n" "query" "binary" "ssj" "#R" "class" "verdict (paper)";
  List.iter
    (fun (en : Zoo.entry) ->
      let query = en.query in
      let n_r =
        match Res_cq.Query.self_join_relation query with
        | Some r -> List.length (Res_cq.Query.atoms_of_rel query r)
        | None -> 0
      in
      let cls =
        if not (Res_cq.Query.is_ssj query) then "(beyond)"
        else if not (Res_cq.Query.is_binary query) then "all-CQ"
        else if n_r = 0 then "sj-free"
        else if n_r = 2 then "ssj-2R"
        else if n_r = 3 then "ssj-3R"
        else "ssj-binary"
      in
      Printf.printf "%-16s %-8b %-8b %-6d %-10s %s\n" en.name
        (Res_cq.Query.is_binary query)
        (Res_cq.Query.is_ssj query)
        n_r cls
        (Zoo.expected_to_string en.expected))
    Zoo.all

let fig1_sjfree_dichotomy () =
  section "Figure 1: hypergraphs of the sj-free landmarks (triads vs domination vs linear)";
  List.iter
    (fun (name, qs) ->
      let query = q qs in
      let normalized = Domination.normalize query in
      Printf.printf "%-10s dominated=%-12s triad=%-5b linear=%-5b verdict: %s\n" name
        (String.concat "," (Domination.dominated_relations query))
        (Triad.has_triad normalized)
        (Linearity.is_linear query) (verdict query))
    [
      ("triangle", "R(x,y), S(y,z), T(z,x)");
      ("tripod", "A(x), B(y), C(z), W(x,y,z)");
      ("rats", "R(x,y), A(x), T(z,x), S(y,z)");
      ("linear", "A(x), R(x,y,z), S(y,z)");
    ]

let fig2_representations () =
  section "Figure 2: hypergraph vs binary graph for qvc and qchain";
  List.iter
    (fun (name, qs) ->
      let query = q qs in
      let bg = Res_cq.Binary_graph.of_query query in
      Printf.printf "%s: %s\n" name (verdict query);
      List.iter
        (fun (a, r, b) -> Printf.printf "  %s -[%s]-> %s\n" a r b)
        (Res_cq.Binary_graph.edges bg))
    [ ("qvc", "R(x), S(x,y), R(y)"); ("qchain", "R(x,y), R(y,z)") ]

let fig3_tricky_flow () =
  section "Figure 3: PTIME queries needing modified flow (qACconf, qA3perm-R)";
  List.iter
    (fun (name, qs) ->
      let query = q qs in
      let agree = ref 0 and total = 20 in
      for seed = 1 to total do
        let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:9 query in
        if Solver.value db query = Exact.value db query then incr agree
      done;
      Printf.printf "%-12s %-45s poly-solver agreement with exact: %d/%d\n" name (verdict query)
        !agree total)
    [ ("qACconf", "A(x), R(x,y), R(z,y), C(z)"); ("qA3perm-R", "A(x), R(x,y), R(y,z), R(z,y)") ]

let fig4_paths_hard () =
  section "Figure 4: paths imply hardness (Theorems 27/28) — VC reductions";
  let graphs = [ ("K3", [ (1, 2); (2, 3); (3, 1) ]); ("P4", [ (1, 2); (2, 3); (3, 4) ]) ] in
  List.iter
    (fun (gname, g) ->
      let vc = Res_graph.Vertex_cover.min_cover_size g in
      let unary = Reductions.vc_to_unary_path g ~k:vc (q "R(x), S(x,y), R(y)") in
      let binary = Reductions.vc_to_binary_path g ~k:vc (q "R(x,x), S(x,y), R(y,y)") in
      Printf.printf "%s: VC=%d | unary-path rho=%s | binary-path (z1) rho=%s\n" gname vc
        (rho_s unary.db unary.query) (rho_s binary.db binary.query))
    graphs

let fig5_two_atom_dichotomy () =
  section "Figure 5 + Theorem 37: the two-R-atom dichotomy";
  Printf.printf "%-14s %-14s %s\n" "pattern query" "paper" "classifier";
  List.iter
    (fun (en : Zoo.entry) ->
      Printf.printf "%-14s %-14s %s\n" en.name (Zoo.expected_to_string en.expected)
        (verdict en.query))
    Zoo.figure5

let fig6_expansions () =
  section "Figure 6a: the eight qchain expansions, all NP-complete (Lemmas 52-54)";
  let f_sat = Cnf.make ~n_vars:2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  let f_unsat = Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ] in
  List.iter
    (fun (label, a, b, c) ->
      let sat_inst = Reductions.sat3_to_chain ~with_a:a ~with_b:b ~with_c:c f_sat in
      let unsat_inst = Reductions.sat3_to_chain ~with_a:a ~with_b:b ~with_c:c f_unsat in
      let rho_sat = Option.get (Exact.value sat_inst.db sat_inst.query) in
      let rho_unsat = Option.get (Exact.value unsat_inst.db unsat_inst.query) in
      Printf.printf "%-10s %-12s | sat: rho=%d k=%d %s | unsat: rho=%d k=%d %s\n" label
        (verdict sat_inst.query |> fun s -> String.sub s 0 (min 11 (String.length s)))
        rho_sat sat_inst.k
        (if rho_sat = sat_inst.k then "(=k)" else "(BAD)")
        rho_unsat unsat_inst.k
        (if rho_unsat > unsat_inst.k then "(>k)" else "(BAD)"))
    [
      ("chain", false, false, false);
      ("a-chain", true, false, false);
      ("b-chain", false, true, false);
      ("c-chain", false, false, true);
      ("ab-chain", true, true, false);
      ("bc-chain", false, true, true);
      ("ac-chain", true, false, true);
      ("abc-chain", true, true, true);
    ]

let fig7_three_confluences () =
  section "Figure 7: the three 3-confluence queries (NPC / P / open)";
  List.iter
    (fun (name, qs) -> Printf.printf "%-10s %s\n" name (verdict (q qs)))
    [
      ("qAC3conf", "A(x), R(x,y), R(z,y), R(z,w), C(w)");
      ("qTS3conf", "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)");
      ("qAS3conf", "A(x), R(x,y), R(z,y), R(z,w), S^x(z,w)");
    ];
  subsection "Prop 41 solver vs exact on qTS3conf (random instances)";
  let query = q "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)" in
  let agree = ref 0 in
  for seed = 1 to 25 do
    let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
    if Solver.value db query = Exact.value db query then incr agree
  done;
  Printf.printf "agreement: %d/25\n" !agree

let fig8_ijp_intuition () =
  section "Figure 8: the or-property — VC under edge subdivision";
  List.iter
    (fun (name, g) ->
      let vc = Res_graph.Vertex_cover.min_cover_size g in
      let vc1 = Res_graph.Vertex_cover.min_cover_size (Res_graph.Vertex_cover.subdivide g 1) in
      let vc2 = Res_graph.Vertex_cover.min_cover_size (Res_graph.Vertex_cover.subdivide g 2) in
      Printf.printf "%s: VC=%d, 3-arc version=%d (VC+|E|=%d), 5-arc version=%d (VC+2|E|=%d)\n"
        name vc vc1
        (vc + List.length g)
        vc2
        (vc + (2 * List.length g)))
    [ ("K3", [ (1, 2); (2, 3); (3, 1) ]); ("K4", [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]) ]

let fig9_pseudolinear () =
  section "Figure 9: pseudo-linear arrangement of endogenous groups";
  List.iter
    (fun (name, qs) ->
      let query = Domination.normalize (q qs) in
      match Linearity.pseudo_linear_order query with
      | Some groups ->
        let show_group g = String.concat "," (List.map Res_cq.Atom.to_string g) in
        Printf.printf "%-10s order: %s\n" name (String.concat "  |  " (List.map show_group groups))
      | None -> Printf.printf "%-10s NOT pseudo-linear\n" name)
    [
      ("chain", "R(x,y), R(y,z)");
      ("cfp", "R(x,y), H^x(x,z), R(z,y)");
      ("qTS3conf", "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)");
      ("triangle", "R(x,y), S(y,z), T(z,x)");
    ]

let chain_gadget_row label inst expected_sat =
  let rho = Option.get (Exact.value inst.Reductions.db inst.Reductions.query) in
  Printf.printf "%-28s tuples=%-4d k=%-4d rho=%-4d %s\n" label
    (Database.size inst.Reductions.db) inst.Reductions.k rho
    (if expected_sat then (if rho = inst.Reductions.k then "sat: rho=k OK" else "MISMATCH")
     else if rho > inst.Reductions.k then "unsat: rho>k OK"
     else "MISMATCH")

let fig10_chain_gadget () =
  section "Figure 10: 3SAT -> RES(qchain) gadget (Prop 10)";
  chain_gadget_row "(x1|x2|x3)" (Reductions.sat3_to_chain (Cnf.make ~n_vars:3 [ [ 1; 2; 3 ] ])) true;
  chain_gadget_row "(x1|~x2|x3)&(~x1|x2|~x3)"
    (Reductions.sat3_to_chain (Cnf.make ~n_vars:3 [ [ 1; -2; 3 ]; [ -1; 2; -3 ] ]))
    true;
  chain_gadget_row "(x1)&(~x1)" (Reductions.sat3_to_chain (Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ])) false

let fig11_achain_gadget () =
  section "Figure 11: 3SAT -> RES(qachain) gadget (Lemma 53)";
  let b = Reductions.sat3_to_chain ~with_a:true in
  chain_gadget_row "(x1|x2|x3)" (b (Cnf.make ~n_vars:3 [ [ 1; 2; 3 ] ])) true;
  chain_gadget_row "(x1)&(~x1)" (b (Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ])) false

let fig12_acchain_gadget () =
  section "Figure 12: 3SAT -> RES(qacchain) gadget (Lemma 54)";
  let b = Reductions.sat3_to_chain ~with_a:true ~with_c:true in
  chain_gadget_row "(x1|x2|x3)" (b (Cnf.make ~n_vars:3 [ [ 1; 2; 3 ] ])) true;
  chain_gadget_row "(x1)&(~x1)" (b (Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ])) false

let fig13_confluence_flow () =
  section "Figure 13 / Lemma 55: standard flow stays exact for 2-confluences";
  let query = q "A(x), R(x,y), R(z,y), C(z)" in
  let mismatches = ref 0 and total = 60 in
  for seed = 1 to total do
    let db = Db_gen.random_for_query ~seed ~domain:5 ~tuples_per_relation:10 query in
    match Flow.solve db query with
    | Some s -> if Solution.value s <> Exact.value db query then incr mismatches
    | None -> incr mismatches
  done;
  Printf.printf "flow (with duplicated R edges) vs exact on %d random qACconf instances: %d mismatches\n"
    total !mismatches

let fig14_abperm_gadget () =
  section "Figure 14: 3SAT -> RES(qABperm) gadget (Prop 34), k = (3n+5)m";
  chain_gadget_row "(x1|x2|x3)" (Reductions.sat3_to_abperm (Cnf.make ~n_vars:3 [ [ 1; 2; 3 ] ])) true;
  chain_gadget_row "(x1)&(~x1)" (Reductions.sat3_to_abperm (Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ])) false

let fig15_ac3conf () =
  section "Figure 15 (substituted): qAC3conf hardness evidence";
  print_endline "The paper's Max2SAT crossover gadget is under-specified in the available";
  print_endline "text (see EXPERIMENTS.md); instead this experiment shows:";
  subsection "(a) the classifier's verdict and its unary-variation robustness (Props 39/40)";
  List.iter
    (fun qs -> Printf.printf "  %-50s %s\n" qs (verdict (q qs)))
    [
      "A(x), R(x,y), R(z,y), R(z,w), C(w)";
      "A(x), B(y), R(x,y), R(z,y), R(z,w), C(w)";
      "A(x), R(x,y), R(z,y), B(z), R(z,w), C(w)";
    ];
  subsection "(b) the Max-2SAT machinery itself (exact branch-and-bound)";
  List.iter
    (fun (n, m, seed) ->
      let f = Sat_gen.random_2cnf ~seed ~n_vars:n ~n_clauses:m in
      Printf.printf "  random 2CNF n=%d m=%d: max satisfiable = %d\n" n m (Max2sat.max_satisfiable f))
    [ (5, 12, 1); (8, 20, 2); (10, 30, 3) ];
  subsection "(c) exact-solver cost growth on qAC3conf instances (no poly algorithm known)";
  List.iter
    (fun size ->
      let query = q "A(x), R(x,y), R(z,y), R(z,w), C(w)" in
      let db = Db_gen.random_for_query ~seed:7 ~domain:(3 + size) ~tuples_per_relation:(8 * size) query in
      let t0 = Sys.time () in
      let v = rho_s db query in
      Printf.printf "  tuples/rel=%-3d rho=%-4s exact time=%.3fs\n" (8 * size) v (Sys.time () -. t0))
    [ 1; 2; 3 ]

let fig16_triangle_gadget () =
  section "Figure 16: 3SAT -> RES(triangle) gadget (Prop 56), k = 18m";
  chain_gadget_row "(x1|x2|x3)" (Reductions.sat3_to_triangle (Cnf.make ~n_vars:3 [ [ 1; 2; 3 ] ])) true;
  chain_gadget_row "(x1|~x2|x3)&(~x1|x2|~x3)"
    (Reductions.sat3_to_triangle (Cnf.make ~n_vars:3 [ [ 1; -2; 3 ]; [ -1; 2; -3 ] ]))
    true;
  chain_gadget_row "(x1)&(~x1)" (Reductions.sat3_to_triangle (Cnf.make ~n_vars:1 [ [ 1 ]; [ -1 ] ])) false

let fig17_triad_reduction () =
  section "Figure 17: triangle -> triad instance mapping (Lemma 6 / Thm 24)";
  let tri_db =
    Database.of_int_rows
      [
        ("R", [ [ 1; 2 ]; [ 4; 2 ]; [ 4; 5 ]; [ 1; 5 ] ]);
        ("S", [ [ 2; 3 ]; [ 5; 3 ]; [ 2; 6 ] ]);
        ("T", [ [ 3; 1 ]; [ 3; 4 ]; [ 6; 1 ] ]);
      ]
  in
  let base_rho = rho_s tri_db (q "R(x,y), S(y,z), T(z,x)") in
  Printf.printf "triangle instance rho = %s\n" base_rho;
  List.iter
    (fun (name, build) ->
      let inst = build () in
      Printf.printf "%-28s rho=%s (preserved: %b)\n" name
        (rho_s inst.Reductions.db inst.Reductions.query)
        (rho_s inst.Reductions.db inst.Reductions.query = base_rho))
    [
      ("-> tripod (Prop 57)", fun () -> Reductions.triangle_to_tripod tri_db);
      ( "-> triad query R,S,T,U(x,w)",
        fun () -> Reductions.triangle_to_triad tri_db (q "R(x,y), S(y,z), T(z,x), U(x,w)") );
      ( "-> sj variation R,R,R (L21)",
        fun () ->
          Reductions.sjfree_to_sj_variation tri_db ~base:(q "R(x,y), S(y,z), T(z,x)")
            ~target:(q "R(x,y), R(y,z), R(z,x)") );
    ]

let fig18_19_ijp () =
  section "Figures 18/19 + Appendix C: Independent Join Paths";
  let d59 =
    Database.of_int_rows
      [ ("R", [ [ 1; 2 ]; [ 4; 2 ]; [ 4; 5 ] ]); ("S", [ [ 2; 3 ]; [ 5; 3 ] ]); ("T", [ [ 3; 1 ]; [ 3; 4 ] ]) ]
  in
  Printf.printf "Example 59 triangle IJP verified: %b\n" (Ijp.is_ijp d59 (q "R(x,y), S(y,z), T(z,x)"));
  Printf.printf "Example 62 Bell(9) search space: %d partitions\n"
    (Ijp.count_partitions_tried (q "R(x,y), S(y,z), T(z,x)") ~max_joins:3);
  (match Ijp.search ~max_joins:3 (q "R(x,y), S(y,z), T(z,x)") with
  | Some (db, _, _) -> Printf.printf "automated search re-discovers an IJP (%d tuples)\n" (Database.size db)
  | None -> print_endline "automated search FAILED");
  subsection "Figure 19 / Example 60 (erratum)";
  let d60 =
    Database.of_int_rows
      [
        ("A", [ [ 1 ]; [ 4 ]; [ 5 ]; [ 9 ]; [ 13 ] ]);
        ( "R",
          [
            [ 1; 2 ]; [ 2; 2 ]; [ 2; 3 ]; [ 3; 3 ]; [ 4; 1 ]; [ 5; 2 ]; [ 5; 6 ]; [ 6; 7 ];
            [ 7; 7 ]; [ 8; 7 ]; [ 9; 8 ]; [ 1; 10 ]; [ 10; 11 ]; [ 11; 11 ]; [ 12; 11 ]; [ 13; 12 ];
          ] );
      ]
  in
  let z5 = q "A(x), R(x,y), R(y,z), R(z,z)" in
  Printf.printf "rho(D60) = %s (paper: 4)\n" (rho_s d60 z5);
  Printf.printf "rho(D60 - A(9))  = %s (paper: 3)\n"
    (rho_s (Database.remove d60 (Database.fact "A" [ Value.i 9 ])) z5);
  Printf.printf "rho(D60 - A(13)) = %s (paper claims 3 — the overlooked witness (5,2,3) keeps it at 4)\n"
    (rho_s (Database.remove d60 (Database.fact "A" [ Value.i 13 ])) z5);
  subsection "automated hardness certificates (Section 9 pipeline)";
  List.iter
    (fun (name, qs, joins) ->
      match Certificate.search ~max_joins:joins (q qs) with
      | Some cert ->
        Printf.printf "%-10s certificate: IJP %d tuples, cost %d, verifies on K3/P4/star/K4: %b\n"
          name (Database.size cert.Certificate.ijp) cert.Certificate.cost
          (Certificate.verify cert)
      | None -> Printf.printf "%-10s no certificate up to %d joins\n" name joins)
    [ ("qvc", "R(x), S(x,y), R(y)", 2); ("qchain", "R(x,y), R(y,z)", 3);
      ("triangle", "R(x,y), S(y,z), T(z,x)", 3);
      ("z1", "R(x,x), S(x,y), R(y,y)", 3);
      ("q3chain", "R(x,y), R(y,z), R(z,w)", 2);
      ("qABchain", "A(x), R(x,y), B(y), R(y,z)", 3);
      (* known-hard queries whose paper proofs use 3SAT rather than VC:
         the search finding nothing here is informative, not a failure *)
      ("qABperm", "A(x), R(x,y), R(y,x), B(y)", 4);
      ("qcfp", "R(x,y), H^x(x,z), R(z,y)", 3) ];
  subsection "strict (composable) IJP search separates hard from PTIME";
  List.iter
    (fun (name, qs, joins) ->
      Printf.printf "%-12s strict IJP up to %d joins: %b\n" name joins
        (Ijp.search ~strict:true ~max_joins:joins (q qs) <> None))
    [
      ("qvc", "R(x), S(x,y), R(y)", 2);
      ("qchain", "R(x,y), R(y,z)", 3);
      ("triangle", "R(x,y), S(y,z), T(z,x)", 3);
      ("qAperm (P)", "A(x), R(x,y), R(y,x)", 3);
      ("z3 (P)", "R(x,x), R(x,y), A(y)", 3);
      ("qACconf (P)", "A(x), R(x,y), R(z,y), C(z)", 2);
    ]

let scaling_flow_vs_exact () =
  section "Scaling: flow solver vs exact solver (who wins, where)";
  Printf.printf "%-22s %8s %12s %12s\n" "instance" "tuples" "flow (s)" "exact (s)";
  let query = q "A(x), R(x,y), R(z,y), C(z)" in
  List.iter
    (fun tuples ->
      let db = Db_gen.random_for_query ~seed:11 ~domain:(tuples / 3) ~tuples_per_relation:tuples query in
      let t0 = Sys.time () in
      let fv = match Flow.solve db query with Some s -> Solution.value s | None -> None in
      let t_flow = Sys.time () -. t0 in
      let t0 = Sys.time () in
      let ev = Exact.value db query in
      let t_exact = Sys.time () -. t0 in
      Printf.printf "%-22s %8d %12.4f %12.4f  (agree: %b)\n"
        (Printf.sprintf "qACconf t/rel=%d" tuples)
        (Database.size db) t_flow t_exact (fv = ev))
    [ 10; 20; 40; 80; 160; 320 ];
  subsection "exact solver on growing hard gadgets (exponential family)";
  List.iter
    (fun m ->
      let f = Sat_gen.random_kcnf ~seed:5 ~n_vars:3 ~n_clauses:m ~k:3 in
      let inst = Reductions.sat3_to_chain f in
      let t0 = Sys.time () in
      let v = rho_s inst.db inst.query in
      Printf.printf "qchain gadget m=%d (%d tuples): rho=%s in %.3fs\n" m
        (Database.size inst.db) v (Sys.time () -. t0))
    [ 1; 2; 3; 4; 5 ];
  subsection "polynomial solvers at scale";
  let big_linear = q "A(x), R(x,y), S(y,z)" in
  List.iter
    (fun n ->
      let db = Db_gen.random_for_query ~seed:1 ~domain:(n / 30) ~tuples_per_relation:n big_linear in
      let t0 = Sys.time () in
      match Flow.solve db big_linear with
      | Some (Solution.Finite (v, _)) ->
        Printf.printf "linear flow %6d tuples: rho=%-5d %.3fs\n" (Database.size db) v (Sys.time () -. t0)
      | _ -> print_endline "flow failed")
    [ 1000; 5000; 20000 ];
  let perm = q "R(x,y), R(y,x)" in
  List.iter
    (fun e ->
      let db = Db_gen.random_graph ~seed:3 ~nodes:(e / 40) ~edges:e ~rel:"R" in
      let t0 = Sys.time () in
      match Special.solve_perm ~r:"R" db perm with
      | Solution.Finite (v, _) ->
        Printf.printf "permutation pairs %6d edges: rho=%-5d %.3fs\n" e v (Sys.time () -. t0)
      | Solution.Unbreakable -> ())
    [ 5000; 20000; 50000 ]

let ablation_fragment () =
  section "Ablation: exhaustive classification of the two-R-atom fragment (Thm 37 totality)";
  let shapes = Query_gen.two_r_atom_shapes () in
  Printf.printf "two-R-atom shapes up to isomorphism: %d\n" (List.length shapes);
  let fragment = Query_gen.decorated_two_r_atom_queries () in
  let p = ref 0 and npc = ref 0 and other = ref 0 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ -> incr p
      | Classify.Np_complete _ -> incr npc
      | _ -> incr other)
    fragment;
  Printf.printf "decorated connected queries: %d\n" (List.length fragment);
  Printf.printf "PTIME: %d   NP-complete: %d   not decided: %d (must be 0 by Thm 37)\n" !p !npc !other;
  subsection "dispatcher coverage: algorithms used across the PTIME side";
  let algs = Hashtbl.create 16 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ ->
        let db = Db_gen.random_for_query ~seed:1 ~domain:4 ~tuples_per_relation:6 query in
        let _, traces = Solver.solve_traced db query in
        List.iter
          (fun (t : Solver.trace) ->
            Hashtbl.replace algs t.algorithm
              (1 + try Hashtbl.find algs t.algorithm with Not_found -> 0))
          traces
      | _ -> ())
    fragment;
  Hashtbl.fold (fun k v acc -> (v, k) :: acc) algs []
  |> List.sort (fun a b -> compare b a)
  |> List.iter (fun (v, k) -> Printf.printf "%5d  %s\n" v k)

let ablation_section8_roadmap () =
  section "Ablation: how much of the three-R-atom space does Section 8 decide?";
  let shapes = Query_gen.three_r_atom_shapes () in
  Printf.printf "three-R-atom shapes up to isomorphism: %d\n" (List.length shapes);
  let fragment = Query_gen.decorated_three_r_atom_queries () in
  let p = ref 0 and npc = ref 0 and op = ref 0 and unk = ref 0 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Ptime _ -> incr p
      | Classify.Np_complete _ -> incr npc
      | Classify.Open_problem _ -> incr op
      | Classify.Unknown _ | Classify.Heuristic _ -> incr unk)
    fragment;
  Printf.printf
    "decorated connected queries: %d\n\
     decided PTIME: %d   decided NP-complete: %d   declared open by the paper: %d\n\
     not yet analyzed (the open roadmap of Section 8): %d\n"
    (List.length fragment) !p !npc !op !unk;
  subsection "examples of still-unclassified shapes";
  let shown = ref 0 in
  List.iter
    (fun query ->
      match Classify.verdict_of query with
      | Classify.Unknown _ when !shown < 5 ->
        incr shown;
        Format.printf "  %a@." Res_cq.Query.pp query
      | _ -> ())
    fragment

(* The standard flow of [31] on a linear query outside the classes where
   the paper proves it exact: its max-flow value, and the size of its min
   cut shrunk greedily, left to right, to an irredundant set.  The two
   differ where a cut spends two edges on one self-joined tuple and the
   flow value overcounts ρ.  [Flow.solve] asserts that no cut does so,
   which a cut here may, so the probe builds the same network itself.
   [None]: unbreakable. *)
let standard_flow db query =
  match Linearity.linear_order query with
  | None -> invalid_arg "standard_flow: query is not linear"
  | Some order ->
    let net = Witness_net.create query (Array.of_list order) db in
    Witness_net.augment net;
    if Witness_net.value net >= Res_graph.Maxflow.infinite then None
    else begin
      let cut = Witness_net.cut_facts net in
      let irredundant =
        List.fold_left
          (fun kept f ->
            let candidate = List.filter (fun g -> Database.compare_fact g f <> 0) kept in
            if Eval.sat (Database.remove_all db candidate) query then kept else candidate)
          cut cut
      in
      Some (Witness_net.value net, List.length irredundant)
    end

let open_problems_probe () =
  section "Probe: empirical evidence on the paper's open problems (Section 8)";
  print_endline "strategy: (a) strict IJP search = hardness evidence; (b) standard-flow";
  print_endline "agreement with exact over random instances = PTIME evidence.";
  let opens =
    [
      ("qAS3conf", "A(x), R(x,y), R(z,y), R(z,w), S^x(z,w)");
      ("qS3cc", "R(x,y), R(y,z), R(w,z), S^x(w,z)");
      ("z6", "A(x), R(x,y), R(y,y), R(y,z), C(z)");
      ("z7", "A(x), R(x,y), R(y,x), R(y,y)");
    ]
  in
  List.iter
    (fun (name, qs) ->
      let query = q qs in
      let ijp = Ijp.search ~strict:true ~max_joins:2 query <> None in
      let value_agree = ref 0 and shrunk_agree = ref 0 in
      for seed = 1 to 200 do
        (* tuples_per_relation:8 matches the deterministic regressions in
           test_fragment.ml — z6's known counterexamples (first seed: 97)
           live in this regime and a sparser probe misses them *)
        let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:8 query in
        let exact = Exact.value db query in
        let flow = standard_flow db query in
        if Option.map fst flow = exact then incr value_agree;
        if Option.map snd flow = exact then incr shrunk_agree
      done;
      Printf.printf "%-10s composable IJP (2 joins): %-5b | flow agreement: value %d/200, shrunk cut %d/200%s\n"
        name ijp !value_agree !shrunk_agree
        (if !value_agree = 200 && !shrunk_agree = 200 then
           "  <- no counterexample: evidence toward PTIME via flow"
         else "  <- naive flow refuted by counterexamples"))
    opens

let () =
  print_endline "Resilience for binary CQs with self-joins -- experiment harness";
  print_endline "(paper: Freire, Gatterbauer, Immerman, Meliou, PODS 2020)";
  table1_query_classes ();
  fig1_sjfree_dichotomy ();
  fig2_representations ();
  fig3_tricky_flow ();
  fig4_paths_hard ();
  fig5_two_atom_dichotomy ();
  fig6_expansions ();
  fig7_three_confluences ();
  fig8_ijp_intuition ();
  fig9_pseudolinear ();
  fig10_chain_gadget ();
  fig11_achain_gadget ();
  fig12_acchain_gadget ();
  fig13_confluence_flow ();
  fig14_abperm_gadget ();
  fig15_ac3conf ();
  fig16_triangle_gadget ();
  fig17_triad_reduction ();
  fig18_19_ijp ();
  scaling_flow_vs_exact ();
  ablation_fragment ();
  ablation_section8_roadmap ();
  open_problems_probe ();
  print_endline "\nAll experiments completed."
