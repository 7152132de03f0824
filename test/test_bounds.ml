(* Tests for the certified-bounds subsystem: the dense simplex, the
   hitting-set program builders, lower/upper certificates and their exact
   integer checkers, interval algebra, and the sandwich laws
   lower ≤ ρ ≤ upper as properties over random and gadget instances. *)

open Res_db
open Resilience
module I = Res_bounds.Interval
module Ilp = Res_bounds.Ilp
module Iset = Res_bounds.Iset
module Lower = Res_bounds.Lower
module Upper = Res_bounds.Upper
module Simplex = Res_bounds.Simplex

let q = Res_cq.Parser.query
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iset = Iset.of_list

(* --- simplex ------------------------------------------------------------ *)

let simplex_known_optimum () =
  (* max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6: optimum 12 at (4, 0) *)
  let r =
    Simplex.maximize
      ~a:[| [| 1.; 1. |]; [| 1.; 3. |] |]
      ~b:[| 4.; 6. |] ~c:[| 3.; 2. |] ()
  in
  check_bool "converged" true r.Simplex.optimal;
  Alcotest.(check (float 1e-9)) "objective" 12. r.Simplex.objective

let simplex_degenerate () =
  (* a degenerate vertex (two constraints meet at the optimum); Bland's
     rule must still terminate at the optimum 2 *)
  let r =
    Simplex.maximize
      ~a:[| [| 1.; 0. |]; [| 1.; 1. |]; [| 0.; 1. |] |]
      ~b:[| 1.; 2.; 1. |] ~c:[| 1.; 1. |] ()
  in
  check_bool "converged" true r.Simplex.optimal;
  Alcotest.(check (float 1e-9)) "objective" 2. r.Simplex.objective

let simplex_unbounded_is_sound () =
  (* max x with no binding row: unbounded; the solver must come back
     feasible (objective of a real point) rather than diverge *)
  let r = Simplex.maximize ~a:[| [| 0. |] |] ~b:[| 1. |] ~c:[| 1. |] () in
  check_bool "flagged non-optimal" false r.Simplex.optimal

let simplex_rejects_negative_b () =
  Alcotest.check_raises "phase-1 not supported"
    (Invalid_argument "Simplex.maximize: b must be nonnegative") (fun () ->
      ignore (Simplex.maximize ~a:[| [| 1. |] |] ~b:[| -1. |] ~c:[| 1. |] ()))

let simplex_packing_disjoint () =
  (* two disjoint constraints pack to exactly 2 *)
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 2; 3 ] ] in
  let r = Simplex.packing_lp ilp in
  check_bool "converged" true r.Simplex.optimal;
  Alcotest.(check (float 1e-9)) "lp value" 2. r.Simplex.objective

let simplex_packing_triangle () =
  (* the odd-cycle LP: three pairwise-overlapping constraints pack to 3/2 *)
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 1; 2 ]; iset [ 2; 0 ] ] in
  let r = Simplex.packing_lp ilp in
  check_bool "converged" true r.Simplex.optimal;
  Alcotest.(check (float 1e-9)) "lp value" 1.5 r.Simplex.objective

(* --- hitting-set programs ----------------------------------------------- *)

let ilp_of_instance_unbreakable () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  check_bool "all-exogenous witness -> no program" true
    (Ilp.of_instance db (q "R^x(x,y)") = None)

let ilp_of_instance_unsat () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  match Ilp.of_instance db (q "R(x,y), R(y,z), R(z,x)") with
  | None -> Alcotest.fail "unsatisfied instance must still yield a program"
  | Some ilp -> check_int "no constraints" 0 (Ilp.n_constraints ilp)

let ilp_of_sets_minimizes () =
  (* {0} ⊂ {0,1}: the superset constraint is redundant and dropped *)
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 0 ]; iset [ 2; 3 ] ] in
  check_int "minimal constraints" 2 (Ilp.n_constraints ilp);
  check_bool "covers with {0,2}" true (Ilp.covers ilp [ 0; 2 ]);
  check_bool "misses constraint" false (Ilp.covers ilp [ 0 ])

let ilp_round_trips_facts () =
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  match Ilp.of_instance db (q "R(x,y), R(y,z)") with
  | None -> Alcotest.fail "breakable instance"
  | Some ilp ->
    Array.iter
      (fun v ->
        match Ilp.fact_of_var ilp v with
        | None -> Alcotest.fail "instance program lost a fact"
        | Some f -> check_bool "fact -> var -> fact" true (Ilp.var_of_fact ilp f = Some v))
      (Ilp.vars ilp)

(* --- lower-bound certificates ------------------------------------------- *)

let lower_packing_disjoint () =
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 2 ]; iset [ 3; 4; 5 ] ] in
  let b = Lower.packing ilp in
  check_int "three disjoint constraints" 3 (Lower.value b);
  check_bool "certificate checks" true (Lower.check ilp b)

let lower_lp_beats_packing_on_triangle () =
  (* odd cycle: best disjoint packing is 1, LP gives 3/2, so the
     rationalized bound rounds to ⌈3/2⌉ = 2 = ρ *)
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 1; 2 ]; iset [ 2; 0 ] ] in
  let p = Lower.packing ilp and l = Lower.lp ilp in
  check_int "packing" 1 (Lower.value p);
  check_int "lp rounds up" 2 (Lower.value l);
  check_bool "lp certificate checks" true (Lower.check ilp l);
  check_int "best picks lp" 2 (Lower.value (Lower.best ilp))

let lower_check_rejects_overlap () =
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 1; 2 ] ] in
  let forged = Lower.{ value = 2; certificate = Disjoint [ 0; 1 ]; name = "forged" } in
  check_bool "overlapping constraints rejected" false (Lower.check ilp forged)

let lower_check_rejects_overweight () =
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 1; 2 ] ] in
  (* weight 1 on both constraints overloads variable 1's column (sum 2 > denom 1) *)
  let forged =
    Lower.{ value = 2; certificate = Fractional { weights = [| 1; 1 |]; denom = 1 }; name = "forged" }
  in
  check_bool "infeasible dual rejected" false (Lower.check ilp forged);
  (* same weights with denom 2 are feasible but only certify ⌈2/2⌉ = 1 *)
  let inflated =
    Lower.{ value = 2; certificate = Fractional { weights = [| 1; 1 |]; denom = 2 }; name = "forged" }
  in
  check_bool "overstated value rejected" false (Lower.check ilp inflated)

let lower_lp_value_total () =
  check_int "no constraints" 0 (Lower.lp_value []);
  check_int "two disjoint" 2 (Lower.lp_value [ iset [ 0 ]; iset [ 1; 2 ] ])

(* --- upper-bound certificates ------------------------------------------- *)

let upper_greedy_covers () =
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 1; 2 ]; iset [ 2; 3 ] ] in
  let b = Upper.best ilp in
  check_bool "cover checks" true (Upper.check ilp b);
  (* {1, 2} hits everything; improve must find a 2-cover *)
  check_int "polished size" 2 b.Upper.value

let upper_check_rejects_noncover () =
  let ilp = Ilp.of_sets [ iset [ 0; 1 ]; iset [ 2 ] ] in
  check_bool "missing a constraint" false
    (Upper.check ilp Upper.{ value = 1; cover = [ 0 ] });
  check_bool "understated cardinality" false
    (Upper.check ilp Upper.{ value = 1; cover = [ 0; 2 ] })

(* --- intervals ---------------------------------------------------------- *)

let interval_shapes () =
  let opt = I.optimal 3 in
  check_bool "optimal" true (I.is_optimal opt);
  check_bool "gap 0" true (I.gap opt = Some 0);
  check_bool "unbreakable" true (I.is_unbreakable I.unbreakable);
  check_bool "unbreakable gap 0" true (I.gap I.unbreakable = Some 0);
  let g = I.of_bounds ~lb:2 ~ub:(Some 5) () in
  check_bool "gap 3" true (I.gap g = Some 3);
  check_bool "not optimal" false (I.is_optimal g);
  let lo = I.lower_only 4 in
  check_bool "no finite gap" true (I.gap lo = None);
  check_bool "all valid" true (List.for_all I.valid [ opt; I.unbreakable; g; lo ])

let interval_clamps () =
  (* the upper bound carries the concrete set, so it wins a conflict *)
  let iv = I.of_bounds ~lb:7 ~ub:(Some 4) () in
  check_int "lb clamped" 4 (I.lb iv);
  check_bool "meets -> optimal" true (I.is_optimal iv)

let interval_min_components () =
  let a = I.of_bounds ~lb:2 ~ub:(Some 6) () in
  let b = I.of_bounds ~lb:3 ~ub:(Some 4) () in
  let m = I.min_components a b in
  check_int "min of lbs" 2 (I.lb m);
  check_bool "min of ubs" true (I.ub m = Some 4);
  check_bool "unbreakable is the identity" true (I.min_components I.unbreakable a = a);
  check_bool "commutes with identity" true (I.min_components a I.unbreakable = a);
  let lo = I.lower_only 1 in
  let m2 = I.min_components lo (I.optimal 5) in
  check_int "lb meets finite side" 1 (I.lb m2);
  check_bool "finite ub survives" true (I.ub m2 = Some 5)

let interval_kvs () =
  let kvs = I.to_kvs (I.of_bounds ~lb:1 ~ub:(Some 3) ()) in
  check_bool "lb" true (List.assoc "lb" kvs = "1");
  check_bool "ub" true (List.assoc "ub" kvs = "3");
  check_bool "gap" true (List.assoc "gap" kvs = "2");
  let kvs = I.to_kvs (I.lower_only 2) in
  check_bool "no ub" true (List.assoc "ub" kvs = "none");
  check_bool "infinite gap" true (List.assoc "gap" kvs = "inf")

(* --- sandwich properties ------------------------------------------------ *)

(* small fragment exercising self-joins, unary atoms and exogenous marks *)
let sandwich_queries =
  [|
    q "R(x,y), R(y,z)";
    q "R(x,y), R(y,x)";
    q "A(x), R(x,y), B(y)";
    q "R(x,y), S(y,z)";
    q "A(x), R(x,y), R(y,z), B(z)";
    q "T^x(x,y), R(x,y), R(z,y)";
    q "R(x,x)";
    q "A(x), R^x(x,y), S(y,z)";
  |]

let prop_sandwich =
  QCheck.Test.make ~count:400 ~name:"bounds: checked lower <= rho <= checked upper"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query = sandwich_queries.(seed mod Array.length sandwich_queries) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      let rho = Exact.value db query in
      match (Ilp.of_instance db query, rho) with
      | None, Some _ -> QCheck.Test.fail_report "program missing on a breakable instance"
      | Some _, None -> QCheck.Test.fail_report "program built for an unbreakable instance"
      | None, None -> true
      | Some ilp, Some rho ->
        let order = Linearity.linear_order query in
        let lowers =
          [ Lower.packing ilp; Lower.lp ilp ]
          @ (match order with
            | Some o -> Option.to_list (Lower.flow_dual ~order:o ilp)
            | None -> [])
          @ [ Lower.best ?order ilp ]
        in
        List.iter
          (fun b ->
            if Lower.check ilp b && Lower.value b > rho then
              QCheck.Test.fail_reportf "checked lower bound %a exceeds rho=%d" Lower.pp b rho)
          lowers;
        let ub = Upper.best ilp in
        if not (Upper.check ilp ub) then QCheck.Test.fail_report "greedy cover fails its own check";
        if ub.Upper.value < rho then
          QCheck.Test.fail_reportf "upper bound %d below rho=%d" ub.Upper.value rho;
        let lb = Lower.best ?order ilp in
        if not (Lower.check ilp lb) then QCheck.Test.fail_report "best lower fails check";
        (* the sandwich, and the advertised dominance lp >= packing *)
        Lower.value lb <= rho
        && rho <= ub.Upper.value
        && Lower.value (Lower.lp ilp) >= Lower.value (Lower.packing ilp))

(* flow-solvable linear sj-free queries: the flow dual is exact *)
let flow_exact_queries =
  [| q "R(x,y), S(y,z)"; q "A(x), R(x,y)"; q "A(x), R(x,y), B(y)"; q "R(x,y), S(y,z), T(z,w)" |]

let prop_flow_dual_exact =
  QCheck.Test.make ~count:300 ~name:"bounds: flow dual recovers rho on sj-free linear instances"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query = flow_exact_queries.(seed mod Array.length flow_exact_queries) in
      let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:6 query in
      let order =
        match Linearity.linear_order query with
        | Some o -> o
        | None -> QCheck.Test.fail_report "fragment query not linear"
      in
      match (Ilp.of_instance db query, Exact.value db query) with
      | None, _ | _, None -> QCheck.Test.fail_report "sj-free endogenous instance cannot be unbreakable"
      | Some ilp, Some 0 -> Ilp.n_constraints ilp = 0
      | Some ilp, Some rho -> begin
        match Lower.flow_dual ~order ilp with
        | None -> QCheck.Test.fail_report "no flow dual on a satisfied linear instance"
        | Some b ->
          if not (Lower.check ilp b) then QCheck.Test.fail_report "flow-dual certificate fails check";
          if Lower.value b <> rho then
            QCheck.Test.fail_reportf "flow dual %d <> rho %d" (Lower.value b) rho;
          true
      end)

(* --- gadget sandwiches and the bounded solver --------------------------- *)

let gadget_sandwich () =
  let cnfs =
    [
      Res_sat.Cnf.make ~n_vars:2 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ];
      Res_sat.Cnf.make ~n_vars:2 [ [ 1 ]; [ -1; 2 ] ];
    ]
  in
  List.iter
    (fun cnf ->
      List.iter
        (fun (inst : Reductions.instance) ->
          let rho =
            match Exact.value inst.db inst.query with
            | Some v -> v
            | None -> Alcotest.fail "gadget instances are breakable"
          in
          match Ilp.of_instance inst.db inst.query with
          | None -> Alcotest.fail "gadget program missing"
          | Some ilp ->
            let lb = Lower.best ilp and ub = Upper.best ilp in
            check_bool (inst.description ^ ": lower checks") true (Lower.check ilp lb);
            check_bool (inst.description ^ ": upper checks") true (Upper.check ilp ub);
            check_bool (inst.description ^ ": sandwich") true
              (Lower.value lb <= rho && rho <= ub.Upper.value))
        [ Reductions.sat3_to_chain cnf; Reductions.sat3_to_abperm cnf ])
    cnfs

let bounded_unbreakable_skips_search () =
  (* regression: preprocessing proves Unbreakable / unsatisfied without
     touching the search (no cover, no node, no LP call) *)
  Exact.reset_stats ();
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] in
  (match Exact.resilience_bounded db (q "R^x(x,y)") with
  | Exact.Complete Solution.Unbreakable -> ()
  | _ -> Alcotest.fail "expected Complete Unbreakable");
  (match Exact.resilience_bounded db (q "R(x,y), R(y,z), R(z,x)") with
  | Exact.Complete (Solution.Finite (0, [])) -> ()
  | _ -> Alcotest.fail "expected Complete (Finite (0, []))");
  let s = Exact.last_stats () in
  check_int "no covers computed" 0 s.Exact.covers;
  check_int "no nodes expanded" 0 s.Exact.nodes;
  check_int "no LP calls" 0 s.Exact.lp_calls

let lp_pruning_no_worse () =
  let cnf = Res_sat.Cnf.make ~n_vars:3 [ [ 1; -2; 3 ]; [ -1; 2; -3 ] ] in
  List.iter
    (fun (name, (inst : Reductions.instance)) ->
      let run lp =
        Exact.reset_stats ();
        match Exact.resilience_bounded ~lp inst.db inst.query with
        | Exact.Complete s -> (Solution.value s, (Exact.last_stats ()).Exact.nodes)
        | Exact.Interrupted _ -> Alcotest.fail "uncancelled search must complete"
      in
      let v_off, off = run false in
      let v_on, on = run true in
      Alcotest.(check (option int)) (name ^ ": lp pruning keeps the value") v_off v_on;
      check_bool (name ^ ": lp pruning never expands more nodes") true (on <= off))
    [
      ("chain", Reductions.sat3_to_chain cnf);
      ("abperm", Reductions.sat3_to_abperm cnf);
      ("triangle", Reductions.sat3_to_triangle cnf);
    ]

let suite =
  [
    Alcotest.test_case "simplex: known optimum" `Quick simplex_known_optimum;
    Alcotest.test_case "simplex: degenerate vertex" `Quick simplex_degenerate;
    Alcotest.test_case "simplex: unbounded stays sound" `Quick simplex_unbounded_is_sound;
    Alcotest.test_case "simplex: rejects negative b" `Quick simplex_rejects_negative_b;
    Alcotest.test_case "simplex: packing LP, disjoint" `Quick simplex_packing_disjoint;
    Alcotest.test_case "simplex: packing LP, odd cycle" `Quick simplex_packing_triangle;
    Alcotest.test_case "ilp: unbreakable -> None" `Quick ilp_of_instance_unbreakable;
    Alcotest.test_case "ilp: unsatisfied -> empty program" `Quick ilp_of_instance_unsat;
    Alcotest.test_case "ilp: of_sets minimizes" `Quick ilp_of_sets_minimizes;
    Alcotest.test_case "ilp: fact/var round trip" `Quick ilp_round_trips_facts;
    Alcotest.test_case "lower: packing on disjoint sets" `Quick lower_packing_disjoint;
    Alcotest.test_case "lower: lp beats packing on odd cycle" `Quick lower_lp_beats_packing_on_triangle;
    Alcotest.test_case "lower: check rejects overlap" `Quick lower_check_rejects_overlap;
    Alcotest.test_case "lower: check rejects bad dual" `Quick lower_check_rejects_overweight;
    Alcotest.test_case "lower: lp_value total" `Quick lower_lp_value_total;
    Alcotest.test_case "upper: greedy + polish" `Quick upper_greedy_covers;
    Alcotest.test_case "upper: check rejects non-covers" `Quick upper_check_rejects_noncover;
    Alcotest.test_case "interval: shapes and gaps" `Quick interval_shapes;
    Alcotest.test_case "interval: clamping" `Quick interval_clamps;
    Alcotest.test_case "interval: min over components" `Quick interval_min_components;
    Alcotest.test_case "interval: wire key/values" `Quick interval_kvs;
    QCheck_alcotest.to_alcotest prop_sandwich;
    QCheck_alcotest.to_alcotest prop_flow_dual_exact;
    Alcotest.test_case "gadgets: certified sandwich" `Quick gadget_sandwich;
    Alcotest.test_case "bounded: preprocessing short-circuits" `Quick bounded_unbreakable_skips_search;
    Alcotest.test_case "bounded: lp pruning no worse" `Quick lp_pruning_no_worse;
  ]
