(* Tests for the structural analysis: domination (sj-free and self-join),
   triads, linearity / pseudo-linearity, self-join patterns, and query
   isomorphism. *)

open Res_cq
open Resilience

let q = Parser.query
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- domination --------------------------------------------------------- *)

let domination_sjfree () =
  (* qT: A(x) dominates W(x,y,z) *)
  let qt = q "A(x), B(y), C(z), W(x,y,z)" in
  check_bool "A dominates W" true (Domination.dominates qt "A" "W");
  check_bool "W does not dominate A" false (Domination.dominates qt "W" "A");
  (* qrats: A dominates both R and T *)
  let qr = q "R(x,y), A(x), T(z,x), S(y,z)" in
  check_bool "A dom R" true (Domination.dominates qr "A" "R");
  check_bool "A dom T" true (Domination.dominates qr "A" "T");
  check_bool "A does not dom S" false (Domination.dominates qr "A" "S")

let domination_example17 () =
  (* Example 17: A dominates R in q2 but not in q1; S dominated in both *)
  let q1 = q "R(x,y), A(y), R(y,z), S(y,z)" in
  let q2 = q "R(x,y), A(y), R(z,y), S(y,z)" in
  check_bool "q1: A does not dominate R" false (Domination.dominates q1 "A" "R");
  check_bool "q2: A dominates R" true (Domination.dominates q2 "A" "R");
  check_bool "q1: S dominated" true (List.mem "S" (Domination.dominated_relations q1));
  check_bool "q2: S dominated" true (List.mem "S" (Domination.dominated_relations q2))

let domination_r_dominates_s () =
  (* In qTS3conf, R dominates both binary guards (the paper marks them
     exogenous for exactly this reason) *)
  let query = q "T(x,y), R(x,y), R(z,y), R(z,w), S(z,w)" in
  check_bool "R dom T" true (Domination.dominates query "R" "T");
  check_bool "R dom S" true (Domination.dominates query "R" "S")

let domination_exogenous_excluded () =
  let query = q "A^x(x), R(x,y)" in
  check_bool "exogenous cannot dominate" false (Domination.dominates query "A" "R")

let domination_normalize () =
  let n = Domination.normalize (q "A(x), B(y), C(z), W(x,y,z)") in
  check_bool "W exogenous after normalize" true (Query.is_exogenous n "W");
  check_bool "A stays endogenous" false (Query.is_exogenous n "A")

let domination_mutual () =
  (* A(x), B(x): mutual domination must keep one endogenous *)
  let n = Domination.normalize (q "A(x), B(x), R(x,y)") in
  let endo_unary =
    List.filter
      (fun r -> Query.arity_of n r = 1 && not (Query.is_exogenous n r))
      (Query.relations n)
  in
  check_int "exactly one unary stays endogenous" 1 (List.length endo_unary)

(* --- triads ------------------------------------------------------------- *)

let triad_triangle () = check_bool "triangle" true (Triad.has_triad (q "R(x,y), S(y,z), T(z,x)"))

let triad_tripod_after_norm () =
  let n = Domination.normalize (q "A(x), B(y), C(z), W(x,y,z)") in
  check_bool "tripod A,B,C" true (Triad.has_triad n)

let triad_disarmed_by_domination () =
  let n = Domination.normalize (q "R(x,y), A(x), T(z,x), S(y,z)") in
  check_bool "qrats has no triad after normalization" false (Triad.has_triad n)

let triad_self_join () =
  check_bool "sj1rats: triad of three R-atoms" true
    (Triad.has_triad (q "A(x), R(x,y), R(y,z), R(z,x)"))

let triad_linear_free () =
  check_bool "chain has no triad" false (Triad.has_triad (q "R(x,y), R(y,z)"));
  check_bool "linear query no triad" false (Triad.has_triad (q "A(x), R(x,y), S(y,z)"))

(* --- linearity ----------------------------------------------------------- *)

let linear_positive () =
  check_bool "qlin is linear" true (Linearity.is_linear (q "A(x), R(x,y,z), S(y,z)"));
  check_bool "chain is linear" true (Linearity.is_linear (q "R(x,y), R(y,z)"));
  check_bool "qTS3conf is linear" true
    (Linearity.is_linear (q "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)"))

let linear_negative () =
  check_bool "triangle not linear" false (Linearity.is_linear (q "R(x,y), S(y,z), T(z,x)"));
  check_bool "qrats not linear" false (Linearity.is_linear (q "R(x,y), A(x), T(z,x), S(y,z)"))

let linear_order_valid () =
  match Linearity.linear_order (q "B(y), A(x), R(x,y), S(y,z)") with
  | None -> Alcotest.fail "expected a linear order"
  | Some order ->
    (* every variable occupies a contiguous block *)
    let atoms = Array.of_list order in
    let ok = ref true in
    List.iter
      (fun v ->
        let idx = ref [] in
        Array.iteri (fun i a -> if List.mem v (Atom.vars a) then idx := i :: !idx) atoms;
        let idx = List.rev !idx in
        match idx with
        | [] -> ()
        | first :: _ ->
          let last = List.nth idx (List.length idx - 1) in
          if List.length idx <> last - first + 1 then ok := false)
      [ "x"; "y"; "z" ];
    check_bool "contiguity" true !ok

let pseudo_linear_cases () =
  (* cfp is pseudo-linear but not linear *)
  let cfp = q "R(x,y), H^x(x,z), R(z,y)" in
  check_bool "cfp not linear" false (Linearity.is_linear cfp);
  check_bool "cfp pseudo-linear" true (Linearity.is_pseudo_linear cfp);
  check_bool "chain pseudo-linear" true (Linearity.is_pseudo_linear (q "R(x,y), R(y,z)"))

let no_triad_implies_pseudo_linear () =
  (* Theorem 25 on the normalized zoo *)
  List.iter
    (fun (en : Zoo.entry) ->
      let n = Domination.normalize (Homomorphism.minimize en.query) in
      if not (Triad.has_triad n) then
        check_bool (en.name ^ " pseudo-linear") true (Linearity.is_pseudo_linear n))
    Zoo.all

let endogenous_groups () =
  let gs = Linearity.endogenous_groups (q "R(x,y), A(y,x), S(y,z)") in
  (* R(x,y) and A(y,x) share the same variable set -> same group *)
  check_int "two groups" 2 (List.length gs)

(* --- patterns ------------------------------------------------------------ *)

let patterns_self_join () =
  match Patterns.self_join (q "R(x,y), R(y,z), A(x)") with
  | Some (r, atoms) ->
    Alcotest.(check string) "relation" "R" r;
    check_int "two atoms" 2 (List.length atoms)
  | None -> Alcotest.fail "expected self-join"

let patterns_paths () =
  check_bool "qvc unary path" true (Patterns.has_unary_path (q "R(x), S(x,y), R(y)"));
  check_bool "z1 binary path" true (Patterns.has_binary_path (q "R(x,x), S(x,y), R(y,y)"));
  check_bool "z2 binary path" true (Patterns.has_binary_path (q "R(x,x), S(x,y), R(y,z)"));
  check_bool "chain has no path" false (Patterns.has_path (q "R(x,y), R(y,z)"));
  check_bool "disconnected R-atoms through S" true
    (Patterns.has_binary_path (q "R(x,y), S(y,z), R(z,w)"))

let patterns_two_atom () =
  let open Patterns in
  (match two_atom_pattern (q "R(x,y), R(y,z)") with
  | Some (Chain v) -> Alcotest.(check string) "chain var" "y" v
  | _ -> Alcotest.fail "expected chain");
  (match two_atom_pattern (q "R(x,y), R(z,y)") with
  | Some (Confluence c) ->
    Alcotest.(check string) "shared" "y" c.shared;
    check_int "second position" 1 c.position
  | _ -> Alcotest.fail "expected confluence");
  (match two_atom_pattern (q "R(x,y), R(x,z)") with
  | Some (Confluence c) -> check_int "first position" 0 c.position
  | _ -> Alcotest.fail "expected first-position confluence");
  (match two_atom_pattern (q "R(x,y), R(y,x)") with
  | Some (Permutation _) -> ()
  | _ -> Alcotest.fail "expected permutation");
  (match two_atom_pattern (q "R(x,x), R(x,y), A(y)") with
  | Some Rep_shared -> ()
  | _ -> Alcotest.fail "expected REP")

let patterns_bound () =
  check_bool "qABperm bound" true
    (Patterns.permutation_is_bound (q "A(x), R(x,y), R(y,x), B(y)") ~x:"x" ~y:"y");
  check_bool "qAperm unbound" false
    (Patterns.permutation_is_bound (q "A(x), R(x,y), R(y,x)") ~x:"x" ~y:"y");
  (* exogenous bounds do not count *)
  check_bool "exogenous end does not bind" false
    (Patterns.permutation_is_bound (q "A(x), R(x,y), R(y,x), B^x(y)") ~x:"x" ~y:"y")

let patterns_confluence_exo_path () =
  let conf query =
    match Patterns.two_atom_pattern query with
    | Some (Patterns.Confluence c) -> c
    | _ -> Alcotest.fail "expected confluence"
  in
  let cfp = q "R(x,y), H^x(x,z), R(z,y)" in
  check_bool "cfp has exogenous path" true (Patterns.confluence_has_exo_path cfp (conf cfp));
  let acconf = q "A(x), R(x,y), R(z,y), C(z)" in
  check_bool "qACconf has none" false (Patterns.confluence_has_exo_path acconf (conf acconf))

let patterns_k_chain () =
  check_bool "2-chain" true (Patterns.k_chain (q "R(x,y), R(y,z)") = Some 2);
  check_bool "3-chain" true (Patterns.k_chain (q "R(x,y), R(y,z), R(z,w)") = Some 3);
  check_bool "4-chain" true (Patterns.k_chain (q "R(x,y), R(y,z), R(z,w), R(w,u)") = Some 4);
  check_bool "3-conf is not a chain" true
    (Patterns.k_chain (q "A(x), R(x,y), R(z,y), R(z,w), C(w)") = None);
  check_bool "perm-R is not a chain" true
    (Patterns.k_chain (q "A(x), R(x,y), R(y,z), R(z,y)") = None)

(* --- query isomorphism ---------------------------------------------------- *)

let iso_positive () =
  check_bool "renamed vars+rels" true
    (Query_iso.isomorphic (q "A(x), R(x,y)") (q "B(u), S(u,v)"));
  check_bool "template match" true
    (Query_iso.matches_template (q "P(a,b), P(b,c)") "R(x,y), R(y,z)")

let iso_negative () =
  check_bool "chain vs confluence" false
    (Query_iso.isomorphic (q "R(x,y), R(y,z)") (q "R(x,y), R(z,y)"));
  check_bool "self-join structure must match" false
    (Query_iso.isomorphic (q "R(x,y), R(y,z)") (q "R(x,y), S(y,z)"));
  check_bool "exogeneity must match" false
    (Query_iso.isomorphic (q "T^x(x,y), R(x,y)") (q "T(x,y), R(x,y)"))

let iso_mirror () =
  check_bool "mirror reverses binary atoms" true
    (Query.equal (Query_iso.mirror (q "A(x), R(x,y)")) (q "A(x), R(y,x)"));
  check_bool "mirrored template matches" true
    (Query_iso.matches_template_upto_mirror (q "A(x), R(y,x), R(z,y), R(y,z)")
       "A(x), R(x,y), R(y,z), R(z,y)")

let iso_mapping () =
  (match Query_iso.match_template (q "A(x), R(x,y), R(y,x)") (q "B(u), P(u,v), P(v,u)") with
  | Some (rels, mirrored) ->
    check_bool "A -> B" true (List.assoc "A" rels = "B");
    check_bool "R -> P" true (List.assoc "R" rels = "P");
    check_bool "direct match" false mirrored
  | None -> Alcotest.fail "expected an isomorphism");
  match Query_iso.match_template (q "R(x,x), R(x,y), A(y)") (q "P(u,u), P(v,u), B(v)") with
  | Some (rels, mirrored) ->
    check_bool "A -> B through the mirror" true (List.assoc "A" rels = "B");
    check_bool "mirror match" true mirrored
  | None -> Alcotest.fail "expected an isomorphism up to mirror"

let suite =
  [
    Alcotest.test_case "sj-free domination (qT, qrats)" `Quick domination_sjfree;
    Alcotest.test_case "sj domination (Example 17)" `Quick domination_example17;
    Alcotest.test_case "R dominates its guards (qTS3conf)" `Quick domination_r_dominates_s;
    Alcotest.test_case "exogenous never dominates" `Quick domination_exogenous_excluded;
    Alcotest.test_case "normalization" `Quick domination_normalize;
    Alcotest.test_case "mutual domination tie-break" `Quick domination_mutual;
    Alcotest.test_case "triad: triangle" `Quick triad_triangle;
    Alcotest.test_case "triad: tripod after normalization" `Quick triad_tripod_after_norm;
    Alcotest.test_case "triad disarmed by domination (qrats)" `Quick triad_disarmed_by_domination;
    Alcotest.test_case "triad with self-joins (qsj1rats)" `Quick triad_self_join;
    Alcotest.test_case "no false triads" `Quick triad_linear_free;
    Alcotest.test_case "linearity: positive cases" `Quick linear_positive;
    Alcotest.test_case "linearity: negative cases" `Quick linear_negative;
    Alcotest.test_case "linear order contiguity" `Quick linear_order_valid;
    Alcotest.test_case "pseudo-linearity (cfp)" `Quick pseudo_linear_cases;
    Alcotest.test_case "Theorem 25 on the zoo" `Quick no_triad_implies_pseudo_linear;
    Alcotest.test_case "endogenous groups" `Quick endogenous_groups;
    Alcotest.test_case "self-join detection" `Quick patterns_self_join;
    Alcotest.test_case "path detection (Thms 27/28)" `Quick patterns_paths;
    Alcotest.test_case "two-atom patterns (Fig 5)" `Quick patterns_two_atom;
    Alcotest.test_case "permutation boundedness" `Quick patterns_bound;
    Alcotest.test_case "confluence exogenous path (Prop 32)" `Quick patterns_confluence_exo_path;
    Alcotest.test_case "k-chain detection (Prop 38)" `Quick patterns_k_chain;
    Alcotest.test_case "isomorphism: positive" `Quick iso_positive;
    Alcotest.test_case "isomorphism: negative" `Quick iso_negative;
    Alcotest.test_case "isomorphism: mirror" `Quick iso_mirror;
    Alcotest.test_case "isomorphism: mapping extraction" `Quick iso_mapping;
  ]
