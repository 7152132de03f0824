(* Tests for the dichotomy classifier: one case per zoo query (the
   classifier must reproduce every verdict the paper proves or declares
   open), plus pipeline behaviour (minimization, components,
   exogenous-split). *)

open Res_cq
open Resilience

let q = Parser.query
let check_bool = Alcotest.(check bool)

let zoo_case (en : Zoo.entry) () =
  let v = Classify.verdict_of en.query in
  if not (Classify.agrees_with v en.expected) then
    Alcotest.failf "%s: paper says %s, classifier says %s (%s)" en.name
      (Zoo.expected_to_string en.expected)
      (Classify.verdict_to_string v) en.reference

let nonminimal_becomes_trivial () =
  (* Example 22: a self-join variation equivalent to a single atom *)
  let r = Classify.classify (q "R(x,y), R(z,y), R(z,w), R(x,w)") in
  Alcotest.(check int) "minimized to 1 atom" 1 (List.length (Query.atoms r.minimized));
  match r.verdict with
  | Classify.Ptime _ -> ()
  | v -> Alcotest.failf "expected PTIME, got %s" (Classify.verdict_to_string v)

let component_combination () =
  (* NPC component + PTIME component: NPC wins (Lemma 15) *)
  let r = Classify.classify (q "R(x,y), R(y,z), A(u), S(u,v)") in
  (match r.verdict with
  | Classify.Np_complete _ -> ()
  | v -> Alcotest.failf "expected NP-complete, got %s" (Classify.verdict_to_string v));
  Alcotest.(check int) "two components" 2 (List.length r.components)

let all_ptime_components () =
  let r = Classify.classify (q "A(x), R(x,y), B(u), S(u,v)") in
  match r.verdict with
  | Classify.Ptime _ -> ()
  | v -> Alcotest.failf "expected PTIME, got %s" (Classify.verdict_to_string v)

let all_exogenous_trivial () =
  match Classify.verdict_of (q "R^x(x,y), S^x(y,z)") with
  | Classify.Ptime Classify.Trivial_no_endogenous -> ()
  | v -> Alcotest.failf "expected trivial, got %s" (Classify.verdict_to_string v)

let exogenous_split () =
  (* a repeated exogenous relation is split apart, leaving an sj-free query *)
  let split, copies = Family.split_exogenous_self_joins (q "H^x(x,y), H^x(y,z), R(y)") in
  check_bool "sj-free after split" true (Query.is_sj_free split);
  check_bool "split relations exogenous" true
    (Query.is_exogenous split "H__1" && Query.is_exogenous split "H__2");
  check_bool "copy map" true (copies = [ ("H__1", "H"); ("H__2", "H") ]);
  (* a copy name never reuses a relation of the query *)
  let _, copies = Family.split_exogenous_self_joins (q "H^x(x,y), H^x(y,z), H__1(x,y)") in
  check_bool "taken names skipped" true (copies = [ ("H__2", "H"); ("H__3", "H") ]);
  (* endogenous repeats are untouched *)
  let same, copies = Family.split_exogenous_self_joins (q "R(x,y), R(y,z)") in
  check_bool "endogenous untouched" true (Query.equal same (q "R(x,y), R(y,z)") && copies = [])

let beyond_fragment_is_unknown () =
  (* ternary self-join without a triad: outside every charted fragment,
     so the dispatcher tags it Heuristic (or NP-complete if a triad is
     found) *)
  match Classify.verdict_of (q "W(x,y,z), W(y,z,u)") with
  | Classify.Heuristic _ | Classify.Np_complete _ -> ()
  | v -> Alcotest.failf "unexpected verdict %s" (Classify.verdict_to_string v)

let mirror_invariance () =
  (* classification is invariant under globally reversing binary atoms *)
  List.iter
    (fun (en : Zoo.entry) ->
      if Query.is_binary en.query then begin
        let v1 = Classify.verdict_of en.query in
        let v2 = Classify.verdict_of (Query_iso.mirror en.query) in
        let same =
          match (v1, v2) with
          | Classify.Ptime _, Classify.Ptime _ -> true
          | Classify.Np_complete _, Classify.Np_complete _ -> true
          | Classify.Open_problem _, Classify.Open_problem _ -> true
          | Classify.Unknown _, Classify.Unknown _ -> true
          | Classify.Heuristic _, Classify.Heuristic _ -> true
          | _ -> false
        in
        if not same then
          Alcotest.failf "%s: %s vs mirrored %s" en.name (Classify.verdict_to_string v1)
            (Classify.verdict_to_string v2)
      end)
    Zoo.all

let report_readable () =
  let r = Classify.classify (q "R(x,y), R(y,z)") in
  let s = Format.asprintf "%a" Classify.pp_report r in
  check_bool "mentions NP" true
    (let rec contains i =
       i + 2 <= String.length s && (String.sub s i 2 = "NP" || contains (i + 1))
     in
     contains 0)

let zoo_suite =
  List.map
    (fun (en : Zoo.entry) ->
      Alcotest.test_case (Printf.sprintf "zoo: %s [%s]" en.name en.reference) `Quick (zoo_case en))
    Zoo.all

let suite =
  zoo_suite
  @ [
      Alcotest.test_case "non-minimal query (Example 22)" `Quick nonminimal_becomes_trivial;
      Alcotest.test_case "component combination (Lemma 15)" `Quick component_combination;
      Alcotest.test_case "all-PTIME components" `Quick all_ptime_components;
      Alcotest.test_case "all-exogenous query" `Quick all_exogenous_trivial;
      Alcotest.test_case "exogenous self-join split" `Quick exogenous_split;
      Alcotest.test_case "beyond fragment -> Unknown" `Quick beyond_fragment_is_unknown;
      Alcotest.test_case "mirror invariance" `Quick mirror_invariance;
      Alcotest.test_case "report rendering" `Quick report_readable;
    ]
