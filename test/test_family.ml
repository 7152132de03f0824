(* The query-family dispatcher (lib/core/family.ml) and the
   responsibility workload, tested four ways:

   - routing units: named paper queries land in the family the
     dispatcher should route them to;
   - a >=300-instance qcheck differential: on random self-join-free
     queries of arity 1..4 the dispatcher-routed solver must agree with
     the exact solver (arity <= 2 queries run on the columnar plane,
     the rest on the backtracking join);
   - responsibility: the solver entry point must agree with the
     brute-force definition (smallest Γ with D−Γ ⊨ q, D−Γ−{t} ⊭ q), and
     the engine's cached path must agree with the uncached baseline;
   - a golden regression: the Zoo verdict of every named query is pinned
     to test/golden/zoo_verdicts.golden, generated before the dispatcher
     refactor (regenerate with test/tools/zoo_golden.exe only when a
     verdict change is intended). *)

open Res_db
open Resilience
module Engine = Res_engine.Batch

let qp = Res_cq.Parser.query
let check_bool = Alcotest.(check bool)

(* --- family routing ------------------------------------------------------ *)

let family_t = Alcotest.testable (Fmt.of_to_string Family.to_string) ( = )

let named_queries_route () =
  let zoo name = (Zoo.find name).query in
  Alcotest.check family_t "q_lin (sjf path) -> sjf-any-arity" Family.Sjf_any_arity
    (Family.of_query (zoo "q_lin"));
  Alcotest.check family_t "q_rats (sjf) -> sjf-any-arity" Family.Sjf_any_arity
    (Family.of_query (zoo "q_rats"));
  Alcotest.check family_t "q_tripod (sjf triad) -> sjf-any-arity" Family.Sjf_any_arity
    (Family.of_query (zoo "q_tripod"));
  Alcotest.check family_t "q_chain (binary self-join) -> binary-ssj" Family.Binary_ssj
    (Family.of_query (zoo "q_chain"));
  Alcotest.check family_t "q_perm (binary self-join) -> binary-ssj" Family.Binary_ssj
    (Family.of_query (zoo "q_perm"));
  Alcotest.check family_t "ternary self-join -> general" Family.General
    (Family.of_query (qp "W(x,y,z), W(y,z,u)"))

let exogenous_self_join_routes_sjf () =
  (* a repeated exogenous relation is split apart before recognition, so
     the query lands in the sjf regime it semantically belongs to *)
  Alcotest.check family_t "exogenous self-join -> sjf-any-arity" Family.Sjf_any_arity
    (Family.of_query (qp "H^x(x,y), H^x(y,z), R(z,w)"))

let general_family_verdict_is_heuristic () =
  (* triad-free queries outside both charted fragments carry the
     Heuristic tag: solved exactly, no complexity claim *)
  match Classify.verdict_of (qp "W(x,y,z), W(y,z,x), A(x)") with
  | Classify.Heuristic _ | Classify.Np_complete _ -> ()
  | v -> Alcotest.failf "expected heuristic/NPC, got %s" (Classify.verdict_to_string v)

(* --- the any-arity sjf differential -------------------------------------- *)

let prop_sjf_differential =
  QCheck.Test.make ~count:320
    ~name:"family: dispatcher = exact on random sjf queries of arity 1-4, both planes"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 53 |] in
      let max_arity = 1 + Random.State.int st 4 in
      let query = Generators.random_sjf_query ~max_arity st in
      let db = Generators.random_db ~seed ~domain:3 ~tuples_per_relation:4 query in
      if Solver.value db query <> Exact.value db query then
        QCheck.Test.fail_report "dispatcher disagrees with exact";
      true)

let sjf_instances_route_through_dispatcher () =
  (* arity-3 sjf chain: must reach a non-exact algorithm (the arity-
     generic structural flow), proving the old binary-only gate is gone *)
  let query = qp "R(x,y,z), S(z,w)" in
  let db =
    Database.of_int_rows
      [ ("R", [ [ 1; 1; 2 ]; [ 1; 2; 2 ]; [ 2; 2; 3 ] ]); ("S", [ [ 2; 4 ]; [ 3; 4 ] ]) ]
  in
  let _, traces = Solver.solve_traced db query in
  List.iter
    (fun (t : Solver.trace) ->
      check_bool
        (Printf.sprintf "arity-3 sjf solved polynomially (got %S)" t.algorithm)
        false
        (String.length t.algorithm >= 5 && String.sub t.algorithm 0 5 = "exact"))
    traces;
  Alcotest.(check (option int)) "matches exact" (Exact.value db query) (Solver.value db query)

(* --- responsibility ------------------------------------------------------ *)

(* Brute force straight from the definition: minimum |Γ| over subsets Γ
   of the endogenous facts (t ∉ Γ) with D−Γ ⊨ q and D−Γ−{t} ⊭ q. *)
let naive_min_contingency db q t =
  let pool = List.filter (fun f -> f <> t) (Database.endogenous_facts db q) in
  let best = ref None in
  let consider gamma =
    let d' = Database.remove_all db gamma in
    if Eval.sat d' q && not (Eval.sat (Database.remove d' t) q) then begin
      let k = List.length gamma in
      match !best with Some b when b <= k -> () | _ -> best := Some k
    end
  in
  let rec subsets acc = function
    | [] -> consider acc
    | f :: rest ->
      subsets acc rest;
      subsets (f :: acc) rest
  in
  subsets [] pool;
  !best

(* Linear self-join-free queries, where responsibility runs on Flow with
   per-fact exogeneity instead of the exact search: a plain path, an
   exogenous middle, and an arity-3 chain. *)
let linear_sjf_queries =
  lazy
    (Array.map qp
       [| "A(x), R(x,y), S(y,z), C(z)"; "A(x), R^x(x,y), S(y,z), C(z)"; "A(x), W(x,y,z), S(z,w)" |])

(* Every third seed draws a linear sjf query, with four tuples per
   relation so that a surviving witness often shares facts with the
   t-free ones; the rest draw the binary fragment (self-joins, exact
   route) with three. *)
let responsibility_instance seed =
  let linear = Lazy.force linear_sjf_queries in
  let query, tuples_per_relation =
    if seed mod 3 = 0 then (linear.(seed / 3 mod Array.length linear), 4)
    else (Generators.fragment_query seed, 3)
  in
  (query, Generators.random_db ~seed ~domain:2 ~tuples_per_relation query)

let prop_responsibility_matches_definition =
  QCheck.Test.make ~count:150
    ~name:"responsibility: solver = brute-force definition"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query, db = responsibility_instance seed in
      match Database.endogenous_facts db query with
      | [] -> true
      | facts ->
        let t = List.nth facts (seed mod List.length facts) in
        let got = Solver.min_contingency db query t in
        let want = naive_min_contingency db query t in
        if got <> want then
          QCheck.Test.fail_reportf "fact %s: solver %s, definition %s"
            (Format.asprintf "%a" Database.pp_fact t)
            (match got with Some k -> string_of_int k | None -> "none")
            (match want with Some k -> string_of_int k | None -> "none");
        true)

let engine_lazy = lazy (Engine.create ())

let prop_engine_responsibility_cached_eq_uncached =
  QCheck.Test.make ~count:150
    ~name:"responsibility: engine cached = uncached, repeat call hits cache"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query = Generators.fragment_query seed in
      let db = Generators.random_db ~seed ~domain:2 ~tuples_per_relation:3 query in
      match Database.endogenous_facts db query with
      | [] -> true
      | facts ->
        let t = List.nth facts (seed mod List.length facts) in
        let eng = Lazy.force engine_lazy in
        let eng_off = Engine.create ~cached:false () in
        let r1, _ = Engine.responsibility eng db query t in
        let r2, cached2 = Engine.responsibility eng db query t in
        let r0, cached0 = Engine.responsibility eng_off db query t in
        if r1 <> r0 then QCheck.Test.fail_report "cached engine disagrees with uncached";
        if r1 <> r2 then QCheck.Test.fail_report "repeat responsibility differs";
        if not cached2 then QCheck.Test.fail_report "repeat call missed the cache";
        if cached0 then QCheck.Test.fail_report "uncached engine reported a cache hit";
        true)

let engine_responsibility_shares_across_renaming () =
  (* isomorphic instance under relation renaming: the second query's
     responsibility must be served from the first one's cache entry *)
  let eng = Engine.create () in
  let q1 = qp "R(x,y), R(y,z)" in
  let db1 = Database.of_int_rows [ ("R", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  let q2 = qp "S(x,y), S(y,z)" in
  let db2 = Database.of_int_rows [ ("S", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 3 ] ]) ] in
  let r1, c1 = Engine.responsibility eng db1 q1 (Database.fact "R" [ Value.i 1; Value.i 2 ]) in
  let r2, c2 = Engine.responsibility eng db2 q2 (Database.fact "S" [ Value.i 1; Value.i 2 ]) in
  check_bool "first call is a miss" false c1;
  check_bool "renamed instance hits the cache" true c2;
  Alcotest.(check (option int)) "same minimum contingency" r1 r2;
  let st = Engine.stats eng in
  Alcotest.(check int) "one responsibility miss" 1 st.Res_engine.Stats.resp_misses;
  Alcotest.(check int) "one responsibility hit" 1 st.Res_engine.Stats.resp_hits

let responsibility_foreign_relation_is_no_cause () =
  let eng = Engine.create () in
  let q = qp "R(x,y), S(y,z)" in
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]); ("S", [ [ 2; 3 ] ]); ("T", [ [ 9 ] ]) ] in
  let r, cached = Engine.responsibility eng db q (Database.fact "T" [ Value.i 9 ]) in
  check_bool "not a cause" true (r = None);
  check_bool "answered without a solve" false cached;
  Alcotest.(check int) "no engine miss burned" 0 (Engine.stats eng).Res_engine.Stats.resp_misses

(* A cancelled responsibility run still brackets the answer: [ub], when
   present, is a finished survivor's size and [lb] is the certified bound
   without a survivor constraint, so lb ≤ exact ≤ ub. *)
let prop_responsibility_interrupted_sound =
  QCheck.Test.make ~count:120
    ~name:"responsibility: cancelled run brackets the exact answer"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 60))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed; 29 |] in
      let query =
        if seed mod 3 = 0 then fst (responsibility_instance seed) else Generators.random_query st
      in
      let db = Generators.random_db ~seed ~domain:3 ~tuples_per_relation:6 query in
      match Database.endogenous_facts db query with
      | [] -> true
      | facts -> (
        let t = List.nth facts (seed mod List.length facts) in
        let exact = Responsibility.min_contingency db query t in
        match
          Responsibility.min_contingency_bounded ~cancel:(Cancel.of_steps steps) db query t
        with
        | Responsibility.Complete r -> r = exact
        | Responsibility.Interrupted iv -> (
          let module I = Res_bounds.Interval in
          I.valid iv
          &&
          match (exact, I.ub iv) with
          | Some e, Some ub -> I.lb iv <= e && e <= ub
          | Some e, None -> I.lb iv <= e
          | None, ub -> ub = None)))

(* A random instance of the linear sjf query A(x), R(x,y), S(y,z), C(z)
   with [n] facts, and its first R fact that is in a witness. *)
let linear_instance ~seed n =
  let q = qp "A(x), R(x,y), S(y,z), C(z)" in
  let st = Random.State.make [| seed; 71 |] in
  let dom = max 4 (n / 8) in
  let v () = Value.i (Random.State.int st dom) in
  let rec fill db =
    if Database.size db >= n then db
    else
      let r = Random.State.int st 20 in
      fill
        (if r < 3 then Database.add_row db "A" [ v () ]
         else if r < 10 then Database.add_row db "R" [ v (); v () ]
         else if r < 17 then Database.add_row db "S" [ v (); v () ]
         else Database.add_row db "C" [ v () ])
  in
  let db = fill Database.empty in
  let in_witness =
    List.fold_left Database.Fact_set.union Database.Fact_set.empty (Eval.witness_fact_sets db q)
  in
  let t =
    List.find
      (fun (f : Database.fact) -> f.rel = "R" && Database.Fact_set.mem f in_witness)
      (Database.facts db)
  in
  (q, db, t)

(* The reduction spelled out on the exact search, without deduplication,
   minimality or early stop: over every witness w ∋ t, the resilience of
   the t-free witnesses with w's facts made exogenous. *)
let exact_route_min_contingency db q t =
  let witnesses = Eval.witness_fact_sets db q in
  let with_t, without_t = List.partition (Database.Fact_set.mem t) witnesses in
  List.fold_left
    (fun best w ->
      let exogenous (f : Database.fact) =
        Res_cq.Query.is_exogenous q f.rel || Database.Fact_set.mem f w
      in
      match Exact.solve_witnesses ~exogenous without_t with
      | Exact.Complete (Solution.Finite (k, _)) -> (
        match best with Some b when b <= k -> best | _ -> Some k)
      | Exact.Complete Solution.Unbreakable -> best
      | Exact.Interrupted _ -> assert false)
    None with_t

let linear_responsibility_uses_flow () =
  let q, db, _ = linear_instance ~seed:1 150 in
  List.iter
    (fun (t : Database.fact) ->
      if t.rel = "R" then
        Alcotest.(check (option int))
          (Format.asprintf "flow route = exact route at 150 facts, %a" Database.pp_fact t)
          (exact_route_min_contingency db q t) (Solver.min_contingency db q t))
    (Database.facts db);
  let q, db, t = linear_instance ~seed:1 1000 in
  Exact.reset_stats ();
  let r = Solver.min_contingency db q t in
  check_bool "a cause" true (r <> None);
  Alcotest.(check int) "no exact node expanded at 10^3 facts" 0 (Exact.last_stats ()).nodes

(* The survivor cutoff: [solve_witnesses ~cutoff:c] is exact whenever
   ρ < c and otherwise answers a genuine cover of size ≥ c — on random
   fragment instances, whose witness hypergraphs often split into several
   components, for every cutoff from 0 to ρ + 1. *)
let prop_exact_cutoff_sound =
  QCheck.Test.make ~count:150
    ~name:"exact: cutoff search exact below the cutoff, a genuine cover above"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let query = Generators.fragment_query seed in
      let db = Generators.random_db ~seed ~domain:4 ~tuples_per_relation:4 query in
      let exogenous (f : Database.fact) = Res_cq.Query.is_exogenous query f.rel in
      let witnesses = Eval.witness_fact_sets db query in
      match Exact.solve_witnesses ~exogenous witnesses with
      | Exact.Complete (Solution.Finite (rho, _)) ->
        List.for_all
          (fun cutoff ->
            match Exact.solve_witnesses ~cutoff ~exogenous witnesses with
            | Exact.Complete (Solution.Finite (v, facts)) ->
              let genuine =
                List.length facts = v && Exact.is_contingency_set db query facts
              in
              if not genuine then QCheck.Test.fail_reportf "cutoff %d: not a cover" cutoff;
              if rho < cutoff && v <> rho then
                QCheck.Test.fail_reportf "cutoff %d: %d, optimum %d" cutoff v rho;
              if rho >= cutoff && v < cutoff then
                QCheck.Test.fail_reportf "cutoff %d: %d beats the optimum %d" cutoff v rho;
              true
            | _ -> QCheck.Test.fail_reportf "cutoff %d changed the outcome" cutoff)
          (List.init (rho + 2) Fun.id)
      | _ -> true)

(* --- the Zoo golden regression ------------------------------------------- *)

(* dune runtest runs with cwd = _build/default/test (where the (deps ...)
   copy lives); dune exec from the project root sees the source copy *)
let golden_path =
  List.find Sys.file_exists
    [ "golden/zoo_verdicts.golden"; "test/golden/zoo_verdicts.golden" ]

let zoo_verdicts_match_golden () =
  let golden =
    let ic = open_in golden_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec lines acc =
          match input_line ic with
          | l -> lines (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        lines [])
  in
  let current =
    List.map
      (fun (en : Zoo.entry) ->
        Printf.sprintf "%s|%s" en.name (Classify.verdict_to_string (Classify.verdict_of en.query)))
      Zoo.all
  in
  Alcotest.(check int) "one golden line per zoo entry" (List.length current) (List.length golden);
  List.iter2
    (fun want got ->
      if want <> got then
        Alcotest.failf
          "zoo verdict drifted across the dispatcher refactor:\n  golden:  %s\n  current: %s" want
          got)
    golden current

let suite =
  [
    Alcotest.test_case "family: named queries route" `Quick named_queries_route;
    Alcotest.test_case "family: exogenous self-join is sjf" `Quick exogenous_self_join_routes_sjf;
    Alcotest.test_case "family: general tagged heuristic" `Quick general_family_verdict_is_heuristic;
    Alcotest.test_case "family: arity-3 sjf routes polynomially" `Quick
      sjf_instances_route_through_dispatcher;
    Alcotest.test_case "responsibility: renaming shares cache" `Quick
      engine_responsibility_shares_across_renaming;
    Alcotest.test_case "responsibility: foreign relation" `Quick
      responsibility_foreign_relation_is_no_cause;
    Alcotest.test_case "zoo verdicts match pre-dispatcher golden" `Quick zoo_verdicts_match_golden;
    QCheck_alcotest.to_alcotest prop_sjf_differential;
    QCheck_alcotest.to_alcotest prop_responsibility_matches_definition;
    QCheck_alcotest.to_alcotest prop_engine_responsibility_cached_eq_uncached;
    QCheck_alcotest.to_alcotest prop_responsibility_interrupted_sound;
    QCheck_alcotest.to_alcotest prop_exact_cutoff_sound;
    Alcotest.test_case "responsibility: linear sjf runs on flow" `Quick
      linear_responsibility_uses_flow;
  ]
