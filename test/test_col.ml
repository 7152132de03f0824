(* Differential testing of the columnar data plane (lib/col + the Eval
   fast path) against the backtracking join ([Eval.backtracking_witnesses]),
   the plane arity > 2 queries run on.  Four layers:

   - primitive laws: Dict round-trips, galloping intersection against
     the two-pointer reference, CSR build determinism under input
     shuffling;
   - witness-level differentials: on random binary ssj-CQs × random
     databases the columnar witness list, count and sat verdict must
     match the backtracking join's;
   - solver-level differential: [Solver] values on a 4-domain pool
     must equal the exact resilience on the paper's query zoo;
   - semijoin soundness: [Eval.reduce] never changes the witness set.

   Together the qcheck properties run well over 500 differential
   instances per suite execution. *)

open Res_db
open Resilience
module Sorted = Res_col.Sorted
module Csr = Res_col.Csr

let qp = Res_cq.Parser.query

(* Both planes canonicalize, so witness lists compare structurally. *)
let witness_repr (w : Eval.witness) =
  (w.valuation, Database.Fact_set.elements w.facts)

let witnesses_equal ws1 ws2 =
  List.length ws1 = List.length ws2
  && List.for_all2 (fun a b -> witness_repr a = witness_repr b) ws1 ws2

(* --- random binary ssj-CQs ---------------------------------------------- *)

(* Arity <= 2 only — every query is columnar-eligible.  Repeated
   variables produce diagonal atoms R(x,x); unary A/B mix in; random
   exogenous marks exercise the planes' indifference to exo status
   (evaluation ignores it). *)
let random_binary_query st =
  let vars = [| "x"; "y"; "z"; "w" |] in
  let rels = [| ("R", 2); ("S", 2); ("T", 2); ("A", 1); ("B", 1) |] in
  let n_atoms = 1 + Random.State.int st 4 in
  let atoms =
    List.init n_atoms (fun _ ->
        let rel, ar = rels.(Random.State.int st (Array.length rels)) in
        Res_cq.Atom.make rel (List.init ar (fun _ -> vars.(Random.State.int st (Array.length vars)))))
  in
  let exo = if Random.State.bool st then [] else [ fst rels.(Random.State.int st (Array.length rels)) ] in
  Res_cq.Query.make ~exo atoms

let random_db_for st q =
  let seed = Random.State.int st 1_000_000 in
  let domain = 1 + Random.State.int st 6 in
  let tuples = Random.State.int st 12 in
  Db_gen.random_for_query ~seed ~domain ~tuples_per_relation:tuples q

(* --- primitive laws ------------------------------------------------------ *)

module SDict = Res_col.Dict.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let prop_dict_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dict: intern/value round-trip, dense ids"
    QCheck.(small_list small_string)
    (fun keys ->
      let d = SDict.create ~hint:4 () in
      let ids = List.map (SDict.intern d) keys in
      (* idempotent *)
      List.iteri
        (fun i k ->
          if SDict.intern d k <> List.nth ids i then QCheck.Test.fail_report "intern not idempotent")
        keys;
      (* dense: ids cover 0..size-1 *)
      let distinct = List.sort_uniq compare ids in
      if List.length distinct <> SDict.size d then QCheck.Test.fail_report "ids not dense";
      List.iteri (fun i id -> if id <> List.nth (List.sort compare distinct) i then QCheck.Test.fail_report "ids not 0-based contiguous") (List.sort compare distinct);
      (* round trip *)
      List.iter2
        (fun k id ->
          if SDict.value d id <> k then QCheck.Test.fail_report "value(intern k) <> k";
          if SDict.find_opt d k <> Some id then QCheck.Test.fail_report "find_opt misses")
        keys ids;
      true)

let sorted_of_list l = Sorted.of_list l

let prop_gallop_vs_naive =
  QCheck.Test.make ~count:500 ~name:"sorted: galloping intersection = two-pointer reference"
    QCheck.(pair (small_list (int_bound 60)) (small_list (int_bound 60)))
    (fun (l1, l2) ->
      let a = Sorted.full (sorted_of_list l1) and b = Sorted.full (sorted_of_list l2) in
      Sorted.inter a b = Sorted.inter_naive a b
      && Sorted.inter b a = Sorted.inter_naive b a)

let prop_inter_many =
  QCheck.Test.make ~count:300 ~name:"sorted: inter_many = folded pairwise intersection"
    QCheck.(list_of_size Gen.(1 -- 4) (small_list (int_bound 40)))
    (fun lists ->
      QCheck.assume (lists <> []);
      let slices = List.map (fun l -> Sorted.full (sorted_of_list l)) lists in
      let expected =
        List.fold_left
          (fun acc s -> Sorted.inter (Sorted.full acc) s)
          (Sorted.to_array (List.hd slices))
          (List.tl slices)
      in
      Sorted.inter_many slices = expected)

let prop_csr_shuffle_deterministic =
  QCheck.Test.make ~count:200 ~name:"csr: build is independent of input order"
    QCheck.(pair (small_list (pair (int_bound 20) (int_bound 20))) int)
    (fun (edges, seed) ->
      (* tuple ids must stay attached to their edge, so tag before shuffling *)
      let tagged = List.mapi (fun i (u, v) -> (u, v, i)) edges in
      let shuffled =
        let st = Random.State.make [| seed |] in
        let a = Array.of_list tagged in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      let c1 = Csr.build ~n:21 (Array.of_list tagged) in
      let c2 = Csr.build ~n:21 shuffled in
      let slices_equal c c' =
        List.for_all
          (fun v ->
            Sorted.to_array (Csr.succ c v) = Sorted.to_array (Csr.succ c' v)
            && Sorted.to_array (Csr.pred c v) = Sorted.to_array (Csr.pred c' v))
          (List.init 21 Fun.id)
      in
      Csr.n_edges c1 = Csr.n_edges c2 && slices_equal c1 c2)

let prop_csr_mem_tid =
  QCheck.Test.make ~count:200 ~name:"csr: mem/tid_of agree with the edge list"
    QCheck.(small_list (pair (int_bound 15) (int_bound 15)))
    (fun edges ->
      let edges = List.sort_uniq compare edges in
      let tagged = Array.of_list (List.mapi (fun i (u, v) -> (u, v, i)) edges) in
      let c = Csr.build ~n:16 tagged in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              let expected = List.find_index (fun e -> e = (u, v)) edges in
              Csr.mem c u v = Option.is_some expected && Csr.tid_of c u v = expected)
            (List.init 16 Fun.id))
        (List.init 16 Fun.id))

(* --- witness-level differential ------------------------------------------ *)

let prop_witness_differential =
  QCheck.Test.make ~count:300
    ~name:"differential: columnar witnesses/count/sat = backtracking join on random binary CQs"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 71 |] in
      let q = random_binary_query st in
      let db = random_db_for st q in
      let col_ws = Eval.witnesses db q in
      let ref_ws = Eval.backtracking_witnesses db q in
      if not (witnesses_equal col_ws ref_ws) then
        QCheck.Test.fail_reportf "witness lists differ (%d vs %d)" (List.length col_ws)
          (List.length ref_ws);
      let col_n = Eval.count db q in
      if col_n <> List.length ref_ws then
        QCheck.Test.fail_reportf "counts differ (%d vs %d)" col_n (List.length ref_ws);
      if Eval.sat db q <> (ref_ws <> []) then QCheck.Test.fail_report "sat differs";
      true)

let prop_reduce_sound =
  QCheck.Test.make ~count:200
    ~name:"semijoin: Eval.reduce preserves the witness set exactly"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 97 |] in
      let q = random_binary_query st in
      let db = random_db_for st q in
      let reduced = Eval.reduce db q in
      if Database.size reduced > Database.size db then
        QCheck.Test.fail_report "reduce grew the database";
      let ws = Eval.backtracking_witnesses db q in
      let ws' = Eval.backtracking_witnesses reduced q in
      if not (witnesses_equal ws ws') then QCheck.Test.fail_report "witness set changed";
      (* every surviving tuple is a genuine subset of the original *)
      List.for_all (fun f -> Database.mem db f) (Database.facts reduced))

(* --- solver-level differential over the zoo ------------------------------- *)

let binary_zoo =
  lazy
    (List.filter (fun (en : Zoo.entry) -> Eval.columnar_eligible en.query) Zoo.all)

let solve_value ?pool db q =
  match Solver.solve_bounded ?pool db q with
  | Solver.Done (s, _) -> (
    match s with Solution.Unbreakable -> None | Solution.Finite (v, _) -> Some v)
  | Solver.Timeout _ -> Alcotest.fail "unexpected timeout without a cancel token"

let prop_solver_differential_pool =
  QCheck.Test.make ~count:60
    ~name:"differential: columnar plane under a 4-domain pool = exact"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let zoo = Lazy.force binary_zoo in
      let en = List.nth zoo (seed mod List.length zoo) in
      let st = Random.State.make [| seed; 151 |] in
      let db = random_db_for st en.query in
      let col = Res_exec.Executor.with_executor ~jobs:4 (fun pool -> solve_value ~pool db en.query) in
      col = Exact.value db en.query)

(* --- adversarial unit cases ---------------------------------------------- *)

(* [k] on the columnar plane, checked against the same statistic of the
   backtracking join's witness list *)
let both_planes name db q k of_witnesses =
  let col = k db q in
  Alcotest.(check bool) (name ^ ": planes agree") true
    (col = of_witnesses (Eval.backtracking_witnesses db q));
  col

let planes_sat name db q = both_planes name db q Eval.sat (fun ws -> ws <> [])
let planes_count name db q = both_planes name db q Eval.count List.length

let planes_witnesses name db q =
  both_planes name db q
    (fun db q -> List.map witness_repr (Eval.witnesses db q))
    (List.map witness_repr)

let adversarial_empty_relation () =
  let q = qp "R(x,y), S(y,z)" in
  let db = Database.of_int_rows [ ("R", [ [ 1; 2 ] ]) ] (* S absent *) in
  Alcotest.(check bool) "unsat" false (planes_sat "empty" db q);
  Alcotest.(check int) "count 0" 0 (planes_count "empty" db q);
  Alcotest.(check int) "no witnesses" 0
    (List.length (planes_witnesses "empty" db q))

let adversarial_self_loop () =
  let q = qp "R(x,x)" in
  let db = Database.of_int_rows [ ("R", [ [ 3; 3 ]; [ 1; 2 ]; [ 2; 2 ] ]) ] in
  let ws = planes_witnesses "diag" db q in
  Alcotest.(check int) "two diagonal witnesses" 2 (List.length ws);
  let q2 = qp "R(x,x), R(x,y)" in
  Alcotest.(check int) "diag join" 2 (planes_count "diag-join" db q2)

let adversarial_duplicates () =
  let q = qp "R(x,y)" in
  let db =
    Database.empty
    |> fun db -> Database.add_row db "R" [ Value.i 1; Value.i 2 ]
    |> fun db -> Database.add_row db "R" [ Value.i 1; Value.i 2 ]
  in
  Alcotest.(check int) "set semantics" 1 (planes_count "dup" db q)

let adversarial_structured_values () =
  let q = qp "R(x,y), S(y,z)" in
  let v1 = Value.s "alice" and v2 = Value.pair (Value.i 1) (Value.s "b") in
  let v3 = Value.tag "t" (Value.i 9) in
  let db =
    Database.of_rows [ ("R", [ [ v1; v2 ] ]); ("S", [ [ v2; v3 ]; [ v1; v1 ] ]) ]
  in
  let ws = planes_witnesses "structured" db q in
  Alcotest.(check int) "one witness through the pair" 1 (List.length ws)

let adversarial_singleton_domain () =
  let q = qp "R(x,y), R(y,z), A(x)" in
  let db = Database.of_int_rows [ ("R", [ [ 0; 0 ] ]); ("A", [ [ 0 ] ]) ] in
  Alcotest.(check int) "single witness" 1 (planes_count "singleton" db q);
  Alcotest.(check bool) "sat" true (planes_sat "singleton" db q)

let adversarial_wrong_arity () =
  let q = qp "R(x,y)" in
  (* wrong-arity rows match no binary atom; both planes must skip them,
     and reduce must keep them in the database *)
  let db =
    Database.of_rows
      [ ("R", [ [ Value.i 1 ]; [ Value.i 1; Value.i 2 ]; [ Value.i 1; Value.i 2; Value.i 3 ] ]) ]
  in
  Alcotest.(check int) "only the binary row matches" 1 (planes_count "arity" db q);
  let reduced = Eval.reduce db q in
  Alcotest.(check bool) "wrong-arity rows survive reduce" true
    (Database.mem reduced (Database.fact "R" [ Value.i 1 ])
    && Database.mem reduced (Database.fact "R" [ Value.i 1; Value.i 2; Value.i 3 ]))

let adversarial_reduce_prunes () =
  (* a long dangling R-chain into a tiny S: the fixpoint must strip the
     dangling prefix tuples that no witness can extend. *)
  let q = qp "R(x,y), S(y,z)" in
  let chain = List.init 50 (fun i -> [ i; i + 1 ]) in
  let db = Database.of_int_rows [ ("R", chain); ("S", [ [ 50; 99 ] ]) ] in
  let reduced = Eval.reduce db q in
  Alcotest.(check int) "only the last R edge and S survive" 2 (Database.size reduced);
  Alcotest.(check bool) "witness preserved" true (Eval.sat reduced q)

let adversarial_higher_arity_fallback () =
  let en = Zoo.find "q_tripod" in
  Alcotest.(check bool) "tripod is not columnar-eligible" false
    (Eval.columnar_eligible en.query);
  (* the surface must still work — it runs the backtracking join, and
     [reduce] is the identity there *)
  let db =
    Database.of_int_rows
      [ ("A", [ [ 1 ] ]); ("B", [ [ 2 ] ]); ("C", [ [ 3 ] ]); ("W", [ [ 1; 2; 3 ] ]) ]
  in
  Alcotest.(check int) "tripod witness" 1 (Eval.count db en.query);
  Alcotest.(check bool) "no columnar view" true (Option.is_none (Eval.view db en.query));
  Alcotest.(check bool) "reduce is the identity" true (Eval.reduce db en.query == db)

let generator_exact_counts () =
  let db = Db_gen.power_law ~seed:11 ~nodes:200 ~edges:3_000 ~rel:"R" in
  Alcotest.(check int) "power-law edge count exact" 3_000 (Database.size db);
  let db2 = Db_gen.bipartite ~seed:11 ~left:50 ~right:60 ~edges:2_500 ~rel:"R" in
  Alcotest.(check int) "bipartite edge count exact" 2_500 (Database.size db2);
  let db3 = Db_gen.grid_graph ~rows:10 ~cols:20 ~rel:"R" in
  Alcotest.(check int) "grid edge count" ((10 * 19) + (9 * 20)) (Database.size db3);
  (* determinism *)
  let again = Db_gen.power_law ~seed:11 ~nodes:200 ~edges:3_000 ~rel:"R" in
  Alcotest.(check bool) "same seed, same database" true (Database.facts db = Database.facts again);
  (* dense request exercises the sweep fallback and stays exact *)
  let dense = Db_gen.bipartite ~seed:3 ~left:8 ~right:8 ~edges:64 ~rel:"R" in
  Alcotest.(check int) "fully dense bipartite" 64 (Database.size dense)

let columnar_scales () =
  (* a 100k-edge bipartite instance through the full columnar pipeline:
     enumeration count matches the closed form, and the flow solver
     (with its semijoin pre-pass) solves a chain query at this size *)
  let db = Db_gen.bipartite ~seed:5 ~left:400 ~right:400 ~edges:100_000 ~rel:"R" in
  let q = qp "R(x,y), R(y,z)" in
  Alcotest.(check int) "bipartite two-chain has no witness" 0 (Eval.count db q);
  let chain = Db_gen.chain_db ~length:100_000 ~rel:"R" in
  Alcotest.(check int) "chain witnesses" 99_999 (Eval.count chain q)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dict_roundtrip;
    QCheck_alcotest.to_alcotest prop_gallop_vs_naive;
    QCheck_alcotest.to_alcotest prop_inter_many;
    QCheck_alcotest.to_alcotest prop_csr_shuffle_deterministic;
    QCheck_alcotest.to_alcotest prop_csr_mem_tid;
    QCheck_alcotest.to_alcotest prop_witness_differential;
    QCheck_alcotest.to_alcotest prop_reduce_sound;
    QCheck_alcotest.to_alcotest prop_solver_differential_pool;
    Alcotest.test_case "adversarial: empty/missing relation" `Quick adversarial_empty_relation;
    Alcotest.test_case "adversarial: self-loops and diagonal atoms" `Quick adversarial_self_loop;
    Alcotest.test_case "adversarial: duplicate facts" `Quick adversarial_duplicates;
    Alcotest.test_case "adversarial: structured values" `Quick adversarial_structured_values;
    Alcotest.test_case "adversarial: singleton domain" `Quick adversarial_singleton_domain;
    Alcotest.test_case "adversarial: wrong-arity tuples" `Quick adversarial_wrong_arity;
    Alcotest.test_case "semijoin: dangling chain pruned" `Quick adversarial_reduce_prunes;
    Alcotest.test_case "fallback: arity-3 queries stay on legacy" `Quick adversarial_higher_arity_fallback;
    Alcotest.test_case "generators: exact counts, deterministic" `Quick generator_exact_counts;
    Alcotest.test_case "scale: 100k-tuple instances enumerate" `Quick columnar_scales;
  ]
