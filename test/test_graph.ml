(* Tests for the graph substrate: union-find, digraphs, Dinic max-flow,
   bipartite matching / König covers, exact vertex cover. *)

open Res_graph

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- union-find ------------------------------------------------------- *)

let uf_basic () =
  let uf = Union_find.create 5 in
  check "initial sets" 5 (Union_find.count uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  check "after two unions" 3 (Union_find.count uf);
  check_bool "0~1" true (Union_find.same uf 0 1);
  check_bool "1~2" false (Union_find.same uf 1 2);
  Union_find.union uf 1 2;
  check_bool "0~3 transitively" true (Union_find.same uf 0 3)

let uf_idempotent () =
  let uf = Union_find.create 3 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Union_find.union uf 1 0;
  check "repeat unions" 2 (Union_find.count uf)

let uf_find_canonical () =
  let uf = Union_find.create 4 in
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  check "same root" (Union_find.find uf 0) (Union_find.find uf 2)

(* --- digraph ---------------------------------------------------------- *)

let digraph_basic () =
  let g = Digraph.create ~n:3 () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge ~label:"R" g 1 2;
  check "vertices" 3 (Digraph.n_vertices g);
  check "edges" 2 (Digraph.n_edges g);
  check_bool "edge 0->1" true (Digraph.mem_edge g 0 1);
  check_bool "edge 1->0" false (Digraph.mem_edge g 1 0);
  check "out-degree 1" 1 (Digraph.out_degree g 1);
  check "in-degree 2" 1 (Digraph.in_degree g 2)

let digraph_grow () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex g in
  let b = Digraph.add_vertex g in
  Digraph.add_edge g a b;
  Digraph.add_edge g b 7;
  (* auto-grows *)
  check "grown" 8 (Digraph.n_vertices g)

let digraph_components () =
  let g = Digraph.create ~n:5 () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 3 2;
  let comps = Digraph.undirected_components g in
  check "three components" 3 (List.length comps);
  check_bool "0,1 together" true (List.mem [ 0; 1 ] comps);
  check_bool "4 alone" true (List.mem [ 4 ] comps)

let digraph_reachable () =
  let g = Digraph.create ~n:4 () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 3 0;
  let r = Digraph.reachable g 0 in
  check_bool "reaches 2" true r.(2);
  check_bool "not 3 (wrong direction)" false r.(3)

(* --- max flow --------------------------------------------------------- *)

let flow_simple () =
  let net = Maxflow.create 4 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2 in
  let _ = Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2 in
  let _ = Maxflow.add_edge net ~src:2 ~dst:3 ~cap:3 in
  check "max flow" 4 (Maxflow.max_flow net ~src:0 ~dst:3)

let flow_bottleneck () =
  let net = Maxflow.create 4 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:10 in
  let _ = Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1 in
  let _ = Maxflow.add_edge net ~src:2 ~dst:3 ~cap:10 in
  check "bottleneck" 1 (Maxflow.max_flow net ~src:0 ~dst:3)

let flow_disconnected () =
  let net = Maxflow.create 4 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5 in
  let _ = Maxflow.add_edge net ~src:2 ~dst:3 ~cap:5 in
  check "no path" 0 (Maxflow.max_flow net ~src:0 ~dst:3)

let flow_parallel_edges () =
  let net = Maxflow.create 2 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:2 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3 in
  check "parallel edges sum" 5 (Maxflow.max_flow net ~src:0 ~dst:1)

let flow_min_cut () =
  let net = Maxflow.create 4 in
  let e1 = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:2 in
  let _e2 = Maxflow.add_edge net ~src:0 ~dst:2 ~cap:Maxflow.infinite in
  let e3 = Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1 in
  let _e4 = Maxflow.add_edge net ~src:1 ~dst:3 ~cap:Maxflow.infinite in
  let f = Maxflow.max_flow net ~src:0 ~dst:3 in
  check "flow value" 3 f;
  let _, cut = Maxflow.min_cut net ~src:0 in
  let cut_cap = List.fold_left (fun acc e -> acc + Maxflow.edge_cap net e) 0 cut in
  check "cut capacity = flow" f cut_cap;
  check_bool "cut holds the unit edges" true
    (List.mem e1 cut && List.mem e3 cut)

let flow_zigzag () =
  (* classic worst case for naive augmenting: zigzag through a middle edge *)
  let net = Maxflow.create 4 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:100 in
  let _ = Maxflow.add_edge net ~src:0 ~dst:2 ~cap:100 in
  let _ = Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1 in
  let _ = Maxflow.add_edge net ~src:1 ~dst:3 ~cap:100 in
  let _ = Maxflow.add_edge net ~src:2 ~dst:3 ~cap:100 in
  check "zigzag" 200 (Maxflow.max_flow net ~src:0 ~dst:3)

(* property: max-flow equals brute-force min cut on small random graphs *)
let prop_flow_equals_brute_cut =
  QCheck.Test.make ~count:60 ~name:"maxflow = brute-force min s-t cut"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, _) ->
      let st = Random.State.make [| seed |] in
      let n = 4 + Random.State.int st 3 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Random.State.int st 100 < 40 then
            edges := (u, v, 1 + Random.State.int st 3) :: !edges
        done
      done;
      let net = Maxflow.create n in
      List.iter (fun (u, v, c) -> ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap:c)) !edges;
      let flow = Maxflow.max_flow net ~src:0 ~dst:(n - 1) in
      (* brute force: min over all s-t vertex bipartitions of crossing cap *)
      let best = ref max_int in
      for mask = 0 to (1 lsl n) - 1 do
        if mask land 1 = 1 && mask land (1 lsl (n - 1)) = 0 then begin
          let cap =
            List.fold_left
              (fun acc (u, v, c) ->
                if mask land (1 lsl u) <> 0 && mask land (1 lsl v) = 0 then acc + c else acc)
              0 !edges
          in
          if cap < !best then best := cap
        end
      done;
      flow = !best)

(* --- bipartite -------------------------------------------------------- *)

let bipartite_perfect () =
  let g = Bipartite.create ~n_left:3 ~n_right:3 in
  List.iter (fun (u, v) -> Bipartite.add_edge g u v) [ (0, 0); (0, 1); (1, 1); (2, 2) ];
  check "perfect matching" 3 (Bipartite.matching_size g)

let bipartite_starved () =
  let g = Bipartite.create ~n_left:3 ~n_right:3 in
  (* all left vertices fight over right vertex 0 *)
  List.iter (fun u -> Bipartite.add_edge g u 0) [ 0; 1; 2 ];
  check "only one matched" 1 (Bipartite.matching_size g)

let bipartite_empty () =
  let g = Bipartite.create ~n_left:2 ~n_right:2 in
  check "no edges" 0 (Bipartite.matching_size g)

let bipartite_koenig () =
  let g = Bipartite.create ~n_left:3 ~n_right:3 in
  List.iter (fun (u, v) -> Bipartite.add_edge g u v) [ (0, 0); (1, 0); (2, 0); (2, 1) ];
  let matching = Bipartite.matching_size g in
  let left, right = Bipartite.min_vertex_cover g in
  check "König: |cover| = matching" matching (List.length left + List.length right);
  (* the cover covers all edges *)
  List.iter
    (fun (u, v) ->
      check_bool "edge covered" true (List.mem u left || List.mem v right))
    [ (0, 0); (1, 0); (2, 0); (2, 1) ]

(* A maximum-matching certificate that needs no second implementation:
   [matching_pairs] is a matching of the live [edges] of size
   [matching_size], and the König cover is a vertex cover of the same
   size.  A cover of size k bounds every matching by k, so the two
   certify each other's optimality. *)
let certified g edges =
  let pairs = Bipartite.matching_pairs g in
  let left, right = Bipartite.min_vertex_cover g in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  List.for_all (fun p -> List.mem p edges) pairs
  && distinct (List.map fst pairs)
  && distinct (List.map snd pairs)
  && List.length pairs = Bipartite.matching_size g
  && List.length left + List.length right = List.length pairs
  && List.for_all (fun (u, v) -> List.mem u left || List.mem v right) edges

let prop_koenig =
  QCheck.Test.make ~count:80 ~name:"König cover valid and |cover| = |matching|"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      let nl = 1 + Random.State.int st 5 and nr = 1 + Random.State.int st 5 in
      let edges = ref [] in
      for u = 0 to nl - 1 do
        for v = 0 to nr - 1 do
          if Random.State.int st 100 < 35 then edges := (u, v) :: !edges
        done
      done;
      let g = Bipartite.create ~n_left:nl ~n_right:nr in
      List.iter (fun (u, v) -> Bipartite.add_edge g u v) !edges;
      certified g !edges)

(* Random insertions and deletions (parallel edges included) on a graph
   that starts with no vertices: after every delta the maintained
   matching must still carry the certificate. *)
let prop_dynamic =
  QCheck.Test.make ~count:300 ~name:"bipartite: every delta keeps a certified maximum matching"
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 13 |] in
      let nl = 1 + Random.State.int st 7 and nr = 1 + Random.State.int st 7 in
      let g = Bipartite.create ~n_left:0 ~n_right:0 in
      let live = ref [] in
      for _ = 1 to 25 do
        (if !live <> [] && Random.State.int st 3 = 0 then begin
           let ((l, r) as e) = List.nth !live (Random.State.int st (List.length !live)) in
           assert (Bipartite.remove_edge g l r);
           let rec drop = function [] -> [] | e' :: tl when e' = e -> tl | p :: tl -> p :: drop tl in
           live := drop !live
         end
         else begin
           let l = Random.State.int st nl and r = Random.State.int st nr in
           Bipartite.add_edge g l r;
           live := (l, r) :: !live
         end);
        if not (certified g !live) then QCheck.Test.fail_report "matching certificate failed"
      done;
      true)

(* --- exact vertex cover ------------------------------------------------ *)

let vc_triangle () = check "K3" 2 (Vertex_cover.min_cover_size [ (1, 2); (2, 3); (3, 1) ])
let vc_path () = check "P4" 2 (Vertex_cover.min_cover_size [ (1, 2); (2, 3); (3, 4) ])
let vc_star () = check "star" 1 (Vertex_cover.min_cover_size [ (1, 2); (1, 3); (1, 4) ])
let vc_empty () = check "no edges" 0 (Vertex_cover.min_cover_size [])

let vc_self_loop () =
  check "self loop forces vertex" 1 (Vertex_cover.min_cover_size [ (3, 3) ]);
  check "loop plus edge" 2 (Vertex_cover.min_cover_size [ (3, 3); (1, 2) ])

let vc_is_cover () =
  let g = [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "cover check" true (Vertex_cover.is_cover g [ 2 ]);
  Alcotest.(check bool) "non-cover" false (Vertex_cover.is_cover g [ 1 ])

let vc_subdivide () =
  (* Figure 8: VC(G') = VC(G) + k|E| *)
  let g = [ (1, 2); (2, 3); (3, 1) ] in
  let vc = Vertex_cover.min_cover_size g in
  check "subdivide k=1" (vc + 3) (Vertex_cover.min_cover_size (Vertex_cover.subdivide g 1));
  check "subdivide k=2" (vc + 6) (Vertex_cover.min_cover_size (Vertex_cover.subdivide g 2))

let prop_vc_brute =
  QCheck.Test.make ~count:60 ~name:"exact VC = brute force on random graphs"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed; 17 |] in
      let n = 3 + Random.State.int st 4 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.int st 100 < 45 then edges := (u, v) :: !edges
        done
      done;
      let exact = Vertex_cover.min_cover_size !edges in
      let brute = ref max_int in
      for mask = 0 to (1 lsl n) - 1 do
        let cover = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
        if Vertex_cover.is_cover !edges cover then
          brute := min !brute (List.length cover)
      done;
      exact = !brute)

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick uf_basic;
    Alcotest.test_case "union-find idempotent" `Quick uf_idempotent;
    Alcotest.test_case "union-find canonical roots" `Quick uf_find_canonical;
    Alcotest.test_case "digraph basics" `Quick digraph_basic;
    Alcotest.test_case "digraph growth" `Quick digraph_grow;
    Alcotest.test_case "digraph components" `Quick digraph_components;
    Alcotest.test_case "digraph reachability" `Quick digraph_reachable;
    Alcotest.test_case "flow simple diamond" `Quick flow_simple;
    Alcotest.test_case "flow bottleneck" `Quick flow_bottleneck;
    Alcotest.test_case "flow disconnected" `Quick flow_disconnected;
    Alcotest.test_case "flow parallel edges" `Quick flow_parallel_edges;
    Alcotest.test_case "flow min cut extraction" `Quick flow_min_cut;
    Alcotest.test_case "flow zigzag" `Quick flow_zigzag;
    QCheck_alcotest.to_alcotest prop_flow_equals_brute_cut;
    Alcotest.test_case "bipartite perfect matching" `Quick bipartite_perfect;
    Alcotest.test_case "bipartite starved matching" `Quick bipartite_starved;
    Alcotest.test_case "bipartite empty" `Quick bipartite_empty;
    Alcotest.test_case "bipartite König cover" `Quick bipartite_koenig;
    QCheck_alcotest.to_alcotest prop_dynamic;
    QCheck_alcotest.to_alcotest prop_koenig;
    Alcotest.test_case "VC triangle" `Quick vc_triangle;
    Alcotest.test_case "VC path" `Quick vc_path;
    Alcotest.test_case "VC star" `Quick vc_star;
    Alcotest.test_case "VC empty" `Quick vc_empty;
    Alcotest.test_case "VC self loops" `Quick vc_self_loop;
    Alcotest.test_case "VC is_cover" `Quick vc_is_cover;
    Alcotest.test_case "VC subdivision (Fig 8)" `Quick vc_subdivide;
    QCheck_alcotest.to_alcotest prop_vc_brute;
  ]
