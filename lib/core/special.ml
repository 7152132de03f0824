open Res_db
module Maxflow = Res_graph.Maxflow
module Matchbuild = Res_col.Matchbuild
module Obs = Res_obs.Obs

(* Shared finishing step: every route below returns a set whose size is
   its flow value or matching size (asserted where it is computed), so it
   is already minimum; this only checks that it falsifies the query.  The
   kernels pass their [view], so the check replays the removals on its
   already-interned columns instead of recompiling [db - facts]. *)
let finalize ?view db q facts =
  Obs.span ~cat:"special" "certify" (fun () ->
      assert (
        match view with
        | Some view -> not (Eval.view_sat_removed view (Eval.view_removals_of_facts view facts))
        | None -> not (Eval.sat (Database.remove_all db facts) q)));
  Solution.Finite (List.length facts, facts)

module VP = struct
  (* Unordered pair of values, canonically ordered. *)
  type t = Value.t * Value.t

  let make a b = if Value.compare a b <= 0 then (a, b) else (b, a)
  let compare = Stdlib.compare
end

module VPmap = Map.Make (VP)
module Vset = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

let binary_pairs db r =
  List.filter_map
    (fun t -> match t with [ a; b ] -> Some (a, b) | _ -> None)
    (Database.tuples_of db r)

let two_way_pairs db r =
  let tuples = binary_pairs db r in
  let present = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.replace present (a, b) ()) tuples;
  List.fold_left
    (fun acc (a, b) ->
      if Hashtbl.mem present (b, a) then VPmap.add (VP.make a b) () acc else acc)
    VPmap.empty tuples
  |> VPmap.bindings |> List.map fst

let one_way_tuples db r =
  let tuples = binary_pairs db r in
  let present = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.replace present (a, b) ()) tuples;
  List.filter (fun (a, b) -> not (Hashtbl.mem present (b, a))) tuples

(* --- Propositions 33 and 36: matching kernels on interned ids --------- *)

(* The perm, A-perm and z3 templates have only unary and binary atoms,
   so their instances always compile to a columnar {!Eval.view}.  The
   graphs are built by {!Res_col.Matchbuild} on the interned int columns
   — packed keys, linear-time integer sorts, dense ranks as vertex ids —
   and only the final contingency facts are materialized back through
   [view_value]. *)

let view_of db q =
  match Eval.view db q with
  | Some view -> view
  | None -> invalid_arg "Special: template query is not columnar-eligible"

(* a two-way pair's fact, canonically oriented like [VP.make] *)
let pair_fact view r k =
  let a = Eval.view_value view (Matchbuild.fst_of k) in
  let b = Eval.view_value view (Matchbuild.snd_of k) in
  if Value.compare a b <= 0 then Database.fact r [ a; b ] else Database.fact r [ b; a ]

let kernel_two_way view r =
  let data = Eval.view_data view r in
  Matchbuild.two_way (Matchbuild.distinct_keys ~col0:data.col0 ~col1:data.col1)

(* Proposition 33, qperm: one tuple per two-way pair. *)
let solve_perm ~r db q =
  let view = view_of db q in
  let pairs = Obs.span ~cat:"special" "build" @@ fun () -> kernel_two_way view r in
  finalize ~view db q (Array.to_list (Array.map (pair_fact view r) pairs))

(* Proposition 33, qAperm: König cover between A-values and two-way pairs. *)
let solve_a_perm ~a ~r db q =
  let view = view_of db q in
  let cg =
    Obs.span ~cat:"special" "build" @@ fun () ->
    let a_ids = Matchbuild.distinct_ids (Eval.view_data view a).col0 in
    Matchbuild.aperm_graph ~a_ids ~two_way:(kernel_two_way view r)
  in
  let left, right =
    Obs.span ~cat:"special" "matching" @@ fun () ->
    Res_graph.Bipartite.min_vertex_cover cg.g
  in
  assert (List.length left + List.length right = Res_graph.Bipartite.matching_size cg.g);
  let facts =
    List.map (fun ai -> Database.fact a [ Eval.view_value view cg.left_ids.(ai) ]) left
    @ List.map (fun pi -> pair_fact view r cg.right_keys.(pi)) right
  in
  finalize ~view db q facts

(* Proposition 36, z3: König cover between diagonal R-tuples and A-tuples. *)
let solve_z3 ~r ~a db q =
  let view = view_of db q in
  let cg =
    Obs.span ~cat:"special" "build" @@ fun () ->
    let data = Eval.view_data view r in
    let keys = Matchbuild.distinct_keys ~col0:data.col0 ~col1:data.col1 in
    let a_ids = Matchbuild.distinct_ids (Eval.view_data view a).col0 in
    Matchbuild.z3_graph ~diag:(Matchbuild.diagonal keys) ~a_ids ~keys
  in
  let left, right =
    Obs.span ~cat:"special" "matching" @@ fun () ->
    Res_graph.Bipartite.min_vertex_cover cg.g
  in
  assert (List.length left + List.length right = Res_graph.Bipartite.matching_size cg.g);
  let facts =
    List.map
      (fun di ->
        let u = Eval.view_value view cg.left_ids.(di) in
        Database.fact r [ u; u ])
      left
    @ List.map (fun ai -> Database.fact a [ Eval.view_value view cg.right_keys.(ai) ]) right
  in
  finalize ~view db q facts

(* --- Propositions 13 and 44 ------------------------------------------- *)

(* Common structure of the qA3perm-R / qSwx3perm-R flow: left entities
   (A-tuples, resp. S-tuples) as unit edges, two-way pairs as unit edges on
   the right, connections through shared values and one-way tuples.
   [left_anchor] maps a left entity to the value its witness starts from
   (the x of A(x) / S(w,x)). *)

let perm_pairs_flow ~left_facts ~left_anchor ~one_way_cost1 ~r db q =
  let net, left, pairs, left_edges, pair_edges, one_way_edges =
    Obs.span ~cat:"special" "build" @@ fun () ->
  let pairs = Array.of_list (two_way_pairs db r) in
  let pair_index = Hashtbl.create 16 in
  Array.iteri (fun i p -> Hashtbl.replace pair_index p i) pairs;
  let one_way = one_way_tuples db r in
  let left = Array.of_list left_facts in
  let net = Maxflow.create 2 in
  let source = 0 and sink = 1 in
  let left_l = Array.map (fun _ -> Maxflow.add_node net) left in
  let left_r = Array.map (fun _ -> Maxflow.add_node net) left in
  let pair_l = Array.map (fun _ -> Maxflow.add_node net) pairs in
  let pair_r = Array.map (fun _ -> Maxflow.add_node net) pairs in
  let left_edges =
    Array.mapi
      (fun i _ ->
        ignore (Maxflow.add_edge net ~src:source ~dst:left_l.(i) ~cap:Maxflow.infinite);
        Maxflow.add_edge net ~src:left_l.(i) ~dst:left_r.(i) ~cap:1)
      left
  in
  let pair_edges =
    Array.mapi
      (fun i _ ->
        ignore (Maxflow.add_edge net ~src:pair_r.(i) ~dst:sink ~cap:Maxflow.infinite);
        Maxflow.add_edge net ~src:pair_l.(i) ~dst:pair_r.(i) ~cap:1)
      pairs
  in
  (* Pairs reachable from a value x: x ∈ {u,v}. *)
  let pairs_with = Hashtbl.create 16 in
  Array.iteri
    (fun i (u, v) ->
      let add w =
        let cur = try Hashtbl.find pairs_with w with Not_found -> [] in
        Hashtbl.replace pairs_with w (i :: cur)
      in
      add u;
      if not (Value.equal u v) then add v)
    pairs;
  let direct_pairs x = try Hashtbl.find pairs_with x with Not_found -> [] in
  (* One-way tuples R(a,b): connect an anchor a to pairs containing b.  In
     Prop 13 these are infinite (dominated by A); in Prop 44 they are unit
     edges of their own. *)
  let anchor_nodes = Hashtbl.create 16 in
  let anchor_node x =
    match Hashtbl.find_opt anchor_nodes x with
    | Some n -> n
    | None ->
      let n = Maxflow.add_node net in
      Hashtbl.replace anchor_nodes x n;
      n
  in
  Array.iteri
    (fun i f ->
      let x = left_anchor f in
      ignore (Maxflow.add_edge net ~src:left_r.(i) ~dst:(anchor_node x) ~cap:Maxflow.infinite))
    left;
  Hashtbl.iter
    (fun x n ->
      List.iter
        (fun pi -> ignore (Maxflow.add_edge net ~src:n ~dst:pair_l.(pi) ~cap:Maxflow.infinite))
        (direct_pairs x))
    anchor_nodes;
  let one_way_edges =
    List.filter_map
      (fun (aval, bval) ->
        let targets = direct_pairs bval in
        if targets = [] then None
        else begin
          let mid_in = Maxflow.add_node net and mid_out = Maxflow.add_node net in
          let cap = if one_way_cost1 then 1 else Maxflow.infinite in
          let e = Maxflow.add_edge net ~src:mid_in ~dst:mid_out ~cap in
          Hashtbl.iter
            (fun x n ->
              if Value.equal x aval then
                ignore (Maxflow.add_edge net ~src:n ~dst:mid_in ~cap:Maxflow.infinite))
            anchor_nodes;
          List.iter
            (fun pi -> ignore (Maxflow.add_edge net ~src:mid_out ~dst:pair_l.(pi) ~cap:Maxflow.infinite))
            targets;
          Some (e, Database.fact r [ aval; bval ])
        end)
      one_way
  in
  (net, left, pairs, left_edges, pair_edges, one_way_edges)
  in
  let source = 0 and sink = 1 in
  let flow =
    Obs.span ~cat:"special" "maxflow" @@ fun () -> Maxflow.max_flow net ~src:source ~dst:sink
  in
  let cut_facts =
    Obs.span ~cat:"special" "mincut" @@ fun () ->
  let side, _cut = Maxflow.min_cut net ~src:source in
  (* An edge u→v is cut iff side.(u) && not side.(v). *)
  let edge_in_cut e =
    let u, v = Maxflow.edge_endpoints net e in
    side.(u) && not side.(v)
  in
  let left_cut = ref [] in
  Array.iteri (fun i e -> if edge_in_cut e then left_cut := left.(i) :: !left_cut) left_edges;
  let left_alive f = Database.mem db f && not (List.mem f !left_cut) in
  let anchor_alive x =
    List.exists (fun f -> Value.equal (left_anchor f) x && left_alive f) (Array.to_list left)
  in
  let pair_cut = ref [] in
  Array.iteri
    (fun i e ->
      if edge_in_cut e then begin
        let u, v = pairs.(i) in
        let pick =
          if Value.equal u v then Database.fact r [ u; v ]
          else if anchor_alive u && not (anchor_alive v) then Database.fact r [ u; v ]
          else if anchor_alive v && not (anchor_alive u) then Database.fact r [ v; u ]
          else Database.fact r [ u; v ]
        in
        pair_cut := pick :: !pair_cut
      end)
    pair_edges;
  let ow_cut = List.filter_map (fun (e, f) -> if edge_in_cut e then Some f else None) one_way_edges in
    !left_cut @ !pair_cut @ ow_cut
  in
  assert (List.length cut_facts = flow);
  finalize db q cut_facts

let solve_a3perm ~a ~r db q =
  let left_facts = List.map (fun t -> Database.fact a t) (Database.tuples_of db a) in
  let left_anchor (f : Database.fact) = List.hd f.tuple in
  perm_pairs_flow ~left_facts ~left_anchor ~one_way_cost1:false ~r db q

let solve_swx3perm ~s ~r db q =
  let left_facts = List.map (fun t -> Database.fact s t) (Database.tuples_of db s) in
  let left_anchor (f : Database.fact) = List.nth f.tuple 1 in
  perm_pairs_flow ~left_facts ~left_anchor ~one_way_cost1:true ~r db q

(* --- Proposition 41 ---------------------------------------------------- *)

let solve_ts3conf ~t_rel ~r ~s_rel db q =
  let forced =
    List.filter
      (fun tuple ->
        Database.mem db (Database.fact t_rel tuple) && Database.mem db (Database.fact s_rel tuple))
      (Database.tuples_of db r)
    |> List.map (fun tuple -> Database.fact r tuple)
  in
  let db' = Database.remove_all db forced in
  match Flow.solve db' q with
  | Some (Solution.Finite (v, facts)) ->
    let all = forced @ facts in
    assert (not (Eval.sat (Database.remove_all db all) q));
    Solution.Finite (v + List.length forced, all)
  | Some Solution.Unbreakable -> Solution.Unbreakable
  | None -> invalid_arg "Special.solve_ts3conf: query is not linear"

(* --- instance-level bipartite witness cover ---------------------------- *)

module FS = Database.Fact_set

let solve_witness_bipartite db (q : Res_cq.Query.t) =
  let witness_sets = Eval.witness_fact_sets db q in
  let endo_sets =
    List.map
      (fun fs -> FS.filter (fun f -> not (Res_cq.Query.is_exogenous q f.Database.rel)) fs)
      witness_sets
  in
  if List.exists FS.is_empty endo_sets then Some Solution.Unbreakable
  else begin
    (* twin collapse: facts with identical witness sets form one unit *)
    let occ : (Database.fact, int list) Hashtbl.t = Hashtbl.create 64 in
    List.iteri
      (fun wi fs ->
        FS.iter
          (fun f ->
            let cur = try Hashtbl.find occ f with Not_found -> [] in
            Hashtbl.replace occ f (wi :: cur))
          fs)
      endo_sets;
    let unit_of : (Database.fact, Database.fact) Hashtbl.t = Hashtbl.create 64 in
    let rep_by_sig : (string * int list, Database.fact) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (f : Database.fact) ws ->
        let signature = (f.rel ^ "|shared", List.sort compare ws) in
        (* twins must co-occur in every witness; the signature alone
           captures that (same witness list). *)
        match Hashtbl.find_opt rep_by_sig signature with
        | Some rep -> Hashtbl.replace unit_of f rep
        | None ->
          Hashtbl.replace rep_by_sig signature f;
          Hashtbl.replace unit_of f f)
      occ;
    let unit f = Hashtbl.find unit_of f in
    let collapsed =
      List.map (fun fs -> FS.elements fs |> List.map unit |> List.sort_uniq compare) endo_sets
    in
    (* forced units: singleton witnesses; then remove covered witnesses *)
    let forced = List.filter_map (function [ u ] -> Some u | _ -> None) collapsed in
    let forced = List.sort_uniq compare forced in
    let remaining =
      List.filter (fun us -> not (List.exists (fun u -> List.mem u forced) us)) collapsed
    in
    if List.exists (fun us -> List.length us > 2) remaining then None
    else begin
      let edges =
        List.filter_map (function [ a; b ] -> Some (a, b) | _ -> None) remaining
      in
      (* 2-color the conflict graph *)
      let color : (Database.fact, int) Hashtbl.t = Hashtbl.create 64 in
      let adj : (Database.fact, Database.fact list) Hashtbl.t = Hashtbl.create 64 in
      let add_adj a b =
        Hashtbl.replace adj a (b :: (try Hashtbl.find adj a with Not_found -> []))
      in
      List.iter
        (fun (a, b) ->
          add_adj a b;
          add_adj b a)
        edges;
      let bipartite = ref true in
      Hashtbl.iter
        (fun v _ ->
          if not (Hashtbl.mem color v) then begin
            let queue = Queue.create () in
            Hashtbl.replace color v 0;
            Queue.add v queue;
            while not (Queue.is_empty queue) do
              let u = Queue.pop queue in
              let cu = Hashtbl.find color u in
              List.iter
                (fun w ->
                  match Hashtbl.find_opt color w with
                  | Some cw -> if cw = cu then bipartite := false
                  | None ->
                    Hashtbl.replace color w (1 - cu);
                    Queue.add w queue)
                (try Hashtbl.find adj u with Not_found -> [])
            done
          end)
        adj;
      if not !bipartite then None
      else begin
        (* index left/right units and run König; [color] binds each unit
           once, so a table's length is the next free vertex id *)
        let left = Hashtbl.create 16 and right = Hashtbl.create 16 in
        let left_units = ref [] and right_units = ref [] in
        Hashtbl.iter
          (fun v c ->
            let ids, units = if c = 0 then (left, left_units) else (right, right_units) in
            Hashtbl.replace ids v (Hashtbl.length ids);
            units := v :: !units)
          color;
        let left_arr = Array.of_list (List.rev !left_units)
        and right_arr = Array.of_list (List.rev !right_units) in
        let g =
          Res_graph.Bipartite.create ~n_left:(Array.length left_arr)
            ~n_right:(Array.length right_arr)
        in
        List.iter
          (fun (a, b) ->
            let a, b = if Hashtbl.find color a = 0 then (a, b) else (b, a) in
            Res_graph.Bipartite.add_edge g (Hashtbl.find left a) (Hashtbl.find right b))
          edges;
        let cover_l, cover_r = Res_graph.Bipartite.min_vertex_cover g in
        let chosen =
          forced
          @ List.map (fun i -> left_arr.(i)) cover_l
          @ List.map (fun i -> right_arr.(i)) cover_r
        in
        (* the forced units and a matching are disjoint witnesses *)
        assert (
          List.length chosen = List.length forced + Res_graph.Bipartite.matching_size g);
        Some (finalize db q chosen)
      end
    end
  end

(* --- Proposition 35 case 1: general unbound permutations ---------------- *)

(* The query-level half of the rewrite: the permutation variable [x]
   that stays, the exogenous atoms mentioning the other one (they filter
   which orientations of a pair are active), and the atoms kept as they
   are. *)
type pair_collapse = {
  r : string;
  x : string;
  y_guards : Res_cq.Atom.t list;
  kept : Res_cq.Atom.t list;
}

(* The rewritten query over relation names [taken] lacks: the R-atoms
   become Pair^x(x,p), Pay(p). *)
let collapsed_query pc ~taken (q : Res_cq.Query.t) =
  let pair_rel = Family.fresh_relation taken pc.r in
  let pay_rel = Family.fresh_relation (fun n -> n = pair_rel || taken n) pc.r in
  let exo = pair_rel :: List.filter (Res_cq.Query.is_exogenous q) (Res_cq.Query.relations q) in
  let atoms =
    pc.kept @ [ Res_cq.Atom.make pair_rel [ pc.x; "__p" ]; Res_cq.Atom.make pay_rel [ "__p" ] ]
  in
  (pair_rel, pay_rel, Res_cq.Query.make ~exo atoms)

let pair_collapse ~r (q : Res_cq.Query.t) =
  match Patterns.two_atom_pattern q with
  | Some (Patterns.Permutation (x, y)) when Patterns.self_join q = Some (r, Res_cq.Query.atoms_of_rel q r)
    -> begin
    (* orient so that y occurs only in the R-atoms and exogenous atoms *)
    let others = List.filter (fun (a : Res_cq.Atom.t) -> a.rel <> r) (Res_cq.Query.atoms q) in
    let occurs v (a : Res_cq.Atom.t) = List.mem v (Res_cq.Atom.vars a) in
    let endo_others = List.filter (fun a -> not (Res_cq.Query.is_exogenous q a.Res_cq.Atom.rel)) others in
    let free v = List.for_all (fun a -> not (occurs v a)) endo_others in
    let x, y =
      if free y then (x, y) else if free x then (y, x) else (x, y)
    in
    let y_guards = List.filter (occurs y) others in
    (* atoms mentioning y may mention x besides, nothing else *)
    if (not (free y))
       || List.exists (fun (a : Res_cq.Atom.t) -> List.exists (fun v -> v <> x && v <> y) a.args) y_guards
    then None
    else begin
      let pc = { r; x; y_guards; kept = List.filter (fun a -> not (occurs y a)) others } in
      let _, _, q' = collapsed_query pc ~taken:(fun n -> List.mem n (Res_cq.Query.relations q)) q in
      if Linearity.is_linear q' then Some pc else None
    end
  end
  | _ -> None

let solve_pair_collapse pc db (q : Res_cq.Query.t) =
  let { r; x; y_guards; _ } = pc in
  let guard_ok c d =
    (* does orientation (x=c, y=d) pass every y-guard? *)
    List.for_all
      (fun (a : Res_cq.Atom.t) ->
        let tuple = List.map (fun v -> if v = x then c else d) a.args in
        Database.mem db (Database.fact a.rel tuple))
      y_guards
  in
  (* the helper relations join the caller's database, so their names must
     be fresh for its relations as well as the query's *)
  let taken n = List.mem n (Res_cq.Query.relations q) || List.mem n (Database.relations db) in
  let pair_rel, pay_rel, q' = collapsed_query pc ~taken q in
  let db' =
    List.fold_left
      (fun acc (c, d) ->
        let pv = Value.pair c d in
        let fwd = guard_ok c d and bwd = (not (Value.equal c d)) && guard_ok d c in
        let acc = if fwd then Database.add_row acc pair_rel [ c; pv ] else acc in
        let acc = if bwd then Database.add_row acc pair_rel [ d; pv ] else acc in
        if fwd || bwd then Database.add_row acc pay_rel [ pv ] else acc)
      db (two_way_pairs db r)
  in
  match Flow.solve_exn db' q' with
  | Solution.Finite (_, facts) ->
    let translate (f : Database.fact) =
      match f.tuple with
      | [ Value.Pair (c, d) ] when f.rel = pay_rel -> Database.fact r [ c; d ]
      | _ -> f
    in
    finalize db q (List.map translate facts)
  | Solution.Unbreakable -> Solution.Unbreakable
