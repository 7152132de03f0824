open Res_db
module Maxflow = Res_graph.Maxflow
module Q = Res_cq.Query

(* Dynamic residual-graph repair for the linear-query flow network.

   The network is the one {!Resilience.Flow.solve} builds — source/sink,
   boundary-key nodes per atom position, one edge per (atom, matching tuple)
   with capacity 1 (endogenous) or infinite (exogenous) — but maintained
   under tuple deltas instead of rebuilt: an insert adds edges and
   re-augments on the residual network (Dinic resumes, so only the new
   augmenting paths are paid for); a delete reroutes the deleted edges' flow
   through the residual graph and cancels what cannot be rerouted
   ({!Maxflow.remove_edge}), then re-augments.

   Supported queries: linear, with every endogenous relation occurring in
   exactly one atom.  On that class facts and unit edges are in bijection,
   so any min cut's edge set maps to a fact set of exactly the flow value —
   the greedy minimalization of the from-scratch path is provably a no-op
   and the incremental value always equals [Flow.solve]'s.  (A self-joined
   endogenous relation puts one fact on several edges, where a cut can
   double-count; those queries take the recompute path instead.)

   The semijoin reduction of the from-scratch path ([Eval.view_live]) is
   skipped: it only shrinks the network, never changes its max-flow value,
   and an incremental structure cannot afford a global pruning pass per
   delta. *)

type t = {
  q : Q.t;
  atoms : Res_cq.Atom.t array;
  bounds : string list array; (* boundary variables per position *)
  net : Maxflow.t;
  source : int;
  sink : int;
  node_ids : (int * Database.tuple, int) Hashtbl.t;
  edge_facts : (Maxflow.edge, Database.fact) Hashtbl.t; (* cap-1 edges *)
  fact_edges : (Database.fact, Maxflow.edge list) Hashtbl.t; (* all edges *)
  mutable value : int; (* current flow value, exact *)
}

let supported (q : Q.t) =
  Resilience.Linearity.is_linear q
  && List.for_all
       (fun r -> Q.is_exogenous q r || List.length (Q.atoms_of_rel q r) <= 1)
       (Q.relations q)

(* Cap the value at [infinite]: once every source-sink cut is infinite we
   only need "unbreakable", and an uncapped Dinic could overflow by pushing
   many infinite-capacity paths. *)
let headroom t = max 0 (Maxflow.infinite - t.value)

let reaugment t =
  t.value <- t.value + Maxflow.flow_limited t.net ~src:t.source ~dst:t.sink ~limit:(headroom t)

let node t p key =
  let m = Array.length t.atoms in
  if p = 0 then t.source
  else if p = m then t.sink
  else begin
    match Hashtbl.find_opt t.node_ids (p, key) with
    | Some v -> v
    | None ->
      let v = Maxflow.add_node t.net in
      Hashtbl.replace t.node_ids (p, key) v;
      v
  end

(* Add the edges a single fact induces (one per atom position whose relation
   and repeated-variable pattern it matches).  Pure structure change: the
   caller re-augments afterwards. *)
let add_fact_edges t (f : Database.fact) =
  let edges = ref [] in
  Array.iteri
    (fun p a ->
      if a.Res_cq.Atom.rel = f.Database.rel then begin
        match Resilience.Flow.match_atom a f.tuple with
        | None -> ()
        | Some subst ->
          let key_of vars = List.map (fun v -> List.assoc v subst) vars in
          let src = node t p (key_of t.bounds.(p)) in
          let dst = node t (p + 1) (key_of t.bounds.(p + 1)) in
          let cap = if Q.is_exogenous t.q a.rel then Maxflow.infinite else 1 in
          let e = Maxflow.add_edge t.net ~src ~dst ~cap in
          if cap = 1 then Hashtbl.replace t.edge_facts e f;
          edges := e :: !edges
      end)
    t.atoms;
  match !edges with
  | [] -> ()
  | es -> Hashtbl.replace t.fact_edges f (es @ Option.value ~default:[] (Hashtbl.find_opt t.fact_edges f))

let create db (q : Q.t) =
  if not (supported q) then None
  else begin
    match Resilience.Linearity.linear_order q with
    | None -> None
    | Some order ->
    Res_obs.Obs.span ~cat:"inc" "incflow.create" @@ fun () ->
    let atoms = Array.of_list order in
    let net = Maxflow.create 2 in
    let t =
      {
        q;
        atoms;
        bounds = Resilience.Flow.boundaries atoms;
        net;
        source = 0;
        sink = 1;
        node_ids = Hashtbl.create 64;
        edge_facts = Hashtbl.create 256;
        fact_edges = Hashtbl.create 256;
        value = 0;
      }
    in
    List.iter (fun f -> add_fact_edges t f) (Database.facts db);
    reaugment t;
    Some t
  end

let insert t f =
  add_fact_edges t f

let delete t f =
  match Hashtbl.find_opt t.fact_edges f with
  | None -> ()
  | Some edges ->
    List.iter
      (fun e ->
        t.value <- t.value - Maxflow.remove_edge t.net ~source:t.source ~sink:t.sink e;
        Hashtbl.remove t.edge_facts e)
      edges;
    Hashtbl.remove t.fact_edges f

(* Apply a batch: structural changes first, one re-augmentation at the end —
   deletions repair feasibility eagerly (their reroutes need the residual
   state as-is), insertions only add capacity, so a single Dinic resumption
   covers them all. *)
let apply t deltas =
  List.iter
    (fun d ->
      match d with
      | Delta.Insert f -> insert t f
      | Delta.Delete f -> delete t f)
    deltas;
  reaugment t

let value t = t.value

let solution t =
  if t.value >= Maxflow.infinite then Resilience.Solution.Unbreakable
  else begin
    let _, cut = Maxflow.min_cut t.net ~src:t.source in
    let facts =
      List.filter_map (fun e -> Hashtbl.find_opt t.edge_facts e) cut
      |> List.sort_uniq compare
    in
    Resilience.Solution.Finite (List.length facts, facts)
  end
