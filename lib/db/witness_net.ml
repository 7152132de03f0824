module Maxflow = Res_graph.Maxflow
module Atom = Res_cq.Atom

let match_atom (a : Atom.t) (tuple : Database.tuple) =
  let rec go subst args vals =
    match (args, vals) with
    | [], [] -> Some subst
    | v :: args', x :: vals' -> begin
      match List.assoc_opt v subst with
      | Some y when Value.equal x y -> go subst args' vals'
      | Some _ -> None
      | None -> go ((v, x) :: subst) args' vals'
    end
    | _ -> None
  in
  go [] a.args tuple

(* Two linear passes: record each variable's first and last atom
   position, then spread it over the boundaries its span covers — no
   per-position set unions. *)
let boundaries atoms =
  let m = Array.length atoms in
  let first : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem first v) then Hashtbl.add first v i;
          Hashtbl.replace last v i)
        (Atom.vars a))
    atoms;
  let bounds = Array.make (m + 1) [] in
  Hashtbl.iter
    (fun v f ->
      let l = Hashtbl.find last v in
      for p = f + 1 to l do
        bounds.(p) <- v :: bounds.(p)
      done)
    first;
  Array.mapi
    (fun p vs -> if p = 0 || p = m then [] else List.sort_uniq String.compare vs)
    bounds

type t = {
  q : Res_cq.Query.t;
  atoms : Atom.t array;
  bounds : string list array;
  fact_exogenous : Database.fact -> bool;
  net : Maxflow.t;
  nodes : (int * Database.tuple, int) Hashtbl.t; (* (position, boundary key) *)
  edge_fact : (Maxflow.edge, Database.fact) Hashtbl.t; (* every live edge *)
  fact_edges : (Database.fact, Maxflow.edge) Hashtbl.t; (* one binding per edge *)
  mutable value : int;
}

let source = 0
let sink = 1

let node t p key =
  if p = 0 then source
  else if p = Array.length t.atoms then sink
  else begin
    match Hashtbl.find_opt t.nodes (p, key) with
    | Some v -> v
    | None ->
      let v = Maxflow.add_node t.net in
      Hashtbl.replace t.nodes (p, key) v;
      v
  end

(* The edge of [f] at position [p], unless its tuple misses the atom's
   repeated-variable pattern. *)
let add_edge t p (f : Database.fact) =
  match match_atom t.atoms.(p) f.tuple with
  | None -> ()
  | Some subst ->
    let key_of vars = List.map (fun v -> List.assoc v subst) vars in
    let src = node t p (key_of t.bounds.(p)) in
    let dst = node t (p + 1) (key_of t.bounds.(p + 1)) in
    let cap =
      if Res_cq.Query.is_exogenous t.q f.rel || t.fact_exogenous f then Maxflow.infinite else 1
    in
    let e = Maxflow.add_edge t.net ~src ~dst ~cap in
    Hashtbl.replace t.edge_fact e f;
    Hashtbl.add t.fact_edges f e

let create ?(guard = ignore) ?(fact_exogenous = fun _ -> false) q atoms db =
  let t =
    {
      q;
      atoms;
      bounds = boundaries atoms;
      fact_exogenous;
      net = Maxflow.create 2;
      nodes = Hashtbl.create 64;
      edge_fact = Hashtbl.create 256;
      fact_edges = Hashtbl.create 256;
      value = 0;
    }
  in
  Array.iteri
    (fun p (a : Atom.t) ->
      List.iter
        (fun tuple ->
          guard ();
          add_edge t p (Database.fact a.rel tuple))
        (Database.tuples_of db a.rel))
    atoms;
  t

let insert t (f : Database.fact) =
  Array.iteri (fun p (a : Atom.t) -> if a.rel = f.rel then add_edge t p f) t.atoms

let delete t f =
  List.iter
    (fun e ->
      t.value <- t.value - Maxflow.remove_edge t.net ~source ~sink e;
      Hashtbl.remove t.edge_fact e;
      Hashtbl.remove t.fact_edges f)
    (Hashtbl.find_all t.fact_edges f)

(* Capped at [infinite]: once every cut is infinite only "unbreakable"
   matters, and an uncapped Dinic could overflow pushing many
   infinite-capacity paths. *)
let augment t =
  let limit = max 0 (Maxflow.infinite - t.value) in
  t.value <- t.value + Maxflow.flow_limited t.net ~src:source ~dst:sink ~limit

(* Deletions repair feasibility eagerly (their reroutes need the residual
   state as it is); insertions only add capacity, so one Dinic resumption
   covers the whole batch. *)
let apply t deltas =
  List.iter (function Delta.Insert f -> insert t f | Delta.Delete f -> delete t f) deltas;
  augment t

let value t = t.value

let cut_facts t =
  let _, cut = Maxflow.min_cut t.net ~src:source in
  List.filter_map
    (fun e -> if Maxflow.edge_cap t.net e = 1 then Hashtbl.find_opt t.edge_fact e else None)
    cut
  |> List.sort_uniq Database.compare_fact

(* The network is a layered DAG, so every walk along flow-carrying edges
   from the source ends at the sink. *)
let flow_paths t =
  let out = Hashtbl.create 64 and remaining = Hashtbl.create 64 in
  Hashtbl.iter
    (fun e _ ->
      let f = Maxflow.flow_on t.net e in
      if f > 0 then begin
        Hashtbl.replace remaining e f;
        let src, _ = Maxflow.edge_endpoints t.net e in
        Hashtbl.replace out src (e :: Option.value ~default:[] (Hashtbl.find_opt out src))
      end)
    t.edge_fact;
  let rec walk v acc =
    if v = sink then Some acc
    else begin
      let outs = Option.value ~default:[] (Hashtbl.find_opt out v) in
      match List.find_opt (fun e -> Hashtbl.find remaining e > 0) outs with
      | None -> None
      | Some e ->
        Hashtbl.replace remaining e (Hashtbl.find remaining e - 1);
        let acc = if Maxflow.edge_cap t.net e = 1 then Hashtbl.find t.edge_fact e :: acc else acc in
        walk (snd (Maxflow.edge_endpoints t.net e)) acc
    end
  in
  let rec paths k acc =
    if k = 0 then acc
    else match walk source [] with Some p -> paths (k - 1) (p :: acc) | None -> acc
  in
  if t.value >= Maxflow.infinite then [] else paths t.value []
