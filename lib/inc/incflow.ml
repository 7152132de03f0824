module Q = Res_cq.Query
module Witness_net = Res_db.Witness_net

type t = Witness_net.t

(* Admitted: linear queries whose endogenous relations each occur in one
   atom.  There facts and unit edges are in bijection, so any min cut's
   edge set maps to a fact set of exactly the flow value: the greedy
   minimalization of the from-scratch path is provably a no-op.  (A
   self-joined endogenous relation puts one fact on several edges, where
   a cut can double-count.) *)
let create db (q : Q.t) =
  let single r = Q.is_exogenous q r || List.length (Q.atoms_of_rel q r) <= 1 in
  match Resilience.Linearity.linear_order q with
  | Some order when List.for_all single (Q.relations q) ->
    Res_obs.Obs.span ~cat:"inc" "incflow.create" @@ fun () ->
    let t = Witness_net.create q (Array.of_list order) db in
    Witness_net.augment t;
    Some t
  | _ -> None

let apply = Witness_net.apply

let solution t =
  if Witness_net.value t >= Res_graph.Maxflow.infinite then Resilience.Solution.Unbreakable
  else begin
    let facts = Witness_net.cut_facts t in
    Resilience.Solution.Finite (List.length facts, facts)
  end
