module Maxflow = Res_graph.Maxflow

(* One linear-order position of the resilience flow network, already
   resolved to interned ids: the live tuples of the atom at this
   position, each with its packed left/right boundary key and an
   exogenity flag.  Keys only need to be consistent within a boundary
   (the same variable vector for every tuple), so the packing is
   0 for an empty boundary, the raw id for one variable, and
   [(id0 lsl 31) lor id1] for two — ids are < 2^31 by the Csr budget,
   so the pack fits OCaml's 63-bit ints. *)
type layer = {
  tids : int array; (* tuple ids of the relation, edge order *)
  src_keys : int array; (* packed left-boundary key per edge *)
  dst_keys : int array; (* packed right-boundary key per edge *)
  exo : Bytes.t; (* per-edge: '\001' = exogenous (infinite capacity) *)
}

type t = {
  net : Maxflow.t;
  source : int;
  sink : int;
  arc_base : int array; (* arc_base.(p) = first arc id of layer p; length m+1 *)
  layers : layer array;
}

let infinite = Maxflow.infinite

(* The rank of a boundary key.  Keys below 2^31 are bare ids (or pairs
   whose first id is 0), all smaller than the dictionary size, so they
   rank through a dense id -> rank table; packed two-variable keys rank
   by binary search.  Keys come from the vectors the boundary was
   renumbered from, so every lookup hits. *)
let ranker uniq =
  let n = Array.length uniq in
  if n = 0 then fun _ -> assert false
  else if uniq.(n - 1) < 1 lsl 31 then begin
    let ranks = Sorted.dense_ranks uniq in
    fun key ->
      let i = ranks.(key) in
      assert (i >= 0);
      i
  end
  else fun key ->
    let i = Sorted.lower_bound uniq 0 n key in
    assert (i < n && uniq.(i) = key);
    i

let build ?(guard = fun () -> ()) layers =
  let m = Array.length layers in
  (* Sort-based renumbering of boundary p (1..m-1): the distinct keys of
     layer p-1's dst side and layer p's src side, sorted ascending; a
     key's node id is its rank plus the boundary's base offset.  No hash
     table, no boxed keys — one integer sort per boundary. *)
  let uniq =
    Array.init (m + 1) (fun p ->
        if p = 0 || p = m then [||]
        else Sorted.sort_uniq (Array.append layers.(p - 1).dst_keys layers.(p).src_keys))
  in
  let rank = Array.map ranker uniq in
  let base = Array.make (m + 1) 2 in
  for p = 1 to m do
    base.(p) <- base.(p - 1) + Array.length uniq.(p - 1)
  done;
  let total_nodes = if m = 0 then 2 else base.(m) in
  let net = Maxflow.create total_nodes in
  let total_edges = Array.fold_left (fun acc l -> acc + Array.length l.tids) 0 layers in
  Maxflow.reserve_arcs net (2 * total_edges);
  let source = 0 and sink = 1 in
  let arc_base = Array.make (m + 1) 0 in
  let next_arc = ref 0 in
  (* every [add_edge] consumes one forward and one reverse arc id *)
  for p = 0 to m - 1 do
    arc_base.(p) <- !next_arc;
    let l = layers.(p) in
    let k = Array.length l.tids in
    for i = 0 to k - 1 do
      if i land 4095 = 0 then guard ();
      let src = if p = 0 then source else base.(p) + rank.(p) l.src_keys.(i) in
      let dst = if p = m - 1 then sink else base.(p + 1) + rank.(p + 1) l.dst_keys.(i) in
      let cap = if Bytes.get l.exo i = '\001' then Maxflow.infinite else 1 in
      let fwd = Maxflow.add_edge net ~src ~dst ~cap in
      assert (fwd = !next_arc);
      next_arc := !next_arc + 2
    done
  done;
  arc_base.(m) <- !next_arc;
  { net; source; sink; arc_base; layers }

let max_flow t = Maxflow.max_flow t.net ~src:t.source ~dst:t.sink

let min_cut_tuples t =
  let _, cut = Maxflow.min_cut t.net ~src:t.source in
  let m = Array.length t.layers in
  (* Arcs were added layer by layer, so a cut arc's layer is found by
     binary search in [arc_base] and its edge index by offset — the
     arc-id-indexed replacement for the per-edge fact hashtable. *)
  let layer_of e =
    let lo = ref 0 and hi = ref (m - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.arc_base.(mid) <= e then lo := mid else hi := mid - 1
    done;
    !lo
  in
  List.rev_map
    (fun e ->
      let p = layer_of e in
      let i = (e - t.arc_base.(p)) / 2 in
      (p, t.layers.(p).tids.(i)))
    cut
