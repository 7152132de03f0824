open Res_db
module Maxflow = Res_graph.Maxflow
module Flowbuild = Res_col.Flowbuild
module Obs = Res_obs.Obs

(* Valuation of an atom's argument list against a tuple; None when the
   tuple does not match a repeated-variable pattern like R(x,x). *)
let match_atom (a : Res_cq.Atom.t) (tuple : Database.tuple) =
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

(* boundary.(p) = variables occurring both in an atom < p and in an atom
   >= p; boundary 0 and m are empty.  Two linear passes: record each
   variable's first and last atom position, then spread it over the
   boundaries its span covers — no per-position set unions. *)
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
        (Res_cq.Atom.vars a))
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

(* Total order on facts without polymorphic compare: relation name, then
   the tuple lexicographically under [Value.compare].  The order agrees
   with [Stdlib.compare] on facts, so sorted output is unchanged. *)
let fact_compare (f : Database.fact) (g : Database.fact) =
  let c = String.compare f.rel g.rel in
  if c <> 0 then c else List.compare Value.compare f.tuple g.tuple

(* ---- the columnar kernel path ------------------------------------------ *)

(* Build the [Flowbuild] layers straight from the interned view: per
   linear-order position, the relation's live (semijoin-surviving)
   tuple ids with packed boundary keys read out of the columns.  A
   boundary of a binary linear query has at most 2 variables (a
   boundary variable occurs in both adjacent atoms by contiguity, and
   atoms hold at most 2 distinct variables), so keys pack into one
   int. *)

let column_of (a : Res_cq.Atom.t) (data : Res_col.Instance.rel_data) v =
  match a.args with
  | [ w ] when w = v -> data.col0
  | [ w0; _ ] when w0 = v -> data.col0
  | [ _; w1 ] when w1 = v -> data.col1
  | _ -> invalid_arg "Flow.column_of: variable not in atom"

let keys_for a data vars tids =
  match vars with
  | [] -> Array.make (Array.length tids) 0
  | [ v ] ->
    let col = column_of a data v in
    Array.map (fun tid -> col.(tid)) tids
  | [ v; w ] ->
    let cv = column_of a data v and cw = column_of a data w in
    Array.map (fun tid -> (cv.(tid) lsl 31) lor cw.(tid)) tids
  | _ -> invalid_arg "Flow.keys_for: boundary wider than the binary fragment"

let solve_kernel ~cancel ~fact_exogenous view db q atoms bounds =
  let m = Array.length atoms in
  let t =
    Obs.span ~cat:"flow" "build" @@ fun () ->
    let layers =
      Array.init m (fun p ->
          let a : Res_cq.Atom.t = atoms.(p) in
          let data = Eval.view_data view a.rel in
          let live = Eval.view_live view a.rel in
          (* repeated-variable atoms R(x,x) only match diagonal tuples *)
          let tids =
            match a.args with
            | [ w0; w1 ] when w0 = w1 ->
              let keep = ref [] in
              for i = Array.length live - 1 downto 0 do
                let tid = live.(i) in
                if data.col0.(tid) = data.col1.(tid) then keep := tid :: !keep
              done;
              Array.of_list !keep
            | _ -> live
          in
          let k = Array.length tids in
          let exo = Bytes.make k '\000' in
          if Res_cq.Query.is_exogenous q a.rel then Bytes.fill exo 0 k '\001'
          else begin
            match fact_exogenous with
            | None -> ()
            | Some pred ->
              let rows = Eval.view_rows view a.rel in
              Array.iteri
                (fun i tid ->
                  if pred (Database.fact a.rel rows.(tid)) then Bytes.set exo i '\001')
                tids
          end;
          {
            Flowbuild.tids;
            src_keys = keys_for a data bounds.(p) tids;
            dst_keys = keys_for a data bounds.(p + 1) tids;
            exo;
          })
    in
    Flowbuild.build ~guard:(fun () -> Cancel.guard cancel) layers
  in
  Cancel.guard cancel;
  let flow = Obs.span ~cat:"flow" "maxflow" (fun () -> Flowbuild.max_flow t) in
  Cancel.guard cancel;
  if flow >= Flowbuild.infinite then Solution.Unbreakable
  else begin
    let cut = Obs.span ~cat:"flow" "mincut" (fun () -> Flowbuild.min_cut_tuples t) in
    (* duplicate edges of a self-joined tuple collapse on (relation,
       tuple id) before any fact is materialized *)
    let tagged =
      List.map (fun (p, tid) -> (atoms.(p).Res_cq.Atom.rel, tid)) cut
      |> List.sort_uniq (fun (r1, t1) (r2, t2) ->
             let c = String.compare r1 r2 in
             if c <> 0 then c else Int.compare t1 t2)
    in
    let with_facts =
      List.map (fun (rel, tid) -> (Eval.view_fact view rel tid, rel, tid)) tagged
      |> List.sort (fun (f, _, _) (g, _, _) -> fact_compare f g)
    in
    let cut_facts = List.map (fun (f, _, _) -> f) with_facts in
    let contingency =
      Obs.span ~cat:"flow" "minimalize" @@ fun () ->
      Tuning.minimalize ~cancel db q cut_facts
    in
    (* map the kept facts back to tuple ids (both lists share the
       fact_compare order, so one linear merge suffices) and verify the
       falsification on the interned columns — no recompile *)
    let removed_ids =
      let rec merge kept all acc =
        match (kept, all) with
        | [], _ -> acc
        | _, [] -> assert false
        | k :: kept', (f, rel, tid) :: all' ->
          if fact_compare k f = 0 then merge kept' all' ((rel, tid) :: acc)
          else merge kept all' acc
      in
      merge contingency with_facts []
    in
    let by_rel = Hashtbl.create 4 in
    List.iter
      (fun (rel, tid) ->
        let cur = try Hashtbl.find by_rel rel with Not_found -> [] in
        Hashtbl.replace by_rel rel (tid :: cur))
      removed_ids;
    let removals =
      Hashtbl.fold
        (fun rel tids acc ->
          let arr = Array.of_list tids in
          Array.sort Int.compare arr;
          (rel, arr) :: acc)
        by_rel []
    in
    assert (not (Eval.view_sat_removed view removals));
    Solution.Finite (List.length contingency, contingency)
  end

(* ---- the structural path ----------------------------------------------- *)

(* Queries with an atom of arity > 2 have no columnar view; their network
   is built from the structural tuples.  (Only columnar instances are
   semijoin-reduced, so there is no pre-pass here.) *)

let solve_structural ~cancel ~fact_exogenous db (q : Res_cq.Query.t) atoms bounds =
  let m = Array.length atoms in
  let source = 0 and sink = 1 in
  let net, edge_facts =
    Obs.span ~cat:"flow" "build" @@ fun () ->
    let net = Maxflow.create 2 in
    let node_ids : (int * Database.tuple, int) Hashtbl.t = Hashtbl.create 64 in
    let node p key =
      if p = 0 then source
      else if p = m then sink
      else begin
        match Hashtbl.find_opt node_ids (p, key) with
        | Some v -> v
        | None ->
          let v = Maxflow.add_node net in
          Hashtbl.replace node_ids (p, key) v;
          v
      end
    in
    let edge_facts : (Maxflow.edge, Database.fact) Hashtbl.t = Hashtbl.create 256 in
    for p = 0 to m - 1 do
      let a = atoms.(p) in
      let exo_rel = Res_cq.Query.is_exogenous q a.Res_cq.Atom.rel in
      List.iter
        (fun tuple ->
          Cancel.guard cancel;
          match match_atom a tuple with
          | None -> ()
          | Some subst ->
            let key_of vars = List.map (fun v -> List.assoc v subst) vars in
            let src = node p (key_of bounds.(p)) in
            let dst = node (p + 1) (key_of bounds.(p + 1)) in
            let f = Database.fact a.Res_cq.Atom.rel tuple in
            let cap = if exo_rel || fact_exogenous f then Maxflow.infinite else 1 in
            let e = Maxflow.add_edge net ~src ~dst ~cap in
            if cap = 1 then Hashtbl.replace edge_facts e f)
        (Database.tuples_of db a.Res_cq.Atom.rel)
    done;
    (net, edge_facts)
  in
  Cancel.guard cancel;
  let flow = Obs.span ~cat:"flow" "maxflow" (fun () -> Maxflow.max_flow net ~src:source ~dst:sink) in
  Cancel.guard cancel;
  if flow >= Maxflow.infinite then Solution.Unbreakable
  else begin
    let cut =
      Obs.span ~cat:"flow" "mincut" (fun () -> snd (Maxflow.min_cut net ~src:source))
    in
    let cut_facts =
      List.filter_map (fun e -> Hashtbl.find_opt edge_facts e) cut
      |> List.sort_uniq fact_compare
    in
    (* Greedy minimalization: duplicate edges of a self-joined tuple may
       have put redundant facts in the cut.  For sj-free queries the cut
       has no duplicates anyway, and each greedy step pays a full
       [Eval.sat] over the database — [Tuning] gates it on instance
       size. *)
    let contingency =
      Obs.span ~cat:"flow" "minimalize" @@ fun () ->
      Tuning.minimalize ~cancel db q cut_facts
    in
    assert (not (Eval.sat (Database.remove_all db contingency) q));
    Solution.Finite (List.length contingency, contingency)
  end

let solve ?(cancel = Cancel.never) ?fact_exogenous db (q : Res_cq.Query.t) =
  match Linearity.linear_order q with
  | None -> None
  | Some order ->
    Obs.span ~cat:"flow" "solve" @@ fun () ->
    let atoms = Array.of_list order in
    let bounds = boundaries atoms in
    Some
      (match Eval.view db q with
      | Some view -> solve_kernel ~cancel ~fact_exogenous view db q atoms bounds
      | None ->
        let fact_exogenous = Option.value fact_exogenous ~default:(fun _ -> false) in
        solve_structural ~cancel ~fact_exogenous db q atoms bounds)

let solve_exn ?cancel ?fact_exogenous db q =
  match solve ?cancel ?fact_exogenous db q with
  | Some s -> s
  | None -> invalid_arg "Flow.solve_exn: query is not linear"
