open Res_db
module Maxflow = Res_graph.Maxflow
module Flowbuild = Res_col.Flowbuild
module Obs = Res_obs.Obs

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

let solve_kernel ~cancel ~fact_exogenous view q atoms bounds =
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
    (* the certificate: the cut's distinct tuples number exactly the flow
       value.  A cut that spent two edges on one self-joined tuple would
       fall short, the case Prop 31 (Lemma 55) and Prop 41 exclude. *)
    assert (List.length tagged = flow);
    (* the falsification, replayed on the interned columns — no
       recompile, and the semijoin restarts from the reduced live sets
       the layers were built from *)
    Obs.span ~cat:"flow" "certify" (fun () ->
        let removals =
          List.sort_uniq String.compare (List.map fst tagged)
          |> List.map (fun rel ->
                 let tids = List.filter_map (fun (r, tid) -> if r = rel then Some tid else None) tagged in
                 (rel, Array.of_list tids))
        in
        assert (not (Eval.view_sat_removed view removals)));
    let contingency =
      List.map (fun (rel, tid) -> Eval.view_fact view rel tid) tagged
      |> List.sort Database.compare_fact
    in
    Solution.Finite (flow, contingency)
  end

(* ---- the structural path ----------------------------------------------- *)

(* Queries with an atom of arity > 2 have no columnar view; their network
   is the shared structural {!Witness_net}.  (Only columnar instances are
   semijoin-reduced, so there is no pre-pass here.) *)

let solve_structural ~cancel ?fact_exogenous db (q : Res_cq.Query.t) atoms =
  let net =
    Obs.span ~cat:"flow" "build" @@ fun () ->
    Witness_net.create ~guard:(fun () -> Cancel.guard cancel) ?fact_exogenous q atoms db
  in
  Cancel.guard cancel;
  Obs.span ~cat:"flow" "maxflow" (fun () -> Witness_net.augment net);
  Cancel.guard cancel;
  if Witness_net.value net >= Maxflow.infinite then Solution.Unbreakable
  else begin
    let cut_facts = Obs.span ~cat:"flow" "mincut" (fun () -> Witness_net.cut_facts net) in
    assert (List.length cut_facts = Witness_net.value net);
    assert (not (Eval.sat (Database.remove_all db cut_facts) q));
    Solution.Finite (List.length cut_facts, cut_facts)
  end

let solve ?(cancel = Cancel.never) ?fact_exogenous db (q : Res_cq.Query.t) =
  match Linearity.linear_order q with
  | None -> None
  | Some order ->
    Obs.span ~cat:"flow" "solve" @@ fun () ->
    let atoms = Array.of_list order in
    Some
      (match Eval.view db q with
      | Some view ->
        solve_kernel ~cancel ~fact_exogenous view q atoms (Witness_net.boundaries atoms)
      | None -> solve_structural ~cancel ?fact_exogenous db q atoms)

let solve_exn ?cancel ?fact_exogenous db q =
  match solve ?cancel ?fact_exogenous db q with
  | Some s -> s
  | None -> invalid_arg "Flow.solve_exn: query is not linear"
