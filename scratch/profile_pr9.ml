open Res_db
module Flowbuild = Res_col.Flowbuild

let t0 = ref (Unix.gettimeofday ())
let lap name =
  let t = Unix.gettimeofday () in
  Printf.printf "%-34s %8.3fs\n%!" name (t -. !t0);
  t0 := t

let column_of (a : Res_cq.Atom.t) (data : Res_col.Instance.rel_data) v =
  match a.args with
  | [ w ] when w = v -> data.col0
  | [ w0; _ ] when w0 = v -> data.col0
  | [ _; w1 ] when w1 = v -> data.col1
  | _ -> invalid_arg "column_of"

let keys_for a data vars tids =
  match vars with
  | [] -> Array.make (Array.length tids) 0
  | [ v ] ->
    let col = column_of a data v in
    Array.map (fun tid -> col.(tid)) tids
  | [ v; w ] ->
    let cv = column_of a data v and cw = column_of a data w in
    Array.map (fun tid -> (cv.(tid) lsl 31) lor cw.(tid)) tids
  | _ -> invalid_arg "keys_for"

let () =
  let n = 1_000_000 in
  let k = n / 10 in
  let q = Res_cq.Parser.query "A(x), R(x,y), R(z,y), C(z)" in
  let db =
    Database.union
      (Db_gen.bipartite ~seed:29 ~left:k ~right:k ~edges:(n - (2 * k)) ~rel:"R")
      (Database.union
         (Db_gen.unary ~count:k ~rel:"A")
         (Database.of_rows [ ("C", List.init k (fun i -> [ Value.i i ])) ]))
  in
  lap "db build";
  let atoms = Array.of_list (Res_cq.Query.atoms q) in
  let bounds = Witness_net.boundaries atoms in
  match Eval.view db q with
  | None -> print_endline "kernels off; skipping step-by-step"
  | Some view ->
  lap "Eval.view";
  let m = Array.length atoms in
  let layers =
    Array.init m (fun p ->
        let a : Res_cq.Atom.t = atoms.(p) in
        let data = Eval.view_data view a.rel in
        let live = Eval.view_live view a.rel in
        let tids = live in
        let kk = Array.length tids in
        let exo = Bytes.make kk '\000' in
        {
          Flowbuild.tids;
          src_keys = keys_for a data bounds.(p) tids;
          dst_keys = keys_for a data bounds.(p + 1) tids;
          exo;
        })
  in
  lap "layers (incl view_live)";
  let t = Flowbuild.build layers in
  lap "Flowbuild.build";
  let flow = Flowbuild.max_flow t in
  Printf.printf "flow=%d\n%!" flow;
  lap "max_flow";
  let cut = Flowbuild.min_cut_tuples t in
  lap "min_cut_tuples";
  let tagged =
    List.map (fun (p, tid) -> (atoms.(p).Res_cq.Atom.rel, tid)) cut
    |> List.sort_uniq (fun (r1, t1) (r2, t2) ->
           let c = String.compare r1 r2 in
           if c <> 0 then c else Int.compare t1 t2)
  in
  let with_facts =
    List.map (fun (rel, tid) -> (Eval.view_fact view rel tid, rel, tid)) tagged
    |> List.sort (fun (f, _, _) (g, _, _) ->
           let c = String.compare f.Database.rel g.Database.rel in
           if c <> 0 then c
           else List.compare Value.compare f.Database.tuple g.Database.tuple)
  in
  let cut_facts = List.map (fun (f, _, _) -> f) with_facts in
  lap "facts + sort";
  let contingency = Resilience.Tuning.minimalize db q cut_facts in
  lap "Tuning.minimalize";
  Printf.printf "contingency=%d\n%!" (List.length contingency);
  let by_rel = Hashtbl.create 4 in
  List.iter
    (fun (rel, tid) ->
      let cur = try Hashtbl.find by_rel rel with Not_found -> [] in
      Hashtbl.replace by_rel rel (tid :: cur))
    (List.map (fun (_, rel, tid) -> (rel, tid)) with_facts);
  let removals =
    Hashtbl.fold
      (fun rel tids acc ->
        let arr = Array.of_list tids in
        Array.sort Int.compare arr;
        (rel, arr) :: acc)
      by_rel []
  in
  lap "group removals";
  let s = Eval.view_sat_removed view removals in
  Printf.printf "sat=%b\n%!" s;
  lap "view_sat_removed"

let () =
  t0 := Unix.gettimeofday ();
  let n = 1_000_000 in
  let k = n / 10 in
  let q = Res_cq.Parser.query "A(x), R(x,y), R(z,y), C(z)" in
  let db =
    Database.union
      (Db_gen.bipartite ~seed:29 ~left:k ~right:k ~edges:(n - (2 * k)) ~rel:"R")
      (Database.union
         (Db_gen.unary ~count:k ~rel:"A")
         (Database.of_rows [ ("C", List.init k (fun i -> [ Value.i i ])) ]))
  in
  lap "db build 2";
  (match Resilience.Flow.solve db q with
  | Some (Resilience.Solution.Finite (v, _)) -> Printf.printf "rho=%d\n%!" v
  | _ -> print_endline "?");
  lap "real Flow.solve kernel"
