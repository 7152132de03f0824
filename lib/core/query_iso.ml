open Res_cq

module SM = Map.Make (String)

(* Backtracking: match atoms of q1 to atoms of q2 bijectively, maintaining
   bijections on variables and on relation names (exogeneity must agree). *)
let isomorphic (q1 : Query.t) (q2 : Query.t) =
  if List.length (Query.atoms q1) <> List.length (Query.atoms q2) then None
  else begin
  let a1 = Query.atoms q1 and a2 = Query.atoms q2 in
  let rec assoc_vars vmap vrev args1 args2 =
    match (args1, args2) with
    | [], [] -> Some (vmap, vrev)
    | v1 :: r1, v2 :: r2 -> begin
      match (SM.find_opt v1 vmap, SM.find_opt v2 vrev) with
      | Some w, _ when w <> v2 -> None
      | _, Some w when w <> v1 -> None
      | _ -> assoc_vars (SM.add v1 v2 vmap) (SM.add v2 v1 vrev) r1 r2
    end
    | _ -> None
  in
  let result = ref None in
  let rec go vmap vrev rmap rrev remaining1 remaining2 =
    match remaining1 with
    | [] ->
      result := Some (SM.bindings rmap, SM.bindings vmap);
      true
    | (a : Atom.t) :: rest1 ->
      List.exists
        (fun (b : Atom.t) ->
          Atom.arity a = Atom.arity b
          && Query.is_exogenous q1 a.rel = Query.is_exogenous q2 b.rel
          && (match (SM.find_opt a.rel rmap, SM.find_opt b.rel rrev) with
             | Some r, _ when r <> b.rel -> false
             | _, Some r when r <> a.rel -> false
             | _ -> true)
          &&
          match assoc_vars vmap vrev a.args b.args with
          | None -> false
          | Some (vmap', vrev') ->
            go vmap' vrev'
              (SM.add a.rel b.rel rmap)
              (SM.add b.rel a.rel rrev)
              rest1
              (List.filter (fun c -> not (Atom.equal b c)) remaining2))
        remaining2
  in
  if go SM.empty SM.empty SM.empty SM.empty a1 a2 then !result else None
  end

let find_iso = isomorphic
let isomorphic q1 q2 = find_iso q1 q2 <> None

let matches_template q s = isomorphic q (Parser.query s)

let mirror (q : Query.t) =
  let exo = List.filter (Query.is_exogenous q) (Query.relations q) in
  let atoms =
    List.map
      (fun (a : Atom.t) ->
        match a.args with [ x; y ] -> Atom.make a.rel [ y; x ] | _ -> a)
      (Query.atoms q)
  in
  Query.make ~exo atoms

let match_template tmpl q =
  match find_iso tmpl q with
  | Some (rel_map, _) -> Some (rel_map, false)
  | None -> Option.map (fun (rel_map, _) -> (rel_map, true)) (find_iso tmpl (mirror q))

let matches_template_upto_mirror q s = match_template (Parser.query s) q <> None
