open Res_cq

type t = Binary_ssj | Sjf_any_arity | General

let to_string = function
  | Binary_ssj -> "binary-ssj"
  | Sjf_any_arity -> "sjf-any-arity"
  | General -> "general"

(* Two exogenous occurrences of the same relation can be treated as two
   distinct exogenous relations over identical instances: exogenous tuples
   are never deleted, so contingency sets and witnesses are unaffected.
   This rewrite lets the sj-free machinery apply when only exogenous
   relations repeat.  Copies are named [R__k], skipping every name the
   query already uses, and reported with their base relation — callers
   read the map rather than parse names. *)
let fresh_relation taken base =
  let rec go k =
    let name = Printf.sprintf "%s__%d" base k in
    if taken name then go (k + 1) else name
  in
  go 1

let split_exogenous_self_joins (q : Query.t) =
  let repeated_exo = List.filter (Query.is_exogenous q) (Query.repeated_relations q) in
  if repeated_exo = [] then (q, [])
  else begin
    let taken = Hashtbl.create 8 in
    List.iter (fun r -> Hashtbl.replace taken r ()) (Query.relations q);
    let copies = ref [] in
    let fresh base =
      let name = fresh_relation (Hashtbl.mem taken) base in
      Hashtbl.replace taken name ();
      copies := (name, base) :: !copies;
      name
    in
    let atoms =
      List.map
        (fun (a : Atom.t) -> if List.mem a.rel repeated_exo then Atom.make (fresh a.rel) a.args else a)
        (Query.atoms q)
    in
    let copies = List.rev !copies in
    let exo =
      List.concat_map
        (fun rel ->
          if List.mem rel repeated_exo then
            List.filter_map (fun (c, b) -> if b = rel then Some c else None) copies
          else if Query.is_exogenous q rel then [ rel ]
          else [])
        (Query.relations q)
    in
    (Query.make ~exo atoms, copies)
  end

(* Self-join-freeness is checked first: an sjf binary query belongs to
   both charted fragments, and the sjf dichotomy is the more general
   result — the binary-ssj pipeline would reach the same verdict through
   the same triad test anyway. *)
let of_component q =
  if Query.is_sj_free q then Sjf_any_arity
  else if Query.is_ssj q && Query.is_binary q then Binary_ssj
  else General

let join a b =
  match (a, b) with
  | General, _ | _, General -> General
  | Binary_ssj, _ | _, Binary_ssj -> Binary_ssj
  | Sjf_any_arity, Sjf_any_arity -> Sjf_any_arity

let of_query q =
  let comps = Components.split (Homomorphism.minimize q) in
  List.fold_left
    (fun acc c ->
      join acc (of_component (fst (split_exogenous_self_joins (Domination.normalize c)))))
    Sjf_any_arity comps
