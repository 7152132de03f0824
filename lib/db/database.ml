type tuple = Value.t list
type fact = { rel : string; tuple : tuple }

module Fact_set = Set.Make (struct
  type t = fact

  let compare = Stdlib.compare
end)

module Smap = Map.Make (String)
module Tset = Set.Make (struct
  type t = tuple

  let compare = Stdlib.compare
end)

type t = Tset.t Smap.t

let empty = Smap.empty

let add db f =
  let cur = try Smap.find f.rel db with Not_found -> Tset.empty in
  Smap.add f.rel (Tset.add f.tuple cur) db

let fact rel tuple = { rel; tuple }

(* Relation name, then the tuple under [Value.compare]: the order of
   [Stdlib.compare] on facts, without polymorphic compare. *)
let compare_fact f g =
  let c = String.compare f.rel g.rel in
  if c <> 0 then c else List.compare Value.compare f.tuple g.tuple
let add_row db rel tuple = add db { rel; tuple }

let remove db f =
  match Smap.find_opt f.rel db with
  | None -> db
  | Some set ->
    let set' = Tset.remove f.tuple set in
    if Tset.is_empty set' then Smap.remove f.rel db else Smap.add f.rel set' db

let remove_all db fs = List.fold_left remove db fs
let mem db f = match Smap.find_opt f.rel db with None -> false | Some s -> Tset.mem f.tuple s
let of_facts fs = List.fold_left add empty fs

let facts db =
  Smap.fold (fun rel set acc -> Tset.fold (fun t acc -> { rel; tuple = t } :: acc) set acc) db []
  |> List.rev

(* Bulk load: one [Tset.of_list] per relation instead of n tree inserts —
   the difference between loading a 10^6-tuple generated instance in
   tenths of a second vs several seconds. *)
let with_relation db rel tuples =
  let set = Tset.of_list tuples in
  if Tset.is_empty set then Smap.remove rel db else Smap.add rel set db

let of_rows rows =
  List.fold_left
    (fun db (rel, tuples) ->
      let set = Tset.of_list tuples in
      if Tset.is_empty set then db
      else
        Smap.update rel
          (function None -> Some set | Some cur -> Some (Tset.union cur set))
          db)
    empty rows

let of_int_rows rows =
  of_rows (List.map (fun (rel, tuples) -> (rel, List.map (List.map Value.i) tuples)) rows)

let tuples_of db rel =
  match Smap.find_opt rel db with None -> [] | Some s -> Tset.elements s

let relations db = Smap.fold (fun rel _ acc -> rel :: acc) db [] |> List.rev
let size db = Smap.fold (fun _ s acc -> acc + Tset.cardinal s) db 0

let active_domain db =
  let module Vset = Set.Make (struct
    type t = Value.t

    let compare = Value.compare
  end) in
  Smap.fold
    (fun _ set acc -> Tset.fold (fun t acc -> List.fold_left (fun acc v -> Vset.add v acc) acc t) set acc)
    db Vset.empty
  |> Vset.elements

let endogenous_facts db q =
  List.filter (fun f -> not (Res_cq.Query.is_exogenous q f.rel)) (facts db)

let restrict db rels = Smap.filter (fun rel _ -> List.mem rel rels) db

let union a b =
  Smap.union (fun _ s1 s2 -> Some (Tset.union s1 s2)) a b

let pp_fact ppf f =
  Format.fprintf ppf "%s(%a)" f.rel
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') Value.pp)
    f.tuple

let pp ppf db =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_fact f) (facts db);
  Format.fprintf ppf "@]"
