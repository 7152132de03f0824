type bound = { value : int; cover : int list }

let covers_set ilp s =
  Array.for_all (fun c -> not (Iset.disjoint c s)) (Ilp.constraints ilp)

let of_cover cover = { value = Iset.cardinal cover; cover = Iset.elements cover }

(* Repeatedly pick the variable hitting the most uncovered constraints. *)
let greedy ilp =
  let rec go remaining acc =
    match remaining with
    | [] -> acc
    | _ ->
      let counts = Hashtbl.create 64 in
      List.iter
        (fun c ->
          Iset.iter
            (fun v -> Hashtbl.replace counts v (1 + try Hashtbl.find counts v with Not_found -> 0))
            c)
        remaining;
      let best_v, best_c =
        Hashtbl.fold (fun v c (bv, bc) -> if c > bc || (c = bc && v < bv) then (v, c) else (bv, bc))
          counts (-1, 0)
      in
      if best_c = 0 then acc
      else
        go (List.filter (fun c -> not (Iset.mem best_v c)) remaining) (Iset.add best_v acc)
  in
  of_cover (go (Array.to_list (Ilp.constraints ilp)) Iset.empty)

(* Local search: drop redundant variables, then try replacing any two
   chosen variables by a single one, until a fixpoint.  Capped so the
   polish never dominates the exact search it is meant to seed; [stop] is
   polled once per candidate tested, and when it answers true the search
   keeps the cover it has — every intermediate cover is valid. *)
let improve ?(max_rounds = 8) ?(stop = fun () -> false) ilp b =
  let too_big = Ilp.n_vars ilp > 400 || List.length b.cover > 60 in
  if too_big then b
  else begin
    let reduce cover =
      List.fold_left
        (fun kept v ->
          let candidate = Iset.remove v kept in
          if covers_set ilp candidate then candidate else kept)
        cover (Iset.elements cover)
    in
    let vars = Ilp.vars ilp in
    let find_single base =
      let n = Array.length vars in
      let rec go i =
        if i >= n || stop () then None
        else begin
          let w = vars.(i) in
          if Iset.mem w base then go (i + 1)
          else if covers_set ilp (Iset.add w base) then Some w
          else go (i + 1)
        end
      in
      go 0
    in
    let swap_once cover =
      let elems = Iset.elements cover in
      let rec outer = function
        | [] -> None
        | u :: rest ->
          let rec inner = function
            | [] -> outer rest
            | v :: more -> begin
              let base = Iset.remove u (Iset.remove v cover) in
              match find_single base with
              | Some w -> Some (Iset.add w base)
              | None -> inner more
            end
          in
          inner rest
      in
      outer elems
    in
    let rec loop round cover =
      let cover = reduce cover in
      if round >= max_rounds || stop () then cover
      else begin
        match swap_once cover with
        | Some better -> loop (round + 1) better
        | None -> cover
      end
    in
    of_cover (loop 0 (Iset.of_list b.cover))
  end

let best ?stop ilp = improve ?stop ilp (greedy ilp)

let check ilp b =
  b.value >= List.length (List.sort_uniq compare b.cover) && Ilp.covers ilp b.cover

let facts ilp b = List.filter_map (Ilp.fact_of_var ilp) b.cover
