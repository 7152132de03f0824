open Res_db
module Maxflow = Res_graph.Maxflow

type certificate =
  | Disjoint of int list
  | Fractional of { weights : int array; denom : int }

type bound = { value : int; certificate : certificate; name : string }

let value b = b.value
let name b = b.name

let pp ppf b =
  match b.certificate with
  | Disjoint idxs ->
    Format.fprintf ppf "%s ≥ %d (disjoint witnesses %a)" b.name b.value
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int)
      idxs
  | Fractional { weights; denom } ->
    Format.fprintf ppf "%s ≥ %d (fractional packing Σw/%d, %d weights)" b.name b.value denom
      (Array.length weights)

(* ---- greedy disjoint packing -------------------------------------- *)

let packing ilp =
  let cs = Ilp.constraints ilp in
  let order = Array.init (Array.length cs) (fun i -> i) in
  Array.sort
    (fun i j -> compare (Iset.cardinal cs.(i), i) (Iset.cardinal cs.(j), j))
    order;
  let used = ref Iset.empty in
  let chosen = ref [] in
  Array.iter
    (fun i ->
      if Iset.disjoint cs.(i) !used then begin
        used := Iset.union !used cs.(i);
        chosen := i :: !chosen
      end)
    order;
  let idxs = List.rev !chosen in
  { value = List.length idxs; certificate = Disjoint idxs; name = "packing" }

(* ---- LP relaxation, rationalized ---------------------------------- *)

(* Fixed-point scale for turning float dual values into integer weights.
   The certificate stores w_i = ⌊y_i·2^20⌋ with a denominator that is
   bumped to the largest exact integer column sum, so feasibility of
   w/denom holds by construction and is re-checkable without floats.
   ⌈Σw/denom⌉ recovers ⌈lp⌉ whenever the simplex answer is accurate to
   better than one unit — and is a sound lower bound regardless. *)
let scale = 1 lsl 20

let column_sums ilp weights =
  let cs = Ilp.constraints ilp in
  Array.map
    (fun v ->
      let s = ref 0 in
      Array.iteri (fun i c -> if Iset.mem v c then s := !s + weights.(i)) cs;
      !s)
    (Ilp.vars ilp)

let lp ilp =
  let n = Ilp.n_constraints ilp in
  if n = 0 then { value = 0; certificate = Fractional { weights = [||]; denom = 1 }; name = "lp" }
  else begin
    let res =
      if Res_obs.Obs.enabled () then
        Res_obs.Obs.span ~cat:"lp" "simplex"
          ~args:[ ("constraints", string_of_int n) ]
          (fun () -> Simplex.packing_lp ilp)
      else Simplex.packing_lp ilp
    in
    let weights =
      Array.map (fun y -> max 0 (int_of_float (floor (y *. float_of_int scale)))) res.solution
    in
    let denom = Array.fold_left max scale (column_sums ilp weights) in
    let total = Array.fold_left ( + ) 0 weights in
    let value = (total + denom - 1) / denom in
    { value; certificate = Fractional { weights; denom }; name = "lp" }
  end

(* ---- flow dual ----------------------------------------------------- *)

(* Max-flow on the layered witness network is the LP dual specialized to
   linear queries: decompose the flow into unit source→sink paths, each
   path is a witness, and witnesses on distinct paths share no cap-1
   edge.  On self-join queries the same fact can back two edges at
   different atom positions, so path fact-sets may still overlap — the
   greedy disjointness filter below keeps the certificate sound in all
   cases, and loses nothing in the sj-free linear case where min cut
   equals ρ. *)
let flow_dual ~order ilp =
  match (Ilp.instance_db ilp, Ilp.instance_query ilp) with
  | None, _ | _, None -> None
  | Some db, Some q ->
    if order = [] || Ilp.n_constraints ilp = 0 then None
    else begin
      let net = Witness_net.create q (Array.of_list order) db in
      Witness_net.augment net;
      let flow = Witness_net.value net in
      if flow <= 0 || flow >= Maxflow.infinite then None
      else begin
        let paths =
          List.map
            (List.fold_left
               (fun vars f ->
                 match Ilp.var_of_fact ilp f with Some v -> Iset.add v vars | None -> vars)
               Iset.empty)
            (Witness_net.flow_paths net)
        in
        (* Each path's endogenous facts contain some minimal witness:
           pick one covering constraint per path, greedily disjoint. *)
        let cs = Ilp.constraints ilp in
        let used = ref Iset.empty in
        let chosen = ref [] in
        List.iter
          (fun p ->
            let rec find i =
              if i >= Array.length cs then None
              else if Iset.subset cs.(i) p && Iset.disjoint cs.(i) !used then Some i
              else find (i + 1)
            in
            match find 0 with
            | Some i ->
              used := Iset.union !used cs.(i);
              chosen := i :: !chosen
            | None -> ())
          paths;
        match List.rev !chosen with
        | [] -> None
        | idxs -> Some { value = List.length idxs; certificate = Disjoint idxs; name = "flow-dual" }
      end
    end

(* ---- exact-integer certificate check ------------------------------- *)

let check ilp b =
  b.value >= 0
  &&
  match b.certificate with
  | Disjoint idxs ->
    let cs = Ilp.constraints ilp in
    let n = Array.length cs in
    List.for_all (fun i -> i >= 0 && i < n && not (Iset.is_empty cs.(i))) idxs
    && (let rec pairwise used = function
          | [] -> true
          | i :: rest -> Iset.disjoint cs.(i) used && pairwise (Iset.union used cs.(i)) rest
        in
        pairwise Iset.empty idxs)
    && b.value <= List.length idxs
  | Fractional { weights; denom } ->
    denom >= 1
    && Array.length weights = Ilp.n_constraints ilp
    && Array.for_all (fun w -> w >= 0) weights
    && Array.for_all (fun s -> s <= denom) (column_sums ilp weights)
    &&
    let total = Array.fold_left ( + ) 0 weights in
    b.value <= (total + denom - 1) / denom

(* ---- front doors --------------------------------------------------- *)

let best ?order ilp =
  let candidates =
    [ Some (packing ilp); Some (lp ilp) ]
    @ [ (match order with Some o -> flow_dual ~order:o ilp | None -> None) ]
  in
  let checked = List.filter (check ilp) (List.filter_map (fun b -> b) candidates) in
  match checked with
  | [] -> { value = 0; certificate = Disjoint []; name = "trivial" }
  | b :: rest -> List.fold_left (fun acc b -> if b.value > acc.value then b else acc) b rest

let lp_value sets =
  match sets with
  | [] -> 0
  | _ ->
    Res_obs.Obs.span ~cat:"lp" "value" @@ fun () ->
    let ilp = Ilp.of_sets ~minimized:true sets in
    let b = lp ilp in
    if check ilp b then b.value else (packing ilp).value

let lp_value_warm ?warm sets =
  match sets with
  | [] -> (0, [||])
  | _ ->
    Res_obs.Obs.span ~cat:"lp" "value-warm" @@ fun () ->
    let ilp = Ilp.of_sets ~minimized:true sets in
    if Ilp.n_constraints ilp = 0 then (0, [||])
    else begin
      let res = Simplex.packing_lp ?warm ilp in
      let weights =
        Array.map (fun y -> max 0 (int_of_float (floor (y *. float_of_int scale)))) res.solution
      in
      let denom = Array.fold_left max scale (column_sums ilp weights) in
      let total = Array.fold_left ( + ) 0 weights in
      let value = (total + denom - 1) / denom in
      let b = { value; certificate = Fractional { weights; denom }; name = "lp-warm" } in
      let sound = if check ilp b then b.value else (packing ilp).value in
      (sound, res.basis)
    end
