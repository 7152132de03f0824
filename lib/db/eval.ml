type witness = {
  valuation : (Res_cq.Atom.var * Value.t) list;
  facts : Database.Fact_set.t;
}

module Smap = Map.Make (String)

(* ---- plane selection ---------------------------------------------------

   Two evaluators share this module's surface, and the query alone picks
   one: a query whose atoms all have arity <= 2 compiles onto the
   columnar plane in lib/col (interned ids, CSR adjacency, semijoin
   reduction, trie-join enumeration); any other query runs the
   backtracking join below. *)

let columnar_eligible (q : Res_cq.Query.t) =
  List.for_all (fun a -> Res_cq.Atom.arity a <= 2) (Res_cq.Query.atoms q)

(* ---- the backtracking join -------------------------------------------- *)

(* At each step pick the atom with the most bound variables (fail-fast);
   scan its relation's tuples filtered against the current partial
   valuation. *)

let bound_count subst (a : Res_cq.Atom.t) =
  List.length (List.filter (fun v -> Smap.mem v subst) (Res_cq.Atom.vars a))

let rec match_tuple subst args tuple =
  match (args, tuple) with
  | [], [] -> Some subst
  | v :: args', x :: tuple' -> begin
    match Smap.find_opt v subst with
    | Some y when Value.equal x y -> match_tuple subst args' tuple'
    | Some _ -> None
    | None -> match_tuple (Smap.add v x subst) args' tuple'
  end
  | _ -> None

let enumerate db (q : Res_cq.Query.t) ~emit =
  (* Lazily built hash indexes: relation -> position -> value -> tuples.
     When the chosen atom has a bound variable, the scan shrinks to the
     matching bucket instead of the whole relation. *)
  let indexes : (string * int, (Value.t, Database.tuple list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let index_for rel pos =
    match Hashtbl.find_opt indexes (rel, pos) with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 64 in
      List.iter
        (fun tuple ->
          match List.nth_opt tuple pos with
          | Some v ->
            let cur = try Hashtbl.find h v with Not_found -> [] in
            Hashtbl.replace h v (tuple :: cur)
          | None -> ())
        (Database.tuples_of db rel);
      Hashtbl.replace indexes (rel, pos) h;
      h
  in
  let candidates subst (atom : Res_cq.Atom.t) =
    (* first bound argument position, if any *)
    let rec find_bound pos = function
      | [] -> None
      | v :: rest -> begin
        match Smap.find_opt v subst with
        | Some value -> Some (pos, value)
        | None -> find_bound (pos + 1) rest
      end
    in
    match find_bound 0 atom.args with
    | Some (pos, value) -> (
      try Hashtbl.find (index_for atom.rel pos) value with Not_found -> [])
    | None -> Database.tuples_of db atom.rel
  in
  let rec go subst remaining =
    match remaining with
    | [] -> emit subst
    | _ ->
      let atom =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if bound_count subst a > bound_count subst b then Some a else best)
          None remaining
      in
      let atom = Option.get atom in
      let rest = List.filter (fun a -> a != atom) remaining in
      List.iter
        (fun tuple ->
          match match_tuple subst atom.Res_cq.Atom.args tuple with
          | Some subst' -> go subst' rest
          | None -> ())
        (candidates subst atom)
  in
  go Smap.empty (Res_cq.Query.atoms q)

exception Found

(* ---- the columnar fast path -------------------------------------------- *)

(* Integer constants, the common case, intern through the dict's
   open-addressing int table; other values hash structurally. *)
module VDict = Res_col.Dict.Make_keyed (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
  let int_key = function Value.Int n -> Some n | _ -> None
end)

type compiled = {
  dict : VDict.t;
  inst : Res_col.Instance.t;
  rows :
    (string * Res_col.Instance.rel_data * Database.tuple array * Database.tuple list) list;
      (* per relation: interned columns, right-arity tuples in tuple-id
         order, and the wrong-arity leftovers (which match no atom of
         this query) *)
}

let compile db (q : Res_cq.Query.t) =
  if not (columnar_eligible q) then None
  else begin
    let module I = Res_col.Instance in
    let dict, rels =
      Res_obs.Obs.span ~cat:"col" "intern" @@ fun () ->
      let sized = List.map (fun r -> (r, Database.cardinal db r)) (Res_cq.Query.relations q) in
      (* one value per tuple is the expected distinct count; the table
         grows past it on demand *)
      let hint = List.fold_left (fun n (_, m) -> n + m) 0 sized in
      let dict = VDict.create ~hint () in
      (* The columns fill straight from the tuple set: tuple ids in set
         order, wrong-arity tuples (rare) set aside in that order. *)
      let intern (r, m) =
        let ar = Res_cq.Query.arity_of q r in
        let col0 = Array.make m 0 and col1 = Array.make (if ar = 2 then m else 0) 0 in
        let rows = Array.make m [] and k = ref 0 and wrong = ref [] in
        Database.iter_tuples db r (fun t ->
            match t with
            | [ a ] when ar = 1 ->
              col0.(!k) <- VDict.intern dict a;
              rows.(!k) <- t;
              incr k
            | [ a; b ] when ar = 2 ->
              col0.(!k) <- VDict.intern dict a;
              col1.(!k) <- VDict.intern dict b;
              rows.(!k) <- t;
              incr k
            | _ -> wrong := t :: !wrong);
        let fit a = if Array.length a > !k then Array.sub a 0 !k else a in
        (r, { I.arity = ar; col0 = fit col0; col1 = fit col1 }, fit rows, List.rev !wrong)
      in
      (dict, List.map intern sized)
    in
    let inst =
      Res_obs.Obs.span ~cat:"col" "build" @@ fun () ->
      I.make q ~n:(VDict.size dict) (List.map (fun (r, d, _, _) -> (r, d)) rels)
    in
    (* No eager [I.reduce] here: consumers that never enumerate (the
       Special matching kernels read raw columns only) skip the
       semijoin fixpoint and index build entirely.  Paths that do need
       the reduction call [ensure_reduced] so the span still books the
       cost exactly once, where it is paid. *)
    Some { dict; inst; rows = rels }
  end

let ensure_reduced (c : compiled) =
  if not (Res_col.Instance.is_reduced c.inst) then
    Res_obs.Obs.span ~cat:"col" "semijoin" @@ fun () -> Res_col.Instance.reduce c.inst

(* ---- the shared surface ------------------------------------------------ *)

let sat db q =
  match compile db q with
  | Some c ->
    ensure_reduced c;
    Res_obs.Obs.span ~cat:"col" "enumerate" @@ fun () -> Res_col.Instance.sat c.inst
  | None -> (
    match enumerate db q ~emit:(fun _ -> raise Found) with
    | () -> false
    | exception Found -> true)

let facts_of_valuation (q : Res_cq.Query.t) valuation =
  let lookup v =
    match List.assoc_opt v valuation with
    | Some x -> x
    | None -> invalid_arg ("Eval.facts_of_valuation: unbound variable " ^ v)
  in
  List.map
    (fun (a : Res_cq.Atom.t) -> Database.fact a.rel (List.map lookup a.args))
    (Res_cq.Query.atoms q)

(* Witnesses are returned in canonical valuation order (lexicographic on
   the values in [Query.vars] order) whichever plane enumerated them, so
   output is deterministic and plane-independent. *)
let canonical ws =
  List.sort
    (fun w1 w2 ->
      List.compare Value.compare (List.map snd w1.valuation) (List.map snd w2.valuation))
    ws

let fact_set_of q valuation =
  List.fold_left
    (fun set f -> Database.Fact_set.add f set)
    Database.Fact_set.empty (facts_of_valuation q valuation)

exception Witness_limit of int

(* One witness per emitted valuation, in canonical order. *)
let collect ~limit q enum =
  let acc = ref [] in
  let n = ref 0 in
  enum (fun valuation ->
      incr n;
      if !n > limit then raise (Witness_limit limit);
      acc := { valuation; facts = fact_set_of q valuation } :: !acc);
  canonical !acc

let backtracking_witnesses ?(limit = 2_000_000) db q =
  let vars = Res_cq.Query.vars q in
  collect ~limit q (fun push ->
      enumerate db q ~emit:(fun subst -> push (List.map (fun v -> (v, Smap.find v subst)) vars)))

let witnesses ?(limit = 2_000_000) db q =
  match compile db q with
  | None -> backtracking_witnesses ~limit db q
  | Some c ->
    ensure_reduced c;
    let vars = Res_cq.Query.vars q in
    collect ~limit q (fun push ->
        Res_obs.Obs.span ~cat:"col" "enumerate" @@ fun () ->
        Res_col.Instance.enumerate c.inst ~emit:(fun b ->
            push (List.mapi (fun i v -> (v, VDict.value c.dict b.(i))) vars)))

let witness_fact_sets db q =
  let module FS = Set.Make (struct
    type t = Database.Fact_set.t

    let compare = Database.Fact_set.compare
  end) in
  List.fold_left (fun s w -> FS.add w.facts s) FS.empty (witnesses db q) |> FS.elements

let count db q =
  match compile db q with
  | Some c ->
    ensure_reduced c;
    Res_obs.Obs.span ~cat:"col" "enumerate" @@ fun () -> Res_col.Instance.count c.inst
  | None ->
    let n = ref 0 in
    enumerate db q ~emit:(fun _ -> incr n);
    !n

let reduce db q =
  match compile db q with
  | None -> db
  | Some c ->
    ensure_reduced c;
    let module I = Res_col.Instance in
    List.fold_left
      (fun acc (rel, _, arr, wrong) ->
        let keep = I.live c.inst rel in
        if Array.length keep = Array.length arr then acc
        else
          Database.with_relation acc rel
            (Array.to_list (Array.map (fun tid -> arr.(tid)) keep) @ wrong))
      db c.rows

(* ---- the shared kernel view -------------------------------------------- *)

(* A compiled, semijoin-reduced instance handed to the PTIME solver
   kernels as-is: interned columns, live tuple ids, id<->value maps.
   The kernels build their flow/matching graphs directly on the ids and
   only materialize structural facts for the final contingency set —
   [reduce]'s output is never rebuilt into a structural [Database]. *)
type view = compiled

let view = compile

let view_n v = VDict.size v.dict
let view_value v id = VDict.value v.dict id

let view_data v rel =
  match List.find_opt (fun (r, _, _, _) -> r = rel) v.rows with
  | Some (_, d, _, _) -> d
  | None -> invalid_arg ("Eval.view_data: unknown relation " ^ rel)

let view_live v rel =
  ensure_reduced v;
  Res_col.Instance.live v.inst rel

let view_rows v rel =
  match List.find_opt (fun (r, _, _, _) -> r = rel) v.rows with
  | Some (_, _, arr, _) -> arr
  | None -> invalid_arg ("Eval.view_rows: unknown relation " ^ rel)

let view_fact v rel tid = Database.fact rel (view_rows v rel).(tid)

let view_sat_removed v removed =
  (* Satisfiability of [db - removed] on the already-interned columns:
     the semijoin restarts from the view's reduced live sets when a
     kernel has read them (from every tuple otherwise), and the trie
     join builds its indexes only if that fixpoint is not empty. *)
  Res_col.Instance.sat (Res_col.Instance.without v.inst removed)

let view_removals_of_facts v facts =
  (* Re-intern the facts through the view's dict (a value the dict has
     never seen matches no tuple, so it contributes nothing) and scan
     each relation's columns for the matching tuple ids: the [without]
     exclusion lists for [view_sat_removed], built without recompiling
     the database.  Keys pack both columns into one int exactly as the
     kernel builders do. *)
  let by_rel = Hashtbl.create 8 in
  List.iter
    (fun (f : Database.fact) ->
      let cur = try Hashtbl.find by_rel f.rel with Not_found -> [] in
      Hashtbl.replace by_rel f.rel (f :: cur))
    facts;
  List.filter_map
    (fun (rel, (d : Res_col.Instance.rel_data), _, _) ->
      match Hashtbl.find_opt by_rel rel with
      | None -> None
      | Some fs ->
        let key_of (f : Database.fact) =
          match f.tuple with
          | [ a ] when d.arity = 1 -> VDict.find_opt v.dict a
          | [ a; b ] when d.arity = 2 -> (
            match (VDict.find_opt v.dict a, VDict.find_opt v.dict b) with
            | Some ia, Some ib -> Some ((ia lsl 31) lor ib)
            | _ -> None)
          | _ -> None (* wrong arity for this query: matches no atom *)
        in
        let keys =
          List.filter_map key_of fs |> List.sort_uniq Int.compare |> Array.of_list
        in
        let hi = Array.length keys in
        if hi = 0 then None
        else begin
          let tids = ref [] in
          for tid = Array.length d.col0 - 1 downto 0 do
            let k =
              if d.arity = 1 then d.col0.(tid)
              else (d.col0.(tid) lsl 31) lor d.col1.(tid)
            in
            let i = Res_col.Sorted.lower_bound keys 0 hi k in
            if i < hi && keys.(i) = k then tids := tid :: !tids
          done;
          Some (rel, Array.of_list !tids)
        end)
    v.rows
