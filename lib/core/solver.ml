open Res_db

type trace = {
  component : Res_cq.Query.t;
  algorithm : string;
  solution : Solution.t;
}

(* Materialize the exogenous split on the database: each copy holds its
   base relation's tuples. *)
let extend_db_for_split db copies =
  List.fold_left
    (fun db (copy, base) -> Database.with_relation db copy (Database.tuples_of db base))
    db copies

let mirror_db db (q : Res_cq.Query.t) =
  List.fold_left
    (fun acc rel ->
      let tuples = Database.tuples_of db rel in
      let binary = match Res_cq.Query.arity_of q rel with 2 -> true | _ -> false | exception Not_found -> false in
      List.fold_left
        (fun acc t ->
          let t' = if binary then List.rev t else t in
          Database.add_row acc rel t')
        acc tuples)
    Database.empty (Database.relations db)

let mirror_solution (q : Res_cq.Query.t) = function
  | Solution.Unbreakable -> Solution.Unbreakable
  | Solution.Finite (v, facts) ->
    let unflip (f : Database.fact) =
      match Res_cq.Query.arity_of q f.rel with
      | 2 -> { f with tuple = List.rev f.tuple }
      | _ -> f
      | exception Not_found -> f
    in
    Solution.Finite (v, List.map unflip facts)

(* Run [k rel_map db q] against the template, trying the mirrored query if
   the direct orientation does not match. *)
let try_template tmpl db q k =
  match Query_iso.match_template tmpl q with
  | None -> None
  | Some (rel_map, false) -> Some (k rel_map db q)
  | Some (rel_map, true) ->
    Some (mirror_solution q (k rel_map (mirror_db db q) (Query_iso.mirror q)))

let rel rel_map name = List.assoc name rel_map

(* An exact search that hit its deadline, carrying the incumbent and the
   certified root lower bound — unwinds out of the dispatcher to the
   component combiner. *)
exception Partial_exact of Solution.t * int

let exact_bounded ?pool cancel db q =
  match Exact.resilience_bounded ~cancel ?pool db q with
  | Exact.Complete s -> s
  | Exact.Interrupted { incumbent; lb } -> raise (Partial_exact (incumbent, lb))

let dispatch_ptime ~cancel ?pool (m : Classify.ptime_method) db q =
  let exact_bounded = exact_bounded ?pool in
  let fallback note =
    (* last polynomial resort before exact search: the instance-level
       bipartite witness cover (twin collapse + König) *)
    match Special.solve_witness_bipartite db q with
    | Some s -> (Printf.sprintf "bipartite witness cover (%s)" note, s)
    | None -> (Printf.sprintf "exact (fallback: %s)" note, exact_bounded cancel db q)
  in
  match m with
  | Classify.Trivial_no_endogenous ->
    if Eval.sat db q then ("trivial", Solution.Unbreakable) else ("trivial", Solution.Finite (0, []))
  | Classify.Sj_free_no_triad | Classify.Confluence_flow -> begin
    match Flow.solve ~cancel db q with
    | Some s ->
      let name =
        if m = Classify.Confluence_flow then "confluence flow (Prop 31)" else "linear flow [31]"
      in
      (name, s)
    | None -> fallback "triad-free but not linear; linearization of [14] out of scope"
  end
  | Classify.Unbound_permutation -> begin
    let direct =
      try_template "R(x,y), R(y,x)" db q (fun rm db q ->
          Special.solve_perm ~r:(rel rm "R") db q)
    in
    let with_a () =
      try_template "A(x), R(x,y), R(y,x)" db q (fun rm db q ->
          Special.solve_a_perm ~a:(rel rm "A") ~r:(rel rm "R") db q)
    in
    match direct with
    | Some s -> ("permutation witness pairs (Prop 33)", s)
    | None -> begin
      match with_a () with
      | Some s -> ("permutation bipartite VC (Prop 33)", s)
      | None -> begin
        match Res_cq.Query.repeated_relations q with
        | [ r ] -> begin
          match Special.solve_unbound_permutation ~r db q with
          | Some s -> ("unbound permutation pair-collapse flow (Prop 35 case 1)", s)
          | None -> fallback "unbound permutation not pair-collapsible"
        end
        | _ -> fallback "unbound permutation without unique self-join"
      end
    end
  end
  | Classify.Rep_shared_flow -> begin
    match
      try_template "R(x,x), R(x,y), A(y)" db q (fun rm db q ->
          Special.solve_z3 ~r:(rel rm "R") ~a:(rel rm "A") db q)
    with
    | Some s -> ("z3 bipartite VC (Prop 36)", s)
    | None -> begin
      (* Prop 36 general case: off-diagonal tuples of the self-join
         relation are never needed; treat them as exogenous and flow. *)
      match Res_cq.Query.repeated_relations q with
      | [ r ] -> begin
        let off_diag (f : Database.fact) =
          f.rel = r && match f.tuple with [ a; b ] -> not (Value.equal a b) | _ -> false
        in
        match Flow.solve ~cancel ~fact_exogenous:off_diag db q with
        | Some s -> ("REP flow with exogenous off-diagonal (Prop 36)", s)
        | None -> fallback "REP expansion not linear"
      end
      | _ -> fallback "REP expansion without unique self-join"
    end
  end
  | Classify.Perm3_flow -> begin
    match
      try_template "A(x), R(x,y), R(y,z), R(z,y)" db q (fun rm db q ->
          Special.solve_a3perm ~a:(rel rm "A") ~r:(rel rm "R") db q)
    with
    | Some s -> ("qA3perm-R flow (Prop 13)", s)
    | None -> begin
      match
        try_template "S(w,x), R(x,y), R(y,z), R(z,y)" db q (fun rm db q ->
            Special.solve_swx3perm ~s:(rel rm "S") ~r:(rel rm "R") db q)
      with
      | Some s -> ("qSwx3perm-R flow (Prop 44)", s)
      | None -> fallback "3-permutation template mismatch"
    end
  end
  | Classify.Ts3conf_flow -> begin
    match
      try_template "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)" db q (fun rm db q ->
          Special.solve_ts3conf ~t_rel:(rel rm "T") ~r:(rel rm "R") ~s_rel:(rel rm "S") db q)
    with
    | Some s -> ("qTS3conf forced tuples + flow (Prop 41)", s)
    | None -> fallback "qTS3conf template mismatch"
  end

(* One component: [`Done trace], or [`Partial (Some ub, lb)] when the
   exact search was interrupted with an incumbent and a certified lower
   bound, or [`Partial (None, 0)] when a polynomial solver was cancelled
   mid-run (nothing to salvage). *)
let solve_component ~cancel ?pool db qc =
  let { Classify.query = q'; copies; verdict; _ } = Classify.classify_component qc in
  let db = extend_db_for_split db copies in
  let exact_bounded = exact_bounded ?pool in
  match
    match verdict with
    | Classify.Ptime m -> dispatch_ptime ~cancel ?pool m db q'
    | Classify.Np_complete r ->
      ( Printf.sprintf "exact (NP-complete: %s)" (Classify.reason_to_string r),
        exact_bounded cancel db q' )
    | Classify.Open_problem s -> (Printf.sprintf "exact (open: %s)" s, exact_bounded cancel db q')
    | Classify.Unknown s -> (Printf.sprintf "exact (unknown: %s)" s, exact_bounded cancel db q')
    | Classify.Heuristic s ->
      (Printf.sprintf "exact (heuristic: %s)" s, exact_bounded cancel db q')
  with
  | algorithm, solution -> `Done { component = q'; algorithm; solution }
  | exception Partial_exact (ub, lb) -> `Partial (Some ub, lb)
  | exception Cancel.Cancelled -> `Partial (None, 0)

(* ρ is the minimum over components (Lemma 14): the smaller of two
   [Finite] answers wins, [Unbreakable] is the identity. *)
let min_solution a b =
  match (a, b) with
  | Solution.Unbreakable, s | s, Solution.Unbreakable -> s
  | Solution.Finite (v1, _), Solution.Finite (v2, _) -> if v2 < v1 then b else a

type bounded =
  | Done of Solution.t * trace list
  | Timeout of Res_bounds.Interval.t

let interval_of_solution = function
  | Solution.Unbreakable -> Res_bounds.Interval.unbreakable
  | Solution.Finite (v, facts) -> Res_bounds.Interval.optimal ~witness_set:facts v

let solve_bounded ?(cancel = Cancel.never) ?pool db q =
  let minimized = Res_cq.Homomorphism.minimize q in
  let comps = Res_cq.Components.split minimized in
  let results = List.map (solve_component ~cancel ?pool db) comps in
  let timed_out = List.exists (function `Partial _ -> true | `Done _ -> false) results in
  if not timed_out then begin
    let best =
      List.fold_left
        (fun acc -> function `Done t -> min_solution acc t.solution | `Partial _ -> acc)
        Solution.Unbreakable results
    in
    Done (best, List.filter_map (function `Done t -> Some t | `Partial _ -> None) results)
  end
  else begin
    (* Every finished component value and every interrupted incumbent is
       a sound upper bound on the minimum (deleting one component's
       contingency set already falsifies the conjunction); every
       component's certified lower bound lower-bounds its ρ, and ρ is
       their minimum — so intervals combine by
       {!Res_bounds.Interval.min_components}. *)
    let interval =
      List.fold_left
        (fun acc r ->
          let iv =
            match r with
            | `Done t -> interval_of_solution t.solution
            | `Partial (Some (Solution.Finite (v, facts)), lb) ->
              Res_bounds.Interval.of_bounds ~witness_set:facts ~lb ~ub:(Some v) ()
            | `Partial (Some Solution.Unbreakable, lb) | `Partial (None, lb) ->
              Res_bounds.Interval.lower_only lb
          in
          Res_bounds.Interval.min_components acc iv)
        Res_bounds.Interval.unbreakable results
    in
    Timeout interval
  end

let solve_traced db q =
  match solve_bounded db q with
  | Done (best, traces) -> (best, traces)
  | Timeout _ -> assert false (* Cancel.never cannot fire *)

let solve db q = fst (solve_traced db q)
let value db q = Solution.value (solve db q)

(* Kept under this name for the service workload's generator. *)
let min_contingency = Responsibility.min_contingency
