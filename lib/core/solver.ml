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
      Database.with_relation acc rel (if binary then List.map List.rev tuples else tuples))
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

(* ---- the plan --------------------------------------------------------- *)

type kernel =
  | Perm of { r : string }
  | Aperm of { a : string; r : string }
  | Z3 of { r : string; a : string }
  | A3perm of { a : string; r : string }
  | Swx3perm of { s : string; r : string }
  | Ts3conf of { t_rel : string; r : string; s_rel : string }

type route =
  | Trivial
  | Flow of { confluence : bool }
  | Rep_flow of string
  | Template of { kernel : kernel; mirrored : bool }
  | Pair_collapse of Special.pair_collapse
  | Fallback of string
  | Exact of string

type component = { query : Res_cq.Query.t; copies : (string * string) list; route : route }

(* The templates of each PTIME method, named by their {!Zoo} entries and
   tried in order; each builds its kernel from the template's relation
   map. *)
let templates (m : Classify.ptime_method) =
  match m with
  | Classify.Unbound_permutation ->
    [
      ("q_perm", fun rel -> Perm { r = rel "R" });
      ("q_a_perm", fun rel -> Aperm { a = rel "A"; r = rel "R" });
    ]
  | Classify.Rep_shared_flow -> [ ("z3", fun rel -> Z3 { r = rel "R"; a = rel "A" }) ]
  | Classify.Perm3_flow ->
    [
      ("q_a_3perm", fun rel -> A3perm { a = rel "A"; r = rel "R" });
      ("q_swx_3perm", fun rel -> Swx3perm { s = rel "S"; r = rel "R" });
    ]
  | Classify.Ts3conf_flow ->
    [ ("q_ts_3conf", fun rel -> Ts3conf { t_rel = rel "T"; r = rel "R"; s_rel = rel "S" }) ]
  | Classify.Trivial_no_endogenous | Classify.Sj_free_no_triad | Classify.Confluence_flow -> []

(* A PTIME method's route when none of its templates matches. *)
let untemplated (m : Classify.ptime_method) q =
  let unique_self_join what k =
    match Res_cq.Query.repeated_relations q with
    | [ r ] -> k r
    | _ -> Fallback (what ^ " without unique self-join")
  in
  match m with
  | Classify.Trivial_no_endogenous -> Trivial
  | Classify.Sj_free_no_triad | Classify.Confluence_flow ->
    if Linearity.is_linear q then Flow { confluence = m = Classify.Confluence_flow }
    else Fallback "triad-free but not linear; linearization of [14] out of scope"
  | Classify.Unbound_permutation ->
    unique_self_join "unbound permutation" (fun r ->
        match Special.pair_collapse ~r q with
        | Some pc -> Pair_collapse pc
        | None -> Fallback "unbound permutation not pair-collapsible")
  | Classify.Rep_shared_flow ->
    (* Prop 36 general case: off-diagonal tuples of the self-join relation
       are never needed; treat them as exogenous and flow. *)
    unique_self_join "REP expansion" (fun r ->
        if Linearity.is_linear q then Rep_flow r else Fallback "REP expansion not linear")
  | Classify.Perm3_flow -> Fallback "3-permutation template mismatch"
  | Classify.Ts3conf_flow -> Fallback "qTS3conf template mismatch"

let route_of (verdict : Classify.verdict) q =
  match verdict with
  | Classify.Ptime m -> begin
    let matched =
      List.find_map
        (fun (tmpl, kernel) ->
          Option.map
            (fun (rel_map, mirrored) ->
              Template { kernel = kernel (fun name -> List.assoc name rel_map); mirrored })
            (Query_iso.match_template (Zoo.find tmpl).query q))
        (templates m)
    in
    match matched with Some route -> route | None -> untemplated m q
  end
  | Classify.Np_complete r -> Exact (Printf.sprintf "exact (NP-complete: %s)" (Classify.reason_to_string r))
  | Classify.Open_problem s -> Exact (Printf.sprintf "exact (open: %s)" s)
  | Classify.Unknown s -> Exact (Printf.sprintf "exact (unknown: %s)" s)
  | Classify.Heuristic s -> Exact (Printf.sprintf "exact (heuristic: %s)" s)

let plan q =
  List.map
    (fun qc ->
      let { Classify.query; copies; verdict; _ } = Classify.classify_component qc in
      { query; copies; route = route_of verdict query })
    (Res_cq.Components.split (Res_cq.Homomorphism.minimize q))

let route_db db c =
  let db = extend_db_for_split db c.copies in
  match c.route with Template { mirrored = true; _ } -> mirror_db db c.query | _ -> db

(* ---- running a component ---------------------------------------------- *)

type answer = Value of Solution.t | Interval of Res_bounds.Interval.t

let interval_of_solution = function
  | Solution.Unbreakable -> Res_bounds.Interval.unbreakable
  | Solution.Finite (v, facts) -> Res_bounds.Interval.optimal ~witness_set:facts v

let interval_of_answer = function Value s -> interval_of_solution s | Interval iv -> iv

(* An interrupted exact search still carries its incumbent and certified
   root lower bound. *)
let exact ~cancel ?pool ?seed ?lp_state db q =
  match Exact.resilience_bounded ~cancel ?pool ?seed ?lp_state db q with
  | Exact.Complete s -> Value s
  | Exact.Interrupted { incumbent = Solution.Finite (v, facts); lb } ->
    Interval (Res_bounds.Interval.of_bounds ~witness_set:facts ~lb ~ub:(Some v) ())
  | Exact.Interrupted { incumbent = Solution.Unbreakable; lb } ->
    Interval (Res_bounds.Interval.lower_only lb)

(* A cancelled flow has nothing to salvage. *)
let flow ~cancel ?fact_exogenous db q =
  match Flow.solve_exn ~cancel ?fact_exogenous db q with
  | s -> Value s
  | exception Cancel.Cancelled -> Interval (Res_bounds.Interval.lower_only 0)

let solve_kernel kernel db q =
  match kernel with
  | Perm { r } -> ("permutation witness pairs (Prop 33)", Special.solve_perm ~r db q)
  | Aperm { a; r } -> ("permutation bipartite VC (Prop 33)", Special.solve_a_perm ~a ~r db q)
  | Z3 { r; a } -> ("z3 bipartite VC (Prop 36)", Special.solve_z3 ~r ~a db q)
  | A3perm { a; r } -> ("qA3perm-R flow (Prop 13)", Special.solve_a3perm ~a ~r db q)
  | Swx3perm { s; r } -> ("qSwx3perm-R flow (Prop 44)", Special.solve_swx3perm ~s ~r db q)
  | Ts3conf { t_rel; r; s_rel } ->
    ("qTS3conf forced tuples + flow (Prop 41)", Special.solve_ts3conf ~t_rel ~r ~s_rel db q)

let run ?(cancel = Cancel.never) ?pool ?seed ?lp_state db c =
  let q = c.query in
  let db = route_db db c in
  match c.route with
  | Trivial -> ("trivial", Value (if Eval.sat db q then Solution.Unbreakable else Solution.Finite (0, [])))
  | Flow { confluence } ->
    ((if confluence then "confluence flow (Prop 31)" else "linear flow [31]"), flow ~cancel db q)
  | Rep_flow r ->
    let off_diag (f : Database.fact) =
      f.rel = r && match f.tuple with [ a; b ] -> not (Value.equal a b) | _ -> false
    in
    ("REP flow with exogenous off-diagonal (Prop 36)", flow ~cancel ~fact_exogenous:off_diag db q)
  | Template { kernel; mirrored } ->
    let algorithm, s = solve_kernel kernel db (if mirrored then Query_iso.mirror q else q) in
    (algorithm, Value (if mirrored then mirror_solution q s else s))
  | Pair_collapse pc ->
    ("unbound permutation pair-collapse flow (Prop 35 case 1)", Value (Special.solve_pair_collapse pc db q))
  | Fallback note -> begin
    (* last polynomial resort before exact search: the instance-level
       bipartite witness cover (twin collapse + König) *)
    match Special.solve_witness_bipartite db q with
    | Some s -> (Printf.sprintf "bipartite witness cover (%s)" note, Value s)
    | None ->
      (Printf.sprintf "exact (fallback: %s)" note, exact ~cancel ?pool ?seed ?lp_state db q)
  end
  | Exact algorithm -> (algorithm, exact ~cancel ?pool ?seed ?lp_state db q)

(* ρ is the minimum over components (Lemma 14): the smaller [Finite]
   answer wins, [Unbreakable] is the identity.  Once a deadline cut one
   component short, every finished value and every incumbent is still a
   sound upper bound on the minimum (deleting one component's contingency
   set falsifies the conjunction) and every certified lower bound bounds
   its component's ρ, so the intervals combine by
   {!Res_bounds.Interval.min_components}. *)
let combine answers =
  let min_solution a b =
    match (a, b) with
    | Solution.Unbreakable, s | s, Solution.Unbreakable -> s
    | Solution.Finite (v1, _), Solution.Finite (v2, _) -> if v2 < v1 then b else a
  in
  if List.for_all (function Value _ -> true | Interval _ -> false) answers then
    Value
      (List.fold_left
         (fun acc -> function Value s -> min_solution acc s | Interval _ -> acc)
         Solution.Unbreakable answers)
  else
    Interval
      (List.fold_left
         (fun acc a -> Res_bounds.Interval.min_components acc (interval_of_answer a))
         Res_bounds.Interval.unbreakable answers)

type bounded =
  | Done of Solution.t * trace list
  | Timeout of Res_bounds.Interval.t

let solve_plan ?cancel ?pool db components =
  let runs = List.map (fun c -> (c, run ?cancel ?pool db c)) components in
  match combine (List.map (fun (_, (_, a)) -> a) runs) with
  | Interval iv -> Timeout iv
  | Value best ->
    Done (best, List.filter_map (function
      | c, (algorithm, Value solution) -> Some { component = c.query; algorithm; solution }
      | _, (_, Interval _) -> None) runs)

let solve_bounded ?cancel ?pool db q = solve_plan ?cancel ?pool db (plan q)

let solve_traced db q =
  match solve_bounded db q with
  | Done (best, traces) -> (best, traces)
  | Timeout _ -> assert false (* Cancel.never cannot fire *)

let solve db q = fst (solve_traced db q)
let value db q = Solution.value (solve db q)

(* Kept under this name for the service workload's generator. *)
let min_contingency = Responsibility.min_contingency
