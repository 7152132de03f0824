open Res_db
module Q = Res_cq.Query
module Solver = Resilience.Solver
module Classify = Resilience.Classify
module Query_iso = Resilience.Query_iso
module Solution = Resilience.Solution
module Interval = Res_bounds.Interval

(* A streaming resilience session: one registered query over a versioned
   database, answering after every delta batch without re-solving from
   scratch wherever the classification permits.

   Construction mirrors {!Resilience.Solver.solve_bounded} exactly —
   minimize, split into components, classify each — but instead of solving
   each component once, it picks a {e maintenance strategy} per component:

   - [Trivial]: no endogenous atoms; a satisfiability probe per answer.
   - [Flow]: {!Incflow} dynamic residual repair (linear, no endogenous
     self-join).
   - [Pairs]/[Aperm]/[Z3]: the {!Dynspecial} structures for the
     permutation-family templates, matched directly or through the mirror
     symmetry.
   - [Hard]: NP-hard (or open/unknown) components re-solved by
     branch-and-bound, warm-started with the previous answer's contingency
     set as seed incumbent and the previous root LP basis.
   - [Resolve]: PTIME components outside the incremental classes
     (3-permutation flows, non-linear fallbacks, …) — from-scratch
     [Solver.solve_bounded] per answer, still cheap because the class is
     polynomial.

   Deltas arrive against the {e user's} relations; each component routes
   them through its alias table (a delta on [R] also feeds the exogenous
   split copies of [R] named in the component's [copies] map) and, for
   mirror-matched templates, with binary tuples flipped.  Solutions from mirrored strategies are flipped
   back before they are combined, so callers only ever see facts of the
   original database. *)

type result = Value of Solution.t | Interval of Interval.t

type strategy =
  | Trivial
  | Flow of Incflow.t
  | Pairs of Dynspecial.Pairs.t * bool (* flag: maintained on the mirror *)
  | Aperm of Dynspecial.APerm.t * bool
  | Z3 of Dynspecial.Z3.t * bool
  | Hard of { mutable seed : Database.fact list; lp_state : int array option Atomic.t }
  | Resolve

type comp = {
  qc : Q.t; (* split component, as Solver would see it *)
  cq : Q.t; (* analyzed query: domination-normalized, exogenous-split *)
  copies : (string * string) list; (* exogenous-split (copy, base) *)
  aliases : (string * string) list; (* (base relation, component relation) *)
  binary : (string, unit) Hashtbl.t; (* component relations of arity 2 *)
  strat : strategy;
}

type t = {
  q : Q.t;
  vdb : Vdb.t;
  comps : comp list;
  mutable last : result;
}

let strategy_name = function
  | Trivial -> "trivial"
  | Flow _ -> "flow-repair"
  | Pairs _ -> "pairs"
  | Aperm _ -> "cover-aperm"
  | Z3 _ -> "cover-z3"
  | Hard _ -> "warm-exact"
  | Resolve -> "recompute"

let rel_of rm name = List.assoc name rm

let strategy_of db ({ query = cq; copies; verdict; _ } : Classify.component) =
  let db' = Solver.extend_db_for_split db copies in
  (* the builder receives the database in the matched orientation *)
  let templ tmpl k =
    Option.map
      (fun (rm, m) -> k rm (if m then Solver.mirror_db db' cq else db') m)
      (Query_iso.match_template tmpl cq)
  in
  match verdict with
  | Classify.Ptime Classify.Trivial_no_endogenous -> Trivial
  | Classify.Ptime Classify.Unbound_permutation -> begin
    let direct =
      templ "R(x,y), R(y,x)" (fun rm db m ->
          Pairs (Dynspecial.Pairs.create ~r:(rel_of rm "R") db, m))
    in
    match direct with
    | Some s -> s
    | None -> begin
      match
        templ "A(x), R(x,y), R(y,x)" (fun rm db m ->
            Aperm (Dynspecial.APerm.create ~a:(rel_of rm "A") ~r:(rel_of rm "R") db, m))
      with
      | Some s -> s
      | None -> Resolve
    end
  end
  | Classify.Ptime Classify.Rep_shared_flow -> begin
    match
      templ "R(x,x), R(x,y), A(y)" (fun rm db m ->
          Z3 (Dynspecial.Z3.create ~r:(rel_of rm "R") ~a:(rel_of rm "A") db, m))
    with
    | Some s -> s
    | None -> Resolve
  end
  | Classify.Ptime (Classify.Sj_free_no_triad | Classify.Confluence_flow) -> begin
    match Incflow.create db' cq with Some i -> Flow i | None -> Resolve
  end
  | Classify.Ptime _ -> Resolve
  | Classify.Np_complete _ | Classify.Open_problem _ | Classify.Unknown _
  | Classify.Heuristic _ ->
    Hard { seed = []; lp_state = Atomic.make None }

(* ---- delta routing ---------------------------------------------------- *)

let rename_deltas c ~mirrored ds =
  List.concat_map
    (fun d ->
      let f = Delta.fact_of d in
      List.filter_map
        (fun (base, r) ->
          if f.Database.rel = base then begin
            let f = { f with Database.rel = r } in
            let f =
              if mirrored && Hashtbl.mem c.binary r then { f with tuple = List.rev f.tuple }
              else f
            in
            Some (match d with Delta.Insert _ -> Delta.Insert f | Delta.Delete _ -> Delta.Delete f)
          end
          else None)
        c.aliases)
    ds

let route c eff =
  match c.strat with
  | Trivial | Hard _ | Resolve -> ()
  | Flow i -> Incflow.apply i (rename_deltas c ~mirrored:false eff)
  | Pairs (p, m) -> Dynspecial.Pairs.apply p (rename_deltas c ~mirrored:m eff)
  | Aperm (p, m) -> Dynspecial.APerm.apply p (rename_deltas c ~mirrored:m eff)
  | Z3 (z, m) -> Dynspecial.Z3.apply z (rename_deltas c ~mirrored:m eff)

(* ---- answering -------------------------------------------------------- *)

let unmirror mirrored cq s = if mirrored then Solver.mirror_solution cq s else s

let solve_comp ?cancel ?pool t c =
  match c.strat with
  | Trivial ->
    let db' = Solver.extend_db_for_split (Vdb.db t.vdb) c.copies in
    Value (if Eval.sat db' c.cq then Solution.Unbreakable else Solution.Finite (0, []))
  | Flow i -> Value (Incflow.solution i)
  | Pairs (p, m) -> Value (unmirror m c.cq (Dynspecial.Pairs.solution p))
  | Aperm (p, m) -> Value (unmirror m c.cq (Dynspecial.APerm.solution p))
  | Z3 (z, m) -> Value (unmirror m c.cq (Dynspecial.Z3.solution z))
  | Hard h -> begin
    let db' = Solver.extend_db_for_split (Vdb.db t.vdb) c.copies in
    match
      Resilience.Exact.resilience_bounded ?cancel ?pool ~seed:h.seed ~lp_state:h.lp_state db'
        c.cq
    with
    | Resilience.Exact.Complete s ->
      (match s with Solution.Finite (_, facts) -> h.seed <- facts | Solution.Unbreakable -> ());
      Value s
    | Resilience.Exact.Interrupted { incumbent; lb } -> begin
      match incumbent with
      | Solution.Finite (v, facts) ->
        h.seed <- facts;
        Interval (Interval.of_bounds ~witness_set:facts ~lb ~ub:(Some v) ())
      | Solution.Unbreakable -> Interval (Interval.lower_only lb)
    end
  end
  | Resolve -> begin
    match Solver.solve_bounded ?cancel ?pool (Vdb.db t.vdb) c.qc with
    | Solver.Done (s, _) -> Value s
    | Solver.Timeout iv -> Interval iv
  end

let to_interval = function
  | Value s -> Solver.interval_of_solution s
  | Interval iv -> iv

let combine rs =
  if List.for_all (function Value _ -> true | Interval _ -> false) rs then
    Value
      (List.fold_left
         (fun acc -> function Value s -> Solver.min_solution acc s | Interval _ -> acc)
         Solution.Unbreakable rs)
  else
    Interval
      (List.fold_left
         (fun acc r -> Interval.min_components acc (to_interval r))
         Interval.unbreakable rs)

let answer ?cancel ?pool t =
  let r = combine (List.map (solve_comp ?cancel ?pool t) t.comps) in
  t.last <- r;
  r

(* ---- lifecycle -------------------------------------------------------- *)

let create ?cancel ?pool db q =
  Res_obs.Obs.span ~cat:"inc" "session.create" @@ fun () ->
  let vdb = Vdb.create db in
  let minimized = Res_cq.Homomorphism.minimize q in
  let comps =
    List.map
      (fun qc ->
        let comp = Classify.classify_component qc in
        let cq = comp.query in
        let rels = Q.relations cq in
        let binary = Hashtbl.create 8 in
        List.iter (fun r -> if Q.arity_of cq r = 2 then Hashtbl.replace binary r ()) rels;
        let base r = Option.value ~default:r (List.assoc_opt r comp.copies) in
        {
          qc;
          cq;
          copies = comp.copies;
          aliases = List.map (fun r -> (base r, r)) rels;
          binary;
          strat = strategy_of db comp;
        })
      (Res_cq.Components.split minimized)
  in
  let t = { q; vdb; comps; last = Value Solution.Unbreakable } in
  ignore (answer ?cancel ?pool t);
  t

let apply ?cancel ?pool t deltas =
  Res_obs.Obs.span ~cat:"inc" "session.apply" @@ fun () ->
  let eff = Vdb.apply t.vdb deltas in
  List.iter (fun c -> route c eff) t.comps;
  answer ?cancel ?pool t

let last t = t.last
let query t = t.q
let db t = Vdb.db t.vdb
let version t = Vdb.version t.vdb
let fingerprint t = Vdb.fingerprint t.vdb
let strategies t = List.map (fun c -> strategy_name c.strat) t.comps

let result_interval = to_interval

(* A genuine-answer audit for tests and the CLI's [--validate] mode: a
   [Finite (v, set)] answer must name [v] distinct facts that are present
   and whose deletion falsifies the query. *)
let selfcheck t =
  match t.last with
  | Value (Solution.Finite (v, facts)) ->
    List.length facts = v
    && List.for_all (Database.mem (Vdb.db t.vdb)) facts
    && not (Eval.sat (Database.remove_all (Vdb.db t.vdb) facts) t.q)
  | Value Solution.Unbreakable | Interval _ -> true
