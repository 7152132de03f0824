open Res_db
module Q = Res_cq.Query
module Solver = Resilience.Solver
module Solution = Resilience.Solution
module Interval = Res_bounds.Interval

(* A streaming resilience session: one registered query over a versioned
   database, answering after every delta batch without re-solving from
   scratch wherever the plan permits.

   The session takes {!Resilience.Solver.plan}'s components and routes
   as they are, and maintains each route:

   - [Flow]: {!Incflow} dynamic residual repair, for a flow route that
     [Incflow.create] admits (linear, no endogenous self-join).
   - [Pairs]/[Aperm]/[Z3]: the {!Dynspecial} twins of the perm, A-perm
     and z3 kernels, on the mirrored database when the plan matched the
     mirror.
   - [Warm]: the exact route, warm-started with the previous answer's
     contingency set as seed incumbent and the previous root LP basis.
   - [Rerun]: every other route (trivial, 3-permutation flows, pair
     collapse, fallbacks, …) — [Solver.run] on the component per answer,
     still cheap because the class is polynomial; no second minimize,
     split or classify.

   Deltas arrive against the {e user's} relations; each component routes
   them through its alias table (a delta on [R] also feeds the exogenous
   split copies of [R] named in the component's [copies] map) and, for
   components planned on the mirror, with binary tuples flipped.  Their
   solutions are flipped back before the minimum over components is
   taken, so callers only ever see facts of the original database. *)

type result = Solver.answer = Value of Solution.t | Interval of Interval.t

type strategy =
  | Flow of Incflow.t
  | Pairs of Dynspecial.Pairs.t
  | Aperm of Dynspecial.APerm.t
  | Z3 of Dynspecial.Z3.t
  | Warm of { mutable seed : Database.fact list; lp_state : int array option Atomic.t }
  | Rerun

type comp = {
  plan : Solver.component;
  mirrored : bool; (* maintained on the mirrored database *)
  aliases : (string * string) list; (* (base relation, component relation) *)
  strat : strategy;
}

type t = {
  q : Q.t;
  vdb : Vdb.t;
  comps : comp list;
  mutable last : result;
}

let strategy_name c =
  match (c.strat, c.plan.route) with
  | Flow _, _ -> "flow-repair"
  | Pairs _, _ -> "pairs"
  | Aperm _, _ -> "cover-aperm"
  | Z3 _, _ -> "cover-z3"
  | Warm _, _ -> "warm-exact"
  | Rerun, Solver.Trivial -> "trivial"
  | Rerun, _ -> "recompute"

(* The dynamic twin of a route, built on the database the route solves
   against; [Rerun] where there is none. *)
let twin_of db (c : Solver.component) =
  let db () = Solver.route_db db c in
  match c.route with
  | Solver.Template { kernel = Solver.Perm { r }; _ } -> Pairs (Dynspecial.Pairs.create ~r (db ()))
  | Solver.Template { kernel = Solver.Aperm { a; r }; _ } -> Aperm (Dynspecial.APerm.create ~a ~r (db ()))
  | Solver.Template { kernel = Solver.Z3 { r; a }; _ } -> Z3 (Dynspecial.Z3.create ~r ~a (db ()))
  | Solver.Flow _ -> ( match Incflow.create (db ()) c.query with Some i -> Flow i | None -> Rerun)
  | Solver.Exact _ -> Warm { seed = []; lp_state = Atomic.make None }
  | _ -> Rerun

(* ---- delta routing ---------------------------------------------------- *)

let rename_deltas c ds =
  List.concat_map
    (fun d ->
      let f = Delta.fact_of d in
      List.filter_map
        (fun (base, r) ->
          if f.Database.rel = base then begin
            let f = { f with Database.rel = r } in
            let f =
              if c.mirrored && Q.arity_of c.plan.query r = 2 then { f with tuple = List.rev f.tuple }
              else f
            in
            Some (match d with Delta.Insert _ -> Delta.Insert f | Delta.Delete _ -> Delta.Delete f)
          end
          else None)
        c.aliases)
    ds

let route c eff =
  let deltas () = rename_deltas c eff in
  match c.strat with
  | Warm _ | Rerun -> ()
  | Flow i -> Incflow.apply i (deltas ())
  | Pairs p -> Dynspecial.Pairs.apply p (deltas ())
  | Aperm p -> Dynspecial.APerm.apply p (deltas ())
  | Z3 z -> Dynspecial.Z3.apply z (deltas ())

(* ---- answering -------------------------------------------------------- *)

let solve_comp ?cancel ?pool t c =
  let unmirror s = if c.mirrored then Solver.mirror_solution c.plan.query s else s in
  match c.strat with
  | Flow i -> Value (Incflow.solution i)
  | Pairs p -> Value (unmirror (Dynspecial.Pairs.solution p))
  | Aperm p -> Value (unmirror (Dynspecial.APerm.solution p))
  | Z3 z -> Value (unmirror (Dynspecial.Z3.solution z))
  | Warm h ->
    let _, answer = Solver.run ?cancel ?pool ~seed:h.seed ~lp_state:h.lp_state (Vdb.db t.vdb) c.plan in
    (match answer with
    | Value (Solution.Finite (_, facts)) -> h.seed <- facts
    | Interval iv when Interval.ub iv <> None -> h.seed <- Interval.witness_set iv
    | Value Solution.Unbreakable | Interval _ -> ());
    answer
  | Rerun -> snd (Solver.run ?cancel ?pool (Vdb.db t.vdb) c.plan)

let answer ?cancel ?pool t =
  let r = Solver.combine (List.map (solve_comp ?cancel ?pool t) t.comps) in
  t.last <- r;
  r

(* ---- lifecycle -------------------------------------------------------- *)

let create ?cancel ?pool db q =
  Res_obs.Obs.span ~cat:"inc" "session.create" @@ fun () ->
  let vdb = Vdb.create db in
  let comps =
    List.map
      (fun (plan : Solver.component) ->
        let base r = Option.value ~default:r (List.assoc_opt r plan.copies) in
        {
          plan;
          mirrored = (match plan.route with Solver.Template { mirrored; _ } -> mirrored | _ -> false);
          aliases = List.map (fun r -> (base r, r)) (Q.relations plan.query);
          strat = twin_of db plan;
        })
      (Solver.plan q)
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
let strategies t = List.map strategy_name t.comps

let result_interval = Solver.interval_of_answer

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
