open Res_db
module FS = Database.Fact_set
module Interval = Res_bounds.Interval

type outcome = Complete of int option | Interrupted of Interval.t

(* A contingency Γ for fact t must (a) avoid t, (b) hit every witness that
   does not contain t (so that deleting t afterwards falsifies q), and
   (c) leave at least one witness containing t alive.  So the answer is
   the minimum, over the surviving witness w, of the resilience of the
   t-free witnesses with w's facts made exogenous. *)

(* One resilience subproblem: solved, or the bounds a fired token left. *)
type sub = Solved of Solution.t | Stopped of { ub : int option; lb : int }

let min_opt a b = match (a, b) with Some x, Some y -> Some (min x y) | None, v | v, None -> v

(* The survivors' protected fact sets: each witness containing t
   contributes its endogenous facts other than t.  Deduplicated and
   ⊆-minimal — protecting fewer facts can never cost more — smallest
   first. *)
let survivors ~exogenous t with_t =
  List.map (FS.filter (fun f -> not (exogenous f || f = t))) with_t
  |> List.sort_uniq FS.compare
  |> List.stable_sort (fun a b -> compare (FS.cardinal a) (FS.cardinal b))
  |> List.fold_left
       (fun kept s -> if List.exists (fun k -> FS.subset k s) kept then kept else s :: kept)
       []
  |> List.rev

let of_witnesses ?(cancel = Cancel.never) ?pool ~witnesses db q (t : Database.fact) =
  let exogenous (f : Database.fact) = Res_cq.Query.is_exogenous q f.rel in
  let with_t, without_t = List.partition (FS.mem t) witnesses in
  if exogenous t || with_t = [] then Complete None
  else begin
    (* The t-free witnesses are exactly the witnesses of D − {t}: on a
       linear self-join-free query they are the s–t paths of [Flow]'s
       network, and a protected fact is one more uncuttable edge. *)
    let flow = Res_cq.Query.is_sj_free q && Linearity.linear_order q <> None in
    let db_t = if flow then Database.remove db t else db in
    (* With [cutoff] the best survivor so far, a survivor that cannot beat
       it answers some cover of size ≥ cutoff, which the minimum below
       ignores. *)
    let resilience ?cutoff protected =
      if flow then
        match Flow.solve_exn ~cancel ~fact_exogenous:(fun f -> FS.mem f protected) db_t q with
        | s -> Solved s
        | exception Cancel.Cancelled -> Stopped { ub = None; lb = 0 }
      else
        match
          Exact.solve_witnesses ~cancel ?pool ?cutoff
            ~exogenous:(fun f -> exogenous f || FS.mem f protected)
            without_t
        with
        | Exact.Complete s -> Solved s
        | Exact.Interrupted { incumbent; lb } -> Stopped { ub = Solution.value incumbent; lb }
    in
    (* L, the resilience with no survivor constraint, lower-bounds every
       survivor; its incumbent keeps no survivor alive, so an interrupted
       L leaves no upper bound. *)
    match resilience FS.empty with
    | Stopped { lb; _ } -> Interrupted (Interval.lower_only lb)
    | Solved Solution.Unbreakable -> Complete None
    | Solved (Solution.Finite (l, _)) ->
      let rec go best = function
        | [] -> Complete best
        | _ when best = Some l -> Complete best
        | _ when Cancel.cancelled cancel -> Interrupted (Interval.of_bounds ~lb:l ~ub:best ())
        | protected :: rest when FS.is_empty protected ->
          (* a survivor that protects nothing is L's own subproblem *)
          go (min_opt best (Some l)) rest
        | protected :: rest -> begin
          match resilience ?cutoff:best protected with
          | Solved s -> go (min_opt best (Solution.value s)) rest
          | Stopped { ub; _ } -> Interrupted (Interval.of_bounds ~lb:l ~ub:(min_opt best ub) ())
        end
      in
      go None (survivors ~exogenous t with_t)
  end

(* Responsibility rides the same front door as resilience: minimize
   first.  Responsibility only depends on the function D' ↦ (D' ⊨ q), so
   any query equivalent to q — in particular its core — yields the same
   minimum contingency. *)
let min_contingency_bounded ?cancel ?pool db q t =
  let q = Res_cq.Homomorphism.minimize q in
  of_witnesses ?cancel ?pool ~witnesses:(Eval.witness_fact_sets db q) db q t

let complete = function
  | Complete r -> r
  | Interrupted _ -> assert false (* Cancel.never cannot fire *)

let min_contingency db q t = complete (min_contingency_bounded db q t)

let of_size = function Some k -> 1.0 /. float_of_int (1 + k) | None -> 0.0
let responsibility db q t = of_size (min_contingency db q t)

let ranking db q =
  let q = Res_cq.Homomorphism.minimize q in
  let witnesses = Eval.witness_fact_sets db q in
  Database.endogenous_facts db q
  |> List.filter_map (fun f ->
         Option.map (fun k -> (f, of_size (Some k))) (complete (of_witnesses ~witnesses db q f)))
  |> List.sort (fun (_, a) (_, b) -> compare b a)
