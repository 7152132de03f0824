open Res_db
module Executor = Res_exec.Executor
module Obs = Res_obs.Obs

(* The one shared [Set.Make (Int)] instance: sets built here flow
   directly into [Res_bounds.Lower.lp_value] without conversion. *)
module IS = Res_bounds.Iset

(* Counters over the branch-and-bound search, cumulative until
   {!reset_stats}.  Atomics: the parallel search increments them from
   every executor domain, and the bench and regression tests still read
   exact totals afterwards. *)
type search_stats = {
  mutable nodes : int;
  mutable lp_calls : int;
  mutable lp_prunes : int;
  mutable covers : int;
}

let nodes_c = Atomic.make 0
let lp_calls_c = Atomic.make 0
let lp_prunes_c = Atomic.make 0
let covers_c = Atomic.make 0

let reset_stats () =
  Atomic.set nodes_c 0;
  Atomic.set lp_calls_c 0;
  Atomic.set lp_prunes_c 0;
  Atomic.set covers_c 0

let last_stats () =
  {
    nodes = Atomic.get nodes_c;
    lp_calls = Atomic.get lp_calls_c;
    lp_prunes = Atomic.get lp_prunes_c;
    covers = Atomic.get covers_c;
  }

(* Build the hitting-set instance: witnesses as sets of the ids of their
   non-[exogenous] facts.  [None] if some witness has none — decided
   {e before} any fact-id assignment, so a provably unbreakable instance
   does no numbering, reduction or cover work at all. *)
let instance ~exogenous witness_sets =
  if List.exists (Database.Fact_set.for_all exogenous) witness_sets then None
  else begin
    let fact_ids = Hashtbl.create 64 in
    let facts_rev = Hashtbl.create 64 in
    let next = ref 0 in
    let id_of f =
      match Hashtbl.find_opt fact_ids f with
      | Some i -> i
      | None ->
        let i = !next in
        incr next;
        Hashtbl.replace fact_ids f i;
        Hashtbl.replace facts_rev i f;
        i
    in
    let sets =
      List.map
        (fun fs ->
          Database.Fact_set.fold
            (fun f acc -> if exogenous f then acc else IS.add (id_of f) acc)
            fs IS.empty)
        witness_sets
    in
    Some (sets, facts_rev, fact_ids)
  end

let relation_exogenous q (f : Database.fact) = Res_cq.Query.is_exogenous q f.rel

(* --- the bitset witness representation ---------------------------------- *)

(* The search represents witnesses as [Bytes]-backed bitsets over the
   dense fact-id universe: the O(n²) minimality and fact-dominance
   passes and the per-branch witness filtering become runs of byte ops
   instead of [Set.Make (Int)] tree walks, and the read-only bitsets
   are shared freely across executor domains.  Each surviving witness
   is paired with its (invariant) cardinality: branching removes
   witnesses whole, never shrinks them. *)

let to_bitsets sets =
  let n_facts = 1 + List.fold_left (fun m s -> IS.fold max s m) (-1) sets in
  ( n_facts,
    List.map
      (fun s ->
        let b = Bitset.create n_facts in
        IS.iter (Bitset.add b) s;
        b)
      sets )

(* Keep only ⊆-minimal witnesses, preserving input order. *)
let minimal_bitsets sets =
  let arr = Array.of_list sets in
  let n = Array.length arr in
  let card = Array.map Bitset.cardinal arr in
  let keep = Array.make n true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && keep.(i) && keep.(j) then
        if Bitset.subset arr.(j) arr.(i) && (card.(j) < card.(i) || j < i) then keep.(i) <- false
    done
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := arr.(i) :: !out
  done;
  !out

(* Fact dominance: if witnesses(t) ⊆ witnesses(u) for t ≠ u, some optimum
   avoids t.  Returns the bitset of facts allowed in the search. *)
let useful_facts_bitset n_facts sets =
  let n_witnesses = List.length sets in
  let occ = Array.make n_facts None in
  List.iteri
    (fun wi s ->
      Bitset.iter
        (fun f ->
          match occ.(f) with
          | Some b -> Bitset.add b wi
          | None ->
            let b = Bitset.create n_witnesses in
            Bitset.add b wi;
            occ.(f) <- Some b)
        s)
    sets;
  let allowed = Bitset.create n_facts in
  for t = 0 to n_facts - 1 do
    match occ.(t) with
    | None -> ()
    | Some wt ->
      let wct = Bitset.cardinal wt in
      let dominated = ref false in
      for u = 0 to n_facts - 1 do
        if (not !dominated) && u <> t then
          match occ.(u) with
          | Some wu when Bitset.subset wt wu && (wct < Bitset.cardinal wu || u < t) ->
            dominated := true
          | _ -> ()
      done;
      if not !dominated then Bitset.add allowed t
  done;
  allowed

(* Connected components of the witness hypergraph (facts as vertices,
   witnesses as hyperedges): independent components have independent
   optima, so they are solved separately — and concurrently when an
   executor is supplied. *)
let witness_components n_facts sets =
  let uf = Res_graph.Union_find.create n_facts in
  let first_of s =
    let first = ref (-1) in
    Bitset.iter (fun f -> if !first < 0 then first := f else Res_graph.Union_find.union uf !first f) s;
    !first
  in
  let firsts = List.map first_of sets in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter2
    (fun s f ->
      let root = Res_graph.Union_find.find uf f in
      match Hashtbl.find_opt tbl root with
      | Some l -> l := s :: !l
      | None ->
        let l = ref [ s ] in
        Hashtbl.add tbl root l;
        order := root :: !order)
    sets firsts;
  List.rev_map (fun root -> List.rev !(Hashtbl.find tbl root)) !order

(* How much LP to spend inside the search: the relaxation is consulted
   at the root and at shallow nodes only, on subproblems small enough
   for the dense simplex, under a per-search call budget. *)
let lp_depth_cap = 2

let lp_constraint_cap = 150

let lp_call_budget = 64

let is_of_bitset b = IS.of_list (Bitset.elements b)

(* Take one LP slot; the budget is shared by every domain searching the
   same component. *)
let rec take_slot budget =
  let v = Atomic.get budget in
  v > 0 && (Atomic.compare_and_set budget v (v - 1) || take_slot budget)

let packing_bound_b n_facts sets =
  let used = Bitset.create n_facts in
  List.fold_left
    (fun acc (_, s) ->
      if Bitset.inter_empty s used then begin
        Bitset.union_into used s;
        acc + 1
      end
      else acc)
    0
    (List.sort (fun (a, _) (b, _) -> compare a b) sets)

let lower_of ?lp_state ~lp_budget ~n_facts depth sets =
  let pack = packing_bound_b n_facts sets in
  if depth <= lp_depth_cap && List.length sets <= lp_constraint_cap && take_slot lp_budget
  then begin
    Atomic.incr lp_calls_c;
    let is_sets = List.map (fun (_, b) -> is_of_bitset b) sets in
    let l =
      match lp_state with
      | Some st when depth = 0 ->
        (* Streaming warm start: root LPs of consecutive deltas are
           near-identical programs, so resume the simplex from the last
           basis and publish the new one.  Sharing is advisory — a racy
           read across parallel components only costs pivots. *)
        let l, basis = Res_bounds.Lower.lp_value_warm ?warm:(Atomic.get st) is_sets in
        Atomic.set st (Some basis);
        l
      | _ -> Res_bounds.Lower.lp_value is_sets
    in
    if l > pack then `Lp (l, pack) else `Pack pack
  end
  else `Pack pack

(* The shared incumbent: always a genuine hitting set (seeded by the
   polished greedy cover, only ever replaced by completed branches),
   updated by CAS so concurrent subtree searches publish improvements
   to each other immediately — that is the whole incumbent-sharing
   protocol, a prune in one domain is a prune in all. *)
let rec offer_best best v chosen =
  let cur = Atomic.get best in
  if v < fst cur then begin
    if Atomic.compare_and_set best cur (v, chosen) then begin
      if Obs.enabled () then
        Obs.instant ~cat:"bnb" "incumbent" ~args:[ ("value", string_of_int v) ]
    end
    else offer_best best v chosen
  end

let min_card_pivot sets =
  match
    List.fold_left
      (fun acc ((c, _) as s) ->
        match acc with
        | None -> Some s
        | Some (ct, _) -> if c < ct then Some s else acc)
      None sets
  with
  | Some (_, b) -> b
  | None -> assert false

(* Depth below which B&B nodes get their own trace span; deeper nodes
   are summarized by their ancestors (full-depth spans would swamp the
   ring with microsecond leaves). *)
let node_span_depth = 2

(* [None] to keep searching, [Some reason] to prune — "lp" exactly when
   the LP relaxation was decisive where greedy packing was not, which
   is also when [lp_prunes_c] ticks. *)
let prune_reason ~lp_budget ~n_facts ~bv depth sets =
  match lower_of ~lp_budget ~n_facts depth sets with
  | `Pack p -> if depth + p >= bv then Some "pack" else None
  | `Lp (l, pack) ->
    if depth + l >= bv then
      if depth + pack < bv then begin
        Atomic.incr lp_prunes_c;
        Some "lp"
      end
      else Some "pack"
    else None

let rec branch ~cancel ~best ~lp_budget ~n_facts chosen depth sets =
  Cancel.guard cancel;
  Atomic.incr nodes_c;
  let body () =
    match sets with
    | [] -> offer_best best depth chosen
    | _ ->
      let bv = fst (Atomic.get best) in
      (match prune_reason ~lp_budget ~n_facts ~bv depth sets with
      | Some reason ->
        if Obs.enabled () then
          Obs.instant ~cat:"bnb" "prune"
            ~args:[ ("reason", reason); ("depth", string_of_int depth) ]
      | None ->
        let pivot = min_card_pivot sets in
        Bitset.iter
          (fun f ->
            let remaining = List.filter (fun (_, s) -> not (Bitset.mem s f)) sets in
            branch ~cancel ~best ~lp_budget ~n_facts (f :: chosen) (depth + 1) remaining)
          pivot)
  in
  if Obs.enabled () && depth <= node_span_depth then
    Obs.span ~cat:"bnb" "node"
      ~args:
        [ ("depth", string_of_int depth); ("witnesses", string_of_int (List.length sets)) ]
      body
  else body ()

(* One connected component: greedy-cover incumbent, certified root lower
   bound, then branch-and-bound — sequentially, or with the top of the
   search tree forked into executor tasks that share the incumbent, the
   LP budget and the cancellation token.  A [cutoff] below the start
   incumbent takes its place as a placeholder the search must beat, so
   only covers smaller than [cutoff] are searched for; if none is found
   the real start incumbent is returned. *)
let solve_component_body ?pool ?seed ?lp_state ?cutoff ~cancel ~lp n_facts bsets =
  Atomic.incr covers_c;
  let sets = List.map (fun b -> (Bitset.cardinal b, b)) bsets in
  let ilp = Res_bounds.Ilp.of_sets ~minimized:true (List.map (fun (_, b) -> is_of_bitset b) sets) in
  let ub0 = Res_bounds.Upper.best ~stop:(fun () -> Cancel.cancelled cancel) ilp in
  assert (Res_bounds.Upper.check ilp ub0);
  (* Warm start: if the caller's previous incumbent still hits every witness
     of this component, its restriction to the component's universe is a
     valid initial incumbent — validated here, after minimization and fact
     dominance, because a seed fact dropped by the dominance pass may have
     been load-bearing. *)
  let seeded =
    match seed with
    | Some sb when List.for_all (fun (_, s) -> not (Bitset.inter_empty s sb)) sets ->
      let universe = Bitset.create n_facts in
      List.iter (fun (_, s) -> Bitset.union_into universe s) sets;
      let elems = List.filter (fun f -> Bitset.mem universe f) (Bitset.elements sb) in
      Some (List.length elems, elems)
    | _ -> None
  in
  let ub0_pair = (ub0.Res_bounds.Upper.value, ub0.Res_bounds.Upper.cover) in
  let start =
    match seeded with Some (v, c) when v < fst ub0_pair -> (v, c) | _ -> ub0_pair
  in
  let placeholder = [ -1 ] in
  let best =
    Atomic.make
      (match cutoff with Some c when c < fst start -> (c, placeholder) | _ -> start)
  in
  let incumbent () =
    let ((_, chosen) as b) = Atomic.get best in
    if chosen == placeholder then start else b
  in
  let lp_budget = Atomic.make (if lp then lp_call_budget else 0) in
  let root_lb =
    match lower_of ?lp_state ~lp_budget ~n_facts 0 sets with `Lp (l, _) -> l | `Pack p -> p
  in
  if root_lb >= fst (Atomic.get best) then `Complete (incumbent ())
  else begin
    let parallel_root pool =
      (* the root expansion of [branch [] 0], with the pivot's branches
         forked as executor tasks instead of explored depth-first *)
      Cancel.guard cancel;
      Atomic.incr nodes_c;
      let bv = fst (Atomic.get best) in
      let prune =
        match prune_reason ~lp_budget ~n_facts ~bv 0 sets with
        | Some reason ->
          if Obs.enabled () then
            Obs.instant ~cat:"bnb" "prune" ~args:[ ("reason", reason); ("depth", "0") ];
          true
        | None -> false
      in
      if prune then true
      else begin
        let pivot = min_card_pivot sets in
        let futures =
          Bitset.fold
            (fun f acc ->
              let remaining = List.filter (fun (_, s) -> not (Bitset.mem s f)) sets in
              Executor.fork pool (fun () ->
                  match branch ~cancel ~best ~lp_budget ~n_facts [ f ] 1 remaining with
                  | () -> true
                  | exception Cancel.Cancelled -> false)
              :: acc)
            pivot []
        in
        (* await every subtree, even after one was interrupted: the
           incumbent stays sound and the pool drains cleanly *)
        List.fold_left (fun ok fut -> Executor.await fut && ok) true futures
      end
    in
    let finished =
      match pool with
      | Some pool when Executor.jobs pool > 1 -> begin
        match parallel_root pool with
        | finished -> finished
        | exception Cancel.Cancelled -> false
      end
      | _ -> begin
        match branch ~cancel ~best ~lp_budget ~n_facts [] 0 sets with
        | () -> true
        | exception Cancel.Cancelled -> false
      end
    in
    if finished then `Complete (incumbent ()) else `Interrupted (incumbent (), root_lb)
  end

let solve_component ?pool ?seed ?lp_state ~cancel ~lp n_facts (cutoff, bsets) =
  if Obs.enabled () then
    Obs.span ~cat:"bnb" "component"
      ~args:[ ("witnesses", string_of_int (List.length bsets)) ]
      (fun () -> solve_component_body ?pool ?seed ?lp_state ?cutoff ~cancel ~lp n_facts bsets)
  else solve_component_body ?pool ?seed ?lp_state ?cutoff ~cancel ~lp n_facts bsets

(* A total cutoff [c] split over components: component i only has to
   beat [c - Σ_{j≠i} pack_j].  Packings lower-bound the other components'
   optima, so if the whole optimum is below [c], each component's is
   below its share and every component is searched to optimality. *)
let component_cutoffs n_facts cutoff comps =
  match cutoff with
  | None -> List.map (fun c -> (None, c)) comps
  | Some cut ->
    let packs =
      List.map (fun c -> packing_bound_b n_facts (List.map (fun b -> (Bitset.cardinal b, b)) c)) comps
    in
    let total = List.fold_left ( + ) 0 packs in
    List.map2 (fun p c -> (Some (cut - (total - p)), c)) packs comps

(* Branch-and-bound on the hitting-set instance.  Witness minimization,
   fact dominance, then a split into connected components of the
   witness hypergraph; each component's search keeps a sound incumbent
   throughout, so when [cancel] fires mid-search the summed incumbents
   are a genuine hitting set — that is what [`Interrupted] carries,
   together with the summed certified lower bounds (a finished
   component contributes its exact optimum to both sides). *)
let solve_hitting_set ?(cancel = Cancel.never) ?(lp = true) ?pool ?seed ?lp_state ?cutoff sets =
  match sets with
  | [] -> `Complete (0, [])
  | _ ->
    let n_facts, bsets = to_bitsets sets in
    let bsets = minimal_bitsets bsets in
    let allowed = useful_facts_bitset n_facts bsets in
    let bsets = List.map (fun s -> Bitset.inter s allowed) bsets in
    (* Minimality of sets may break after restriction; the restriction
       never empties a set (each set keeps at least one undominated
       fact: the fact whose witness-set is maximal wrt the others). *)
    assert (List.for_all (fun s -> not (Bitset.is_empty s)) bsets);
    let seed =
      match seed with
      | None -> None
      | Some s ->
        let b = Bitset.create n_facts in
        IS.iter (fun f -> if f >= 0 && f < n_facts then Bitset.add b f) s;
        Some b
    in
    let comps = component_cutoffs n_facts cutoff (witness_components n_facts bsets) in
    let solve_one = solve_component ?pool ?seed ?lp_state ~cancel ~lp n_facts in
    let results =
      match (pool, comps) with
      | Some p, _ :: _ :: _ when Executor.jobs p > 1 -> Executor.parallel_map p solve_one comps
      | _ -> List.map solve_one comps
    in
    let value, chosen, lb, interrupted =
      List.fold_left
        (fun (v, c, lb, intr) -> function
          | `Complete (v', c') -> (v + v', c' @ c, lb + v', intr)
          | `Interrupted ((v', c'), lb') -> (v + v', c' @ c, lb + lb', true))
        (0, [], 0, false) results
    in
    if interrupted then `Interrupted ((value, chosen), lb) else `Complete (value, chosen)

type outcome =
  | Complete of Solution.t
  | Interrupted of { incumbent : Solution.t; lb : int }

let solve_witnesses ?cancel ?lp ?pool ?seed ?lp_state ?cutoff ~exogenous witness_sets =
  match instance ~exogenous witness_sets with
  | None -> Complete Solution.Unbreakable
  | Some (sets, facts_rev, fact_ids) ->
    let seed =
      (* Seed facts that no witness mentions simply drop out here; the
         per-component validation decides whether what remains still hits
         everything. *)
      match seed with
      | None -> None
      | Some facts ->
        Some
          (List.fold_left
             (fun acc f ->
               match Hashtbl.find_opt fact_ids f with Some i -> IS.add i acc | None -> acc)
             IS.empty facts)
    in
    let finish (value, chosen) =
      (* sort by fact id: witness-enumeration order, independent of
         component order and of the parallel search interleaving *)
      Solution.Finite
        (value, List.map (Hashtbl.find facts_rev) (List.sort_uniq compare chosen))
    in
    (match solve_hitting_set ?cancel ?lp ?pool ?seed ?lp_state ?cutoff sets with
     | `Complete r -> Complete (finish r)
     | `Interrupted (r, lb) -> Interrupted { incumbent = finish r; lb })

let resilience_bounded ?cancel ?lp ?pool ?seed ?lp_state db q =
  solve_witnesses ?cancel ?lp ?pool ?seed ?lp_state ~exogenous:(relation_exogenous q)
    (Eval.witness_fact_sets db q)

let resilience ?pool db q =
  match resilience_bounded ?pool db q with
  | Complete s -> s
  | Interrupted _ -> assert false (* Cancel.never cannot fire *)

let value db q = Solution.value (resilience db q)

let value_exn db q =
  match resilience db q with
  | Solution.Finite (v, _) -> v
  | Solution.Unbreakable -> failwith "Exact.value_exn: query cannot be made false"

let is_contingency_set db q facts =
  List.for_all (fun f -> not (Res_cq.Query.is_exogenous q f.Database.rel)) facts
  && not (Eval.sat (Database.remove_all db facts) q)

let in_res db q k =
  Eval.sat db q && (match value db q with Some v -> v <= k | None -> false)

(* Enumerate all optimal hitting sets by depth-bounded exhaustive search at
   the known optimum. *)
let minimum_sets ?(limit = 1000) db q =
  match instance ~exogenous:(relation_exogenous q) (Eval.witness_fact_sets db q) with
  | None -> []
  | Some (sets, facts_rev, _) ->
    let opt =
      match solve_hitting_set sets with
      | `Complete (v, _) -> v
      | `Interrupted _ -> assert false
    in
    if opt = 0 then [ [] ]
    else begin
      let n_facts, bsets = to_bitsets sets in
      let sets = List.map (fun b -> (Bitset.cardinal b, b)) (minimal_bitsets bsets) in
      let results = ref [] in
      let n_found = ref 0 in
      let seen = Hashtbl.create 64 in
      let rec branch chosen depth remaining =
        if !n_found >= limit then ()
        else begin
          match remaining with
          | [] ->
            let key = List.sort_uniq compare chosen in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              incr n_found;
              results := key :: !results
            end
          | _ ->
            if depth + packing_bound_b n_facts remaining > opt then ()
            else
              Bitset.iter
                (fun f ->
                  if depth < opt then
                    branch (f :: chosen) (depth + 1)
                      (List.filter (fun (_, s) -> not (Bitset.mem s f)) remaining))
                (min_card_pivot remaining)
        end
      in
      branch [] 0 sets;
      List.map (List.map (Hashtbl.find facts_rev)) !results
      |> List.sort_uniq compare
    end
