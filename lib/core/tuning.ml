(* Shared finishing step of the PTIME solvers.

   The greedy minimalization pass that post-processes flow cuts and vertex
   covers pays a full [Eval.sat] per kept fact, so it is gated on instance
   size: databases above [minimalize_db_cap] facts, or candidate lists
   above [minimalize_fact_cap] facts, are returned as they are. *)

let minimalize_db_cap = 20_000
let minimalize_fact_cap = 200

let minimalize_greedy ?(cancel = Cancel.never) db q facts =
  List.fold_left
    (fun kept f ->
      Cancel.guard cancel;
      let candidate = List.filter (fun g -> g <> f) kept in
      if Res_db.Eval.sat (Res_db.Database.remove_all db candidate) q then kept
      else candidate)
    facts facts

(* The sat-per-step loop above recompiles the evaluation plane on every
   candidate, which dominates solver time whenever cuts are long.  The
   rewrite below runs the {e same} left-to-right greedy pass on witness
   counts instead: enumerate the witnesses once, let [c(w)] be the number
   of still-kept candidate facts a witness [w] uses, and observe that
   after removing [kept \ {f}] the query stays true iff some witness
   survives, i.e. iff some [w] containing [f] has [c(w) = 1] (witnesses
   with [c(w) = 0] are handled by the guard below).  Keeping [f] changes
   no count; dropping [f] decrements the counts of its witnesses — and
   only witnesses with [c(w) >= 2] can lose a fact that way, so [c] never
   reaches 0 and the invariant is maintained.  One enumeration replaces
   [|facts|] full sat calls.

   Returns [None] (caller falls back to the sat loop) when the candidate
   list has structural duplicates — the [<>] filter in the greedy pass
   removes all copies at once, which the counting pass does not model —
   or when witness enumeration overflows its limit. *)
let minimalize_counting ~cancel db q facts =
  let module FS = Res_db.Database.Fact_set in
  let fact_arr = Array.of_list facts in
  let k = Array.length fact_arr in
  let index : (Res_db.Database.fact, int) Hashtbl.t = Hashtbl.create (2 * k) in
  let duplicates = ref false in
  Array.iteri
    (fun i f ->
      if Hashtbl.mem index f then duplicates := true else Hashtbl.add index f i)
    fact_arr;
  if !duplicates then None
  else begin
    match Res_db.Eval.witnesses ~limit:200_000 db q with
    | exception Failure _ -> None
    | ws ->
      let nw = List.length ws in
      let counts = Array.make nw 0 in
      let witnesses_of = Array.make k [] in
      let vacuous = ref false in
      List.iteri
        (fun w (wit : Res_db.Eval.witness) ->
          let c = ref 0 in
          FS.iter
            (fun f ->
              match Hashtbl.find_opt index f with
              | Some i ->
                incr c;
                witnesses_of.(i) <- w :: witnesses_of.(i)
              | None -> ())
            wit.facts;
          counts.(w) <- !c;
          if !c = 0 then vacuous := true)
        ws;
      if !vacuous then
        (* some witness uses none of the candidates: the query stays
           satisfied whatever subset is removed, so every greedy sat test
           succeeds and the pass keeps everything *)
        Some facts
      else begin
        let dropped = Array.make k false in
        Array.iteri
          (fun i _ ->
            Cancel.guard cancel;
            let essential = List.exists (fun w -> counts.(w) = 1) witnesses_of.(i) in
            if not essential then begin
              dropped.(i) <- true;
              List.iter (fun w -> counts.(w) <- counts.(w) - 1) witnesses_of.(i)
            end)
          fact_arr;
        let kept = ref [] in
        for i = k - 1 downto 0 do
          if not dropped.(i) then kept := fact_arr.(i) :: !kept
        done;
        Some !kept
      end
  end

let minimalize ?(cancel = Cancel.never) db q facts =
  if List.length facts > minimalize_fact_cap || Res_db.Database.size db > minimalize_db_cap
  then facts
  else
    match minimalize_counting ~cancel db q facts with
    | Some kept -> kept
    | None -> minimalize_greedy ~cancel db q facts
