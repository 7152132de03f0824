(* Answer checking, run outside the timed phase against references that do
   not go through the path being timed. *)

open Res_cq
open Res_db
open Resilience

(* The facts of a [set={f1; f2}] reply field (the set text itself may
   contain spaces, so it is cut at the closing brace). *)
let reply_set reply =
  match String.index_opt reply '{' with
  | None -> None
  | Some i ->
    let j = String.index_from reply i '}' in
    let body = String.trim (String.sub reply (i + 1) (j - i - 1)) in
    Some (if body = "" then [] else Fact_syntax.facts body)

(* A contingency set is valid for a claimed ρ when it has exactly ρ
   distinct endogenous facts of the database and deleting them falsifies
   the query. *)
let valid_set db q rho facts =
  let distinct = List.sort_uniq compare facts in
  List.length distinct = rho
  && List.length facts = rho
  && List.for_all (fun (f : Database.fact) -> Database.mem db f && not (Query.is_exogenous q f.rel)) facts
  && not (Eval.sat (Database.remove_all db facts) q)

(* [solve] replies: [ok rho=N set={...}] or [ok unbreakable], against the
   exact value. *)
let check_solve_reply db q expected reply =
  if not (Util.starts_with ~prefix:"ok " reply) then false
  else
    match (expected, Util.field "rho" reply) with
    | None, None -> Util.starts_with ~prefix:"ok unbreakable" reply
    | Some v, Some r -> (
      int_of_string_opt r = Some v
      && match reply_set reply with Some facts -> valid_set db q v facts | None -> false)
    | _ -> false

(* Responsibility by its definition: the smallest Γ ⊆ endo(D) − {t} with
   D − Γ ⊨ q and D − Γ − {t} ⊭ q, by enumerating subsets in size order.
   Only used on the service workloads' instances of at most ten facts. *)
let min_contingency db q (t : Database.fact) =
  if (not (Database.mem db t)) || Query.is_exogenous q t.rel then None
  else begin
    let others = Array.of_list (List.filter (( <> ) t) (Database.endogenous_facts db q)) in
    let n = Array.length others in
    let is_cause gamma =
      let d = Database.remove_all db gamma in
      Eval.sat d q && not (Eval.sat (Database.remove d t) q)
    in
    (* subsets of size k drawn from others.(i..) *)
    let rec pick k i acc =
      if k = 0 then is_cause acc
      else if n - i < k then false
      else pick (k - 1) (i + 1) (others.(i) :: acc) || pick k (i + 1) acc
    in
    let rec size k = if k > n then None else if pick k 0 [] then Some k else size (k + 1) in
    size 0
  end

let check_resp_reply expected reply =
  Util.starts_with ~prefix:"ok " reply
  &&
  match (expected, Util.field "contingency" reply) with
  | None, Some "none" -> true
  | Some k, Some c -> int_of_string_opt c = Some k
  | _ -> false

(* [classify] replies against the paper's verdict in the zoo. *)
let check_classify_reply (expected : Zoo.expected) reply =
  let prefix =
    match expected with P -> "ok PTIME" | NPC -> "ok NP-complete" | Open -> "ok open"
  in
  Util.starts_with ~prefix reply

(* [watch] replies carry the maintained value; compare with a from-scratch
   solve of the session's current database. *)
let check_watch_reply db q reply =
  Util.starts_with ~prefix:"ok watch=" reply
  &&
  match (Solver.value db q, Util.field "rho" reply) with
  | Some v, Some r -> int_of_string_opt r = Some v
  | None, None -> List.mem "unbreakable" (String.split_on_char ' ' reply)
  | _ -> false
