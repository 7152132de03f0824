(* Workload inputs.  Everything here is a pure function of the seed: the
   same seed always yields the same instances, request lines and delta
   scripts.  The program under test only ever sees what these functions
   produce — request lines for the service workloads, [Database.t]
   values for the solve workloads. *)

open Res_cq
open Res_db
open Resilience

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

(* ---- text forms of instances ----------------------------------------- *)

let query_text q =
  Query.atoms q
  |> List.map (fun (a : Atom.t) ->
         Printf.sprintf "%s%s(%s)" a.rel
           (if Query.is_exogenous q a.rel then "^x" else "")
           (String.concat "," a.args))
  |> String.concat ", "

let value_text = function Value.Int n -> string_of_int n | v -> Value.to_string v

let fact_text (f : Database.fact) =
  f.rel ^ "(" ^ String.concat "," (List.map value_text f.tuple) ^ ")"

let facts_text db = String.concat "; " (List.map fact_text (Database.facts db))
let body_text q db = query_text q ^ " | " ^ facts_text db

(* ---- instance transformations that preserve resilience --------------- *)

let rename_query suffix q =
  let exo = List.filter (Query.is_exogenous q) (Query.relations q) in
  Query.make
    ~exo:(List.map (fun r -> r ^ suffix) exo)
    (List.map (fun (a : Atom.t) -> Atom.make (a.rel ^ suffix) a.args) (Query.atoms q))

let rename_fact suffix (f : Database.fact) = { f with Database.rel = f.rel ^ suffix }

let rename_db suffix db = Database.of_facts (List.map (rename_fact suffix) (Database.facts db))

(* Shift every integer constant: a bijective renaming of the domain, so
   ρ is unchanged while the instance digest (and so the cache key) is
   new. *)
let shift_db k db =
  Database.facts db
  |> List.map (fun (f : Database.fact) ->
         { f with
           Database.tuple = List.map (function Value.Int n -> Value.Int (n + k) | v -> v) f.tuple })
  |> Database.of_facts

let mirror_fact q (f : Database.fact) =
  if Query.arity_of q f.rel = 2 then { f with Database.tuple = List.rev f.tuple } else f

(* ---- tiny instances for the service workloads ------------------------ *)

(* About twenty zoo classes, PTIME, NP-complete and open alike, so the
   server's classify-first lanes both see traffic. *)
let serve_classes =
  [| "q_triangle"; "q_rats"; "q_brats"; "q_vc"; "q_chain"; "q_sj1_rats"; "q_ac_conf";
     "q_a_3perm"; "q_sj1_triangle"; "q_ex22"; "q_a_chain"; "q_b_chain"; "q_perm"; "q_a_perm";
     "q_ab_perm"; "z1"; "z3"; "q_3chain"; "q_ts_3conf"; "q_as_3conf" |]

let zoo_entry i = Zoo.find serve_classes.(i mod Array.length serve_classes)

(* 3–10 facts over a 4-value domain. *)
let tiny_db ~seed q =
  let rels = List.length (Query.relations q) in
  let per = max 2 (min 5 (10 / rels)) in
  let db = Db_gen.random_for_query ~seed ~domain:4 ~tuples_per_relation:per q in
  if Database.size db <= 10 then db
  else Database.of_facts (List.filteri (fun i _ -> i < 10) (Database.facts db))

(* ---- PTIME instances at 10^4 and 10^5 tuples ------------------------ *)

type sized = { name : string; query : Query.t; db : Database.t; tuples : int }

let ptime_families = [| "perm"; "a_perm"; "ac_conf"; "linear" |]

let ptime_instance ~seed family n =
  let k = n / 5 in
  let query, db =
    match family with
    | "perm" -> ((Zoo.find "q_perm").query, Db_gen.power_law ~seed ~nodes:k ~edges:n ~rel:"R")
    | "a_perm" ->
      ( (Zoo.find "q_a_perm").query,
        Database.union
          (Db_gen.power_law ~seed ~nodes:k ~edges:(n - k) ~rel:"R")
          (Db_gen.unary ~count:k ~rel:"A") )
    | "ac_conf" ->
      let u = n / 10 in
      ( (Zoo.find "q_ac_conf").query,
        Database.union
          (Db_gen.bipartite ~seed ~left:u ~right:u ~edges:(n - (2 * u)) ~rel:"R")
          (Database.union (Db_gen.unary ~count:u ~rel:"A") (Db_gen.unary ~count:u ~rel:"C")) )
    | "linear" ->
      let u = n / 10 in
      ( Parser.query "A(x), R(x,y), B(y)",
        Database.union
          (Db_gen.bipartite ~seed ~left:u ~right:u ~edges:(n - (2 * u)) ~rel:"R")
          (Database.union
             (Db_gen.unary ~count:u ~rel:"A")
             (Database.of_rows [ ("B", List.init u (fun i -> [ Value.i (u + i) ])) ])) )
    | f -> invalid_arg ("ptime_instance: " ^ f)
  in
  { name = Printf.sprintf "%s.n%d" family n; query; db; tuples = Database.size db }

(* The solve_ptime pool: per family three 10^4 instances and one 10^5
   instance; round [r] holds family [r]'s 10^5 instance, so a quarter of
   the ops are at 10^5.  [scale] divides both sizes (the smoke test runs
   at scale 100). *)
let ptime_pool ~seed ~scale =
  let small = 10_000 / scale and large = 100_000 / scale in
  let fams = Array.length ptime_families in
  List.init (4 * fams) (fun i ->
      let family = ptime_families.(i mod fams) in
      let round = i / fams in
      let n = if round = i mod fams then large else small in
      ptime_instance ~seed:((seed * 1000) + (10 * round) + (i mod fams)) family n)

(* ---- NP-complete instances ------------------------------------------ *)

type hard = {
  h : sized;
  cnf : (Res_sat.Cnf.t * int) option;  (* a 3SAT gadget's formula and threshold k *)
}

let gadget name (inst : Reductions.instance) cnf =
  { h = { name; query = inst.query; db = inst.db; tuples = Database.size inst.db };
    cnf = Some (cnf, inst.k) }

(* Zoo NP-complete queries with the random database shape each is drawn
   at (domain, tuples per relation). *)
let hard_zoo =
  [| ("q_triangle", 10, 40); ("q_ac_3perm", 10, 40); ("q_vc", 24, 60); ("q_ab_perm", 10, 40);
     ("q_sj1_triangle", 10, 40); ("z1", 12, 40) |]

type hard_kind = Zoo_random | Chain | Triangle | Abperm | Heavy

(* The hard pool is one cycle of 100 ops, each instance solved once per
   cycle, in bands of cost (per instance on a 2-core x86 box):
   25 zoo instances (0.1–3 ms), 40 qchain gadgets of 2-clause formulas
   (2–4 ms, so p50 falls in their middle), 16 triangle and 16 ABperm
   gadgets of 1-clause formulas (3–5 ms), and 3 ABperm gadgets of
   2-clause formulas (~75 ms, so p99 falls inside them). *)
let hard_kinds =
  let spread kind count = List.init count (fun t -> ((float t +. 0.5) /. float count, kind)) in
  let light =
    List.concat [ spread Zoo_random 25; spread Chain 40; spread Triangle 16; spread Abperm 16 ]
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd |> Array.of_list
  in
  let k = ref 0 in
  Array.init 100 (fun i ->
      if i = 16 || i = 49 || i = 82 then Heavy
      else begin
        let kind = light.(!k) in
        incr k;
        kind
      end)

let hard_pool ~seed ~size =
  List.init size (fun i ->
      let s = (seed * 7919) + i in
      let sat ~clauses name reduce =
        let cnf = Res_sat.Sat_gen.random_kcnf ~seed:s ~n_vars:3 ~n_clauses:clauses ~k:3 in
        gadget (Printf.sprintf "%s.c%d.%d" name clauses i) (reduce cnf) cnf
      in
      match hard_kinds.(i mod 100) with
      | Chain -> sat ~clauses:2 "sat3_chain" (fun c -> Reductions.sat3_to_chain c)
      | Triangle -> sat ~clauses:1 "sat3_triangle" Reductions.sat3_to_triangle
      | Abperm -> sat ~clauses:1 "sat3_abperm" Reductions.sat3_to_abperm
      | Heavy -> sat ~clauses:2 "sat3_abperm" Reductions.sat3_to_abperm
      | Zoo_random ->
        let name, domain, tuples = hard_zoo.(i mod Array.length hard_zoo) in
        let e = Zoo.find name in
        let db = Db_gen.random_for_query ~seed:s ~domain ~tuples_per_relation:tuples e.query in
        { h = { name = Printf.sprintf "%s.%d" e.name i; query = e.query; db; tuples = Database.size db };
          cnf = None })
