open Res_cq

type ptime_method =
  | Trivial_no_endogenous
  | Sj_free_no_triad
  | Confluence_flow
  | Unbound_permutation
  | Rep_shared_flow
  | Perm3_flow
  | Ts3conf_flow

type hard_reason =
  | Triad of Atom.t * Atom.t * Atom.t
  | Unary_path
  | Binary_path
  | Chain of int
  | Bound_permutation
  | Confluence_exogenous_path
  | Conf3_unary_bounded
  | Chain_confluence3
  | Perm3_bounded
  | Rep3

type verdict =
  | Ptime of ptime_method
  | Np_complete of hard_reason
  | Open_problem of string
  | Unknown of string
  | Heuristic of string

type component = {
  query : Query.t;
  copies : (string * string) list;
  family : Family.t;
  verdict : verdict;
}

type report = {
  original : Query.t;
  minimized : Query.t;
  components : component list;
  verdict : verdict;
  notes : string list;
}

(* --- shape detectors for the 3-R-atom cases ------------------------- *)

let pair_pattern (a : Atom.t) (b : Atom.t) =
  match (a.args, b.args) with
  | [ x1; y1 ], [ x2; y2 ]
    when List.length (Atom.vars a) = 2 && List.length (Atom.vars b) = 2 ->
    if x1 = y2 && y1 = x2 then `Perm
    else if y1 = x2 && x1 <> y2 then `Chain (* a then b *)
    else if x1 = y2 && y1 <> x2 then `Chain_rev
    else if x1 = x2 && y1 <> y2 then `Conf
    else if y1 = y2 && x1 <> x2 then `Conf
    else `None
  | _ -> `None

let permutations3 l =
  match l with
  | [ a; b; c ] ->
    [ [ a; b; c ]; [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] ]
  | _ -> []

(* 3-confluence: R(x,y), R(z,y), R(z,w) — two confluences sharing the
   middle atom, outer atoms variable-disjoint.  Returns the end
   variables. *)
let three_confluence atoms =
  List.find_map
    (fun order ->
      match order with
      | [ (a : Atom.t); b; c ] ->
        if
          pair_pattern a b = `Conf
          && pair_pattern b c = `Conf
          && not (List.exists (fun v -> List.mem v (Atom.vars c)) (Atom.vars a))
        then begin
          let non_shared (p : Atom.t) (q : Atom.t) =
            List.find_opt (fun v -> not (List.mem v (Atom.vars q))) (Atom.vars p)
          in
          match (non_shared a b, non_shared c b) with
          | Some e1, Some e2 -> Some (e1, e2)
          | _ -> None
        end
        else None
      | _ -> None)
    (permutations3 atoms)

let has_chain_confluence atoms =
  List.exists
    (fun order ->
      match order with
      | [ a; b; c ] ->
        (pair_pattern a b = `Chain || pair_pattern a b = `Chain_rev)
        && pair_pattern b c = `Conf
        && not (List.exists (fun v -> List.mem v (Atom.vars c)) (Atom.vars (a : Atom.t)))
      | _ -> false)
    (permutations3 atoms)

let has_perm3 atoms =
  List.exists
    (fun order ->
      match order with
      | [ a; b; c ] -> pair_pattern b c = `Perm && pair_pattern a b <> `None && pair_pattern (a : Atom.t) b <> `Perm
      | _ -> false)
    (permutations3 atoms)

(* --- the per-component classifier ------------------------------------ *)

let iso q s = Query_iso.matches_template_upto_mirror q s

let classify_three_atom q (r : string) (atoms : Atom.t list) =
  let has_rep = List.exists Atom.has_repeated_var atoms in
  if has_rep then begin
    if iso q "R(x,x), R(x,y), S^x(x,y), R(y,y)" then Np_complete Rep3 (* z4 *)
    else if iso q "A(x), R(x,y), R(y,z), R(z,z)" then Np_complete Rep3 (* z5 *)
    else if iso q "A(x), R(x,y), R(y,y), R(y,z), C(z)" then
      Open_problem "z6 (Section 8.5)"
    else if iso q "A(x), R(x,y), R(y,x), R(y,y)" then Open_problem "z7 (Section 8.5)"
    else Unknown "three R-atoms with repeated variables, not matching z4-z7"
  end
  else if Patterns.k_chain q = Some 3 then Np_complete (Chain 3)
  else if has_perm3 atoms then begin
    if iso q "A(x), R(x,y), R(y,z), R(z,y)" then Ptime Perm3_flow (* qA3perm-R *)
    else if iso q "S(w,x), R(x,y), R(y,z), R(z,y)" then Ptime Perm3_flow (* qSwx *)
    else if iso q "S^x(x,y), R(x,y), R(y,z), R(z,y)" then Np_complete Perm3_bounded
    else if iso q "A(x), R(x,y), R(y,z), R(z,y), C(z)" then Np_complete Perm3_bounded
    else if iso q "A(x), R(x,y), B(y), R(y,z), R(z,y)" then Np_complete Perm3_bounded
    else if iso q "S^x(x,y), R(x,y), B(y), R(y,z), R(z,y), C(z)" then
      Np_complete Perm3_bounded
    else if iso q "A(x), S^x(x,y), R(x,y), R(y,z), R(z,y)" then
      Open_problem "qASxy3perm-R (Section 8.4)"
    else if iso q "S^x(x,y), R(x,y), B(y), R(y,z), R(z,y)" then
      Open_problem "qSxyB3perm-R (Section 8.4)"
    else if iso q "S^x(x,y), R(x,y), R(y,z), R(z,y), C(z)" then
      Open_problem "qSxyC3perm-R (Section 8.4)"
    else Unknown "3-permutation-plus-R shape not matching a Section 8.4 case"
  end
  else begin
    match three_confluence atoms with
    | Some (e1, e2) ->
      (* Prop 40: qAC3conf plus any unary additions is hard.  Check: both
         ends carry an endogenous unary atom and every non-R atom is
         unary. *)
      let non_r = List.filter (fun (a : Atom.t) -> a.rel <> r) (Query.atoms q) in
      let endo_unary_on v =
        List.exists
          (fun (a : Atom.t) ->
            Atom.arity a = 1 && (not (Query.is_exogenous q a.rel)) && List.mem v a.args)
          non_r
      in
      if List.for_all (fun a -> Atom.arity a = 1) non_r && endo_unary_on e1 && endo_unary_on e2
      then Np_complete Conf3_unary_bounded
      else if iso q "T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)" then Ptime Ts3conf_flow
      else if iso q "A(x), R(x,y), R(z,y), R(z,w), S^x(z,w)" then
        Open_problem "qAS3conf (Section 8.2)"
      else Unknown "3-confluence shape not matching a Section 8.2 case"
    | None ->
      if has_chain_confluence atoms then begin
        if iso q "A(x), R(x,y), R(y,z), R(w,z), C(w)" then Np_complete Chain_confluence3
        else if iso q "A(x), R(x,y), R(y,z), R(w,z), S^x(w,z)" then
          Np_complete Chain_confluence3
        else if iso q "R(x,y), R(y,z), R(w,z), C(w)" then Np_complete Chain_confluence3
        else if iso q "R(x,y), R(y,z), R(w,z), S^x(w,z)" then
          Open_problem "qS3cc (Section 8.3)"
        else Unknown "chain-confluence shape not matching a Section 8.3 case"
      end
      else Unknown "three R-atom shape not analyzed in Section 8"
  end

(* The binary-ssj leg of the dispatcher: the paper's Theorem 37 decision
   procedure plus the partial Section 8 three-atom analysis.  Only called
   on triad-free components recognized as {!Family.Binary_ssj}. *)
let classify_binary_ssj q =
  match Patterns.self_join q with
  | None -> Ptime Sj_free_no_triad
  | Some (r, atoms) ->
    if Query.is_exogenous q r then
      (* unreachable: Family.split_exogenous_self_joins renamed those *)
      Unknown "repeated exogenous relation"
    else if Patterns.has_unary_path q then Np_complete Unary_path
    else if Patterns.has_binary_path q then Np_complete Binary_path
    else begin
      match List.length atoms with
      | 2 -> begin
        match Patterns.two_atom_pattern q with
        | Some Rep_shared -> Ptime Rep_shared_flow
        | Some (Permutation (x, y)) ->
          if Patterns.permutation_is_bound q ~x ~y then Np_complete Bound_permutation
          else Ptime Unbound_permutation
        | Some (Chain _) -> Np_complete (Chain 2)
        | Some (Confluence c) ->
          if Patterns.confluence_has_exo_path q c then Np_complete Confluence_exogenous_path
          else Ptime Confluence_flow
        | None -> Unknown "two R-atoms with unrecognized join pattern"
      end
      | 3 -> classify_three_atom q r atoms
      | k -> begin
        match Patterns.k_chain q with
        | Some k' -> Np_complete (Chain k')
        | None -> Unknown (Printf.sprintf "%d R-atoms: beyond the paper's analysis" k)
      end
    end

(* One normalized component, dispatched by family.  The triad test is
   shared by every regime (Theorem 24 holds for all CQs, and on the sjf
   side it is the hard half of the any-arity dichotomy); after it:

   - sjf components are PTIME by the easy half of the sjf dichotomy
     (triad-free ⟹ linear-reducible, solved by the flow construction);
   - binary-ssj components run the paper's case analysis;
   - anything else is honestly tagged [Heuristic]: the solver answers
     exactly, but no complexity claim is made. *)
let classify_component q0 =
  let q, copies = Family.split_exogenous_self_joins (Domination.normalize q0) in
  let family = Family.of_component q in
  let verdict =
    if Query.endogenous_atoms q = [] then Ptime Trivial_no_endogenous
    else begin
      match Triad.find q with
      | Some (a, b, c) -> Np_complete (Triad (a, b, c))
      | None -> begin
        match family with
        | Family.Sjf_any_arity -> Ptime Sj_free_no_triad
        | Family.Binary_ssj -> classify_binary_ssj q
        | Family.General ->
          Heuristic "self-join query outside the binary-ssj and sjf fragments"
      end
    end
  in
  { query = q; copies; family; verdict }

let combine_verdicts verdicts =
  let is_npc = function Np_complete _ -> true | _ -> false in
  let is_heuristic = function Heuristic _ -> true | _ -> false in
  let is_unknown = function Unknown _ -> true | _ -> false in
  let is_open = function Open_problem _ -> true | _ -> false in
  match List.find_opt is_npc verdicts with
  | Some v -> v
  | None -> begin
    match List.find_opt is_heuristic verdicts with
    | Some v -> v
    | None -> begin
      match List.find_opt is_unknown verdicts with
      | Some v -> v
      | None -> begin
        match List.find_opt is_open verdicts with
        | Some v -> v
        | None -> ( match verdicts with v :: _ -> v | [] -> Unknown "empty query")
      end
    end
  end

let classify q =
  let minimized = Homomorphism.minimize q in
  let comps = Components.split minimized in
  let classified = List.map classify_component comps in
  let verdict = combine_verdicts (List.map (fun (c : component) -> c.verdict) classified) in
  let notes =
    (if Query.equal q minimized then [] else [ "query was not minimal; minimized first" ])
    @
    if List.length comps > 1 then
      [ Printf.sprintf "%d connected components; Lemma 15 combination" (List.length comps) ]
    else []
  in
  { original = q; minimized; components = classified; verdict; notes }

let verdict_of q = (classify q).verdict

let method_to_string = function
  | Trivial_no_endogenous -> "trivial (no endogenous atoms)"
  | Sj_free_no_triad -> "sj-free, no triad (Theorem 7)"
  | Confluence_flow -> "confluence flow (Props 31/32)"
  | Unbound_permutation -> "unbound permutation (Props 33/35)"
  | Rep_shared_flow -> "repeated-variable flow (Prop 36)"
  | Perm3_flow -> "3-permutation modified flow (Props 13/44)"
  | Ts3conf_flow -> "TS 3-confluence flow (Prop 41)"

let reason_to_string = function
  | Triad (a, b, c) ->
    Printf.sprintf "triad {%s, %s, %s} (Theorem 24)" (Atom.to_string a) (Atom.to_string b)
      (Atom.to_string c)
  | Unary_path -> "unary path (Theorem 27)"
  | Binary_path -> "binary path (Theorem 28)"
  | Chain k -> Printf.sprintf "%d-chain (Props 29/30/38)" k
  | Bound_permutation -> "bound permutation (Props 34/35)"
  | Confluence_exogenous_path -> "confluence with exogenous path (Prop 32)"
  | Conf3_unary_bounded -> "3-confluence bounded by unary atoms (Props 39/40)"
  | Chain_confluence3 -> "3-chain-confluence (Props 42/43)"
  | Perm3_bounded -> "bounded 3-permutation (Props 45/46)"
  | Rep3 -> "3 R-atoms with repeated variables (Prop 47)"

let verdict_to_string = function
  | Ptime m -> "PTIME: " ^ method_to_string m
  | Np_complete r -> "NP-complete: " ^ reason_to_string r
  | Open_problem s -> "open: " ^ s
  | Unknown s -> "unknown: " ^ s
  | Heuristic s -> "heuristic: " ^ s

let agrees_with v (expected : Zoo.expected) =
  match (v, expected) with
  | Ptime _, Zoo.P -> true
  | Np_complete _, Zoo.NPC -> true
  | Open_problem _, Zoo.Open -> true
  | _ -> false

let pp_report ppf r =
  Format.fprintf ppf "@[<v>query: %a@,minimized: %a@,verdict: %s" Query.pp r.original Query.pp
    r.minimized (verdict_to_string r.verdict);
  List.iteri
    (fun i (c : component) ->
      Format.fprintf ppf "@,  component %d [%s]: %a -> %s" (i + 1) (Family.to_string c.family)
        Query.pp c.query (verdict_to_string c.verdict))
    r.components;
  List.iter (fun n -> Format.fprintf ppf "@,note: %s" n) r.notes;
  Format.fprintf ppf "@]"
