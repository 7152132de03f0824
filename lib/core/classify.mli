(** The complexity classifier for resilience.

    Implements the PTIME decision procedure promised by Theorem 37 for ssj
    binary queries with at most two atoms of the repeated relation, extended
    with: the general results that hold for all CQs (components, Lemma 15;
    domination, Prop 18; triads, Theorem 24; sj-free dichotomy, Theorem 7;
    paths, Theorems 27/28; k-chains, Prop 38), and the partial three-atom
    classification of Section 8 (open cases are reported as {!Open_problem}).

    Pipeline: minimize (Sec 4.1) → split into components (Sec 4.2) →
    normalize domination (Sec 4.3) → structural case analysis. *)

open Res_cq

type ptime_method =
  | Trivial_no_endogenous
      (** every atom exogenous: no contingency set can exist *)
  | Sj_free_no_triad  (** Theorem 7 easy side *)
  | Confluence_flow  (** Props 31/32: standard flow despite the 2-confluence *)
  | Unbound_permutation  (** Props 33/35 *)
  | Rep_shared_flow  (** Prop 36 (z3 family) *)
  | Perm3_flow  (** Props 13/44 (qA3perm-R, qSwx3perm-R) *)
  | Ts3conf_flow  (** Prop 41 (qTS3conf) *)

type hard_reason =
  | Triad of Atom.t * Atom.t * Atom.t  (** Theorem 24 *)
  | Unary_path  (** Theorem 27 *)
  | Binary_path  (** Theorem 28 *)
  | Chain of int  (** Props 29/30 (k = 2) and 38 (k ≥ 3) *)
  | Bound_permutation  (** Props 34/35 *)
  | Confluence_exogenous_path  (** Prop 32 *)
  | Conf3_unary_bounded  (** Props 39/40 (qAC3conf and unary variations) *)
  | Chain_confluence3  (** Props 42/43 (qAC3cc, qAS3cc, qC3cc) *)
  | Perm3_bounded  (** Props 45/46 *)
  | Rep3  (** Prop 47 (z4, z5) *)

type verdict =
  | Ptime of ptime_method
  | Np_complete of hard_reason
  | Open_problem of string  (** complexity open in the paper *)
  | Unknown of string
      (** inside a charted fragment, but the shape is not analyzed (the
          Section 8 roadmap) *)
  | Heuristic of string
      (** outside every charted fragment ({!Family.General}): the solver
          still answers exactly, but no complexity claim is made *)

(** One classified connected component. *)
type component = {
  query : Query.t;
      (** the query actually analyzed: domination-normalized and
          exogenous-split *)
  copies : (string * string) list;
      (** [(copy, base)] for each relation the exogenous split introduced
          ({!Family.split_exogenous_self_joins}); a solver materializes
          each copy as its base relation's tuples *)
  family : Family.t;  (** the family the dispatcher routed it to *)
  verdict : verdict;
}

type report = {
  original : Query.t;
  minimized : Query.t;
  components : component list;  (** per connected component *)
  verdict : verdict;  (** combined verdict (Lemma 15) *)
  notes : string list;
}

val classify : Query.t -> report
val verdict_of : Query.t -> verdict

val verdict_to_string : verdict -> string
val method_to_string : ptime_method -> string
val reason_to_string : hard_reason -> string

val agrees_with : verdict -> Zoo.expected -> bool
(** Does the classifier verdict match a paper verdict?  [Unknown] and
    [Heuristic] never agree; [Open_problem] agrees only with [Zoo.Open]. *)

val pp_report : Format.formatter -> report -> unit

val classify_component : Query.t -> component
(** Classify one minimal connected component. *)
