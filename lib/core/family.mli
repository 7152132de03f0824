(** Query-family recognition: which charted complexity regime an input
    query falls in, and hence which dichotomy {!Classify} may apply and
    which solver pipeline {!Solver} should route it to.

    Three regimes are charted:

    - {!Binary_ssj} — binary queries whose only repeated relation is a
      single self-join: the fragment of the source paper (Theorem 37 plus
      the Section 8 three-atom analysis).
    - {!Sjf_any_arity} — self-join-free queries at any arity: the original
      triad dichotomy (Freire et al., arXiv:1507.00674).  {!Triad.find}
      and {!Linearity} are hypergraph-based and arity-generic, so
      triad-free queries route to the flow construction ({!Flow.solve}
      falls back to its structural network above arity 2) and
      triad-positive ones to {!Exact}.
    - {!General} — everything else (e.g. ternary self-joins).  No
      dichotomy is known; the solver still answers exactly, but the
      classification verdict carries a [Heuristic] tag rather than a
      complexity claim.

    Recognition happens per connected component {e after} normalization
    (domination, Prop 18, and the exogenous-self-join split): a repeated
    exogenous relation is split apart first, so queries whose only
    self-joins are exogenous land in the sjf regime they actually
    belong to. *)

open Res_cq

type t =
  | Binary_ssj  (** the paper's dichotomy fragment *)
  | Sjf_any_arity  (** self-join-free, any arity (triad dichotomy) *)
  | General  (** outside both charted fragments *)

val to_string : t -> string
(** ["binary-ssj"] / ["sjf-any-arity"] / ["general"] — the tags shown in
    classification reports and the CLI JSON. *)

val of_component : Query.t -> t
(** Recognize one {e normalized} component (domination-normalized and
    exogenous-split, as {!Classify.classify_component} produces them).
    Self-join-freeness wins over the binary-ssj test: an sjf binary query
    is in both fragments and the sjf dichotomy is the more general
    result. *)

val of_query : Query.t -> t
(** Recognize a whole query: minimize, split into components, normalize
    each, and combine with the precedence [General > Binary_ssj >
    Sjf_any_arity] — the query's family is the most demanding regime any
    of its components needs. *)

val fresh_relation : (string -> bool) -> string -> string
(** [fresh_relation taken base]: [base__k] for the least [k ≥ 1] that
    [taken] rejects — how every rewrite names the relations it adds. *)

val split_exogenous_self_joins : Query.t -> Query.t * (string * string) list
(** Rename repeated {e exogenous} relations apart (R → R__1, R__2, …):
    exogenous tuples are never deleted, so duplicating the relation per
    atom preserves witnesses and contingency sets while removing the
    self-join.  Returns the split query and its copy map [(copy, base)];
    a copy name never equals a relation of the input query (taken
    suffixes are skipped).  Lives here (not in {!Classify}) because
    family recognition runs on the split query. *)
