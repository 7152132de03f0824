(** Query isomorphism: equality up to renaming of variables and of relation
    symbols (preserving arity, exogeneity, and the atom structure).

    Used to match a query against the paper's named templates when the
    classification of Section 8 depends on the exact query shape (e.g.
    qTS3conf vs qAC3conf vs the open qAS3conf). *)

open Res_cq

val isomorphic : Query.t -> Query.t -> bool

val matches_template : Query.t -> string -> bool
(** [matches_template q s] parses [s] (see {!Res_cq.Parser}) and tests
    isomorphism. *)

val mirror : Query.t -> Query.t
(** Reverse the argument order of every binary atom.  Resilience is
    invariant under this global symmetry, so template matching should try
    both a template and its mirror. *)

val match_template : Query.t -> Query.t -> ((string * string) list * bool) option
(** [match_template tmpl q]: the template's relation map onto [q], trying
    [q] itself and then its {!mirror}; the flag is [true] when only the
    mirror matched, in which case the map renames the template onto
    [mirror q].  The template matcher of the solver's plan. *)

val matches_template_upto_mirror : Query.t -> string -> bool
