(** Incremental solvers for the permutation-family PTIME templates.

    Each structure mirrors the from-scratch construction in
    {!Resilience.Special} but is maintained under tuple deltas: the
    two-way-pair set directly for [R(x,y), R(y,x)], and a dynamic
    Hopcroft–Karp matching ({!Res_graph.Bipartite}) whose König vertex cover
    is read out on demand for the guarded variants.  [solution] always
    returns the same resilience value as the corresponding [Special] solver
    and a genuine minimum contingency set of currently-present facts.

    Deltas not matching the template's relations (or arities) are ignored;
    delete deltas are expected to be {e effective} (the fact is present). *)

open Res_db

(** [R(x,y), R(y,x)] — ρ = number of two-way pairs (Prop 33). *)
module Pairs : sig
  type t

  val create : r:string -> Database.t -> t
  val apply : t -> Delta.t list -> unit
  val solution : t -> Resilience.Solution.t
end

(** [A(x), R(x,y), R(y,x)] — König cover of A-values × two-way pairs
    (Prop 33 with unary guard). *)
module APerm : sig
  type t

  val create : a:string -> r:string -> Database.t -> t
  val apply : t -> Delta.t list -> unit
  val solution : t -> Resilience.Solution.t
end

(** [R(x,x), R(x,y), A(y)] — König cover of diagonals × A-values, one edge
    per middle tuple (Prop 36, the z3 family). *)
module Z3 : sig
  type t

  val create : r:string -> a:string -> Database.t -> t
  val apply : t -> Delta.t list -> unit
  val solution : t -> Resilience.Solution.t
end
