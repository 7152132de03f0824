(** The paper's specialized PTIME solvers — the "trickier" flow and
    matching constructions that the generic linear flow does not cover.

    Each solver is written against the paper's template query; callers
    (normally {!Solver}) pass the concrete relation names obtained from a
    template isomorphism.  Every returned contingency set is re-verified
    against the query before being returned. *)

open Res_db

val solve_perm : r:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 33, qperm :- R(x,y),R(y,x): one tuple per two-way pair. *)

val solve_a_perm : a:string -> r:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 33, qAperm :- A(x),R(x,y),R(y,x): minimum vertex cover in a
    bipartite graph (König). *)

val solve_z3 : r:string -> a:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 36, z3 :- R(x,x),R(x,y),A(y): off-diagonal R-tuples are
    never needed; bipartite vertex cover between the diagonal R-tuples and
    the A-tuples. *)

val solve_a3perm : a:string -> r:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 13, qA3perm-R :- A(x),R(x,y),R(y,z),R(z,y): flow over
    A-tuples and two-way pairs; one-way R-tuples are dominated and get
    infinite weight. *)

val solve_swx3perm : s:string -> r:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 44, qSwx3perm-R :- S(w,x),R(x,y),R(y,z),R(z,y): like
    Prop 13 but S does not dominate one-way R-tuples, which therefore
    become unit-capacity edges of their own. *)

val solve_ts3conf :
  t_rel:string -> r:string -> s_rel:string -> Database.t -> Res_cq.Query.t -> Solution.t
(** Proposition 41, qTS3conf :- T^x(x,y),R(x,y),R(z,y),R(z,w),S^x(z,w):
    tuples R(a,b) with both T(a,b) and S(a,b) present are forced into every
    contingency set; the rest reduces to the standard linear flow. *)

val solve_witness_bipartite : Database.t -> Res_cq.Query.t -> Solution.t option
(** Instance-level polynomial algorithm: enumerate witnesses, collapse
    "twin" facts (tuples occurring in exactly the same witnesses are
    interchangeable — e.g. the two orientations of a permutation pair),
    force singleton witnesses, and solve the remaining size-2 witnesses as
    bipartite vertex cover (König).  Returns [None] when a collapsed
    witness still has more than two units or the conflict graph is not
    bipartite.  Covers the paper's 2-endogenous-group PTIME queries
    (qrats-style after normalization, unbound permutations with exogenous
    guards, qAperm, z3) uniformly. *)

type pair_collapse
(** The query-level half of Proposition 35 case 1 (below): which
    permutation variable collapses into the pair unit, and the atoms the
    rewrite keeps. *)

val pair_collapse : r:string -> Res_cq.Query.t -> pair_collapse option
(** Proposition 35 case 1: the general unbound permutation.  The two
    R-atoms R(x,y), R(y,x) appear in every witness as a two-way pair
    {c,d}, and deleting either orientation kills every witness of the
    pair.  Encode the pair as a single unit: replace the R-atoms by
    Pair^x(x,p), Pay(p) over a fresh pair relation (Pair holds (c,⟨cd⟩)
    for every witness-active orientation, Pay one unit tuple per pair) and
    run the standard linear flow on the rewritten query.  Applicable when
    the rewritten query is linear and every non-R atom containing the
    second permutation variable is exogenous; [None] otherwise.  Decided
    from the query alone. *)

val solve_pair_collapse : pair_collapse -> Database.t -> Res_cq.Query.t -> Solution.t
(** Run the rewrite of {!pair_collapse} on a database.  Pair and Pay get
    names that neither the query nor the database uses. *)
