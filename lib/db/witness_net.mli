(** The layered witness network of a linear query ([31], paper Section
    2.4), built from structural tuples.

    Arrange the atoms in a linear order (every variable contiguous);
    between consecutive positions the shared "boundary" variables define
    nodes; each tuple of the atom at position [p] becomes one edge from its
    left-boundary valuation to its right-boundary valuation — capacity 1 if
    endogenous, {!Res_graph.Maxflow.infinite} if exogenous.  s–t paths are
    exactly witnesses and minimum cuts are minimum contingency sets (up to
    the duplicate edges a self-joined relation contributes, one per atom).

    One network serves three consumers: the one-shot flow solver for
    queries outside the columnar plane ([Resilience.Flow]), the streaming
    tier's residual repair ([Res_inc.Incflow]: {!insert}, {!delete},
    {!augment}), and the flow-dual lower bound ([Res_bounds.Lower]:
    {!flow_paths}).  The binary id kernel [Res_col.Flowbuild] builds the
    same network on interned columns. *)

val match_atom :
  Res_cq.Atom.t -> Database.tuple -> (Res_cq.Atom.var * Value.t) list option
(** Valuation of an atom's argument list against a tuple; [None] when the
    tuple does not match a repeated-variable pattern like [R(x,x)]. *)

val boundaries : Res_cq.Atom.t array -> string list array
(** [boundaries atoms].(p) = variables occurring both in an atom [< p] and
    in an atom [>= p]; positions 0 and [m] are empty. *)

type t

val create :
  ?guard:(unit -> unit) ->
  ?fact_exogenous:(Database.fact -> bool) ->
  Res_cq.Query.t ->
  Res_cq.Atom.t array ->
  Database.t ->
  t
(** [create q atoms db]: the network of [db] for the linear order [atoms]
    of [q], with no flow routed yet.  [fact_exogenous] makes individual
    facts uncuttable (infinite capacity); [guard] is polled once per
    tuple and may raise to abandon the build. *)

val insert : t -> Database.fact -> unit
(** Add the edges of a fact (one per atom it matches).  Follow with
    {!augment}. *)

val delete : t -> Database.fact -> unit
(** Remove the edges of a fact, rerouting their flow through the residual
    network and cancelling what cannot be rerouted
    ({!Res_graph.Maxflow.remove_edge}); {!value} drops by the cancelled
    amount.  Follow with {!augment}. *)

val apply : t -> Delta.t list -> unit
(** A delta batch: every structural edit, then one {!augment}. *)

val augment : t -> unit
(** Resume Dinic on the residual network until the flow is maximum or
    reaches {!Res_graph.Maxflow.infinite} (unbreakable). *)

val value : t -> int
(** Flow routed so far, capped at {!Res_graph.Maxflow.infinite}. *)

val cut_facts : t -> Database.fact list
(** The facts on the unit edges of the minimum cut of the current flow,
    sorted and de-duplicated.  After {!augment} with a finite {!value},
    deleting them falsifies the query. *)

val flow_paths : t -> Database.fact list list
(** Decompose the current flow into unit source→sink paths; each path is
    a witness, listed by the facts on its unit edges. *)
