(** Dynamic residual-graph repair for linear-query flow networks.

    Maintains the {!Res_db.Witness_net} network under tuple deltas:
    inserts add edges and resume Dinic on the residual network; deletes
    reroute the lost flow and cancel the remainder, then re-augment.
    Amortized cost per delta is the re-augmentation work the delta
    actually causes — at most one unit path for an endogenous tuple —
    instead of a from-scratch network build and max-flow.

    Soundness domain: linear queries with every endogenous relation in
    exactly one atom.  There facts and unit edges are in
    bijection, min cuts are minimum contingency sets with no duplicate-edge
    artifacts, and {!solution} always agrees with [Flow.solve].  Queries
    with endogenous self-joins are rejected at {!create} and handled by the
    session's recompute strategy.

    The semijoin reduction of the from-scratch columnar path is skipped:
    it only shrinks the network, never changes its max-flow value, and an
    incremental structure cannot afford a global pruning pass per
    delta. *)

type t

val create : Res_db.Database.t -> Res_cq.Query.t -> t option
(** Build the network for the current database and run the initial max-flow.
    [None] outside the soundness domain. *)

val apply : t -> Res_db.Delta.t list -> unit
(** {!Res_db.Witness_net.apply}: an (effective) delta batch, deletions
    repaired eagerly, then one re-augmentation for the whole batch. *)

val solution : t -> Resilience.Solution.t
(** Current resilience: [Unbreakable], or [Finite (v, cut_facts)] where the
    cut facts are an optimal contingency set of size [v]. *)
