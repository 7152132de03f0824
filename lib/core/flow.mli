(** Resilience by reduction to network flow for linear queries.

    The construction of [31] (paper Section 2.4): arrange the atoms in a
    linear order (every variable contiguous); between consecutive positions
    the shared "boundary" variables define nodes; each tuple of the atom at
    position [p] becomes one edge from its left-boundary valuation to its
    right-boundary valuation — capacity 1 if endogenous, ∞ if exogenous.
    s–t paths are exactly witnesses and minimum cuts are minimum
    contingency sets.  Queries of arity ≤ 2 build the network on interned
    ids ({!Res_col.Flowbuild}); wider ones use the structural
    {!Res_db.Witness_net}.

    With self-joins a tuple may occur as several edges (one per atom of its
    relation).  For the classes where the paper proves the standard flow
    still works — linear queries whose only self-join is a single
    2-confluence (Prop 31, Lemma 55: no minimal cut uses two copies), and
    qTS3conf after forced-tuple elimination (Prop 41) — the duplicate edges
    are harmless: the cut's distinct tuples number exactly the flow value
    (asserted), so the de-duplicated cut is a minimum contingency set.  It
    is re-verified against the query.

    [fact_exogenous] lets callers force specific {e tuples} (not whole
    relations) to be uncuttable — e.g. Prop 36 makes off-diagonal R-tuples
    exogenous for the z3 family.

    [cancel] is polled once per tuple while the network is built and once
    after each of the build and the max-flow, never after the cut; a fired
    token raises {!Cancel.Cancelled} (flow has no useful partial answer to
    salvage). *)

open Res_db

val solve :
  ?cancel:Cancel.t ->
  ?fact_exogenous:(Database.fact -> bool) ->
  Database.t ->
  Res_cq.Query.t ->
  Solution.t option
(** [None] when the query is not linear (no contiguous atom order).
    The result is verified: the returned set is a genuine contingency set
    (deleting it falsifies the query).
    @raise Cancel.Cancelled when [cancel] fires. *)

val solve_exn :
  ?cancel:Cancel.t ->
  ?fact_exogenous:(Database.fact -> bool) ->
  Database.t ->
  Res_cq.Query.t ->
  Solution.t
(** @raise Invalid_argument when the query is not linear. *)
