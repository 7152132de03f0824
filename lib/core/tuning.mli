(** Contingency-set minimalization shared by {!Flow} and {!Special}.

    The greedy pass costs one [Eval.sat] per candidate fact, so it only
    runs on databases of at most 20_000 facts. *)

val minimalize :
  ?cancel:Cancel.t ->
  Res_db.Database.t ->
  Res_cq.Query.t ->
  Res_db.Database.fact list ->
  Res_db.Database.fact list
(** Drop facts whose removal keeps the remainder a contingency set, greedily
    left to right.  Identity when the candidate list exceeds 200 facts or the
    database exceeds 20_000 facts.

    Internally runs a counting rewrite of the greedy pass: witnesses are
    enumerated once and a per-witness count of still-kept candidates
    replaces the per-step [Eval.sat] call — same output, one enumeration
    instead of [|facts|] evaluations.  Falls back to the sat loop
    ({!minimalize_greedy}) when the candidate list contains structural
    duplicates or witness enumeration overflows. *)

val minimalize_greedy :
  ?cancel:Cancel.t ->
  Res_db.Database.t ->
  Res_cq.Query.t ->
  Res_db.Database.fact list ->
  Res_db.Database.fact list
(** The reference sat-per-step greedy pass, ungated — exposed so the
    differential suite can check the counting rewrite against it. *)
