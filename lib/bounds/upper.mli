(** Certified upper bounds on resilience: explicit hitting sets.

    The certificate {e is} the cover — a set of variables hitting every
    covering constraint.  {!check} re-verifies the hitting property, so
    a checked bound gives [ρ ≤ value] unconditionally. *)

type bound = { value : int; cover : int list }

val greedy : Ilp.t -> bound
(** Classic ln(n)-approximate greedy cover: repeatedly choose the
    variable hitting the most uncovered constraints. *)

val improve : ?max_rounds:int -> ?stop:(unit -> bool) -> Ilp.t -> bound -> bound
(** Polish a cover by redundancy elimination and 2→1 swaps (replace two
    chosen variables by one), iterated to a fixpoint or [max_rounds].
    Skipped on large programs — the polish must stay cheap relative to
    the exact search it seeds.  [stop] is polled once per swap candidate;
    once it answers [true] the polish returns the (valid) cover it has. *)

val best : ?stop:(unit -> bool) -> Ilp.t -> bound
(** [improve ilp (greedy ilp)]. *)

val check : Ilp.t -> bound -> bool
(** Does the cover really hit every constraint, with [value] at least
    its cardinality? *)

val facts : Ilp.t -> bound -> Res_db.Database.fact list
(** The cover as database facts (for programs built by
    {!Ilp.of_instance}). *)
