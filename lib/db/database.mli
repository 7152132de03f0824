(** Database instances: finite relations over {!Value.t} constants.

    Tuples carry their relation name ({!fact}); following the paper, the
    database is the disjoint union of its relations and its size is the
    total number of tuples. *)

type tuple = Value.t list

type fact = { rel : string; tuple : tuple }

module Fact_set : Set.S with type elt = fact

type t

val empty : t
val add : t -> fact -> t
val add_row : t -> string -> tuple -> t
val remove : t -> fact -> t
val remove_all : t -> fact list -> t
val mem : t -> fact -> bool

val of_facts : fact list -> t
val facts : t -> fact list

val of_rows : (string * tuple list) list -> t
(** Bulk load: one balanced-set build per relation (fast path for the
    generated million-tuple instances); repeated relation names union. *)

val with_relation : t -> string -> tuple list -> t
(** Replace a relation's tuples wholesale (removing the relation when
    the list is empty). *)

val of_int_rows : (string * int list list) list -> t
(** Convenience for tests: int constants. *)

val tuples_of : t -> string -> tuple list

val iter_tuples : t -> string -> (tuple -> unit) -> unit
(** {!tuples_of}, in order, without building the list. *)

val cardinal : t -> string -> int
(** Number of tuples of one relation. *)

val relations : t -> string list
val size : t -> int
(** n = |D|, the number of tuples. *)

val active_domain : t -> Value.t list

val endogenous_facts : t -> Res_cq.Query.t -> fact list
(** Facts whose relation is endogenous in the given query. *)

val restrict : t -> string list -> t
(** Keep only the listed relations. *)

val union : t -> t -> t

val fact : string -> Value.t list -> fact

val compare_fact : fact -> fact -> int
(** Relation name, then tuple under {!Value.compare}; agrees with
    [Stdlib.compare] on facts. *)

val pp : Format.formatter -> t -> unit
val pp_fact : Format.formatter -> fact -> unit
