(** Value interning: dense integer IDs for arbitrary hashable constants.

    The columnar plane works entirely over [int] node ids; a [Dict] is the
    boundary where structural values enter.  IDs are assigned densely in
    first-intern order, so the same insertion sequence always yields the
    same numbering — which makes every downstream structure (CSR layout,
    trie-join enumeration order) deterministic.  IDs are never negative,
    so they are valid keys of the integer sort {!Sorted.sort}. *)

module type S = sig
  type key
  type t

  val create : ?hint:int -> unit -> t
  (** [hint] is the expected number of distinct values (default 64). *)

  val intern : t -> key -> int
  (** The id of [v], assigning the next dense id on first sight.
      Idempotent: a second intern of an equal value returns the same id. *)

  val find_opt : t -> key -> int option
  (** The id of [v] if already interned, without assigning one. *)

  val value : t -> int -> key
  (** Inverse lookup.  @raise Invalid_argument on an unassigned id. *)

  val size : t -> int
  (** Number of interned values; assigned ids are exactly [0 .. size-1]. *)
end

module type KEY = sig
  include Hashtbl.HashedType

  val int_key : t -> int option
  (** [Some k] for a value that is a plain integer [k] (two values with
      the same [int_key] must be equal, and the other way round); [None]
      for every other value. *)
end

module Make_keyed (H : KEY) : S with type key = H.t
(** Integer values go through an open-addressing int table — no
    polymorphic hashing, no boxed keys — allocated at the first integer,
    sized for [hint] of them and doubled when it passes half full; every
    key is valid, negative ones included.  Other values go through a [Hashtbl] that grows on demand.
    Both share one id counter, so the ids are exactly those of {!Make}
    on the same stream. *)

module Make (H : Hashtbl.HashedType) : S with type key = H.t
(** Every value through [Hashtbl] — the reference {!Make_keyed} is
    tested against. *)
