(** Versioned database.

    The streaming tier's view of a database: an immutable {!Database.t}
    snapshot (consumed unchanged by every solver) that advances per delta
    batch, with a version and a content fingerprint.

    The version counts effective deltas; the fingerprint is an
    order-independent XOR of per-fact FNV-1a hashes, maintained in O(1) per
    delta.  Two databases with equal fingerprints are equal up to hash
    collisions (64-bit), so (canonical query, fingerprint) is a sound cache
    key in practice and can never confuse two states of one watch session
    (any single insert or delete flips the fingerprint). *)

type t

val create : Database.t -> t
val db : t -> Database.t
(** The current immutable snapshot. *)

val version : t -> int
(** Number of effective deltas applied so far. *)

val fingerprint : t -> string
(** 16-hex-digit content fingerprint of the current state. *)

val fingerprint_of : Database.t -> string
(** One-shot fingerprint of an immutable database (O(size)); agrees with
    {!fingerprint} on equal contents. *)

val apply : t -> Delta.t list -> Delta.t list
(** Apply a batch in order, returning the effective subsequence (inserts of
    present facts and deletes of absent ones are dropped).  The snapshot,
    version and fingerprint advance together. *)
