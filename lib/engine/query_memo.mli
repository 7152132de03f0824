(** A bounded memo of {!Canon.keyed} by query structure.

    Canonicalization is the costly part of looking a query up; the memo
    key — the query's atoms in order plus its exogenous relations — is
    far cheaper to build.  Equal memo keys mean literally equal queries,
    hence equal [Canon.keyed] results.  The engine's query memo and the
    shard router's routing keys both use one.  Domain-safe (a
    {!Cache} underneath); two threads may race to the same miss, and
    both store the same value. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) bounds the distinct queries kept, least
    recently used evicted first. *)

val keyed : t -> Res_cq.Query.t -> Canon.keyed * float option
(** The query's canonical key and renaming.  A miss runs
    {!Canon.keyed} under an [engine/canon] span, stores the result and
    also returns the wall seconds it took; a hit returns [None]. *)

val misses : t -> int
(** The {!Canon.keyed} calls the memo has made. *)
