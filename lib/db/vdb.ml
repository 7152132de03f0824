(* Versioned database: the mutable view the streaming tier solves against.

   A [Vdb.t] is an immutable [Database.t] snapshot that advances per
   delta batch, plus a version and a content fingerprint that advance with
   it.  Versions count effective deltas; the fingerprint is an
   order-independent XOR of per-fact 64-bit FNV-1a hashes, so it is
   maintainable in O(1) per delta and usable as a cache key component. *)

type t = { mutable db : Database.t; mutable version : int; mutable fp : int64 }

let fact_hash (f : Database.fact) =
  let s = Format.asprintf "%a" Database.pp_fact f in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fingerprint_bits db =
  List.fold_left (fun acc f -> Int64.logxor acc (fact_hash f)) 0L (Database.facts db)

let fingerprint_of db = Printf.sprintf "%016Lx" (fingerprint_bits db)
let create db = { db; version = 0; fp = fingerprint_bits db }
let db t = t.db
let version t = t.version
let fingerprint t = Printf.sprintf "%016Lx" t.fp

let apply t deltas =
  let eff = Delta.effective t.db deltas in
  List.iter
    (fun d ->
      (match d with
      | Delta.Insert f -> t.db <- Database.add t.db f
      | Delta.Delete f -> t.db <- Database.remove t.db f);
      t.fp <- Int64.logxor t.fp (fact_hash (Delta.fact_of d));
      t.version <- t.version + 1)
    eff;
  eff
