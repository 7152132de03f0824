(* An int -> id map by open addressing with linear probing over two
   parallel arrays: slot [i] holds key [keys.(i)] with id [ids.(i)], or
   is empty when [ids.(i) = -1] — so every int, negative ones and
   [min_int] included, is a valid key.  The load stays at most 1/2.  The
   arrays stay empty until the first [add], so a dict that never sees an
   int allocates none. *)
module Ints = struct
  type t = { mutable keys : int array; mutable ids : int array; mutable count : int; mutable bits : int }

  let create hint =
    let bits = ref 3 in
    while 1 lsl !bits < 2 * hint do
      incr bits
    done;
    { keys = [||]; ids = [||]; count = 0; bits = !bits }

  (* Multiplicative hashing: the top [bits] bits of [k] times an odd
     constant (2^64 / phi, shifted into 62 bits), so consecutive ids
     spread over the whole table. *)
  let slot t k = (k * 0x278DDE6E5FD29F05) lsr (Sys.int_size - t.bits)

  let find t k =
    if t.count = 0 then -1
    else begin
      let mask = Array.length t.ids - 1 in
      let rec probe i =
        let id = t.ids.(i) in
        if id < 0 then -1 else if t.keys.(i) = k then id else probe ((i + 1) land mask)
      in
      probe (slot t k)
    end

  let insert t k id =
    let mask = Array.length t.ids - 1 in
    let i = ref (slot t k) in
    while t.ids.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    t.keys.(!i) <- k;
    t.ids.(!i) <- id;
    t.count <- t.count + 1

  let resize t bits =
    let keys = t.keys and ids = t.ids in
    t.keys <- Array.make (1 lsl bits) 0;
    t.ids <- Array.make (1 lsl bits) (-1);
    t.bits <- bits;
    t.count <- 0;
    Array.iteri (fun i id -> if id >= 0 then insert t keys.(i) id) ids

  (* [k] must be absent *)
  let add t k id =
    if Array.length t.ids = 0 then resize t t.bits
    else if 2 * (t.count + 1) > Array.length t.ids then resize t (t.bits + 1);
    insert t k id
end

module type S = sig
  type key
  type t

  val create : ?hint:int -> unit -> t
  val intern : t -> key -> int
  val find_opt : t -> key -> int option
  val value : t -> int -> key
  val size : t -> int
end

module type KEY = sig
  include Hashtbl.HashedType

  val int_key : t -> int option
end

module Make_keyed (H : KEY) = struct
  module T = Hashtbl.Make (H)

  type key = H.t

  type t = { ints : Ints.t; table : int T.t; mutable values : H.t array; mutable len : int }

  let create ?(hint = 64) () = { ints = Ints.create hint; table = T.create 16; values = [||]; len = 0 }
  let size d = d.len

  let find_opt d v =
    match H.int_key v with
    | Some k ->
      let i = Ints.find d.ints k in
      if i < 0 then None else Some i
    | None -> T.find_opt d.table v

  let push d v =
    let i = d.len in
    if i = Array.length d.values then begin
      (* the dummy fill is [v] itself, so no [Obj.magic] placeholder *)
      let grown = Array.make (max 16 (2 * Array.length d.values)) v in
      Array.blit d.values 0 grown 0 d.len;
      d.values <- grown
    end;
    d.values.(i) <- v;
    d.len <- i + 1;
    i

  let intern d v =
    match H.int_key v with
    | Some k ->
      let i = Ints.find d.ints k in
      if i >= 0 then i
      else begin
        let i = push d v in
        Ints.add d.ints k i;
        i
      end
    | None -> (
      match T.find_opt d.table v with
      | Some i -> i
      | None ->
        let i = push d v in
        T.replace d.table v i;
        i)

  let value d i =
    if i < 0 || i >= d.len then invalid_arg "Dict.value: unassigned id";
    d.values.(i)
end

module Make (H : Hashtbl.HashedType) = Make_keyed (struct
  include H

  let int_key _ = None
end)
