open Res_cq

type t = (string, Canon.keyed) Cache.t

let create ?(capacity = 4096) () = Cache.create ~capacity ()

(* Every name length-prefixed, so the serialization is injective. *)
let memo_key (q : Query.t) =
  let b = Buffer.create 64 in
  let name s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  List.iter
    (fun (a : Atom.t) ->
      name a.rel;
      List.iter name a.args;
      Buffer.add_char b ';')
    q.atoms;
  Buffer.add_char b '|';
  Query.Sset.iter name q.exo;
  Buffer.contents b

let keyed t q =
  let mk = memo_key q in
  match Cache.find t mk with
  | Some k -> (k, None)
  | None ->
    let t0 = Unix.gettimeofday () in
    let k = Res_obs.Obs.span ~cat:"engine" "canon" (fun () -> Canon.keyed q) in
    let dt = Unix.gettimeofday () -. t0 in
    Cache.add t mk k;
    (k, Some dt)

let misses = Cache.misses
