module Bipartite = Res_graph.Bipartite

(* Packed binary-tuple keys: (u lsl 31) lor v, both ids < 2^31 by the
   Csr/dict budget, so a pack fits OCaml's 63-bit ints and compares
   lexicographically under [Int.compare]. *)
let pack u v = (u lsl 31) lor v
let fst_of k = k lsr 31
let snd_of k = k land ((1 lsl 31) - 1)

let distinct_ids col = Sorted.sort_uniq col

let distinct_keys ~col0 ~col1 =
  let m = Array.length col0 in
  Sorted.sort_uniq (Array.init m (fun i -> pack col0.(i) col1.(i)))

let two_way keys =
  let all = Sorted.full keys in
  let out = ref [] in
  (* walk descending so the accumulated list comes out ascending *)
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    let u = fst_of k and v = snd_of k in
    if u = v then out := k :: !out
    else if u < v && Sorted.mem all (pack v u) then out := k :: !out
  done;
  Array.of_list !out

let diagonal keys =
  let out = ref [] in
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    let u = fst_of k in
    if u = snd_of k then out := u :: !out
  done;
  Array.of_list !out

type cover_graph = { g : Bipartite.t; left_ids : int array; right_keys : int array }

(* Vertex ids of single-id classes are dense ranks: one id -> rank
   table per class, then O(1) membership and rank per edge. *)
let aperm_graph ~a_ids ~two_way =
  let g = Bipartite.create ~n_left:(Array.length a_ids) ~n_right:(Array.length two_way) in
  let a_rank = Sorted.dense_ranks a_ids in
  Array.iteri
    (fun pi k ->
      let u = fst_of k and v = snd_of k in
      (* witness (u,v) needs A(u); witness (v,u) needs A(v) *)
      let ru = Sorted.dense_rank a_rank u in
      if ru >= 0 then Bipartite.add_edge g ru pi;
      let rv = Sorted.dense_rank a_rank v in
      if v <> u && rv >= 0 then Bipartite.add_edge g rv pi)
    two_way;
  { g; left_ids = a_ids; right_keys = two_way }

let z3_graph ~diag ~a_ids ~keys =
  let g = Bipartite.create ~n_left:(Array.length diag) ~n_right:(Array.length a_ids) in
  let d_rank = Sorted.dense_ranks diag and a_rank = Sorted.dense_ranks a_ids in
  Array.iter
    (fun k ->
      (* witness (u,v): needs R(u,u), R(u,v), A(v) — edge R(u,u)—A(v) *)
      let ru = Sorted.dense_rank d_rank (fst_of k) and rv = Sorted.dense_rank a_rank (snd_of k) in
      if ru >= 0 && rv >= 0 then Bipartite.add_edge g ru rv)
    keys;
  { g; left_ids = diag; right_keys = a_ids }
