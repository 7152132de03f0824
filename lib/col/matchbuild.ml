module Bipartite = Res_graph.Bipartite

(* Packed binary-tuple keys: (u lsl 31) lor v, both ids < 2^31 by the
   Csr/dict budget, so a pack fits OCaml's 63-bit ints and compares
   lexicographically under [Int.compare]. *)
let pack u v = (u lsl 31) lor v
let fst_of k = k lsr 31
let snd_of k = k land ((1 lsl 31) - 1)

(* sorted distinct copy of [arr] — the renumbering primitive shared by
   every kernel below; no hash table, no boxed keys *)
let sort_uniq arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let a = Array.copy arr in
    Array.sort Int.compare a;
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then incr distinct
    done;
    let uniq = Array.make !distinct a.(0) in
    let k = ref 0 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then begin
        incr k;
        uniq.(!k) <- a.(i)
      end
    done;
    uniq
  end

let mem sorted x =
  let hi = Array.length sorted in
  let i = Sorted.lower_bound sorted 0 hi x in
  i < hi && sorted.(i) = x

let rank sorted x =
  let i = Sorted.lower_bound sorted 0 (Array.length sorted) x in
  assert (i < Array.length sorted && sorted.(i) = x);
  i

let distinct_ids col = sort_uniq col

let distinct_keys ~col0 ~col1 =
  let m = Array.length col0 in
  sort_uniq (Array.init m (fun i -> pack col0.(i) col1.(i)))

let two_way keys =
  let out = ref [] in
  (* walk descending so the accumulated list comes out ascending *)
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    let u = fst_of k and v = snd_of k in
    if u = v then out := k :: !out
    else if u < v && mem keys (pack v u) then out := k :: !out
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

let aperm_graph ~a_ids ~two_way =
  let g = Bipartite.create ~n_left:(Array.length a_ids) ~n_right:(Array.length two_way) in
  Array.iteri
    (fun pi k ->
      let u = fst_of k and v = snd_of k in
      (* witness (u,v) needs A(u); witness (v,u) needs A(v) *)
      if mem a_ids u then Bipartite.add_edge g (rank a_ids u) pi;
      if v <> u && mem a_ids v then Bipartite.add_edge g (rank a_ids v) pi)
    two_way;
  { g; left_ids = a_ids; right_keys = two_way }

let z3_graph ~diag ~a_ids ~keys =
  let g = Bipartite.create ~n_left:(Array.length diag) ~n_right:(Array.length a_ids) in
  Array.iter
    (fun k ->
      let u = fst_of k and v = snd_of k in
      (* witness (u,v): needs R(u,u), R(u,v), A(v) — edge R(u,u)—A(v) *)
      if mem diag u && mem a_ids v then Bipartite.add_edge g (rank diag u) (rank a_ids v))
    keys;
  { g; left_ids = diag; right_keys = a_ids }
