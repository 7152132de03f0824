type t = {
  n : int;
  m : int;
  fwd_ptr : int array;
  fwd_dst : int array;
  fwd_tid : int array;
  rev_ptr : int array;
  rev_src : int array;
  rev_tid : int array;
  srcs : int array;
  dsts : int array;
}

(* Prefix offsets of a counting sort: [off.(b)] is the first slot of
   bucket [b] in [0 .. n-1]. *)
let offsets ~n edges bucket =
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      let b = bucket e + 1 in
      off.(b) <- off.(b) + 1)
    edges;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  off

(* One direction as two stable counting passes, an LSD sort with base
   [n]: edge indexes ordered by [value], then stably scattered into
   rows by [key].  Every row comes out sorted by value — strictly,
   since (src, dst) pairs are unique — in O(n + m), with no per-row
   sort. *)
let index ~n ~m edges key value =
  let by_value = Array.make m 0 in
  let pos = offsets ~n edges value in
  Array.iteri
    (fun i e ->
      let v = value e in
      by_value.(pos.(v)) <- i;
      pos.(v) <- pos.(v) + 1)
    edges;
  let ptr = offsets ~n edges key in
  let pos = Array.sub ptr 0 n in
  let vals = Array.make m 0 and tids = Array.make m 0 in
  Array.iter
    (fun i ->
      let ((_, _, tid) as e) = edges.(i) in
      let k = key e in
      vals.(pos.(k)) <- value e;
      tids.(pos.(k)) <- tid;
      pos.(k) <- pos.(k) + 1)
    by_value;
  (ptr, vals, tids)

let nonempty_rows ptr n =
  let count = ref 0 in
  for r = 0 to n - 1 do
    if ptr.(r + 1) > ptr.(r) then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for r = 0 to n - 1 do
    if ptr.(r + 1) > ptr.(r) then begin
      out.(!k) <- r;
      incr k
    end
  done;
  out

(* Ids and tuple ids stay below 2^31 so callers can pack them two to an
   int (the kernel builders' keys). *)
let limit = 1 lsl 31

let build_dirs ~fwd ~rev ~n edges =
  if n >= limit then invalid_arg "Csr.build: node id space exceeds 31 bits";
  Array.iter
    (fun (s, d, tid) ->
      if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Csr.build: id out of range";
      if tid < 0 || tid >= limit then invalid_arg "Csr.build: tuple id exceeds 31 bits")
    edges;
  let m = Array.length edges in
  let fwd_ptr, fwd_dst, fwd_tid =
    if fwd then index ~n ~m edges (fun (s, _, _) -> s) (fun (_, d, _) -> d)
    else ([||], [||], [||])
  in
  let rev_ptr, rev_src, rev_tid =
    if rev then index ~n ~m edges (fun (_, d, _) -> d) (fun (s, _, _) -> s)
    else ([||], [||], [||])
  in
  {
    n;
    m;
    fwd_ptr;
    fwd_dst;
    fwd_tid;
    rev_ptr;
    rev_src;
    rev_tid;
    srcs = (if fwd then nonempty_rows fwd_ptr n else [||]);
    dsts = (if rev then nonempty_rows rev_ptr n else [||]);
  }

let build ~n edges = build_dirs ~fwd:true ~rev:true ~n edges

let n_nodes t = t.n
let n_edges t = t.m

let row ptr arr n x =
  if x < 0 || x >= n then { Sorted.arr; off = 0; len = 0 }
  else { Sorted.arr; off = ptr.(x); len = ptr.(x + 1) - ptr.(x) }

let succ t x = row t.fwd_ptr t.fwd_dst t.n x
let pred t y = row t.rev_ptr t.rev_src t.n y
let succ_tid t x i = t.fwd_tid.(t.fwd_ptr.(x) + i)
let pred_tid t y i = t.rev_tid.(t.rev_ptr.(y) + i)
let srcs t = t.srcs
let dsts t = t.dsts

let edge_index t x y =
  if x < 0 || x >= t.n then -1
  else begin
    let hi = t.fwd_ptr.(x + 1) in
    let i = Sorted.lower_bound t.fwd_dst t.fwd_ptr.(x) hi y in
    if i < hi && t.fwd_dst.(i) = y then i else -1
  end

let mem t x y = edge_index t x y >= 0

let tid_of t x y =
  let i = edge_index t x y in
  if i < 0 then None else Some t.fwd_tid.(i)
