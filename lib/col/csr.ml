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

(* Counting-sort buckets of the live tuples by [col], in [cnt] (n + 1
   slots): on return [cnt.(b)] is one past the last slot of bucket [b]
   and [cnt.(n)] is the live count.  Scattering the tuples in reverse,
   each one to [decr cnt.(b)], then leaves every bucket start in
   [cnt.(b)] — a stable sort whose table is also the row pointer. *)
let bucket_ends ~n cnt col live =
  Array.fill cnt 0 (n + 1) 0;
  Array.iter (fun tid -> cnt.(col.(tid)) <- cnt.(col.(tid)) + 1) live;
  for b = 1 to n do
    cnt.(b) <- cnt.(b) + cnt.(b - 1)
  done

(* One direction as two stable counting passes, an LSD sort with base
   [n]: the live tuple ids ordered by [value] into [order], then stably
   scattered into rows by [key].  Every row comes out sorted by value —
   strictly, since (src, dst) pairs are unique — in O(n + m), with no
   per-row sort.  [cnt] and [order] are scratch shared by both
   directions. *)
let index ~n ~cnt ~order key value live =
  let m = Array.length live in
  bucket_ends ~n cnt value live;
  for i = m - 1 downto 0 do
    let tid = live.(i) in
    let v = value.(tid) in
    cnt.(v) <- cnt.(v) - 1;
    order.(cnt.(v)) <- tid
  done;
  let ptr = Array.make (n + 1) 0 in
  bucket_ends ~n ptr key live;
  let vals = Array.make m 0 and tids = Array.make m 0 in
  for i = m - 1 downto 0 do
    let tid = order.(i) in
    let k = key.(tid) in
    ptr.(k) <- ptr.(k) - 1;
    vals.(ptr.(k)) <- value.(tid);
    tids.(ptr.(k)) <- tid
  done;
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

let build ~fwd ~rev ~n ~col0 ~col1 live =
  if n >= limit then invalid_arg "Csr.build: node id space exceeds 31 bits";
  let m = Array.length live in
  Array.iter
    (fun tid ->
      if tid < 0 || tid >= limit then invalid_arg "Csr.build: tuple id exceeds 31 bits";
      let s = col0.(tid) and d = col1.(tid) in
      if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Csr.build: id out of range")
    live;
  let cnt = Array.make (n + 1) 0 and order = Array.make m 0 in
  let fwd_ptr, fwd_dst, fwd_tid =
    if fwd then index ~n ~cnt ~order col0 col1 live else ([||], [||], [||])
  in
  let rev_ptr, rev_src, rev_tid =
    if rev then index ~n ~cnt ~order col1 col0 live else ([||], [||], [||])
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
