type slice = { arr : int array; off : int; len : int }

let full arr = { arr; off = 0; len = Array.length arr }
let to_array s = Array.sub s.arr s.off s.len
let of_list l = Array.of_list (List.sort_uniq Int.compare l)

(* ---- the integer sort ---------------------------------------------------- *)

(* Below [small] elements an insertion sort beats the radix passes, whose
   fixed cost is clearing and prefix-summing the digit counts. *)
let small = 64

let insertion_sort (a : int array) =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* LSD radix sort.  A digit where every key agrees moves nothing, so the
   passes run only over bits that vary: [varying] has a bit set where
   some two keys differ, each digit starts at the lowest varying bit not
   yet sorted, and the loop stops past the highest one.  Packed
   [(u lsl 31) lor v] keys thus skip the empty bits between their
   halves, and small ids need one or two passes whatever the array
   length. *)
let bits = 11

let radix_sort a ~varying =
  let n = Array.length a in
  let mask = (1 lsl bits) - 1 in
  let count = Array.make (mask + 1) 0 in
  let src = ref a and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift < Sys.int_size && varying lsr !shift <> 0 do
    while (varying lsr !shift) land 1 = 0 do
      incr shift
    done;
    let sh = !shift and s = !src and d = !dst in
    Array.fill count 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land mask in
      count.(b) <- count.(b) + 1
    done;
    let sum = ref 0 in
    for b = 0 to mask do
      let c = count.(b) in
      count.(b) <- !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let x = s.(i) in
      let b = (x lsr sh) land mask in
      d.(count.(b)) <- x;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + bits
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sort a =
  let any = ref 0 and all = ref (-1) in
  Array.iter
    (fun x ->
      any := !any lor x;
      all := !all land x)
    a;
  if !any < 0 then invalid_arg "Sorted.sort: negative key";
  if Array.length a < small then insertion_sort a
  else radix_sort a ~varying:(!any lxor !all)

(* compact a sorted array to its distinct values, in a fresh array *)
let dedup_sorted (a : int array) =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then incr distinct
    done;
    if !distinct = n then a
    else begin
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
  end

let sort_uniq a =
  let a = Array.copy a in
  sort a;
  dedup_sorted a

let dense_ranks sorted =
  let n = Array.length sorted in
  let ranks = Array.make (if n = 0 then 0 else sorted.(n - 1) + 1) (-1) in
  Array.iteri (fun i x -> ranks.(x) <- i) sorted;
  ranks

let dense_rank ranks x = if x >= 0 && x < Array.length ranks then ranks.(x) else -1

let is_strictly_sorted (a : int array) =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

let lower_bound (arr : int array) lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Exponential probe from [lo], then binary search inside the last
   doubling window.  Equivalent to [lower_bound arr lo hi x]. *)
let gallop (arr : int array) lo hi x =
  if lo >= hi || arr.(lo) >= x then lo
  else begin
    let step = ref 1 in
    let prev = ref lo in
    (* invariant: arr.(!prev) < x *)
    while !prev + !step < hi && arr.(!prev + !step) < x do
      prev := !prev + !step;
      step := !step * 2
    done;
    lower_bound arr (!prev + 1) (min hi (!prev + !step)) x
  end

let mem s x =
  let hi = s.off + s.len in
  let i = lower_bound s.arr s.off hi x in
  i < hi && s.arr.(i) = x

let inter a b =
  let out = Array.make (min a.len b.len) 0 in
  let k = ref 0 in
  let i = ref a.off and j = ref b.off in
  let ahi = a.off + a.len and bhi = b.off + b.len in
  while !i < ahi && !j < bhi do
    let x = a.arr.(!i) and y = b.arr.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then i := gallop a.arr !i ahi y
    else j := gallop b.arr !j bhi x
  done;
  Array.sub out 0 !k

let inter_naive a b =
  let out = ref [] in
  let i = ref a.off and j = ref b.off in
  let ahi = a.off + a.len and bhi = b.off + b.len in
  while !i < ahi && !j < bhi do
    let x = a.arr.(!i) and y = b.arr.(!j) in
    if x = y then begin
      out := x :: !out;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

let inter_many slices =
  match List.sort (fun a b -> compare a.len b.len) slices with
  | [] -> invalid_arg "Sorted.inter_many: no slices"
  | [ s ] -> to_array s
  | s :: rest ->
    List.fold_left (fun acc s -> if Array.length acc = 0 then acc else inter (full acc) s) (to_array s) rest
