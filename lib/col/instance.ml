type rel_data = { arity : int; col0 : int array; col1 : int array }

(* Atom shapes after variable resolution.  [Di] is the repeated-variable
   pattern R(x,x): only diagonal tuples can ever match it. *)
type shape =
  | Un of int (* A(v) *)
  | Di of int (* R(v,v) *)
  | Bi of int * int (* R(v0,v1), v0 <> v1 *)

type index =
  | I_keys of { keys : int array; tids : int array } (* unary / diagonal *)
  | I_csr of Csr.t

type atom_info = {
  rel : string;
  data : rel_data;
  shape : shape;
  mutable live : int array; (* surviving tuple ids, ascending *)
  mutable idx : index option; (* built on the first probe *)
}

(* A variable's candidate source from one atom, resolved statically
   against the enumeration order: bound-neighbour rows when the other
   variable comes earlier, frontiers otherwise. *)
type support =
  | S_keys of int (* atom idx: unary or diagonal key column *)
  | S_srcs of int (* binary frontier, level-1 of the fwd trie *)
  | S_dsts of int
  | S_succ of int * int (* atom idx, bound var idx *)
  | S_pred of int * int

type t = {
  nvars : int;
  n : int;
  atoms : atom_info array;
  order : int array; (* enumeration order, as var indexes *)
  plan : support list array; (* plan.(k): supports of order.(k) *)
  seeded : bool; (* the live sets already hold the fixpoint's start *)
  mutable reduced : bool;
  mutable empty : bool;
  mutable passes : int;
  mutable live_cache : (string * int array) list; (* memoized [live], valid post-reduce *)
}

let shape_of_atom vidx (a : Res_cq.Atom.t) =
  match a.args with
  | [ v ] -> Un (vidx v)
  | [ v; w ] -> if v = w then Di (vidx v) else Bi (vidx v, vidx w)
  | _ -> invalid_arg "Instance.make: atom arity exceeds 2"

(* distinct var indexes of a shape *)
let shape_vars = function Un v | Di v -> [ v ] | Bi (v, w) -> [ v; w ]

(* Greedy variable order: repeatedly pick the variable covered by the
   most atoms, preferring variables already connected to the chosen
   prefix so the join never restarts from a cross product mid-way.
   Ties break to the smallest index — fully deterministic. *)
let choose_order nvars shapes =
  let score = Array.make nvars 0 in
  List.iter (fun s -> List.iter (fun v -> score.(v) <- score.(v) + 1) (shape_vars s)) shapes;
  let chosen = Array.make nvars false in
  let connected v =
    List.exists
      (fun s ->
        let vs = shape_vars s in
        List.mem v vs && List.exists (fun w -> chosen.(w)) vs)
      shapes
  in
  let order = Array.make nvars 0 in
  for k = 0 to nvars - 1 do
    let any_chosen = k > 0 in
    let best = ref (-1) in
    let consider v =
      if (not chosen.(v)) && (!best < 0 || score.(v) > score.(!best)) then best := v
    in
    if any_chosen then
      for v = 0 to nvars - 1 do
        if (not chosen.(v)) && connected v then consider v
      done;
    if !best < 0 then
      for v = 0 to nvars - 1 do
        consider v
      done;
    chosen.(!best) <- true;
    order.(k) <- !best
  done;
  order

let make q ~n rels =
  let vars = Res_cq.Query.vars q in
  let nvars = List.length vars in
  let vidx v =
    let rec go i = function
      | [] -> invalid_arg "Instance.make: unknown variable"
      | w :: _ when w = v -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 vars
  in
  let atoms =
    Array.of_list
      (List.map
         (fun (a : Res_cq.Atom.t) ->
           let data =
             match List.assoc_opt a.rel rels with
             | Some d -> d
             | None -> invalid_arg ("Instance.make: relation without data: " ^ a.rel)
           in
           if data.arity <> Res_cq.Atom.arity a then
             invalid_arg ("Instance.make: arity mismatch for " ^ a.rel);
           { rel = a.rel; data; shape = shape_of_atom vidx a; live = [||]; idx = None })
         (Res_cq.Query.atoms q))
  in
  let shapes = Array.to_list (Array.map (fun a -> a.shape) atoms) in
  let order = choose_order nvars shapes in
  (* position of each var in the order, to decide bound vs frontier *)
  let pos = Array.make nvars 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  let plan =
    Array.init nvars (fun k ->
        let v = order.(k) in
        let supports = ref [] in
        Array.iteri
          (fun ai a ->
            match a.shape with
            | Un w when w = v -> supports := S_keys ai :: !supports
            | Di w when w = v -> supports := S_keys ai :: !supports
            | Bi (w0, w1) when w0 = v ->
              supports := (if pos.(w1) < k then S_pred (ai, w1) else S_srcs ai) :: !supports
            | Bi (w0, w1) when w1 = v ->
              supports := (if pos.(w0) < k then S_succ (ai, w0) else S_dsts ai) :: !supports
            | _ -> ())
          atoms;
        !supports)
  in
  {
    nvars;
    n;
    atoms;
    order;
    plan;
    seeded = false;
    reduced = false;
    empty = false;
    passes = 0;
    live_cache = [];
  }

(* ---- semijoin reduction ------------------------------------------------ *)

(* The [get i], [i < n], that satisfy [ok], in order. *)
let select n get ok =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if ok (get i) then incr kept
  done;
  let out = Array.make !kept 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let x = get i in
    if ok x then begin
      out.(!k) <- x;
      incr k
    end
  done;
  out

(* [arr] itself when every element passes: an untouched live set is
   shared, never copied. *)
let filter ok arr =
  if Array.for_all ok arr then arr else select (Array.length arr) (Array.get arr) ok

(* The fixpoint's start from scratch: every tuple of each atom's
   relation that is not [dropped] — only diagonal ones for R(x,x).
   Atoms of one relation and shape kind share one array. *)
let seed_all atoms ~dropped =
  let seeds = ref [] in
  Array.iter
    (fun a ->
      let d = a.data and diag = match a.shape with Di _ -> true | Un _ | Bi _ -> false in
      match List.assoc_opt (a.rel, diag) !seeds with
      | Some live -> a.live <- live
      | None ->
        let drop = dropped a.rel in
        let ok tid = (not (drop tid)) && ((not diag) || d.col0.(tid) = d.col1.(tid)) in
        a.live <- select (Array.length d.col0) Fun.id ok;
        seeds := ((a.rel, diag), a.live) :: !seeds)
    atoms

(* projections of an atom's live tuples onto variable [v]: the columns
   of [v]'s occurrences *)
let project_into a v ~src ~dst =
  (* dst.(c) <- '\001' for every value c of v in a live tuple, provided
     src.(c) allows it (src == dst on the first atom: no gating). *)
  let gate = src != dst in
  let mark col =
    Array.iter
      (fun tid ->
        let c = col.(tid) in
        if (not gate) || Bytes.get src c = '\001' then Bytes.set dst c '\001')
      a.live
  in
  match a.shape with
  | Un w when w = v -> mark a.data.col0
  | Di w when w = v -> mark a.data.col0 (* diagonal: col0 = col1 on live tuples *)
  | Bi (w0, w1) ->
    if w0 = v then mark a.data.col0;
    if w1 = v then mark a.data.col1
  | _ -> ()

let atom_mentions a v = List.mem v (shape_vars a.shape)

let semijoin_pass t allowed scratch =
  (* allowed.(v) := intersection over atoms containing v of their
     projections onto v *)
  for v = 0 to t.nvars - 1 do
    let first = ref true in
    Array.iter
      (fun a ->
        if atom_mentions a v then begin
          if !first then begin
            Bytes.fill allowed.(v) 0 t.n '\000';
            project_into a v ~src:allowed.(v) ~dst:allowed.(v);
            first := false
          end
          else begin
            Bytes.fill scratch 0 t.n '\000';
            project_into a v ~src:allowed.(v) ~dst:scratch;
            Bytes.blit scratch 0 allowed.(v) 0 t.n
          end
        end)
      t.atoms
  done;
  (* filter every atom's live set against the allowed values *)
  let changed = ref false in
  Array.iter
    (fun a ->
      let ok tid =
        match a.shape with
        | Un v | Di v -> Bytes.get allowed.(v) a.data.col0.(tid) = '\001'
        | Bi (v0, v1) ->
          Bytes.get allowed.(v0) a.data.col0.(tid) = '\001'
          && Bytes.get allowed.(v1) a.data.col1.(tid) = '\001'
      in
      let live = filter ok a.live in
      if live != a.live then begin
        a.live <- live;
        changed := true
      end)
    t.atoms;
  !changed

(* pack/sort/unpack a unary key column with its tuple ids; keys are
   unique within a relation, so the integer sort orders them totally. *)
let sorted_keys col live =
  let packed = Array.map (fun tid -> (col.(tid) lsl 31) lor tid) live in
  Sorted.sort packed;
  let keys = Array.map (fun p -> p lsr 31) packed in
  let tids = Array.map (fun p -> p land ((1 lsl 31) - 1)) packed in
  I_keys { keys; tids }

let build_indexes t =
  Res_obs.Obs.span ~cat:"col" "index" @@ fun () ->
  (* The static plan names exactly which trie direction each binary
     atom is probed in (frontier or bound-neighbour row, one variable
     each side): build only those — each skipped direction saves a
     counting sort over the atom's live tuples. *)
  let na = Array.length t.atoms in
  let need_fwd = Array.make na false and need_rev = Array.make na false in
  Array.iter
    (List.iter (function
      | S_keys _ -> ()
      | S_srcs ai | S_succ (ai, _) -> need_fwd.(ai) <- true
      | S_dsts ai | S_pred (ai, _) -> need_rev.(ai) <- true))
    t.plan;
  Array.iteri
    (fun ai a ->
      let idx =
        match a.shape with
        | Un _ | Di _ -> sorted_keys a.data.col0 a.live
        | Bi _ ->
          I_csr
            (Csr.build ~fwd:need_fwd.(ai) ~rev:need_rev.(ai) ~n:t.n ~col0:a.data.col0
               ~col1:a.data.col1 a.live)
      in
      a.idx <- Some idx)
    t.atoms

let reduce t =
  if not t.reduced then begin
    t.reduced <- true;
    if not t.seeded then seed_all t.atoms ~dropped:(fun _ _ -> false);
    if Array.length t.atoms > 0 then begin
      let allowed = Array.init t.nvars (fun _ -> Bytes.create t.n) in
      let scratch = Bytes.create t.n in
      let continue_ = ref true in
      while !continue_ do
        t.passes <- t.passes + 1;
        continue_ := semijoin_pass t allowed scratch;
        if Array.exists (fun a -> Array.length a.live = 0) t.atoms then begin
          t.empty <- true;
          continue_ := false
        end
      done
    end
  end

(* [D - removed] as a fresh instance over the same columns and plan.
   Each atom starts from [t]'s reduced live set when [t] has one, from
   all its tuples otherwise, minus the removed ids (a byte mask per
   relation).  Seeding from the reduced sets is sound: the fixpoint of
   [D - removed] lies inside that of [D] (a tuple that is pruned without
   the removals is pruned with them too), so it equals the fixpoint of
   [reduced(D) - removed]. *)
let without t removed =
  let masks =
    List.map
      (fun (rel, tids) ->
        let mask = Bytes.make (Array.fold_left max (-1) tids + 1) '\000' in
        Array.iter (fun tid -> Bytes.set mask tid '\001') tids;
        (rel, mask))
      removed
  in
  let dropped rel =
    match List.assoc_opt rel masks with
    | Some mask -> fun tid -> tid < Bytes.length mask && Bytes.get mask tid = '\001'
    | None -> fun _ -> false
  in
  let atoms = Array.map (fun a -> { a with idx = None }) t.atoms in
  if t.reduced then
    Array.iter
      (fun a ->
        let drop = dropped a.rel in
        a.live <- filter (fun tid -> not (drop tid)) a.live)
      atoms
  else seed_all atoms ~dropped;
  { t with atoms; seeded = true; reduced = false; empty = false; passes = 0; live_cache = [] }

let passes t = t.passes
let is_reduced t = t.reduced

(* merge two sorted duplicate-free int arrays, dropping duplicates *)
let merge_sorted a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then (
        out.(!k) <- x;
        incr i)
      else if y < x then (
        out.(!k) <- y;
        incr j)
      else (
        out.(!k) <- x;
        incr i;
        incr j);
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let live t rel =
  reduce t;
  match List.assoc_opt rel t.live_cache with
  | Some arr -> arr
  | None ->
    (* per-atom live sets are sorted ascending and duplicate-free, so a
       linear merge suffices — no list boxing on million-tuple columns *)
    let parts =
      Array.to_list t.atoms
      |> List.filter (fun a -> a.rel = rel)
      |> List.map (fun a -> a.live)
    in
    let arr =
      match parts with
      | [] -> [||]
      | first :: rest -> List.fold_left merge_sorted first rest
    in
    t.live_cache <- (rel, arr) :: t.live_cache;
    arr

(* ---- trie-join enumeration --------------------------------------------- *)

let keys_of a = match a.idx with Some (I_keys k) -> k.keys | _ -> assert false
let csr_of a = match a.idx with Some (I_csr c) -> c | _ -> assert false

let slice_of t binding = function
  | S_keys ai -> Sorted.full (keys_of t.atoms.(ai))
  | S_srcs ai -> Sorted.full (Csr.srcs (csr_of t.atoms.(ai)))
  | S_dsts ai -> Sorted.full (Csr.dsts (csr_of t.atoms.(ai)))
  | S_succ (ai, w) -> Csr.succ (csr_of t.atoms.(ai)) binding.(w)
  | S_pred (ai, w) -> Csr.pred (csr_of t.atoms.(ai)) binding.(w)

let enumerate t ~emit =
  reduce t;
  if Array.length t.atoms = 0 then emit [||]
  else if not t.empty then begin
    if Option.is_none t.atoms.(0).idx then build_indexes t;
    let binding = Array.make t.nvars (-1) in
    let rec go k =
      if k = t.nvars then emit binding
      else begin
        let v = t.order.(k) in
        let each c =
          binding.(v) <- c;
          go (k + 1)
        in
        match t.plan.(k) with
        | [ s ] ->
          let sl = slice_of t binding s in
          for i = sl.Sorted.off to sl.Sorted.off + sl.Sorted.len - 1 do
            each sl.Sorted.arr.(i)
          done
        | supports ->
          let cands = Sorted.inter_many (List.map (slice_of t binding) supports) in
          Array.iter each cands
      end
    in
    go 0
  end

exception Found

let sat t =
  match enumerate t ~emit:(fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

let count t =
  let n = ref 0 in
  enumerate t ~emit:(fun _ -> incr n);
  !n
