type t = {
  mutable n_left : int;
  mutable n_right : int;
  mutable adj : int list array; (* left -> rights; one entry per parallel edge *)
  mutable match_l : int array; (* left -> matched right or -1 *)
  mutable match_r : int array; (* right -> matched left or -1 *)
  mutable dist : int array;
  mutable queue : int array; (* BFS queue: left vertices, once each *)
  mutable size : int; (* current matching size *)
  mutable dirty : bool; (* matching may be below maximum *)
}

let create ~n_left ~n_right =
  let nl = max n_left 1 and nr = max n_right 1 in
  {
    n_left;
    n_right;
    adj = Array.make nl [];
    match_l = Array.make nl (-1);
    match_r = Array.make nr (-1);
    dist = Array.make nl (-1);
    queue = Array.make nl 0;
    size = 0;
    dirty = false;
  }

let grow a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) fill in
    Array.blit a 0 a' 0 cap;
    a'
  end

let ensure g u v =
  if u >= g.n_left then begin
    g.adj <- grow g.adj (u + 1) [];
    g.match_l <- grow g.match_l (u + 1) (-1);
    g.dist <- grow g.dist (u + 1) (-1);
    g.queue <- grow g.queue (u + 1) 0;
    g.n_left <- u + 1
  end;
  if v >= g.n_right then begin
    g.match_r <- grow g.match_r (v + 1) (-1);
    g.n_right <- v + 1
  end

let inf = max_int

(* Hopcroft–Karp: layered BFS from the free left vertices, then DFS along
   shortest augmenting paths. *)
let bfs g =
  let q = g.queue in
  let tail = ref 0 in
  for u = 0 to g.n_left - 1 do
    if g.match_l.(u) < 0 then begin
      g.dist.(u) <- 0;
      q.(!tail) <- u;
      incr tail
    end
    else g.dist.(u) <- inf
  done;
  let found = ref false in
  let head = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    List.iter
      (fun v ->
        let u' = g.match_r.(v) in
        if u' < 0 then found := true
        else if g.dist.(u') = inf then begin
          g.dist.(u') <- g.dist.(u) + 1;
          q.(!tail) <- u';
          incr tail
        end)
      g.adj.(u)
  done;
  !found

let rec dfs g u =
  let rec try_edges = function
    | [] ->
      g.dist.(u) <- inf;
      false
    | v :: rest ->
      let u' = g.match_r.(v) in
      if u' < 0 || (g.dist.(u') = g.dist.(u) + 1 && dfs g u') then begin
        g.match_l.(u) <- v;
        g.match_r.(v) <- u;
        true
      end
      else try_edges rest
  in
  try_edges g.adj.(u)

let repair g =
  if g.dirty then begin
    while bfs g do
      for u = 0 to g.n_left - 1 do
        if g.match_l.(u) < 0 && dfs g u then g.size <- g.size + 1
      done
    done;
    g.dirty <- false
  end

let add_edge g u v =
  if u < 0 || v < 0 then invalid_arg "Bipartite.add_edge";
  ensure g u v;
  g.adj.(u) <- v :: g.adj.(u);
  if g.match_l.(u) < 0 && g.match_r.(v) < 0 then begin
    (* Both endpoints free: matching the new edge adds one, the most any
       single insertion can add, so maximality is preserved. *)
    g.match_l.(u) <- v;
    g.match_r.(v) <- u;
    g.size <- g.size + 1
  end
  else
    (* Even with an endpoint matched the new edge can open an augmenting
       path. *)
    g.dirty <- true

let remove_one lst v =
  let rec go acc = function
    | [] -> None
    | x :: rest when x = v -> Some (List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] lst

let remove_edge g u v =
  if u < 0 || u >= g.n_left then false
  else begin
    match remove_one g.adj.(u) v with
    | None -> false
    | Some rest ->
      g.adj.(u) <- rest;
      if g.match_l.(u) = v && not (List.mem v rest) then begin
        (* The matched copy is gone: deleting one edge lowers the maximum
           by at most one, so a single repair phase suffices. *)
        g.match_l.(u) <- -1;
        g.match_r.(v) <- -1;
        g.size <- g.size - 1;
        g.dirty <- true
      end;
      true
  end

let matching_size g =
  repair g;
  g.size

let matching_pairs g =
  repair g;
  let acc = ref [] in
  for u = g.n_left - 1 downto 0 do
    if g.match_l.(u) >= 0 then acc := (u, g.match_l.(u)) :: !acc
  done;
  !acc

let min_vertex_cover g =
  repair g;
  (* König: Z = free left vertices plus everything reachable by alternating
     paths (unmatched edge left→right, matched edge right→left).
     Cover = (L \ Z_L) ∪ Z_R. *)
  let visited_l = Array.make (max g.n_left 1) false in
  let visited_r = Array.make (max g.n_right 1) false in
  let rec explore u =
    if not visited_l.(u) then begin
      visited_l.(u) <- true;
      List.iter
        (fun v ->
          if v <> g.match_l.(u) && not visited_r.(v) then begin
            visited_r.(v) <- true;
            let u' = g.match_r.(v) in
            if u' >= 0 then explore u'
          end)
        g.adj.(u)
    end
  in
  for u = 0 to g.n_left - 1 do
    if g.match_l.(u) < 0 then explore u
  done;
  let left = ref [] and right = ref [] in
  for u = g.n_left - 1 downto 0 do
    if not visited_l.(u) && g.match_l.(u) >= 0 then left := u :: !left
  done;
  for v = g.n_right - 1 downto 0 do
    if visited_r.(v) then right := v :: !right
  done;
  (!left, !right)
