open Res_db
module Bipartite = Res_graph.Bipartite

(* Incremental counterparts of the {!Resilience.Special} solvers for the
   permutation-family templates, maintained under tuple deltas:

   - {!Pairs}: [R(x,y), R(y,x)] (Prop 33) — ρ is the number of two-way
     pairs, kept as a hash set, O(1) per delta.
   - {!APerm}: [A(x), R(x,y), R(y,x)] (Prop 33) — ρ is a König vertex
     cover of the A-values × two-way-pairs graph, maintained by
     {!Bipartite}.
   - {!Z3}: [R(x,x), R(x,y), A(y)] (Prop 36) — ρ is a König vertex cover
     of diagonals × A-values with one edge per R-tuple, maintained by
     {!Bipartite} over hash-set adjacency of the live R tuples.

   Each structure's [solution] emits the same value as its from-scratch
   counterpart (the differential suite pins this) and a genuine contingency
   set of facts present in the current database. *)

let vp a b = if Value.compare a b <= 0 then (a, b) else (b, a)

let sorted_facts facts = List.sort_uniq compare facts

(* Dense matching-vertex ids for values, permanent once assigned. *)
module Ids = struct
  type 'a t = { ids : ('a, int) Hashtbl.t; rev : (int, 'a) Hashtbl.t }

  let create () = { ids = Hashtbl.create 64; rev = Hashtbl.create 64 }

  let id t x =
    match Hashtbl.find_opt t.ids x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length t.ids in
      Hashtbl.replace t.ids x i;
      Hashtbl.replace t.rev i x;
      i

  let value t i = Hashtbl.find t.rev i
end

(* Hash-set adjacency: key -> set of neighbours, sets created on demand. *)
module Adj = struct
  type ('k, 'v) t = ('k, ('v, unit) Hashtbl.t) Hashtbl.t

  let create () : ('k, 'v) t = Hashtbl.create 64

  let of_key t k =
    match Hashtbl.find_opt t k with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t k h;
      h

  let mem t k v = match Hashtbl.find_opt t k with Some h -> Hashtbl.mem h v | None -> false
  let add t k v = Hashtbl.replace (of_key t k) v ()
  let remove t k v = Option.iter (fun h -> Hashtbl.remove h v) (Hashtbl.find_opt t k)
  let iter f t k = Option.iter (Hashtbl.iter (fun v () -> f v)) (Hashtbl.find_opt t k)
end

(* ---- Prop 33, no unary guard: count two-way pairs -------------------- *)

module Pairs = struct
  type t = {
    r : string;
    present : (Value.t * Value.t, unit) Hashtbl.t;
    pairs : (Value.t * Value.t, unit) Hashtbl.t; (* canonical live pairs *)
  }

  let insert t (a, b) =
    Hashtbl.replace t.present (a, b) ();
    if Value.equal a b || Hashtbl.mem t.present (b, a) then
      Hashtbl.replace t.pairs (vp a b) ()

  let delete t (a, b) =
    Hashtbl.remove t.present (a, b);
    (* a live pair needs both directions (or its diagonal), so losing this
       tuple always breaks it *)
    Hashtbl.remove t.pairs (vp a b)

  let route t (d : Delta.t) =
    match d with
    | Insert { rel; tuple = [ a; b ] } when rel = t.r -> insert t (a, b)
    | Delete { rel; tuple = [ a; b ] } when rel = t.r -> delete t (a, b)
    | _ -> ()

  let apply t ds = List.iter (route t) ds

  let create ~r db =
    let t = { r; present = Hashtbl.create 256; pairs = Hashtbl.create 64 } in
    List.iter
      (fun (f : Database.fact) ->
        match f.tuple with [ a; b ] when f.rel = r -> insert t (a, b) | _ -> ())
      (Database.facts db);
    t

  let solution t =
    let facts =
      Hashtbl.fold (fun (a, b) () acc -> Database.fact t.r [ a; b ] :: acc) t.pairs []
    in
    Resilience.Solution.Finite (Hashtbl.length t.pairs, sorted_facts facts)
end

(* ---- Prop 33 with unary guard: A-values × two-way pairs VC ------------ *)

module APerm = struct
  type t = {
    a : string;
    r : string;
    g : Bipartite.t;
    present : (Value.t * Value.t, unit) Hashtbl.t;
    a_live : (Value.t, unit) Hashtbl.t;
    pair_live : (Value.t * Value.t, unit) Hashtbl.t;
    left : Value.t Ids.t; (* A-values *)
    right : (Value.t * Value.t) Ids.t; (* two-way pairs *)
    incident : (Value.t, Value.t * Value.t) Adj.t; (* value -> live pairs containing it *)
  }

  let ends (u, v) = if Value.equal u v then [ u ] else [ u; v ]

  let insert_a t w =
    if not (Hashtbl.mem t.a_live w) then begin
      Hashtbl.replace t.a_live w ();
      let lid = Ids.id t.left w in
      Adj.iter (fun p -> Bipartite.add_edge t.g lid (Ids.id t.right p)) t.incident w
    end

  let delete_a t w =
    if Hashtbl.mem t.a_live w then begin
      let lid = Ids.id t.left w in
      Adj.iter (fun p -> ignore (Bipartite.remove_edge t.g lid (Ids.id t.right p))) t.incident w;
      Hashtbl.remove t.a_live w
    end

  let insert_r t (x, y) =
    Hashtbl.replace t.present (x, y) ();
    if Value.equal x y || Hashtbl.mem t.present (y, x) then begin
      let p = vp x y in
      if not (Hashtbl.mem t.pair_live p) then begin
        Hashtbl.replace t.pair_live p ();
        let pid = Ids.id t.right p in
        List.iter
          (fun w ->
            Adj.add t.incident w p;
            if Hashtbl.mem t.a_live w then Bipartite.add_edge t.g (Ids.id t.left w) pid)
          (ends p)
      end
    end

  let delete_r t (x, y) =
    Hashtbl.remove t.present (x, y);
    let p = vp x y in
    if Hashtbl.mem t.pair_live p then begin
      Hashtbl.remove t.pair_live p;
      let pid = Ids.id t.right p in
      List.iter
        (fun w ->
          Adj.remove t.incident w p;
          if Hashtbl.mem t.a_live w then
            ignore (Bipartite.remove_edge t.g (Ids.id t.left w) pid))
        (ends p)
    end

  let route t (d : Delta.t) =
    match d with
    | Insert { rel; tuple = [ a; b ] } when rel = t.r -> insert_r t (a, b)
    | Delete { rel; tuple = [ a; b ] } when rel = t.r -> delete_r t (a, b)
    | Insert { rel; tuple = [ w ] } when rel = t.a -> insert_a t w
    | Delete { rel; tuple = [ w ] } when rel = t.a -> delete_a t w
    | _ -> ()

  let apply t ds = List.iter (route t) ds

  let create ~a ~r db =
    let t =
      {
        a;
        r;
        g = Bipartite.create ~n_left:0 ~n_right:0;
        present = Hashtbl.create 256;
        a_live = Hashtbl.create 64;
        pair_live = Hashtbl.create 64;
        left = Ids.create ();
        right = Ids.create ();
        incident = Adj.create ();
      }
    in
    List.iter
      (fun (f : Database.fact) ->
        match f.tuple with
        | [ x; y ] when f.rel = r -> insert_r t (x, y)
        | [ w ] when f.rel = a -> insert_a t w
        | _ -> ())
      (Database.facts db);
    t

  let solution t =
    let left, right = Bipartite.min_vertex_cover t.g in
    let facts =
      List.map (fun lid -> Database.fact t.a [ Ids.value t.left lid ]) left
      @ List.map
          (fun pid ->
            let u, v = Ids.value t.right pid in
            Database.fact t.r [ u; v ])
          right
    in
    Resilience.Solution.Finite (List.length left + List.length right, sorted_facts facts)
end

(* ---- Prop 36 (z3): diagonals × A-values VC ------------------------------ *)

module Z3 = struct
  type t = {
    r : string;
    a : string;
    g : Bipartite.t;
    succ : (Value.t, Value.t) Adj.t; (* live R tuples, by first column *)
    pred : (Value.t, Value.t) Adj.t; (* live R tuples, by second column *)
    a_live : (Value.t, unit) Hashtbl.t;
    left : Value.t Ids.t; (* diagonal values *)
    right : Value.t Ids.t; (* A-values *)
  }

  (* edge invariant: (diag u — A v) in [g] iff R(u,v), R(u,u) and A(v) all
     live; one edge per middle tuple *)

  let add t u v = Bipartite.add_edge t.g (Ids.id t.left u) (Ids.id t.right v)
  let remove t u v = ignore (Bipartite.remove_edge t.g (Ids.id t.left u) (Ids.id t.right v))

  let insert_r t (u, v) =
    if not (Adj.mem t.succ u v) then begin
      Adj.add t.succ u v;
      Adj.add t.pred v u;
      if Value.equal u v then
        (* new diagonal: every outgoing live tuple (u, w) with A(w) live
           gains an edge — including (u, u) itself *)
        Adj.iter (fun w -> if Hashtbl.mem t.a_live w then add t u w) t.succ u
      else if Adj.mem t.succ u u && Hashtbl.mem t.a_live v then add t u v
    end

  let delete_r t (u, v) =
    if Adj.mem t.succ u v then begin
      if Value.equal u v then
        (* losing the diagonal drops every edge it anchored, (u,u) included *)
        Adj.iter (fun w -> if Hashtbl.mem t.a_live w then remove t u w) t.succ u
      else if Adj.mem t.succ u u && Hashtbl.mem t.a_live v then remove t u v;
      Adj.remove t.succ u v;
      Adj.remove t.pred v u
    end

  let insert_a t v =
    if not (Hashtbl.mem t.a_live v) then begin
      Hashtbl.replace t.a_live v ();
      Adj.iter (fun u -> if Adj.mem t.succ u u then add t u v) t.pred v
    end

  let delete_a t v =
    if Hashtbl.mem t.a_live v then begin
      Adj.iter (fun u -> if Adj.mem t.succ u u then remove t u v) t.pred v;
      Hashtbl.remove t.a_live v
    end

  let route t (d : Delta.t) =
    match d with
    | Insert { rel; tuple = [ u; v ] } when rel = t.r -> insert_r t (u, v)
    | Delete { rel; tuple = [ u; v ] } when rel = t.r -> delete_r t (u, v)
    | Insert { rel; tuple = [ w ] } when rel = t.a -> insert_a t w
    | Delete { rel; tuple = [ w ] } when rel = t.a -> delete_a t w
    | _ -> ()

  let apply t ds = List.iter (route t) ds

  let create ~r ~a db =
    let t =
      {
        r;
        a;
        g = Bipartite.create ~n_left:0 ~n_right:0;
        succ = Adj.create ();
        pred = Adj.create ();
        a_live = Hashtbl.create 64;
        left = Ids.create ();
        right = Ids.create ();
      }
    in
    List.iter
      (fun (f : Database.fact) ->
        match f.tuple with
        | [ u; v ] when f.rel = r -> insert_r t (u, v)
        | [ w ] when f.rel = a -> insert_a t w
        | _ -> ())
      (Database.facts db);
    t

  let solution t =
    let left, right = Bipartite.min_vertex_cover t.g in
    let facts =
      List.map
        (fun lid ->
          let u = Ids.value t.left lid in
          Database.fact t.r [ u; u ])
        left
      @ List.map (fun rid -> Database.fact t.a [ Ids.value t.right rid ]) right
    in
    Resilience.Solution.Finite (List.length left + List.length right, sorted_facts facts)
end
