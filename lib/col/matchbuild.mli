(** Columnar-native construction of the bipartite matching / vertex
    cover instances behind {!Resilience.Special}'s permutation
    strategies (Props 33 and 36).

    Every step runs on interned int columns: binary tuples pack into one
    int key ([(u lsl 31) lor v], ids < 2^31 by the dict budget),
    distinct-key vectors come from {!Sorted.sort_uniq}, and vertex ids
    are ranks in the sorted arrays, looked up in dense id -> rank tables
    — the same sort-based renumbering scheme as {!Flowbuild}.  Values are only materialized by the caller when
    emitting the final contingency facts. *)

val pack : int -> int -> int
val fst_of : int -> int
val snd_of : int -> int

val distinct_ids : int array -> int array
(** Sorted distinct copy of a column — e.g. the values of a unary
    relation. *)

val distinct_keys : col0:int array -> col1:int array -> int array
(** Sorted distinct packed keys of a binary relation's columns. *)

val two_way : int array -> int array
(** [two_way keys]: the unordered pairs present in both orientations,
    as packed [(min, max)] keys, ascending.  Diagonal keys [(u,u)]
    qualify on their own.  [keys] must be sorted distinct
    ({!distinct_keys}). *)

val diagonal : int array -> int array
(** The ids [u] with a diagonal key [(u,u)] in the sorted distinct
    [keys], ascending. *)

type cover_graph = {
  g : Res_graph.Bipartite.t;
  left_ids : int array; (** left vertex -> interned id *)
  right_keys : int array; (** right vertex -> interned id or packed key *)
}

val aperm_graph : a_ids:int array -> two_way:int array -> cover_graph
(** Prop 33 ([A(x), R(x,y), R(y,x)]): left = the sorted [a_ids], right
    = the [two_way] pairs; a pair [{u,v}] is joined to [A(u)] and
    [A(v)] when present.  Minimum vertex cover = minimum contingency
    set. *)

val z3_graph : diag:int array -> a_ids:int array -> keys:int array -> cover_graph
(** Prop 36 ([R(x,x), R(x,y), A(y)]): left = the diagonal ids, right =
    the sorted [a_ids]; each key [(u,v)] with [R(u,u)] and [A(v)] adds
    the edge [R(u,u)]—[A(v)]. *)
