(* Tests for the conjunctive-query representation: atoms, queries, parser,
   dual hypergraph, binary graph, homomorphisms and minimization,
   connected components. *)

open Res_cq

let q = Parser.query
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- atoms ------------------------------------------------------------ *)

let atom_basics () =
  let a = Atom.make "R" [ "x"; "y" ] in
  check_int "arity" 2 (Atom.arity a);
  check_bool "no repeat" false (Atom.has_repeated_var a);
  check_str "to_string" "R(x,y)" (Atom.to_string a);
  let loop = Atom.make "R" [ "x"; "x" ] in
  check_bool "repeated var" true (Atom.has_repeated_var loop);
  check_int "vars deduped" 1 (List.length (Atom.vars loop))

let atom_validation () =
  Alcotest.check_raises "empty rel" (Invalid_argument "Atom.make: empty relation name")
    (fun () -> ignore (Atom.make "" [ "x" ]));
  Alcotest.check_raises "nullary" (Invalid_argument "Atom.make: nullary atoms not supported")
    (fun () -> ignore (Atom.make "R" []))

(* --- queries ---------------------------------------------------------- *)

let query_basics () =
  let query = q "R(x,y), R(y,z), A(x)" in
  check_int "atoms" 3 (List.length (Query.atoms query));
  check_bool "vars order" true (Query.vars query = [ "x"; "y"; "z" ]);
  check_bool "relations" true (Query.relations query = [ "R"; "A" ]);
  check_int "R arity" 2 (Query.arity_of query "R");
  check_bool "repeated" true (Query.repeated_relations query = [ "R" ]);
  check_bool "not sj-free" false (Query.is_sj_free query);
  check_bool "binary" true (Query.is_binary query);
  check_bool "ssj" true (Query.is_ssj query);
  check_bool "self-join relation" true (Query.self_join_relation query = Some "R")

let query_dedup () =
  let query = Query.make [ Atom.make "R" [ "x"; "y" ]; Atom.make "R" [ "x"; "y" ] ] in
  check_int "duplicate atoms collapse" 1 (List.length (Query.atoms query))

let query_arity_clash () =
  Alcotest.check_raises "arity clash"
    (Invalid_argument "Query.make: relation R used with arities 2 and 1") (fun () ->
      ignore (Query.make [ Atom.make "R" [ "x"; "y" ]; Atom.make "R" [ "z" ] ]))

let query_exogenous () =
  let query = q "T^x(x,y), R(x,y)" in
  check_bool "T exogenous" true (Query.is_exogenous query "T");
  check_bool "R endogenous" false (Query.is_exogenous query "R");
  check_int "endogenous atoms" 1 (List.length (Query.endogenous_atoms query));
  check_int "exogenous atoms" 1 (List.length (Query.exogenous_atoms query));
  let query' = Query.mark_exogenous query [ "R" ] in
  check_bool "marked" true (Query.is_exogenous query' "R")

let query_not_binary () =
  check_bool "ternary W" false (Query.is_binary (q "A(x), W(x,y,z)"))

let query_not_ssj () =
  check_bool "two repeated rels" false (Query.is_ssj (q "R(x), R(y), S(x,y), S(y,z)"))

(* --- parser ----------------------------------------------------------- *)

let parser_roundtrip () =
  let s = "A(x), R(x,y), R(y,z), C(z)" in
  check_bool "roundtrip equal" true (Query.equal (q s) (q (Query.to_string (q s))))

let parser_head () =
  check_bool "datalog head stripped" true
    (Query.equal (q "q :- R(x,y), R(y,z)") (q "R(x,y), R(y,z)"))

let parser_whitespace () =
  check_bool "whitespace tolerant" true
    (Query.equal (q "  R( x , y ) ,R(y,z)  ") (q "R(x,y), R(y,z)"))

let parser_errors () =
  let is_err s = match Parser.query_opt s with Error _ -> true | Ok _ -> false in
  check_bool "empty" true (is_err "");
  check_bool "missing paren" true (is_err "R(x,y");
  check_bool "lowercase relation" true (is_err "r(x,y)");
  check_bool "trailing comma" true (is_err "R(x,y),");
  check_bool "bad char" true (is_err "R(x,y) & S(y)")

(* One relation, two arities: a parse error, not an [Invalid_argument]
   escaping [Query.make] (which crashed the CLI and dropped the server
   connection). *)
let parser_mixed_arity () =
  check_bool "query_opt" true
    (Parser.query_opt "R(x), R(x,y)"
    = Error "relation R used with arities 1 and 2");
  check_bool "query raises Parse_error" true
    (match Parser.query "A(x), R(x,y), R(y,z,w)" with
    | _ -> false
    | exception Parser.Parse_error _ -> true)

let parser_exo_marker () =
  let query = q "S^x(x,y), R(x,y)" in
  check_bool "superscript x parsed" true (Query.is_exogenous query "S")

(* --- hypergraph ------------------------------------------------------- *)

let hypergraph_edges () =
  let h = Hypergraph.of_query (q "R(x,y), S(y,z), T(z,x)") in
  check_int "atoms" 3 (Hypergraph.n_atoms h);
  check_bool "hyperedge y" true (Hypergraph.hyperedge h "y" = [ 0; 1 ]);
  check_bool "connected" true (Hypergraph.connected h)

let hypergraph_paths () =
  let h = Hypergraph.of_query (q "R(x,y), S(y,z), T(z,x)") in
  (* path R -> S avoiding T's variables {z,x}: via y *)
  check_bool "R-S avoiding var(T)" true
    (Hypergraph.path_avoiding h ~src:0 ~dst:1 ~avoid:[ "z"; "x" ]);
  (* in a path query A(x),R(x,y),S(y,z): A to S avoiding R's variables fails *)
  let h2 = Hypergraph.of_query (q "A(x), R(x,y), S(y,z)") in
  check_bool "A-S blocked by R vars" false
    (Hypergraph.path_avoiding h2 ~src:0 ~dst:2 ~avoid:[ "x"; "y" ])

let hypergraph_var_paths () =
  let h = Hypergraph.of_query (q "R(x,y), H^x(x,z), R(z,y)") in
  check_bool "x-z path avoiding y (cfp)" true
    (Hypergraph.var_path_avoiding h ~src:"x" ~dst:"z" ~avoid:[ "y" ]);
  let h2 = Hypergraph.of_query (q "A(x), R(x,y), R(z,y), C(z)") in
  check_bool "x-z path avoiding y (qACconf)" false
    (Hypergraph.var_path_avoiding h2 ~src:"x" ~dst:"z" ~avoid:[ "y" ])

let hypergraph_separates () =
  let h = Hypergraph.of_query (q "A(x), R(x,y), S(y,z)") in
  check_bool "R separates A from S" true (Hypergraph.separates h ~by:[ 1 ] 0 2);
  check_bool "S does not separate A from R" false (Hypergraph.separates h ~by:[ 2 ] 0 1)

(* --- binary graph ----------------------------------------------------- *)

let binary_graph_shape () =
  let bg = Binary_graph.of_query (q "R(x), S(x,y), R(y)") in
  check_int "variables" 2 (List.length (Binary_graph.variables bg));
  check_int "edges (incl. loops)" 3 (List.length (Binary_graph.edges bg));
  check_bool "loop for unary atom" true
    (List.exists (fun (a, r, b) -> a = b && r = "R") (Binary_graph.edges bg))

let binary_graph_positions () =
  (* qchain and qconf have the same hypergraph shape but different binary
     graphs — the whole point of Definition 8 *)
  let chain = Binary_graph.of_query (q "R(x,y), R(y,z)") in
  let conf = Binary_graph.of_query (q "R(x,y), R(z,y)") in
  let out g v =
    List.length (List.filter (fun (a, _, _) -> a = v) (Binary_graph.edges g))
  in
  check_int "chain: y has out-edge" 1 (out chain "y");
  check_int "conf: y has no out-edge" 0 (out conf "y")

let binary_graph_exogenous_label () =
  let bg = Binary_graph.of_query (q "T^x(x,y), R(x,y)") in
  check_bool "exogenous label marked" true
    (List.exists (fun (_, r, _) -> r = "T^x") (Binary_graph.edges bg))

let binary_graph_rejects_ternary () =
  Alcotest.check_raises "ternary" (Invalid_argument "Binary_graph.of_query: query is not binary")
    (fun () -> ignore (Binary_graph.of_query (q "W(x,y,z)")))

let binary_graph_dot () =
  let dot = Binary_graph.to_dot (Binary_graph.of_query (q "R(x,y), R(y,x)")) in
  check_bool "dot output" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph")

(* --- homomorphisms ---------------------------------------------------- *)

let hom_exists () =
  check_bool "chain -> loop" true (Homomorphism.exists (q "R(x,y), R(y,z)") (q "R(u,u)"));
  check_bool "loop -> chain" false (Homomorphism.exists (q "R(u,u)") (q "R(x,y), R(y,z)"))

let hom_containment () =
  (* adding atoms makes a query more restrictive: q1 ⊆ q2 *)
  let q1 = q "R(x,y), R(y,z)" and q2 = q "R(x,y)" in
  check_bool "q1 contained in q2" true (Homomorphism.contained q1 q2);
  check_bool "q2 not contained in q1" false (Homomorphism.contained q2 q1)

let hom_equivalent () =
  check_bool "renamed queries equivalent" true
    (Homomorphism.equivalent (q "R(x,y), S(y)") (q "R(u,v), S(v)"));
  check_bool "Example 22 equivalence" true
    (Homomorphism.equivalent (q "R(x,y), R(z,y), R(z,w), R(x,w)") (q "R(x,y)"))

let hom_minimal () =
  check_bool "chain minimal" true (Homomorphism.is_minimal (q "R(x,y), R(y,z)"));
  check_bool "Example 22 not minimal" false
    (Homomorphism.is_minimal (q "R(x,y), R(z,y), R(z,w), R(x,w)"))

let hom_minimize () =
  let m = Homomorphism.minimize (q "R(x,y), R(z,y), R(z,w), R(x,w)") in
  check_int "Example 22 minimizes to one atom" 1 (List.length (Query.atoms m));
  let m2 = Homomorphism.minimize (q "R(x,y), R(u,v)") in
  check_int "redundant disconnected copy removed" 1 (List.length (Query.atoms m2))

let hom_minimize_preserves_exo () =
  let m = Homomorphism.minimize (q "T^x(x,y), R(x,y), R(u,v), T^x(u,v)") in
  check_bool "exogenous marking survives" true (Query.is_exogenous m "T")

let prop_minimize_equivalent =
  QCheck.Test.make ~count:50 ~name:"minimize yields an equivalent query"
    QCheck.(int_bound 10_000)
    (fun seed ->
      (* random small queries over R(2)/A(1) *)
      let st = Random.State.make [| seed; 11 |] in
      let vars = [ "x"; "y"; "z"; "w" ] in
      let rand_var () = List.nth vars (Random.State.int st 4) in
      let n_atoms = 2 + Random.State.int st 3 in
      let atoms =
        List.init n_atoms (fun _ ->
            if Random.State.bool st then Atom.make "R" [ rand_var (); rand_var () ]
            else Atom.make "A" [ rand_var () ])
      in
      let query = Query.make atoms in
      Homomorphism.equivalent query (Homomorphism.minimize query))

(* --- components ------------------------------------------------------- *)

let components_connected () =
  check_int "connected query" 1 (List.length (Components.split (q "R(x,y), S(y,z)")));
  check_bool "is_connected" true (Components.is_connected (q "R(x,y), S(y,z)"))

let components_split () =
  let comps = Components.split (q "A(x), R(x,y), R(z,w), B(w)") in
  check_int "two components (paper qcomp)" 2 (List.length comps);
  List.iter (fun c -> check_int "each has 2 atoms" 2 (List.length (Query.atoms c))) comps

let components_exo_preserved () =
  let comps = Components.split (q "A^x(x), R(x,y), S(z,w)") in
  check_bool "exogenous kept in component" true
    (List.exists (fun c -> Query.is_exogenous c "A") comps)

let suite =
  [
    Alcotest.test_case "atom basics" `Quick atom_basics;
    Alcotest.test_case "atom validation" `Quick atom_validation;
    Alcotest.test_case "query basics" `Quick query_basics;
    Alcotest.test_case "query dedup" `Quick query_dedup;
    Alcotest.test_case "query arity clash" `Quick query_arity_clash;
    Alcotest.test_case "query exogenous" `Quick query_exogenous;
    Alcotest.test_case "query not binary" `Quick query_not_binary;
    Alcotest.test_case "query not ssj" `Quick query_not_ssj;
    Alcotest.test_case "parser roundtrip" `Quick parser_roundtrip;
    Alcotest.test_case "parser datalog head" `Quick parser_head;
    Alcotest.test_case "parser whitespace" `Quick parser_whitespace;
    Alcotest.test_case "parser errors" `Quick parser_errors;
    Alcotest.test_case "parser ^x marker" `Quick parser_exo_marker;
    Alcotest.test_case "parser mixed arity" `Quick parser_mixed_arity;
    Alcotest.test_case "hypergraph edges" `Quick hypergraph_edges;
    Alcotest.test_case "hypergraph avoiding paths" `Quick hypergraph_paths;
    Alcotest.test_case "hypergraph variable paths" `Quick hypergraph_var_paths;
    Alcotest.test_case "hypergraph separation" `Quick hypergraph_separates;
    Alcotest.test_case "binary graph shape" `Quick binary_graph_shape;
    Alcotest.test_case "binary graph positions (Def 8)" `Quick binary_graph_positions;
    Alcotest.test_case "binary graph exogenous label" `Quick binary_graph_exogenous_label;
    Alcotest.test_case "binary graph rejects ternary" `Quick binary_graph_rejects_ternary;
    Alcotest.test_case "binary graph dot output" `Quick binary_graph_dot;
    Alcotest.test_case "homomorphism existence" `Quick hom_exists;
    Alcotest.test_case "containment direction" `Quick hom_containment;
    Alcotest.test_case "equivalence" `Quick hom_equivalent;
    Alcotest.test_case "minimality check" `Quick hom_minimal;
    Alcotest.test_case "minimization (Example 22)" `Quick hom_minimize;
    Alcotest.test_case "minimization keeps exogenous" `Quick hom_minimize_preserves_exo;
    QCheck_alcotest.to_alcotest prop_minimize_equivalent;
    Alcotest.test_case "components: connected" `Quick components_connected;
    Alcotest.test_case "components: qcomp split (Sec 4.2)" `Quick components_split;
    Alcotest.test_case "components: exogenous preserved" `Quick components_exo_preserved;
  ]
