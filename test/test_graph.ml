(** Tests for graphs, tree decompositions (Definition 14), treewidth and
    graph isomorphism. *)

let test_basic_ops () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "vertices" 4 (Graph.num_vertices g);
  Alcotest.(check int) "edges" 3 (Graph.num_edges g);
  Alcotest.(check bool) "edge present" true (Graph.has_edge g 1 2);
  Alcotest.(check bool) "edge symmetric" true (Graph.has_edge g 2 1);
  Alcotest.(check bool) "edge absent" false (Graph.has_edge g 0 3);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1)

let test_self_loop_ignored () =
  let g = Graph.make 3 in
  Graph.add_edge g 1 1;
  Alcotest.(check int) "no self loop" 0 (Graph.num_edges g)

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (2, 3); (3, 4) ] in
  Alcotest.(check int) "three components" 3 (List.length (Graph.components g));
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Alcotest.(check bool) "path connected" true (Graph.is_connected (Graph.path 5))

let test_acyclic () =
  Alcotest.(check bool) "path acyclic" true (Graph.is_acyclic (Graph.path 5));
  Alcotest.(check bool) "cycle not acyclic" false (Graph.is_acyclic (Graph.cycle 5));
  Alcotest.(check bool) "forest acyclic" true
    (Graph.is_acyclic (Graph.of_edges 6 [ (0, 1); (2, 3); (4, 5) ]))

let test_induced () =
  let g = Graph.cycle 5 in
  let sub, mapping = Graph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "induced size" 3 (Graph.num_vertices sub);
  Alcotest.(check int) "induced edges" 2 (Graph.num_edges sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping

let test_stretched_clique () =
  let g, stretches = Graph.stretched_clique 3 4 in
  (* K_3^4: 3 clique vertices + 3 edges × 3 internal vertices *)
  Alcotest.(check int) "vertices of K_3^4" 12 (Graph.num_vertices g);
  Alcotest.(check int) "edges of K_3^4" 12 (Graph.num_edges g);
  Alcotest.(check int) "three stretches" 3 (Array.length stretches);
  Array.iter
    (fun s -> Alcotest.(check int) "stretch length" 4 (List.length s))
    stretches;
  (* K_t^k is one big cycle-containing graph: treewidth 2 for t = 3 *)
  Alcotest.(check int) "tw(K_3^4) = 2" 2 (Treewidth.treewidth g)

let test_treedec_validate () =
  let g = Graph.path 4 in
  let good =
    {
      Treedec.bags =
        [|
          Intset.of_list [ 0; 1 ]; Intset.of_list [ 1; 2 ]; Intset.of_list [ 2; 3 ];
        |];
      tree = [ (0, 1); (1, 2) ];
    }
  in
  Alcotest.(check bool) "valid decomposition" true (Treedec.validate g good);
  Alcotest.(check int) "width 1" 1 (Treedec.width good);
  (* break connectedness (C3): vertex 1 in bags 0 and 2 but not 1 *)
  let bad =
    {
      Treedec.bags =
        [|
          Intset.of_list [ 0; 1 ]; Intset.of_list [ 2 ]; Intset.of_list [ 1; 2; 3 ];
        |];
      tree = [ (0, 1); (1, 2) ];
    }
  in
  Alcotest.(check bool) "C3 violation detected" false (Treedec.validate g bad);
  (* missing edge (C2) *)
  let bad2 =
    {
      Treedec.bags = [| Intset.of_list [ 0; 1 ]; Intset.of_list [ 2; 3 ] |];
      tree = [ (0, 1) ];
    }
  in
  Alcotest.(check bool) "C2 violation detected" false (Treedec.validate g bad2)

let known_treewidths =
  [
    ("path 6", Graph.path 6, 1);
    ("cycle 5", Graph.cycle 5, 2);
    ("K4", Graph.clique 4, 3);
    ("K6", Graph.clique 6, 5);
    ("star 5", Graph.star 5, 1);
    ("grid 3x3", Graph.grid 3 3, 3);
    ("grid 2x4", Graph.grid 2 4, 2);
    ("single vertex", Graph.make 1, 0);
    ("two isolated", Graph.make 2, 0);
  ]

let test_exact_treewidth () =
  List.iter
    (fun (name, g, expected) ->
      let w, dec = Treewidth.exact g in
      Alcotest.(check int) name expected w;
      Alcotest.(check bool) (name ^ " decomposition valid") true (Treedec.validate g dec);
      Alcotest.(check int) (name ^ " decomposition width") expected (Treedec.width dec))
    known_treewidths

let test_heuristics_and_bounds () =
  List.iter
    (fun (name, g, expected) ->
      let ub, dec = Treewidth.heuristic g in
      let lb = Treewidth.lower_bound g in
      Alcotest.(check bool) (name ^ " heuristic valid") true (Treedec.validate g dec);
      Alcotest.(check bool) (name ^ " lb <= tw") true (lb <= expected);
      Alcotest.(check bool) (name ^ " tw <= ub") true (expected <= ub))
    known_treewidths

let test_known_treewidths_extra () =
  (* Petersen graph: treewidth 4 *)
  let petersen =
    Graph.of_edges 10
      [
        (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
        (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
        (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
      ]
  in
  Alcotest.(check int) "petersen" 4 (Treewidth.treewidth petersen);
  (* complete bipartite K_{3,3}: treewidth 3 *)
  let k33 =
    Graph.of_edges 6
      [ (0, 3); (0, 4); (0, 5); (1, 3); (1, 4); (1, 5); (2, 3); (2, 4); (2, 5) ]
  in
  Alcotest.(check int) "K33" 3 (Treewidth.treewidth k33);
  (* prism (C3 x K2): treewidth 3 *)
  let prism =
    Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3); (1, 4); (2, 5) ]
  in
  Alcotest.(check int) "prism" 3 (Treewidth.treewidth prism)

let test_heuristic_on_larger_graph () =
  (* sanity on a 40-vertex random graph: bounds sandwich, decomposition
     valid *)
  let g =
    let st = Random.State.make [| 5 |] in
    let h = Graph.make 40 in
    for _ = 1 to 120 do
      let u = Random.State.int st 40 and v = Random.State.int st 40 in
      Graph.add_edge h u v
    done;
    h
  in
  let ub, dec = Treewidth.heuristic g in
  Alcotest.(check bool) "valid" true (Treedec.validate g dec);
  Alcotest.(check bool) "lb <= ub" true (Treewidth.lower_bound g <= ub)

let test_graph_iso () =
  Alcotest.(check bool) "C5 ~ C5 relabelled" true
    (Graph_iso.isomorphic (Graph.cycle 5)
       (Graph.of_edges 5 [ (0, 2); (2, 4); (4, 1); (1, 3); (3, 0) ]));
  Alcotest.(check bool) "P4 !~ star3" false
    (Graph_iso.isomorphic (Graph.path 4) (Graph.star 3));
  Alcotest.(check bool) "C6 !~ 2C3" false
    (Graph_iso.isomorphic (Graph.cycle 6)
       (Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]))

let qcheck_treewidth =
  let open QCheck in
  let random_graph =
    make
      ~print:(fun (n, edges) ->
        Printf.sprintf "n=%d edges=%s" n
          (String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
      (Gen.(>>=) (Gen.int_range 1 8) (fun n ->
           Gen.map
             (fun pairs ->
               (n, List.map (fun (u, v) -> (u mod n, v mod n)) pairs))
             (Gen.list_size (Gen.int_range 0 12)
                (Gen.pair (Gen.int_range 0 7) (Gen.int_range 0 7)))))
  in
  [
    Test.make ~name:"exact tw is sandwiched and witnessed" ~count:60 random_graph
      (fun (n, edges) ->
        let g = Graph.of_edges n edges in
        let w, dec = Treewidth.exact g in
        let ub, hdec = Treewidth.heuristic g in
        let lb = Treewidth.lower_bound g in
        Treedec.validate g dec && Treedec.width dec = w && Treedec.validate g hdec
        && lb <= w && w <= ub);
    Test.make ~name:"elimination order decomposition always valid" ~count:60
      random_graph (fun (n, edges) ->
        let g = Graph.of_edges n edges in
        let order = Treewidth.heuristic_order Treewidth.Min_degree g in
        Treedec.validate g (Treedec.of_elimination_order g order));
  ]

let suite =
  [
    ( "graph",
      [
        Alcotest.test_case "basic ops" `Quick test_basic_ops;
        Alcotest.test_case "self loops ignored" `Quick test_self_loop_ignored;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "acyclicity" `Quick test_acyclic;
        Alcotest.test_case "induced subgraph" `Quick test_induced;
        Alcotest.test_case "stretched clique" `Quick test_stretched_clique;
        Alcotest.test_case "treedec validation" `Quick test_treedec_validate;
        Alcotest.test_case "exact treewidth" `Quick test_exact_treewidth;
        Alcotest.test_case "heuristics and bounds" `Quick test_heuristics_and_bounds;
        Alcotest.test_case "more known treewidths" `Quick test_known_treewidths_extra;
        Alcotest.test_case "heuristics on larger graphs" `Quick
          test_heuristic_on_larger_graph;
        Alcotest.test_case "graph isomorphism" `Quick test_graph_iso;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_treewidth );
  ]
