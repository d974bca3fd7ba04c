(** Tests for the homomorphism engine and the two counting dynamic
    programs (join tree and tree decomposition). *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mk n edges = Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]

let triangle = mk 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]
let path2 = mk 2 [ [ 0; 1 ] ] (* a single directed edge *)
let path3 = mk 3 [ [ 0; 1 ]; [ 1; 2 ] ]
let cycle4 = mk 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]

let test_hom_counts_known () =
  (* hom(edge -> triangle) = #directed edges = 3 *)
  Alcotest.(check int) "edge->triangle" 3 (Hom.count path2 triangle);
  (* hom(P3 -> triangle): 3 choices then 1 then 1 -> each walk of length 2: 3*1*1 = 3 *)
  Alcotest.(check int) "P3->triangle walks" 3 (Hom.count path3 triangle);
  (* hom(triangle -> triangle) = 3 rotations (directed) *)
  Alcotest.(check int) "triangle->triangle" 3 (Hom.count triangle triangle);
  (* no hom triangle -> C4 (directed C4 has no closed walk of length 3) *)
  Alcotest.(check int) "triangle->C4" 0 (Hom.count triangle cycle4);
  Alcotest.(check bool) "exists edge->path" true (Hom.exists path2 path3);
  Alcotest.(check bool) "not exists triangle->path" false (Hom.exists triangle path3)

let test_fixed () =
  (* homs of the edge 0->1 into P3 with source fixed to 0: only (0,1) *)
  Alcotest.(check int) "fixed source" 1 (Hom.count ~fixed:[ (0, 0) ] path2 path3);
  Alcotest.(check int) "fixed impossible" 0 (Hom.count ~fixed:[ (0, 2) ] path2 path3)

let test_empty_query () =
  let empty = mk 2 [] in
  (* 2 unconstrained variables into a 3-element universe: 9 homs *)
  Alcotest.(check int) "no atoms" 9 (Hom.count empty triangle)

let test_repeated_variables () =
  (* query E(x, x) requires a self-loop *)
  let sg = sg_e in
  let loopq = Structure.make sg [ 0 ] [ ("E", [ [ 0; 0 ] ]) ] in
  let with_loop = Structure.make sg [ 0; 1 ] [ ("E", [ [ 0; 0 ]; [ 0; 1 ] ]) ] in
  Alcotest.(check int) "no loop, no hom" 0 (Hom.count loopq triangle);
  Alcotest.(check int) "loop found" 1 (Hom.count loopq with_loop)

let test_non_surjective_endo () =
  (* P3 with all variables fixed has only the identity: #minimal *)
  Alcotest.(check bool) "qf is minimal" true
    (Hom.find_non_surjective_endo path3 ~fixed_pointwise:[ 0; 1; 2 ] = None);
  (* with no fixed variables, P3 retracts onto an edge of itself?  No: the
     directed path 0->1->2 has no shorter retract; but two disjoint edges
     retract onto one *)
  let two_edges = mk 4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  Alcotest.(check bool) "disjoint edges retract" true
    (Hom.find_non_surjective_endo two_edges ~fixed_pointwise:[] <> None);
  Alcotest.(check bool) "retract fixing one edge still exists" true
    (Hom.find_non_surjective_endo two_edges ~fixed_pointwise:[ 0; 1 ] <> None)

let test_iter_homs_early_stop () =
  let db = Generators.clique_db 5 in
  let seen = ref 0 in
  Hom.iter_homs path2 db (fun _ ->
      incr seen;
      !seen < 3);
  Alcotest.(check int) "stopped after 3" 3 !seen

let test_empty_database_homs () =
  let empty = Structure.make sg_e [] [] in
  Alcotest.(check int) "no homs into empty" 0 (Hom.count path2 empty);
  (* the empty query has exactly the empty hom *)
  let trivial = Structure.make sg_e [] [] in
  Alcotest.(check int) "empty to empty" 1 (Hom.count trivial empty)

let test_jointree_matches_naive () =
  let db = Generators.random_digraph ~seed:7 10 25 in
  List.iter
    (fun (name, q) ->
      match Jointree_count.count_big q db with
      | None -> Alcotest.fail (name ^ ": expected acyclic")
      | Some c ->
          Alcotest.(check string) name (string_of_int (Hom.count q db)) (Bigint.to_string c))
    [ ("edge", path2); ("P3", path3); ("two edges", mk 4 [ [ 0; 1 ]; [ 2; 3 ] ]) ];
  (* triangle is cyclic: join-tree counter refuses *)
  Alcotest.(check bool) "triangle refused" true (Jointree_count.count_big triangle db = None)

let test_negative_elements () =
  (* element -3 is an element like any other, not "unassigned" *)
  let db = Structure.make sg_e [ -3; 5 ] [ ("E", [ [ -3; 5 ]; [ 5; -3 ] ]) ] in
  let two_cycle = mk 2 [ [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.(check int) "2-cycle homs" 2 (Hom.count two_cycle db);
  Alcotest.(check int) "fixed negative image" 1 (Hom.count ~fixed:[ (0, -3) ] two_cycle db);
  Alcotest.(check int) "naive count" 2
    (Counting.count ~strategy:Counting.Naive (Cq.of_structure two_cycle) db)

let test_treedec_matches_naive () =
  let db = Generators.random_digraph ~seed:11 8 20 in
  List.iter
    (fun (name, q) ->
      Alcotest.(check string) name
        (string_of_int (Hom.count q db))
        (Bigint.to_string (Treedec_count.count_big q db)))
    [
      ("edge", path2);
      ("P3", path3);
      ("triangle", triangle);
      ("C4", cycle4);
      ("empty", mk 3 []);
    ]

(* the exact DP against the native-int engine of [lib/db] *)
let test_big_counters_agree () =
  let db = Generators.random_digraph ~seed:13 9 24 in
  List.iter
    (fun q ->
      Alcotest.(check string) "big = int"
        (string_of_int (Counting.count (Cq.of_structure q) db))
        (Bigint.to_string (Treedec_count.count_big q db)))
    [ path3; triangle; cycle4 ]

let qcheck_counters =
  let open QCheck in
  let gen_query =
    make
      ~print:(fun (n, edges) -> Printf.sprintf "query n=%d |E|=%d" n (List.length edges))
      (Gen.(>>=) (Gen.int_range 1 4) (fun n ->
           Gen.map
             (fun pairs -> (n, List.map (fun (u, v) -> [ u mod n; v mod n ]) pairs))
             (Gen.list_size (Gen.int_range 0 5)
                (Gen.pair (Gen.int_range 0 3) (Gen.int_range 0 3)))))
  in
  let gen_db = int_range 0 1000 in
  [
    Test.make ~name:"treedec DP agrees with backtracking" ~count:80
      (pair gen_query gen_db) (fun ((n, edges), seed) ->
        let q = mk n edges in
        let db = Generators.random_digraph ~seed 6 12 in
        Bigint.equal (Treedec_count.count_big q db) (Bigint.of_int (Hom.count q db)));
    Test.make ~name:"join-tree counter agrees when acyclic" ~count:80
      (pair gen_query gen_db) (fun ((n, edges), seed) ->
        let q = mk n edges in
        let db = Generators.random_digraph ~seed 6 12 in
        match Jointree_count.count_big q db with
        | None -> not (Jointree_count.is_acyclic_structure q)
        | Some c -> Bigint.equal c (Bigint.of_int (Hom.count q db)));
  ]

let suite =
  [
    ( "hom",
      [
        Alcotest.test_case "known hom counts" `Quick test_hom_counts_known;
        Alcotest.test_case "fixed assignments" `Quick test_fixed;
        Alcotest.test_case "atom-free query" `Quick test_empty_query;
        Alcotest.test_case "repeated variables" `Quick test_repeated_variables;
        Alcotest.test_case "non-surjective endomorphisms" `Quick test_non_surjective_endo;
        Alcotest.test_case "early stop" `Quick test_iter_homs_early_stop;
        Alcotest.test_case "empty databases" `Quick test_empty_database_homs;
        Alcotest.test_case "join-tree counting" `Quick test_jointree_matches_naive;
        Alcotest.test_case "negative element ids" `Quick test_negative_elements;
        Alcotest.test_case "treedec counting" `Quick test_treedec_matches_naive;
        Alcotest.test_case "bigint counters agree" `Quick test_big_counters_agree;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_counters );
  ]
