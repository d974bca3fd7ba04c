(** Tests for signatures, relational structures, Gaifman graphs, tensor
    products and structure isomorphism. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let triangle =
  Structure.make sg_e [ 0; 1; 2 ] [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]) ]

let path3 =
  Structure.make sg_e [ 0; 1; 2 ] [ ("E", [ [ 0; 1 ]; [ 1; 2 ] ]) ]

let test_signature () =
  Alcotest.(check int) "arity" 2 (Signature.arity sg_e);
  Alcotest.(check bool) "mem" true (Signature.mem sg_e "E");
  Alcotest.(check bool) "not mem" false (Signature.mem sg_e "F");
  let sg2 = Signature.make [ Signature.symbol "E" 2; Signature.symbol "P" 1 ] in
  Alcotest.(check bool) "subset" true (Signature.subset sg_e sg2);
  Alcotest.(check int) "union size" 2 (Signature.size (Signature.union sg_e sg2));
  Alcotest.check_raises "duplicate symbol rejected"
    (Invalid_argument "Signature.make: duplicate symbol E") (fun () ->
      ignore (Signature.make [ Signature.symbol "E" 2; Signature.symbol "E" 1 ]))

let test_structure_invariants () =
  Alcotest.(check (list int)) "universe sorted" [ 0; 1; 2 ] (Structure.universe triangle);
  (* |A| = |sig| + |U| + Σ |R|·arity = 1 + 3 + 6 *)
  Alcotest.(check int) "encoding size" 10 (Structure.size triangle);
  Alcotest.(check int) "tuples" 3 (Structure.num_tuples triangle);
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Structure.make: arity mismatch in E") (fun () ->
      ignore (Structure.make sg_e [ 0 ] [ ("E", [ [ 0 ] ]) ]))

let test_union_induced () =
  let u = Structure.union triangle path3 in
  Alcotest.(check int) "union tuples (dedup)" 3 (Structure.num_tuples u);
  let ind = Structure.induced triangle [ 0; 1 ] in
  Alcotest.(check int) "induced tuples" 1 (Structure.num_tuples ind);
  Alcotest.(check bool) "substructure" true (Structure.is_substructure ind triangle);
  Alcotest.(check bool) "not substructure" false
    (Structure.is_substructure triangle ind)

let test_isolated () =
  let s = Structure.make sg_e [ 0; 1; 5 ] [ ("E", [ [ 0; 1 ] ]) ] in
  Alcotest.(check (list int)) "isolated" [ 5 ] (Structure.isolated_elements s)

let test_gaifman () =
  let g, mapping = Structure.gaifman triangle in
  Alcotest.(check int) "gaifman triangle edges" 3 (Graph.num_edges g);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping;
  (* a ternary tuple spans a clique in the Gaifman graph *)
  let sg3 = Signature.make [ Signature.symbol "T" 3 ] in
  let s = Structure.make sg3 [ 0; 1; 2 ] [ ("T", [ [ 0; 1; 2 ] ]) ] in
  let g3, _ = Structure.gaifman s in
  Alcotest.(check int) "ternary tuple clique" 3 (Graph.num_edges g3);
  Alcotest.(check int) "treewidth of triangle" 2 (Structure.treewidth triangle);
  Alcotest.(check int) "treewidth of path" 1 (Structure.treewidth path3)

let test_tensor () =
  let prod, _ = Structure.tensor path3 path3 in
  Alcotest.(check int) "tensor universe" 9 (Structure.universe_size prod);
  Alcotest.(check int) "tensor tuples" 4 (Structure.num_tuples prod);
  (* multiplicativity of hom counts over tensor products (Theorem 28) *)
  let query = path3 in
  let d1 = triangle and d2 = path3 in
  let t, _ = Structure.tensor d1 d2 in
  Alcotest.(check int) "hom multiplicative"
    (Hom.count query d1 * Hom.count query d2)
    (Hom.count query t)

let test_struct_iso () =
  let tri2 =
    Structure.make sg_e [ 5; 7; 9 ] [ ("E", [ [ 5; 7 ]; [ 7; 9 ]; [ 9; 5 ] ]) ]
  in
  Alcotest.(check bool) "triangles isomorphic" true (Struct_iso.isomorphic triangle tri2);
  Alcotest.(check bool) "triangle != path" false (Struct_iso.isomorphic triangle path3);
  (* directed path 0->1->2: the identity of endpoints matters under
     protected sets *)
  Alcotest.(check bool) "protected endpoints ok" true
    (Struct_iso.isomorphic ~protected_:[ ([ 0 ], [ 0 ]) ] path3 path3);
  Alcotest.(check bool) "protected mismatch fails" false
    (Struct_iso.isomorphic ~protected_:[ ([ 0 ], [ 2 ]) ] path3 path3)

let test_rename () =
  let renamed = Structure.rename path3 (fun v -> v + 10) in
  Alcotest.(check (list int)) "renamed universe" [ 10; 11; 12 ] (Structure.universe renamed);
  Alcotest.(check bool) "isomorphic after rename" true
    (Struct_iso.isomorphic path3 renamed)

let qcheck_tensor =
  let open QCheck in
  let gen_structure =
    make
      ~print:(fun (n, edges) -> Printf.sprintf "n=%d |E|=%d" n (List.length edges))
      (Gen.(>>=) (Gen.int_range 1 4) (fun n ->
           Gen.map
             (fun pairs -> (n, List.map (fun (u, v) -> [ u mod n; v mod n ]) pairs))
             (Gen.list_size (Gen.int_range 0 6)
                (Gen.pair (Gen.int_range 0 3) (Gen.int_range 0 3)))))
  in
  let build (n, edges) =
    Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]
  in
  [
    Test.make ~name:"tensor multiplicativity of hom counts" ~count:60
      (pair gen_structure gen_structure) (fun (s1, s2) ->
        let d1 = build s1 and d2 = build s2 in
        let t, _ = Structure.tensor d1 d2 in
        let q = path3 in
        Hom.count q t = Hom.count q d1 * Hom.count q d2);
    Test.make ~name:"isomorphism invariant under renaming" ~count:60 gen_structure
      (fun s ->
        let d = build s in
        Struct_iso.isomorphic d (Structure.rename d (fun v -> 100 - v)));
  ]

(* [Structure.add_tuples] against the construction it replaced: [make]
   over the whole structure with the relation and universe extended. *)
let qcheck_add_tuples =
  let open QCheck in
  let sg = Signature.make [ Signature.symbol "E" 2; Signature.symbol "R" 1 ] in
  let gen =
    make
      ~print:(fun (seed, rel, ts) ->
        Printf.sprintf "seed=%d %s += [%s]" seed rel
          (String.concat "; " (List.map (fun t -> String.concat "," (List.map string_of_int t)) ts)))
      Gen.(
        int_range 0 1000 >>= fun seed ->
        bool >>= fun binary ->
        list_size (int_range 0 5) (list_repeat (if binary then 2 else 1) (int_range (-3) 9))
        >|= fun ts -> (seed, (if binary then "E" else "R"), ts))
  in
  [
    Test.make ~name:"add_tuples equals make over the whole structure" ~count:200 gen
      (fun (seed, rel, ts) ->
        let a = Generators.random_structure ~seed sg 6 (seed mod 8) in
        let ts = ts @ List.filteri (fun i _ -> i < 2) (Structure.relation a rel) in
        let expected =
          Structure.make sg
            (Structure.universe a @ List.concat ts)
            ((rel, Structure.relation a rel @ ts)
            :: List.filter (fun (n, _) -> n <> rel) (Structure.relations a))
        in
        Structure.equal (Structure.add_tuples a rel ts) expected);
  ]

let test_add_tuples_errors () =
  let a = Structure.make sg_e [ 0; 1 ] [ ("E", [ [ 0; 1 ] ]) ] in
  Alcotest.check_raises "unknown symbol" (Invalid_argument "Structure.relation: unknown symbol F")
    (fun () -> ignore (Structure.add_tuples a "F" [ [ 0; 1 ] ]));
  Alcotest.check_raises "arity" (Invalid_argument "Structure.make: arity mismatch in E")
    (fun () -> ignore (Structure.add_tuples a "E" [ [ 0 ] ]))

let suite =
  [
    ( "relational",
      [
        Alcotest.test_case "signature" `Quick test_signature;
        Alcotest.test_case "structure invariants" `Quick test_structure_invariants;
        Alcotest.test_case "union and induced" `Quick test_union_induced;
        Alcotest.test_case "isolated elements" `Quick test_isolated;
        Alcotest.test_case "gaifman graphs" `Quick test_gaifman;
        Alcotest.test_case "tensor product" `Quick test_tensor;
        Alcotest.test_case "structure isomorphism" `Quick test_struct_iso;
        Alcotest.test_case "rename" `Quick test_rename;
        Alcotest.test_case "add_tuples errors" `Quick test_add_tuples_errors;
      ]
      @ List.map QCheck_alcotest.to_alcotest (qcheck_tensor @ qcheck_add_tuples) );
  ]
