(** Tests for variable elimination, answer sets, enumeration, the
    counting dispatch and the database generators. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

(* The answers of [q] over [d] by backtracking, sorted: the reference
   answer set. *)
let naive_answers (q : Cq.t) (d : Structure.t) : int list list =
  let found = ref [] in
  Hom.iter_homs (Cq.structure q) d (fun h ->
      found := List.map (fun x -> List.assoc x h) (Cq.free q) :: !found;
      true);
  List.sort_uniq compare !found

(* The rows of an answer table, sorted. *)
let table_rows (t : Elim.table) : int list list =
  let w = Array.length t.Elim.cols in
  List.sort compare (List.init t.Elim.rows (fun i -> Array.to_list (Array.sub t.Elim.data (i * w) w)))

let test_varelim_vs_naive () =
  let db = Generators.random_digraph ~seed:3 7 15 in
  let queries =
    [
      (* ∃y. E(x, y): out-degree >= 1 *)
      ("exists out-edge", mkq 2 [ [ 0; 1 ] ] [ 0 ]);
      (* ∃y. E(x, y) ∧ E(y, z): connected by a 2-walk *)
      ("2-walk endpoints", mkq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 2 ]);
      (* quantifier-free triangle *)
      ("triangle qf", mkq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ]);
      (* boolean: is there any triangle *)
      ("boolean triangle", mkq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] []);
      (* isolated free variable *)
      ("isolated free", mkq 2 [ [ 0; 0 ] ] [ 0; 1 ]);
    ]
  in
  List.iter
    (fun (name, q) ->
      Alcotest.(check int) name
        (Counting.count ~strategy:Counting.Naive q db)
        (Counting.count ~strategy:Counting.Varelim q db))
    queries

let test_answer_set () =
  let db = Generators.path_db 4 in
  (* answers to ∃y. E(x,y) on 0->1->2->3: x in {0,1,2} *)
  let q = mkq 2 [ [ 0; 1 ] ] [ 0 ] in
  Alcotest.(check (list (list int))) "answer set" [ [ 0 ]; [ 1 ]; [ 2 ] ] (table_rows (Elim.answers q db));
  Alcotest.(check (list (list int))) "naive answer set" [ [ 0 ]; [ 1 ]; [ 2 ] ] (naive_answers q db)

let test_ternary_counting () =
  (* exercise every engine on an arity-3 signature *)
  let sg = Signature.make [ Signature.symbol "T" 3 ] in
  let db = Generators.random_structure ~seed:8 sg 5 30 in
  let q2 =
    (* (x, y) :- ∃z T(x, z, y) *)
    Cq.make
      (Structure.make sg [ 0; 1; 2 ] [ ("T", [ [ 0; 2; 1 ] ]) ])
      [ 0; 1 ]
  in
  let qf =
    (* (x, y, z) :- T(x, y, z), T(y, z, x): cyclic ternary *)
    Cq.make
      (Structure.make sg [ 0; 1; 2 ] [ ("T", [ [ 0; 1; 2 ]; [ 1; 2; 0 ] ]) ])
      [ 0; 1; 2 ]
  in
  let naive q = Counting.count ~strategy:Counting.Naive q db in
  Alcotest.(check int) "varelim ternary" (naive q2) (Counting.count ~strategy:Counting.Varelim q2 db);
  Alcotest.(check int) "auto ternary qf" (naive qf) (Counting.count qf db);
  Alcotest.(check string) "treedec ternary" (string_of_int (naive qf))
    (Bigint.to_string (Treedec_count.count_big (Cq.structure qf) db));
  Alcotest.(check int) "weighted ternary" (naive qf)
    (Counting.count ~strategy:Counting.Weighted qf db)

let test_counting_dispatch () =
  let db = Generators.random_digraph ~seed:5 8 20 in
  let acyclic = mkq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ] in
  let cyclic = mkq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  let naive q = Counting.count ~strategy:Counting.Naive q db in
  Alcotest.(check int) "auto acyclic" (naive acyclic) (Counting.count acyclic db);
  Alcotest.(check int) "auto cyclic" (naive cyclic) (Counting.count cyclic db);
  Alcotest.(check int) "yannakakis" (naive acyclic)
    (Counting.count ~strategy:Counting.Yannakakis acyclic db);
  Alcotest.(check string) "treedec" (string_of_int (naive cyclic))
    (Bigint.to_string (Treedec_count.count_big (Cq.structure cyclic) db));
  Alcotest.check_raises "yannakakis refuses cyclic"
    (Counting.Unsupported "Yannakakis counting requires an acyclic query")
    (fun () -> ignore (Counting.count ~strategy:Counting.Yannakakis cyclic db))

let test_empty_database () =
  let db = Structure.make sg_e [] [] in
  let q = mkq 2 [ [ 0; 1 ] ] [ 0 ] in
  Alcotest.(check int) "no answers on empty db" 0 (Counting.count ~strategy:Counting.Varelim q db);
  let boolean_empty = Cq.make (Structure.make sg_e [] []) [] in
  Alcotest.(check int) "empty boolean query satisfied" 1 (Counting.count ~strategy:Counting.Varelim boolean_empty db)

let test_enumerate_matches_answers () =
  let db = Generators.random_digraph ~seed:61 7 16 in
  List.iter
    (fun (name, q) ->
      let e = Enumerate.prepare q db in
      Alcotest.(check (list (list int))) name
        (naive_answers q db) (Enumerate.to_list e))
    [
      ("edge", mkq 2 [ [ 0; 1 ] ] [ 0; 1 ]);
      ("path3", mkq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ]);
      ("star", mkq 3 [ [ 0; 1 ]; [ 0; 2 ] ] [ 0; 1; 2 ]);
      ("two components", mkq 4 [ [ 0; 1 ]; [ 2; 3 ] ] [ 0; 1; 2; 3 ]);
      ("isolated var", mkq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ]);
      ("no atoms", mkq 1 [] [ 0 ]);
    ]

let test_enumerate_lazy_prefix () =
  (* taking a prefix does not force the whole enumeration *)
  let db = Generators.clique_db 30 in
  let q = mkq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ] in
  let e = Enumerate.prepare q db in
  let firsts = List.of_seq (Seq.take 5 (Enumerate.answers e)) in
  Alcotest.(check int) "five answers" 5 (List.length firsts);
  List.iter
    (fun a ->
      Alcotest.(check bool) "is an answer" true
        (Hom.exists ~fixed:(List.combine [ 0; 1; 2 ] a) (Cq.structure q) db))
    firsts

let test_enumerate_rejects () =
  let db = Generators.path_db 3 in
  let tri = mkq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  Alcotest.check_raises "cyclic rejected"
    (Counting.Unsupported "Enumerate: query must be acyclic") (fun () ->
      ignore (Enumerate.prepare tri db));
  let quantified = mkq 2 [ [ 0; 1 ] ] [ 0 ] in
  Alcotest.check_raises "quantified rejected"
    (Counting.Unsupported "Enumerate: query must be quantifier-free")
    (fun () -> ignore (Enumerate.prepare quantified db))

let test_nullary_and_unary_relations () =
  (* arity-0 and arity-1 symbols through every engine *)
  let sg =
    Signature.make
      [ Signature.symbol "Flag" 0; Signature.symbol "P" 1; Signature.symbol "E" 2 ]
  in
  let db_on =
    Structure.make sg [ 0; 1; 2 ]
      [ ("Flag", [ [] ]); ("P", [ [ 0 ]; [ 1 ] ]); ("E", [ [ 0; 1 ]; [ 1; 2 ] ]) ]
  in
  let db_off =
    Structure.make sg [ 0; 1; 2 ]
      [ ("P", [ [ 0 ]; [ 1 ] ]); ("E", [ [ 0; 1 ]; [ 1; 2 ] ]) ]
  in
  (* (x) :- Flag(), P(x), E(x, y) with y quantified *)
  let q =
    Cq.make
      (Structure.make sg [ 0; 1 ]
         [ ("Flag", [ [] ]); ("P", [ [ 0 ] ]); ("E", [ [ 0; 1 ] ]) ])
      [ 0 ]
  in
  let naive d = Counting.count ~strategy:Counting.Naive q d in
  let varelim d = Counting.count ~strategy:Counting.Varelim q d in
  Alcotest.(check int) "flag on" (naive db_on) (varelim db_on);
  Alcotest.(check int) "flag on value" 2 (varelim db_on);
  Alcotest.(check int) "flag off kills answers" 0 (varelim db_off);
  (* quantifier-free variant through the DP engines *)
  let qf =
    Cq.of_structure
      (Structure.make sg [ 0; 1 ]
         [ ("Flag", [ [] ]); ("P", [ [ 0 ] ]); ("E", [ [ 0; 1 ] ]) ])
  in
  Alcotest.(check string) "treedec with nullary" (string_of_int (naive db_on))
    (Bigint.to_string (Treedec_count.count_big (Cq.structure qf) db_on));
  Alcotest.(check int) "weighted with nullary"
    (Counting.count ~strategy:Counting.Naive qf db_on)
    (Counting.count ~strategy:Counting.Weighted qf db_on);
  Alcotest.(check int) "yannakakis with nullary"
    (Counting.count ~strategy:Counting.Naive qf db_on)
    (Counting.count ~strategy:Counting.Yannakakis qf db_on);
  Alcotest.(check int) "weighted nullary off" 0
    (Counting.count ~strategy:Counting.Weighted qf db_off)

let test_generators () =
  let d = Generators.path_db 5 in
  Alcotest.(check int) "path tuples" 4 (Structure.num_tuples d);
  let c = Generators.cycle_db 5 in
  Alcotest.(check int) "cycle tuples" 5 (Structure.num_tuples c);
  let k = Generators.clique_db 4 in
  Alcotest.(check int) "clique tuples" 12 (Structure.num_tuples k);
  let r = Generators.random_digraph ~seed:1 10 30 in
  Alcotest.(check int) "universe size" 10 (Structure.universe_size r);
  (* determinism *)
  Alcotest.(check bool) "seeded determinism" true
    (Structure.equal r (Generators.random_digraph ~seed:1 10 30))

let test_weighted () =
  let db = Generators.random_digraph ~seed:9 8 22 in
  List.iter
    (fun (name, edges, n) ->
      let q = mkq n edges (List.init n (fun i -> i)) in
      Alcotest.(check int) name
        (Hom.count (Cq.structure q) db)
        (Counting.count ~strategy:Counting.Weighted q db))
    [
      ("edge", [ [ 0; 1 ] ], 2);
      ("triangle", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ], 3);
      ("C4", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ], 4);
      ("diamond", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 1; 3 ]; [ 3; 2 ] ], 4);
      ("no atoms", [], 2);
    ]

let qcheck_varelim =
  let open QCheck in
  let gen_query =
    make
      ~print:(fun (n, edges, free) ->
        Printf.sprintf "n=%d |E|=%d X={%s}" n (List.length edges)
          (String.concat "," (List.map string_of_int free)))
      (Gen.(>>=) (Gen.int_range 1 4) (fun n ->
           Gen.(>>=)
             (Gen.list_size (Gen.int_range 0 4)
                (Gen.pair (Gen.int_range 0 3) (Gen.int_range 0 3)))
             (fun pairs ->
               Gen.map
                 (fun mask ->
                   ( n,
                     List.map (fun (u, v) -> [ u mod n; v mod n ]) pairs,
                     List.filter (fun i -> mask land (1 lsl i) <> 0)
                       (List.init n (fun i -> i)) ))
                 (Gen.int_range 0 15))))
  in
  [
    Test.make ~name:"weighted varelim agrees with backtracking" ~count:80
      (pair gen_query (int_range 0 1000))
      (fun ((n, edges, _), seed) ->
        let q = mkq n edges (List.init n (fun i -> i)) in
        let db = Generators.random_digraph ~seed 5 10 in
        Counting.count ~strategy:Counting.Weighted q db
        = Hom.count (Cq.structure q) db);
    Test.make ~name:"varelim agrees with naive answer counting" ~count:100
      (pair gen_query (int_range 0 1000))
      (fun ((n, edges, free), seed) ->
        let q = mkq n edges free in
        let db = Generators.random_digraph ~seed 5 10 in
        Counting.count ~strategy:Counting.Varelim q db
        = Counting.count ~strategy:Counting.Naive q db);
    Test.make ~name:"enumeration agrees with naive answers" ~count:60
      (pair gen_query (int_range 0 1000))
      (fun ((n, edges, _), seed) ->
        let q = mkq n edges (List.init n (fun i -> i)) in
        let db = Generators.random_digraph ~seed 5 10 in
        match Enumerate.prepare q db with
        | e -> Enumerate.to_list e = naive_answers q db
        | exception Counting.Unsupported _ -> not (Cq.is_acyclic q));
    Test.make ~name:"answer set size equals count" ~count:60
      (pair gen_query (int_range 0 1000))
      (fun ((n, edges, free), seed) ->
        let q = mkq n edges free in
        let db = Generators.random_digraph ~seed 4 8 in
        List.length (naive_answers q db)
        = Counting.count ~strategy:Counting.Varelim q db);
  ]

let qcheck_qgen =
  let open QCheck in
  let sg = Generators.graph_signature in
  [
    Test.make ~name:"qgen CQs: all engines agree" ~count:80
      (pair (int_range 0 100_000) (int_range 0 1000))
      (fun (qseed, dseed) ->
        let q = Qgen.random_cq ~seed:qseed ~max_vars:4 ~max_atoms:4 sg in
        let db = Generators.random_digraph ~seed:dseed 5 10 in
        let naive = Counting.count ~strategy:Counting.Naive q db in
        Counting.count q db = naive
        && Counting.count ~strategy:Counting.Varelim q db = naive);
    Test.make ~name:"qgen acyclic CQs: yannakakis and enumeration agree" ~count:80
      (pair (int_range 0 100_000) (int_range 0 1000))
      (fun (qseed, dseed) ->
        let q = Qgen.random_acyclic_cq ~seed:qseed ~max_vars:5 sg in
        let db = Generators.random_digraph ~seed:dseed 5 12 in
        Cq.is_acyclic q
        && Counting.count ~strategy:Counting.Yannakakis q db
           = Counting.count ~strategy:Counting.Naive q db
        && List.length (Enumerate.to_list (Enumerate.prepare q db))
           = Counting.count ~strategy:Counting.Naive q db);
    Test.make ~name:"qgen UCQs: IE and expansion agree with naive" ~count:40
      (pair (int_range 0 100_000) (int_range 0 1000))
      (fun (qseed, dseed) ->
        let psi =
          Qgen.random_ucq ~seed:qseed ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 sg
        in
        let db = Generators.random_digraph ~seed:dseed 4 8 in
        let naive = Ucq.count_naive psi db in
        Ucq.count_inclusion_exclusion psi db = naive
        && Ucq.count_via_expansion psi db = naive);
  ]

let suite =
  [
    ( "db",
      [
        Alcotest.test_case "varelim vs naive" `Quick test_varelim_vs_naive;
        Alcotest.test_case "weighted varelim" `Quick test_weighted;
        Alcotest.test_case "answer sets" `Quick test_answer_set;
        Alcotest.test_case "ternary relations" `Quick test_ternary_counting;
        Alcotest.test_case "counting dispatch" `Quick test_counting_dispatch;
        Alcotest.test_case "empty database" `Quick test_empty_database;
        Alcotest.test_case "enumeration matches answers" `Quick
          test_enumerate_matches_answers;
        Alcotest.test_case "enumeration is lazy" `Quick test_enumerate_lazy_prefix;
        Alcotest.test_case "enumeration rejections" `Quick test_enumerate_rejects;
        Alcotest.test_case "nullary and unary relations" `Quick
          test_nullary_and_unary_relations;
        Alcotest.test_case "generators" `Quick test_generators;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_varelim
      @ List.map QCheck_alcotest.to_alcotest qcheck_qgen );
  ]
