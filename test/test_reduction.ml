(** Tests for the hardness machinery of Section 4.2: CNF handling, the
    SAT → power-complex reduction (χ̂(Δ_F) = #sat(F)), the [K_t^k]
    structures, and the Lemma 48/50 algorithms. *)

let test_cnf_basics () =
  let f = Cnf.make 3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ] in
  Alcotest.(check int) "vars" 3 (Cnf.num_vars f);
  Alcotest.(check int) "clauses" 3 (Cnf.num_clauses f);
  Alcotest.(check bool) "sat check" true (Cnf.satisfies f [| true; false; true |]);
  Alcotest.(check bool) "unsat check" false (Cnf.satisfies f [| true; true; true |]);
  (* models: (T,F,T) and (F,T,F) *)
  Alcotest.(check int) "count" 2 (Cnf.count_sat f)

let test_count_sat_known () =
  Alcotest.(check int) "x1 has 1 model" 1 (Cnf.count_sat (Cnf.make 1 [ [ 1 ] ]));
  Alcotest.(check int) "free variable doubles" 2
    (Cnf.count_sat (Cnf.make 2 [ [ 1 ] ]));
  Alcotest.(check int) "contradiction" 0
    (Cnf.count_sat (Cnf.make 1 [ [ 1 ]; [ -1 ] ]));
  Alcotest.(check int) "empty formula" 4 (Cnf.count_sat (Cnf.make 2 []));
  Alcotest.(check int) "tautological clause" 2
    (Cnf.count_sat (Cnf.make 1 [ [ 1; -1 ] ]))

let test_dimacs () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let f = Cnf.parse_dimacs text in
  Alcotest.(check int) "vars" 3 (Cnf.num_vars f);
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses f);
  let f2 = Cnf.parse_dimacs (Cnf.to_dimacs f) in
  Alcotest.(check int) "roundtrip count" (Cnf.count_sat f) (Cnf.count_sat f2)

let test_sat_complex_identity () =
  (* χ̂(Δ_F) = #sat(F) on hand-picked formulas *)
  List.iter
    (fun (name, f) ->
      let pc = Sat_complex.power_complex_of_cnf f in
      Alcotest.(check int) name (Cnf.count_sat f)
        (Power_complex.euler_independent_sets pc))
    [
      ("single positive", Cnf.make 1 [ [ 1 ] ]);
      ("contradiction", Cnf.make 1 [ [ 1 ]; [ -1 ] ]);
      ("free formula", Cnf.make 2 []);
      ("2-clause", Cnf.make 2 [ [ 1; 2 ] ]);
      ("implication chain", Cnf.make 3 [ [ -1; 2 ]; [ -2; 3 ] ]);
      ("3-sat", Cnf.make 3 [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ]);
      ("tautological clause", Cnf.make 2 [ [ 1; -1 ]; [ 2 ] ]);
      ("duplicate clause", Cnf.make 2 [ [ 1; 2 ]; [ 1; 2 ] ]);
    ]

let test_ktk_structure () =
  let k34 = Ktk.make 3 4 in
  Alcotest.(check int) "universe of K_3^4" 12 (List.length (Ktk.universe k34));
  Alcotest.(check int) "clique edges" 3 (Ktk.num_clique_edges k34);
  Alcotest.(check int) "relations" 12
    (Signature.size (Structure.signature k34.Ktk.structure));
  (* Observation 44: self-join-free, arity 2 *)
  Alcotest.(check bool) "self-join-free" true
    (Cq.is_self_join_free (Cq.of_structure k34.Ktk.structure));
  Alcotest.(check int) "arity" 2 (Signature.arity k34.Ktk.signature);
  (* K_3^4 is cyclic with treewidth 2 *)
  Alcotest.(check bool) "cyclic" false
    (Cq.is_acyclic (Cq.of_structure k34.Ktk.structure));
  Alcotest.(check int) "treewidth" 2 (Structure.treewidth k34.Ktk.structure)

let test_ktk_slices () =
  let k34 = Ktk.make 3 4 in
  (* every E_i is a feedback edge set: single slices and proper unions are
     acyclic (Figure 2 caption: "all of the S_A are acyclic") *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "S_{%s} acyclic"
           (String.concat "" (List.map string_of_int a)))
        true
        (Cq.is_acyclic (Cq.of_structure (Ktk.slices k34 a))))
    [ [ 1 ]; [ 2; 4 ]; [ 1; 4 ]; [ 3; 4 ]; [ 2; 3 ]; [ 1; 2; 3 ] ];
  (* the full slice set reconstitutes K_3^4 *)
  Alcotest.(check bool) "full slices = K_3^4" true
    (Structure.equal (Ktk.slices k34 [ 1; 2; 3; 4 ]) k34.Ktk.structure)

let test_ktk_database_of_graph () =
  let k33 = Ktk.make 3 3 in
  let with_triangle = Ktk.database_of_graph k33 (Graph.clique 3) in
  let without = Ktk.database_of_graph k33 (Graph.cycle 4) in
  Alcotest.(check bool) "triangle host has homs" true
    (Counting.count (Cq.of_structure k33.Ktk.structure) with_triangle > 0);
  Alcotest.(check int) "triangle-free host has none" 0
    (Counting.count (Cq.of_structure k33.Ktk.structure) without)

let test_ktk_hom_counts_exact () =
  (* two disjoint triangles in the host: 6 colour-preserving homs per
     (ordered) triangle *)
  let k33 = Ktk.make 3 3 in
  let host =
    Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  let db = Ktk.database_of_graph k33 host in
  Alcotest.(check int) "6 homs per triangle" 12
    (Counting.count (Cq.of_structure k33.Ktk.structure) db)

let test_lemma48_on_delta2 () =
  (* the vanishing side: Psi2 = A^_3(Delta2) *)
  let psi, ktk = Lemma48.ucq_of_complex 3 Scomplex.figure1_delta2 in
  Alcotest.(check int) "coefficient 0" 0
    (Ucq.coefficient psi (Ucq.combined_all psi));
  List.iter
    (fun (t : Ucq.expansion_term) ->
      Alcotest.(check bool) "all support acyclic" true
        (Cq.is_acyclic t.representative))
    (Ucq.support psi);
  ignore ktk

let test_lemma48_parameter_t () =
  (* the construction works for any clique parameter t *)
  List.iter
    (fun t ->
      let psi, ktk = Lemma48.ucq_of_complex t Scomplex.figure1_delta1 in
      Alcotest.(check int)
        (Printf.sprintf "coefficient at t=%d" t)
        2
        (Ucq.coefficient psi (Ucq.combined_all psi));
      Alcotest.(check int)
        (Printf.sprintf "treewidth of K_%d^4" t)
        (t - 1)
        (Structure.treewidth ktk.Ktk.structure))
    [ 2; 3; 4 ]

let test_lemma48_on_figure1 () =
  let psi, ktk = Lemma48.ucq_of_complex 3 Scomplex.figure1_delta1 in
  (* item 4: ℓ ≤ |Ω| = 4 *)
  Alcotest.(check int) "4 CQs" 4 (Ucq.length psi);
  (* item 1: ∧(Ψ) ≅ K_3^4 *)
  Alcotest.(check bool) "combined = K_3^4" true
    (Structure.equal (Cq.structure (Ucq.combined_all psi)) ktk.Ktk.structure);
  (* item 2: c_Ψ(∧Ψ) = -χ̂(Δ1) = 2 *)
  Alcotest.(check int) "coefficient" 2
    (Ucq.coefficient psi (Ucq.combined_all psi));
  (* item 5 *)
  Alcotest.(check bool) "acyclic disjuncts" true (Ucq.is_union_of_acyclic psi);
  Alcotest.(check bool) "sjf disjuncts" true (Ucq.is_union_of_self_join_free psi)

let test_lemma50_dispatch () =
  (* a cone resolves to Euler 0 without producing a UCQ *)
  (match Lemma48.algorithm_a 3 (Scomplex.make [ 1; 2; 3 ] [ [ 1; 2 ]; [ 1; 3 ] ]) with
  | Lemma48.Euler e -> Alcotest.(check int) "cone euler" 0 e
  | Lemma48.Ucq_out _ -> Alcotest.fail "expected Euler for reducible complex");
  (* complete complex also resolves to 0 *)
  (match Lemma48.algorithm_a 3 (Scomplex.make [ 1; 2 ] [ [ 1; 2 ] ]) with
  | Lemma48.Euler e -> Alcotest.(check int) "complete euler" 0 e
  | Lemma48.Ucq_out _ -> Alcotest.fail "expected Euler for complete complex");
  (* Figure 1 Δ1 is irreducible: a UCQ is produced *)
  match Lemma48.algorithm_a 3 Scomplex.figure1_delta1 with
  | Lemma48.Euler _ -> Alcotest.fail "expected a UCQ"
  | Lemma48.Ucq_out (psi, _) -> Alcotest.(check int) "4 CQs" 4 (Ucq.length psi)

let test_pipeline_end_to_end () =
  (* satisfiable F: the K_t^k coefficient is -#sat ≠ 0 *)
  let f_sat = Cnf.make 1 [ [ 1 ] ] in
  (match Pipeline.ucq_of_cnf f_sat with
  | Pipeline.Resolved _ -> Alcotest.fail "expected a query"
  | Pipeline.Query { psi; ktk; _ } ->
      Alcotest.(check int) "l = 3n + m" 4 (Ucq.length psi);
      let combined = Ucq.combined_all psi in
      Alcotest.(check bool) "combined = K_3^3" true
        (Structure.equal (Cq.structure combined) ktk.Ktk.structure);
      Alcotest.(check int) "coefficient = -#sat" (-1)
        (Ucq.coefficient psi combined));
  (* unsatisfiable F: coefficient 0 and every support term acyclic *)
  let f_unsat = Cnf.make 1 [ [ 1 ]; [ -1 ] ] in
  match Pipeline.ucq_of_cnf f_unsat with
  | Pipeline.Resolved _ -> Alcotest.fail "expected a query"
  | Pipeline.Query { psi; _ } ->
      Alcotest.(check int) "coefficient vanishes" 0
        (Ucq.coefficient psi (Ucq.combined_all psi));
      List.iter
        (fun (t : Ucq.expansion_term) ->
          Alcotest.(check bool) "support acyclic" true
            (Cq.is_acyclic t.representative))
        (Ucq.support psi)

let test_pipeline_degenerate () =
  (match Pipeline.ucq_of_cnf (Cnf.make 2 [ [] ]) with
  | Pipeline.Resolved sat -> Alcotest.(check bool) "empty clause unsat" false sat
  | _ -> Alcotest.fail "expected resolution");
  match Pipeline.ucq_of_cnf (Cnf.make 0 []) with
  | Pipeline.Resolved sat -> Alcotest.(check bool) "empty formula sat" true sat
  | _ -> Alcotest.fail "expected resolution"

let qcheck_reduction =
  let open QCheck in
  [
    Test.make ~name:"parsimony: euler(Delta_F) = #sat(F)" ~count:40
      (pair (int_range 0 10_000) (pair (int_range 3 4) (int_range 1 4)))
      (fun (seed, (n, m)) ->
        let f = Cnf.random_3cnf ~seed n m in
        Sat_complex.euler_equals_count_sat f);
    Test.make ~name:"pipeline coefficient = -#sat" ~count:6
      (pair (int_range 0 10_000) (int_range 1 2))
      (fun (seed, m) ->
        (* keep n = 3 fixed so the 2^(3n+m) expansion stays small *)
        let f = Cnf.random_3cnf ~seed 3 m in
        match Pipeline.ucq_of_cnf f with
        | Pipeline.Resolved _ -> true
        | Pipeline.Query { psi; _ } ->
            Ucq.coefficient psi (Ucq.combined_all psi) = -Cnf.count_sat f);
  ]

let suite =
  [
    ( "reduction",
      [
        Alcotest.test_case "cnf basics" `Quick test_cnf_basics;
        Alcotest.test_case "count_sat known values" `Quick test_count_sat_known;
        Alcotest.test_case "dimacs" `Quick test_dimacs;
        Alcotest.test_case "sat-complex identity" `Quick test_sat_complex_identity;
        Alcotest.test_case "K_t^k structure" `Quick test_ktk_structure;
        Alcotest.test_case "K_t^k slices (Figure 2)" `Quick test_ktk_slices;
        Alcotest.test_case "K_t^k database of graph (Lemma 45)" `Quick
          test_ktk_database_of_graph;
        Alcotest.test_case "K_t^k exact hom counts" `Quick test_ktk_hom_counts_exact;
        Alcotest.test_case "Lemma 48 on Delta2" `Quick test_lemma48_on_delta2;
        Alcotest.test_case "Lemma 48 parameter sweep" `Quick test_lemma48_parameter_t;
        Alcotest.test_case "Lemma 48 on Figure 1" `Quick test_lemma48_on_figure1;
        Alcotest.test_case "Lemma 50 dispatch" `Quick test_lemma50_dispatch;
        Alcotest.test_case "pipeline end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "pipeline degenerate inputs" `Quick test_pipeline_degenerate;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_reduction );
  ]
