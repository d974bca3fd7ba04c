(** Tests for UCQs: combined queries (Definition 23), the CQ expansion and
    coefficient function (Definition 25, Lemma 26), and the counting
    algorithms. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

(* a small quantifier-free union over free variables {0, 1}:
   E(x0, x1)  ∨  E(x1, x0) *)
let psi_sym =
  Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]

let test_structure_accessors () =
  Alcotest.(check int) "two disjuncts" 2 (Ucq.length psi_sym);
  Alcotest.(check bool) "qf" true (Ucq.is_quantifier_free psi_sym);
  Alcotest.(check int) "arity" 2 (Ucq.arity psi_sym);
  Alcotest.(check int) "deletion closure" 3
    (List.length (Ucq.deletion_closure psi_sym))

let test_rename_apart () =
  (* two disjuncts ∃y E(x,y) — quantified variables must become disjoint *)
  let q = mkcq 2 [ [ 0; 1 ] ] [ 0 ] in
  let psi = Ucq.make [ q; q ] in
  let universes = List.map Structure.universe (Ucq.disjunct_structures psi) in
  (match universes with
  | [ u1; u2 ] ->
      Alcotest.(check (list int)) "shared part is X" [ 0 ]
        (Listx.inter_sorted u1 u2)
  | _ -> Alcotest.fail "expected two disjuncts");
  Alcotest.(check int) "one quantified var each" 2 (Ucq.num_quantified psi)

let test_combined () =
  let combined = Ucq.combined_all psi_sym in
  (* ∧(Ψ) = E(x0,x1) ∧ E(x1,x0) *)
  Alcotest.(check int) "combined tuples" 2 (Structure.num_tuples (Cq.structure combined));
  Alcotest.(check bool) "restriction to singleton" true
    (Cq.equal (Ucq.combined psi_sym [ 0 ]) (Ucq.disjunct psi_sym 0))

let test_count_union_semantics () =
  let db = Generators.random_digraph ~seed:21 6 10 in
  (* answers = ordered pairs connected in either direction *)
  let expected = Ucq.count_naive psi_sym db in
  Alcotest.(check int) "inclusion-exclusion" expected
    (Ucq.count_inclusion_exclusion psi_sym db);
  Alcotest.(check int) "via expansion" expected (Ucq.count_via_expansion psi_sym db)

let test_coefficients_sym () =
  (* ∧(Ψ|{0}) = E(x0,x1), ∧(Ψ|{1}) = E(x1,x0), ∧(Ψ|{0,1}) = both.
     The two singletons are isomorphic (swap x0, x1), so c(edge) = 2 and
     c(double edge) = -1. *)
  let terms = Ucq.expansion psi_sym in
  Alcotest.(check int) "two classes" 2 (List.length terms);
  let coeffs =
    List.sort compare
      (List.map (fun (t : Ucq.expansion_term) -> t.coefficient) terms)
  in
  Alcotest.(check (list int)) "coefficients" [ -1; 2 ] coeffs

let test_coefficient_lookup () =
  let edge = mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ] in
  Alcotest.(check int) "c(edge) = 2" 2 (Ucq.coefficient psi_sym edge);
  let both = mkcq 2 [ [ 0; 1 ]; [ 1; 0 ] ] [ 0; 1 ] in
  Alcotest.(check int) "c(double) = -1" (-1) (Ucq.coefficient psi_sym both);
  let triangle = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "c(unrelated) = 0" 0 (Ucq.coefficient psi_sym triangle)

let test_lemma26_identity () =
  (* ans(Ψ → D) must equal Σ c_Ψ(A) · ans(A → D) for every database *)
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 5 8 in
      Alcotest.(check int)
        (Printf.sprintf "identity on seed %d" seed)
        (Ucq.count_naive psi_sym db)
        (List.fold_left
           (fun acc (t : Ucq.expansion_term) ->
             acc
             + t.coefficient
               * Counting.count ~strategy:Counting.Naive t.representative db)
           0 (Ucq.expansion psi_sym)))
    [ 4; 5; 6 ]

let test_quantified_union () =
  (* (∃y. E(x,y)) ∨ (∃y. E(y,x)): vertices with out- or in-edges *)
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ]; mkcq 2 [ [ 1; 0 ] ] [ 0 ] ] in
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 6 9 in
      let expected = Ucq.count_naive psi db in
      Alcotest.(check int) "IE" expected (Ucq.count_inclusion_exclusion psi db);
      Alcotest.(check int) "expansion" expected (Ucq.count_via_expansion psi db))
    [ 7; 8 ]

let test_paper_psi1_psi2 () =
  let psi1, ktk1 = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  Alcotest.(check int) "psi1 has 4 disjuncts" 4 (Ucq.length psi1);
  Alcotest.(check int) "psi2 has 4 disjuncts" 4 (Ucq.length psi2);
  (* ∧(Ψ1) = ∧(Ψ2) = K_3^4 *)
  let combined1 = Ucq.combined_all psi1 in
  Alcotest.(check bool) "combined is K_3^4" true
    (Struct_iso.isomorphic (Cq.structure combined1) ktk1.Ktk.structure);
  (* Lemma 48 item 2: c_Ψ(∧Ψ) = -χ̂ : for Δ1, -(-2) = 2; for Δ2, 0 *)
  Alcotest.(check int) "c_psi1(K_3^4) = 2" 2
    (Ucq.coefficient psi1 combined1);
  Alcotest.(check int) "c_psi2(K_3^4) = 0" 0
    (Ucq.coefficient psi2 (Ucq.combined_all psi2));
  (* Lemma 48 item 5: all disjuncts acyclic, self-join-free, binary *)
  Alcotest.(check bool) "psi1 union of acyclic" true (Ucq.is_union_of_acyclic psi1);
  Alcotest.(check bool) "psi1 union of sjf" true
    (Ucq.is_union_of_self_join_free psi1);
  Alcotest.(check int) "binary" 2 (Ucq.arity psi1);
  (* Lemma 48 item 3: every non-combined support term is acyclic *)
  List.iter
    (fun (t : Ucq.expansion_term) ->
      if not (Cq.isomorphic t.representative combined1) then
        Alcotest.(check bool) "support term acyclic" true
          (Cq.is_acyclic t.representative))
    (Ucq.support psi1)

let test_expansion_distinct_classes () =
  (* three pairwise non-isomorphic disjuncts: all 2^3 - 1 = 7 combined
     queries fall in distinct classes *)
  let psi =
    Ucq.make
      [
        mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 1; 2 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ];
      ]
  in
  (* two classes: the single-edge disjuncts are isomorphic (the free set
     maps setwise), and every J containing disjunct 3 or both 1 and 2
     yields the path.  Edge: +1 +1 = 2; path: +1 (J={3}) - 3 (pairs) + 1
     (J={1,2,3}) = -1. *)
  let terms = Ucq.expansion psi in
  let support = Ucq.support psi in
  Alcotest.(check int) "two classes" 2 (List.length terms);
  Alcotest.(check int) "support size" 2 (List.length support);
  let path = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "path coefficient" (-1) (Ucq.coefficient psi path);
  let edge = mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "edge coefficient" 2 (Ucq.coefficient psi edge)

let test_restrict_semantics () =
  let psi =
    Ucq.make
      [
        mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ];
        mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ];
        mkcq 2 [ [ 0; 0 ] ] [ 0; 1 ];
      ]
  in
  let db = Generators.random_digraph ~seed:31 5 9 in
  (* a sub-union counts a subset of the answers *)
  let sub = Ucq.restrict psi [ 0; 2 ] in
  Alcotest.(check bool) "monotone" true
    (Ucq.count_naive sub db <= Ucq.count_naive psi db);
  Alcotest.(check int) "sub union agree" (Ucq.count_naive sub db)
    (Ucq.count_via_expansion sub db)

let test_size_and_arity () =
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ] ] in
  Alcotest.(check bool) "size positive" true (Ucq.size psi > 0);
  Alcotest.(check int) "arity 2" 2 (Ucq.arity psi)

let test_exhaustive_q_hierarchical () =
  (* single q-hierarchical CQ *)
  let star = Ucq.make [ mkcq 3 [ [ 0; 1 ]; [ 0; 2 ] ] [ 0 ] ] in
  Alcotest.(check bool) "star union" true (Ucq.is_exhaustively_q_hierarchical star);
  (* the union E(x0,x1) ∨ E(x1,x2)-style combined query is the paper's
     non-q-hierarchical path *)
  let path_union =
    Ucq.make
      [
        mkcq 4 [ [ 0; 1 ] ] [ 0; 1; 2; 3 ];
        mkcq 4 [ [ 1; 2 ] ] [ 0; 1; 2; 3 ];
        mkcq 4 [ [ 2; 3 ] ] [ 0; 1; 2; 3 ];
      ]
  in
  Alcotest.(check bool) "path union fails" false
    (Ucq.is_exhaustively_q_hierarchical path_union)

let test_count_terms () =
  (* one support, computed once, counted on several databases: the
     term-list evaluator agrees with expanding afresh and with the naive
     oracle; zero-coefficient terms contribute nothing *)
  let psi =
    Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]
  in
  let terms = Ucq.support psi in
  Alcotest.(check int) "support size" 2 (List.length terms);
  let zero =
    { Ucq.representative = mkcq 2 [ [ 0; 0 ] ] [ 0; 1 ]; coefficient = 0 }
  in
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 6 12 in
      let expected = Ucq.count_naive psi db in
      Alcotest.(check int)
        (Printf.sprintf "term list seed %d" seed)
        expected
        (Ucq.count_terms terms db);
      Alcotest.(check int)
        (Printf.sprintf "zero term seed %d" seed)
        expected
        (Ucq.count_terms (zero :: terms) db);
      Alcotest.(check int)
        (Printf.sprintf "via expansion seed %d" seed)
        expected
        (Ucq.count_via_expansion psi db))
    [ 1; 2; 3 ];
  Alcotest.(check int) "empty list" 0
    (Ucq.count_terms [] (Generators.random_digraph ~seed:4 6 12))

(* ------------------------------------------------------------------ *)
(* The expansion walk against the subset-by-subset reference          *)
(* ------------------------------------------------------------------ *)

(* The walk and the reference return the same list, element for
   element, tick the same steps, and under a budget [cut] steps short
   of that run out at the same step. *)
type expander = ?budget:Budget.t -> Ucq.t -> Ucq.expansion_term list

let agrees_with_reference ~(cut : int) (psi : Ucq.t) : bool =
  let metered (f : expander) =
    let b = Budget.unlimited () in
    let terms = f ~budget:b psi in
    (terms, Budget.steps_done b)
  in
  let walk, steps = metered Ucq.expansion in
  let reference, reference_steps = metered Ucq.expansion_by_subsets in
  let stopped (f : expander) =
    match f ~budget:(Budget.of_steps (max 1 (steps - cut))) psi with
    | (_ : Ucq.expansion_term list) -> None
    | exception Budget.Exhausted e -> Some e.Budget.steps_done
  in
  Ucq.terms_equal walk reference
  && steps = reference_steps
  && steps = (1 lsl Ucq.length psi) - 1
  && stopped Ucq.expansion = stopped Ucq.expansion_by_subsets

(* Lemma 51 unions of three small CNFs (l = 8, 8, 9), the K_t^k unions
   of Lemma 48 (Psi_1, Psi_2, Lemma 59) and the quantified Lemma 60
   family. *)
let expansion_families : Ucq.t list Lazy.t =
  lazy
    (List.filter_map
       (fun (n, clauses) ->
         match Pipeline.ucq_of_cnf (Cnf.make n clauses) with
         | Pipeline.Query { psi; _ } -> Some psi
         | Pipeline.Resolved _ -> None)
       [
         (2, [ [ 1; 2 ]; [ -1; 2 ] ]);
         (2, [ [ 1; 2 ]; [ -1; -2 ] ]);
         (2, [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ]);
       ]
    @ [
        fst (Paper_examples.psi1 ());
        fst (Paper_examples.psi2 ());
        fst (Counterexamples.lemma59 3);
        fst (Counterexamples.lemma59 4);
        Counterexamples.lemma60 3;
        Counterexamples.lemma60 4;
      ])

let shuffle_disjuncts (seed : int) (psi : Ucq.t) : Ucq.t =
  let st = Random.State.make [| seed |] in
  let tagged =
    List.map (fun q -> (Random.State.bits st, q)) (Ucq.disjuncts psi)
  in
  Ucq.make (List.map snd (List.sort compare tagged))

let test_expansion_families () =
  List.iteri
    (fun k psi ->
      Alcotest.(check bool)
        (Printf.sprintf "family %d (l = %d) agrees" k (Ucq.length psi))
        true
        (agrees_with_reference ~cut:1 psi))
    (Lazy.force expansion_families)

let test_expansion_width () =
  (* 1 lsl l wraps from l = 62: such unions are refused, never walked
     zero times into an empty support *)
  let psi = Ucq.make (List.init 64 (fun _ -> mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ])) in
  List.iter
    (fun f ->
      Alcotest.check_raises "64 disjuncts" (Invalid_argument "Combinat.subsets_fold")
        (fun () -> ignore (f psi : Ucq.expansion_term list)))
    [ (fun psi -> Ucq.expansion psi); (fun psi -> Ucq.expansion_by_subsets psi) ];
  let psi = Ucq.make (List.init 62 (fun _ -> mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ])) in
  Alcotest.check_raises "62 disjuncts" (Invalid_argument "Combinat.subsets_fold")
    (fun () -> ignore (Ucq.expansion psi : Ucq.expansion_term list))

let qcheck_expansion =
  let open QCheck in
  [
    Test.make ~name:"walk = reference on random unions"
      ~count:150 (int_range 0 100_000) (fun seed ->
        let psi =
          Qgen.random_ucq ~seed ~max_disjuncts:6 ~max_vars:4 ~max_atoms:3
            Generators.graph_signature
        in
        agrees_with_reference ~cut:(seed mod 7) psi);
    Test.make ~name:"walk = reference on Lemma 51/K_t^k"
      ~count:20 (int_range 0 100_000) (fun seed ->
        let families = Lazy.force expansion_families in
        let psi = List.nth families (seed mod List.length families) in
        agrees_with_reference ~cut:(1 + (seed mod 5)) (shuffle_disjuncts seed psi));
  ]

let qcheck_counting =
  let open QCheck in
  let gen_disjunct =
    Gen.(>>=) (Gen.int_range 1 3) (fun extra ->
        Gen.map
          (fun pairs ->
            List.map (fun (u, v) -> [ u mod (2 + extra); v mod (2 + extra) ]) pairs)
          (Gen.list_size (Gen.int_range 1 3)
             (Gen.pair (Gen.int_range 0 4) (Gen.int_range 0 4))))
  in
  let gen_ucq =
    make
      ~print:(fun dss ->
        String.concat " | "
          (List.map
             (fun ds ->
               String.concat ","
                 (List.map
                    (fun t -> "E" ^ String.concat "" (List.map string_of_int t))
                    ds))
             dss))
      (Gen.list_size (Gen.int_range 1 3) gen_disjunct)
  in
  let build dss =
    (* free variables {0, 1}; everything above is quantified *)
    Ucq.make
      (List.map
         (fun edges ->
           let n = 1 + List.fold_left (fun acc t -> List.fold_left max acc t) 1 edges in
           mkcq n edges [ 0; 1 ])
         dss)
  in
  [
    Test.make ~name:"IE and expansion counting agree with naive" ~count:60
      (pair gen_ucq (int_range 0 500))
      (fun (dss, seed) ->
        let psi = build dss in
        let db = Generators.random_digraph ~seed 4 8 in
        let naive = Ucq.count_naive psi db in
        Ucq.count_inclusion_exclusion psi db = naive
        && Ucq.count_via_expansion psi db = naive);
    Test.make ~name:"big counting agrees with int counting" ~count:30
      (pair gen_ucq (int_range 0 500))
      (fun (dss, seed) ->
        let psi = build dss in
        let db = Generators.random_digraph ~seed 4 8 in
        Bigint.to_int_opt (Ucq.count_inclusion_exclusion_big psi db)
        = Some (Ucq.count_inclusion_exclusion psi db)
        && Bigint.to_int_opt (Ucq.count_via_expansion_big psi db)
          = Some (Ucq.count_via_expansion psi db));
  ]

let suite =
  [
    ( "ucq",
      [
        Alcotest.test_case "accessors" `Quick test_structure_accessors;
        Alcotest.test_case "rename apart" `Quick test_rename_apart;
        Alcotest.test_case "combined queries" `Quick test_combined;
        Alcotest.test_case "union counting semantics" `Quick test_count_union_semantics;
        Alcotest.test_case "coefficients (symmetric pair)" `Quick test_coefficients_sym;
        Alcotest.test_case "coefficient lookup" `Quick test_coefficient_lookup;
        Alcotest.test_case "Lemma 26 identity" `Quick test_lemma26_identity;
        Alcotest.test_case "quantified unions" `Quick test_quantified_union;
        Alcotest.test_case "paper examples psi1/psi2" `Quick test_paper_psi1_psi2;
        Alcotest.test_case "expansion classes" `Quick test_expansion_distinct_classes;
        Alcotest.test_case "restrict semantics" `Quick test_restrict_semantics;
        Alcotest.test_case "size and arity" `Quick test_size_and_arity;
        Alcotest.test_case "term-list evaluation" `Quick test_count_terms;
        Alcotest.test_case "exhaustive q-hierarchicality" `Quick
          test_exhaustive_q_hierarchical;
        Alcotest.test_case "walk on Lemma 51 and K_t^k unions" `Quick
          test_expansion_families;
        Alcotest.test_case "expansion refuses 62+ disjuncts" `Quick
          test_expansion_width;
      ]
      @ List.map QCheck_alcotest.to_alcotest (qcheck_counting @ qcheck_expansion) );
  ]
