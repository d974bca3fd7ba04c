(** Benchmark harness: one section per experiment of EXPERIMENTS.md
    (E1–E13), regenerating every figure / worked example / algorithmic
    claim of the paper, followed by Bechamel micro-benchmarks (one
    [Test.make] per experiment).  [--json] instead runs the E14 parallel
    speedup table plus the E15 telemetry-overhead measurement and writes
    [BENCH_parallel.json], then the E19 optimizer-effect table and
    writes [BENCH_optimize.json], then the E20 expansion table and
    writes [BENCH_expansion.json], then the E21 per-term engine table and
    writes [BENCH_engine.json], then the E22 tier-B fold table and writes
    [BENCH_delta.json].

    Run with: [dune exec bench/main.exe] *)

open Bench_util

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

(* ================================================================== *)
(* E1: Figure 1 — reduced Euler characteristics                       *)
(* ================================================================== *)

let e1 () =
  header "E1  Figure 1: reduced Euler characteristics (paper: -2 and 0)";
  let widths = [ 8; 14; 14; 14; 10 ] in
  row widths [ "complex"; "brute"; "facet-IE"; "Lemma42+IE"; "paper" ];
  List.iter
    (fun (name, c, expected) ->
      row widths
        [
          name;
          string_of_int (Scomplex.euler_brute c);
          string_of_int (Scomplex.euler_facet_ie c);
          string_of_int (Scomplex.euler c);
          string_of_int expected;
        ])
    [
      ("Delta1", Scomplex.figure1_delta1, -2);
      ("Delta2", Scomplex.figure1_delta2, 0);
    ]

(* ================================================================== *)
(* E2: Figure 2 — K_3^4 and the substructures S_A                     *)
(* ================================================================== *)

let e2 () =
  header "E2  Figure 2: the structure K_3^4 and its slices S_A";
  let ktk = Paper_examples.ktk34 () in
  Printf.printf "K_3^4: %d vertices, %d singleton relations, treewidth %d, acyclic: %b\n"
    (List.length (Ktk.universe ktk))
    (Signature.size ktk.Ktk.signature)
    (Structure.treewidth ktk.Ktk.structure)
    (Cq.is_acyclic (Cq.of_structure ktk.Ktk.structure));
  let widths = [ 12; 10; 10 ] in
  row widths [ "S_A for A="; "acyclic"; "tuples" ];
  List.iter
    (fun a ->
      let s = Paper_examples.s_a a in
      row widths
        [
          "{" ^ String.concat "," (List.map string_of_int a) ^ "}";
          string_of_bool (Cq.is_acyclic (Cq.of_structure s));
          string_of_int (Structure.num_tuples s);
        ])
    [ [ 1 ]; [ 2; 4 ]; [ 1; 4 ]; [ 3; 4 ]; [ 2; 3 ]; [ 1; 2; 3 ] ];
  let psi1, _ = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  Printf.printf "/\\(Psi1) = K_3^4: %b;  /\\(Psi2) = K_3^4: %b\n"
    (Structure.equal (Cq.structure (Ucq.combined_all psi1)) ktk.Ktk.structure)
    (Structure.equal (Cq.structure (Ucq.combined_all psi2)) ktk.Ktk.structure);
  Printf.printf "c_Psi1(K_3^4) = %d (= -chi^(Delta1));  c_Psi2(K_3^4) = %d (= -chi^(Delta2))\n"
    (Ucq.coefficient psi1 (Ucq.combined_all psi1))
    (Ucq.coefficient psi2 (Ucq.combined_all psi2))

(* ================================================================== *)
(* E3: Corollary 49 — Psi1 superlinear vs Psi2 linear                 *)
(* ================================================================== *)

let evaluate_support terms db = Ucq.count_terms terms db

let e3 () =
  header
    "E3  Corollary 49: counting answers to Psi1 (superlinear) vs Psi2 (linear)";
  Printf.printf
    "Databases: Lemma 45 construction over quarter-dense random host graphs.\n";
  Printf.printf
    "Expected shape: t/|D| roughly flat for Psi2, growing for Psi1.\n\n";
  let psi1, ktk = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  let support1 = Ucq.support psi1 and support2 = Ucq.support psi2 in
  let widths = [ 6; 9; 12; 12; 14; 14 ] in
  row widths
    [ "host n"; "|D|"; "t(Psi1) ms"; "t(Psi2) ms"; "us/|D| Psi1"; "us/|D| Psi2" ];
  List.iter
    (fun n ->
      let m = n * (n - 1) / 4 in
      let host = Graph.of_edges n (Listx.take m (Graph.edges (Graph.clique n))) in
      let db = Ktk.database_of_graph ktk host in
      let size = Structure.size db in
      let t1 = time (fun () -> evaluate_support support1 db) in
      let t2 = time (fun () -> evaluate_support support2 db) in
      row widths
        [
          string_of_int n;
          string_of_int size;
          ms t1;
          ms t2;
          us_per t1 size;
          us_per t2 size;
        ])
    [ 8; 12; 16; 22; 28 ];
  Printf.printf
    "\n(Consistency: both engines agree with inclusion-exclusion on a small host.)\n";
  let db = Ktk.database_of_graph ktk (Graph.clique 4) in
  Printf.printf "Psi1 on K4-host: support eval = %d, IE = %d\n"
    (evaluate_support support1 db)
    (Ucq.count_inclusion_exclusion psi1 db)

(* ================================================================== *)
(* E4: Theorem 5 — the META algorithm and its 2^l scaling             *)
(* ================================================================== *)

let path_union l =
  (* union of l single-edge CQs over the shared free path variables *)
  Ucq.make
    (List.init l (fun i ->
         mkcq (l + 1) [ [ i; i + 1 ] ] (List.init (l + 1) (fun v -> v))))

let e4 () =
  header "E4  Theorem 5: META decisions and the 2^l running-time shape";
  let widths = [ 4; 10; 12; 14; 12 ] in
  row widths [ "l"; "decision"; "#support"; "time ms"; "ratio" ];
  let prev = ref None in
  List.iter
    (fun l ->
      let psi = path_union l in
      let d = Meta.decide psi in
      let t = time (fun () -> Meta.decide psi) in
      let ratio =
        match !prev with
        | None -> "-"
        | Some p -> Printf.sprintf "%.2f" (t /. p)
      in
      prev := Some t;
      row widths
        [
          string_of_int l;
          string_of_bool d.Meta.linear_time;
          string_of_int (List.length d.Meta.support);
          ms t;
          ratio;
        ])
    [ 2; 3; 4; 5; 6; 7; 8 ];
  Printf.printf
    "\n(Unions of paths stay acyclic under conjunction, so META answers yes;\n";
  Printf.printf " adding a closing edge flips the answer:)\n";
  let cyclic =
    Ucq.make
      [
        mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 1; 2 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 2; 0 ] ] [ 0; 1; 2 ];
      ]
  in
  Printf.printf "triangle-of-unions: linear_time = %b\n"
    (Meta.decide cyclic).Meta.linear_time

(* ================================================================== *)
(* E5: Lemmas 47/48/50/51 — the SAT hardness pipeline                 *)
(* ================================================================== *)

let e5 () =
  header "E5  Lemma 51 pipeline: CNF -> complex -> UCQ -> META decides SAT";
  let widths = [ 30; 6; 8; 10; 8; 12 ] in
  row widths [ "formula"; "#sat"; "chi^"; "c(K_t^k)"; "l"; "META=linear" ];
  let formulas =
    [
      ("(x1)", Cnf.make 1 [ [ 1 ] ]);
      ("(x1)&(-x1)", Cnf.make 1 [ [ 1 ]; [ -1 ] ]);
      ("(x1|x2)", Cnf.make 2 [ [ 1; 2 ] ]);
      ("(x1|x2)&(-x1|-x2)", Cnf.make 2 [ [ 1; 2 ]; [ -1; -2 ] ]);
      ( "all four 2-clauses",
        Cnf.make 2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] );
      ("(x1|x2|x3)&(-x1|-x2|-x3)", Cnf.make 3 [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ]);
    ]
  in
  List.iter
    (fun (name, f) ->
      match Pipeline.ucq_of_cnf f with
      | Pipeline.Resolved _ -> row widths [ name; "-"; "-"; "-"; "-"; "resolved" ]
      | Pipeline.Query { psi; complex; _ } ->
          let d = Meta.decide psi in
          row widths
            [
              name;
              string_of_int (Cnf.count_sat f);
              string_of_int (Power_complex.euler_independent_sets complex);
              string_of_int (Ucq.coefficient psi (Ucq.combined_all psi));
              string_of_int (Ucq.length psi);
              string_of_bool d.Meta.linear_time;
            ])
    formulas;
  Printf.printf
    "\nInvariant: #sat = chi^, c(K_t^k) = -#sat, META linear iff unsatisfiable.\n";
  Printf.printf
    "\nLarger formulas via the specialised pipeline decision (Lemma 48 item 3\n\
     reduces META on pipeline queries to the vanishing of chi^):\n";
  let widths = [ 10; 10; 8; 14 ] in
  row widths [ "vars"; "clauses"; "l"; "META (fast)" ];
  List.iter
    (fun (n, m, seed) ->
      let f = Cnf.random_3cnf ~seed n m in
      row widths
        [
          string_of_int n;
          string_of_int m;
          string_of_int ((3 * n) + m);
          string_of_bool (Pipeline.meta_fast f);
        ])
    [ (5, 10, 1); (8, 30, 2); (10, 50, 3); (12, 55, 4) ]

(* ================================================================== *)
(* E6: Theorems 4/37 — linear-time acyclic counting                   *)
(* ================================================================== *)

let e6 () =
  header "E6  Theorems 4/37: Yannakakis counting is linear; triangles are not";
  let p4 = mkcq 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] [ 0; 1; 2; 3 ] in
  let triangle = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  let widths = [ 8; 9; 14; 14; 14; 14 ] in
  row widths
    [ "n"; "|D|"; "P4 yann ms"; "us/|D| P4"; "tri wve ms"; "us/|D| tri" ];
  List.iter
    (fun n ->
      let db = Generators.random_digraph ~seed:77 n (8 * n) in
      let size = Structure.size db in
      let t_path =
        time (fun () -> Counting.count ~strategy:Counting.Yannakakis p4 db)
      in
      let t_tri =
        time (fun () -> Counting.count ~strategy:Counting.Weighted triangle db)
      in
      row widths
        [
          string_of_int n;
          string_of_int size;
          ms t_path;
          us_per t_path size;
          ms t_tri;
          us_per t_tri size;
        ])
    [ 500; 1000; 2000; 4000; 8000 ];
  Printf.printf
    "\n(P4 time per |D| stays flat — linear; triangle time per |D| grows.)\n";
  Printf.printf
    "\nConstant-delay enumeration (Section 1.1): time to the first 100\n\
     answers of P4 after linear preprocessing stays flat as |D| grows:\n";
  let widths = [ 8; 14; 18 ] in
  row widths [ "n"; "prep ms"; "first-100 us" ];
  List.iter
    (fun n ->
      let db = Generators.random_digraph ~seed:78 n (8 * n) in
      let t_prep = time (fun () -> Enumerate.prepare p4 db) in
      let e = Enumerate.prepare p4 db in
      let t_first =
        time (fun () -> List.of_seq (Seq.take 100 (Enumerate.answers e)))
      in
      row widths
        [ string_of_int n; ms t_prep; Printf.sprintf "%.1f" (t_first *. 1e6) ])
    [ 1000; 4000; 16000 ]

(* ================================================================== *)
(* E7: Theorem 28 — complexity monotonicity                           *)
(* ================================================================== *)

let e7 () =
  header "E7  Theorem 28: recovering CQ counts from the UCQ oracle";
  let psi =
    Ucq.make
      [
        mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 1; 2 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 0; 2 ] ] [ 0; 1; 2 ];
      ]
  in
  let d = Generators.random_digraph ~seed:99 7 18 in
  let recovered = Monotonicity.recover psi d in
  let widths = [ 8; 8; 8; 18; 18; 8 ] in
  row widths [ "term"; "vars"; "coeff"; "recovered"; "direct"; "match" ];
  List.iteri
    (fun i (r : Monotonicity.recovered) ->
      let direct = Counting.count r.Monotonicity.term d in
      row widths
        [
          string_of_int i;
          string_of_int (Structure.universe_size (Cq.structure r.Monotonicity.term));
          string_of_int r.Monotonicity.coefficient;
          Bigint.to_string r.Monotonicity.count;
          string_of_int direct;
          string_of_bool (Bigint.to_int_opt r.Monotonicity.count = Some direct);
        ])
    recovered

(* ================================================================== *)
(* E8: Theorems 1/2/3 — classification of query families              *)
(* ================================================================== *)

let e8 () =
  header "E8  Theorems 1/2/3: classification measures along query families";
  let star_family k =
    Ucq.make
      [ mkcq (k + 1) (List.init k (fun i -> [ 0; i + 1 ])) (Combinat.range (k + 1)) ]
  in
  let clique_family k =
    Ucq.make
      [
        mkcq k
          (List.map (fun (u, v) -> [ u; v ]) (Combinat.pairs (Combinat.range k)))
          (Combinat.range k);
      ]
  in
  let cycle_union_family k =
    Ucq.make
      (List.init k (fun i -> mkcq k [ [ i; (i + 1) mod k ] ] (Combinat.range k)))
  in
  let families =
    [
      ("stars (single CQ)", star_family, [ 2; 3; 4 ], true);
      ("cliques (single CQ)", clique_family, [ 3; 4; 5 ], false);
      ("cycle unions", cycle_union_family, [ 3; 4; 5 ], true);
    ]
  in
  let widths = [ 22; 6; 12; 16; 10; 12 ] in
  row widths [ "family"; "k"; "tw(/\\C)"; "tw(contract)"; "gammaTW"; "verdict" ];
  List.iter
    (fun (name, family, params, with_gamma) ->
      let fr = Classify.analyze_family ~with_gamma family params in
      List.iter
        (fun (p, (r : Classify.report)) ->
          row widths
            [
              name;
              string_of_int p;
              string_of_int r.Classify.combined_tw;
              string_of_int r.Classify.combined_contract_tw;
              (if r.Classify.gamma_max_tw < 0 then "-"
               else string_of_int r.Classify.gamma_max_tw);
              (match fr.Classify.verdict with
              | Classify.Fpt -> "FPT"
              | Classify.W1_hard -> "W[1]-hard"
              | Classify.Inconclusive -> "(Gamma)");
            ])
        fr.Classify.samples)
    families;
  Printf.printf
    "\n(Theorem 2: for deletion-closed quantifier-free classes, growth of\n";
  Printf.printf " tw(/\\C) alone separates FPT from W[1]-hard.)\n"

(* ================================================================== *)
(* E9: Theorems 7/8/58 — WL-dimension                                 *)
(* ================================================================== *)

let e9 () =
  header "E9  Theorems 7/8/58: WL-dimension of UCQs";
  let psi1, _ = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  let tri =
    Ucq.make [ mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] ]
  in
  let widths = [ 18; 12; 16; 14 ] in
  row widths [ "query"; "dim_WL"; "approx [lo,hi]"; "at_most 1" ];
  List.iter
    (fun (name, psi) ->
      let exact = Wl_dimension.exact psi in
      let lo, hi = Wl_dimension.approximate psi in
      row widths
        [
          name;
          string_of_int exact;
          Printf.sprintf "[%d, %d]" lo hi;
          string_of_bool (Wl_dimension.at_most 1 psi);
        ])
    [ ("Psi1", psi1); ("Psi2", psi2); ("triangle", tri) ];
  Printf.printf "\nDefinition 6 consistency (equivalent pairs with equal counts): %s\n"
    (match Wl_dimension.invariance_check ~k:1 psi2 with
    | Ok n -> Printf.sprintf "%d pairs" n
    | Error e -> "FAILED: " ^ Ucqc_error.to_string e)

(* ================================================================== *)
(* E10: Appendix A — necessity of the Theorem 3 side conditions       *)
(* ================================================================== *)

let e10 () =
  header "E10  Appendix A: the three counterexample families";
  subheader "Lemma 59 (drop deletion-closure): Psi_t = A^_t(Delta2)";
  let widths = [ 4; 12; 14; 16 ] in
  row widths [ "t"; "tw(/\\Psi)"; "c(/\\Psi)"; "hdtw (=Gamma tw)" ];
  List.iter
    (fun t ->
      let psi, _ = Counterexamples.lemma59 t in
      row widths
        [
          string_of_int t;
          string_of_int (Cq.treewidth (Ucq.combined_all psi));
          string_of_int (Ucq.coefficient psi (Ucq.combined_all psi));
          string_of_int (Meta.hereditary_treewidth psi);
        ])
    [ 3; 4 ];
  Printf.printf "-> tw(/\\C) unbounded, but the expansion support stays acyclic: FPT.\n";

  subheader "Lemma 60 (drop bounded quantified variables)";
  let widths = [ 4; 6; 12; 16; 18 ] in
  row widths [ "k"; "l"; "tw(/\\Psi)"; "max support tw"; "max support ctw" ];
  List.iter
    (fun k ->
      let psi = Counterexamples.lemma60 k in
      let stw, sctw =
        List.fold_left
          (fun (a, b) (t : Ucq.expansion_term) ->
            ( max a (Cq.treewidth t.representative),
              max b (Cq.contract_treewidth t.representative) ))
          (0, 0) (Ucq.support psi)
      in
      row widths
        [
          string_of_int k;
          string_of_int (Ucq.length psi);
          string_of_int (Cq.treewidth (Ucq.combined_all psi));
          string_of_int stw;
          string_of_int sctw;
        ])
    [ 3; 4 ];
  Printf.printf "-> tw(/\\C) grows with k, every surviving term stays of treewidth <= 2.\n";

  subheader "Lemma 61 (drop self-join-freeness)";
  let widths = [ 4; 18; 20 ] in
  row widths [ "k"; "ctw(psi_k)"; "ctw(#core psi_k)" ];
  List.iter
    (fun k ->
      let psi = Counterexamples.lemma61 k in
      let q = Ucq.disjunct psi 0 in
      row widths
        [
          string_of_int k;
          string_of_int (Cq.contract_treewidth q);
          string_of_int (Cq.contract_treewidth (Cq.sharp_core q));
        ])
    [ 2; 3; 4 ];
  Printf.printf
    "-> contract treewidth of psi_k is unbounded, but its #core is a star.\n"

(* ================================================================== *)
(* E11: q-hierarchicality (Section 1.2)                               *)
(* ================================================================== *)

let e11 () =
  header "E11  q-hierarchicality (dynamic-setting criterion, Section 1.2)";
  let phi = Paper_examples.q_hierarchical_example () in
  Printf.printf
    "paper example E(a,b) & E(b,c) & E(c,d): acyclic = %b, q-hierarchical = %b\n"
    (Cq.is_acyclic phi) (Cq.is_q_hierarchical phi);
  Printf.printf
    "\nExhaustive q-hierarchicality of path unions (2^l combined queries):\n";
  let widths = [ 4; 12; 12 ] in
  row widths [ "l"; "exhaustive"; "time ms" ];
  List.iter
    (fun l ->
      let psi = path_union l in
      let t = time (fun () -> Ucq.is_exhaustively_q_hierarchical psi) in
      row widths
        [
          string_of_int l;
          string_of_bool (Ucq.is_exhaustively_q_hierarchical psi);
          ms t;
        ])
    [ 2; 3; 4; 6; 8; 10 ]

(* ================================================================== *)
(* E12: Karp-Luby approximate counting (Section 1.2)                  *)
(* ================================================================== *)

let e12 () =
  header "E12  Karp-Luby approximation for UCQ counts (Section 1.2)";
  let psi =
    Ucq.make
      [
        mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ];
        mkcq 3 [ [ 0; 2 ]; [ 2; 1 ] ] [ 0; 1 ];
        mkcq 4 [ [ 0; 2 ]; [ 2; 3 ]; [ 3; 1 ] ] [ 0; 1 ];
      ]
  in
  let db = Generators.random_digraph ~seed:17 80 280 in
  let exact = Ucq.count_via_expansion psi db in
  Printf.printf "reach-in-<=3-steps union on a random digraph; exact = %d\n\n" exact;
  let widths = [ 10; 12; 10; 12 ] in
  row widths [ "samples"; "estimate"; "err %"; "time ms" ];
  List.iter
    (fun samples ->
      let est = Karp_luby.estimate ~seed:1 ~samples psi db in
      let t = time (fun () -> Karp_luby.estimate ~seed:1 ~samples psi db) in
      row widths
        [
          string_of_int samples;
          Printf.sprintf "%.1f" est.Karp_luby.value;
          Printf.sprintf "%.2f"
            (100. *. abs_float (est.Karp_luby.value -. float_of_int exact)
            /. float_of_int (max exact 1));
          ms t;
        ])
    [ 100; 1000; 10000 ];
  Printf.printf
    "\n(Error shrinks like 1/sqrt(samples); the union itself is handled by\n\
     sampling, so no 2^l expansion is ever computed.)\n"

(* ================================================================== *)
(* E13: dynamic counting for q-hierarchical CQs (Section 1.2)         *)
(* ================================================================== *)

let e13 () =
  header "E13  Dynamic counting under updates (q-hierarchical, Section 1.2)";
  let sg =
    Signature.make [ Signature.symbol "R" 1; Signature.symbol "S" 2 ]
  in
  (* q(x) = R(x) ∧ ∃y S(x, y) *)
  let q =
    Cq.make
      (Structure.make sg [ 0; 1 ] [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ])
      [ 0 ]
  in
  Printf.printf
    "q(x) = R(x) & exists y S(x, y); per-update cost vs recompute-from-scratch\n\n";
  let widths = [ 8; 16; 18; 16 ] in
  row widths [ "n"; "updates"; "dynamic us/upd"; "recompute ms" ];
  List.iter
    (fun n ->
      let universe = List.init n (fun i -> i) in
      let empty = Structure.make sg universe [] in
      let st = Dynamic.create_exn q empty in
      let rng = Random.State.make [| 3 |] in
      let updates = 50_000 in
      let t0 = Sys.time () in
      for _ = 1 to updates do
        let u = Random.State.int rng n in
        match Random.State.int rng 4 with
        | 0 -> Dynamic.insert st "R" [ u ]
        | 1 -> Dynamic.delete st "R" [ u ]
        | 2 -> Dynamic.insert st "S" [ u; Random.State.int rng n ]
        | _ -> Dynamic.delete st "S" [ u; Random.State.int rng n ]
      done;
      let per_update = (Sys.time () -. t0) /. float_of_int updates in
      (* recomputation baseline on a database of comparable size *)
      let db =
        Structure.make sg universe
          [
            ("R", List.init (n / 2) (fun i -> [ i ]));
            ("S", List.init n (fun i -> [ i; (i * 7) mod n ]));
          ]
      in
      let t_re = time (fun () -> Counting.count q db) in
      row widths
        [
          string_of_int n;
          string_of_int updates;
          Printf.sprintf "%.3f" (per_update *. 1e6);
          ms t_re;
        ])
    [ 100; 1000; 10000 ];
  Printf.printf
    "\n(Per-update cost is flat in n — constant data complexity — while each\n\
     from-scratch recount grows linearly.)\n"

(* ================================================================== *)
(* Bechamel micro-benchmarks: one Test.make per experiment            *)
(* ================================================================== *)

let bechamel_tests () =
  let open Bechamel in
  let psi1, ktk = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  let support1 = Ucq.support psi1 in
  let db_small = Ktk.database_of_graph ktk (Graph.clique 5) in
  let db_graph = Generators.random_digraph ~seed:7 2000 8000 in
  let p4 = mkcq 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] [ 0; 1; 2; 3 ] in
  let triangle = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  let f_sat = Cnf.make 2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  let mono_psi =
    Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]
  in
  let mono_db = Generators.random_digraph ~seed:5 6 14 in
  [
    Test.make ~name:"E1_euler_figure1" (Staged.stage (fun () ->
        ignore (Scomplex.euler Scomplex.figure1_delta1)));
    Test.make ~name:"E2_build_K34" (Staged.stage (fun () -> ignore (Ktk.make 3 4)));
    Test.make ~name:"E3_psi1_count_small" (Staged.stage (fun () ->
        ignore (evaluate_support support1 db_small)));
    Test.make ~name:"E4_meta_decide_psi1" (Staged.stage (fun () ->
        ignore (Meta.decide psi1)));
    Test.make ~name:"E5_pipeline_2vars" (Staged.stage (fun () ->
        ignore (Pipeline.ucq_of_cnf f_sat)));
    Test.make ~name:"E6_yannakakis_p4" (Staged.stage (fun () ->
        ignore (Counting.count ~strategy:Counting.Yannakakis p4 db_graph)));
    Test.make ~name:"E6_weighted_triangle" (Staged.stage (fun () ->
        ignore (Counting.count ~strategy:Counting.Weighted triangle db_graph)));
    Test.make ~name:"E7_monotonicity_recover" (Staged.stage (fun () ->
        ignore (Monotonicity.recover mono_psi mono_db)));
    Test.make ~name:"E8_classify_psi1" (Staged.stage (fun () ->
        ignore (Classify.analyze psi1)));
    Test.make ~name:"E9_wl_dimension_psi2" (Staged.stage (fun () ->
        ignore (Wl_dimension.exact psi2)));
    Test.make ~name:"E10_lemma60_analysis" (Staged.stage (fun () ->
        ignore (Meta.hereditary_treewidth (Counterexamples.lemma60 3))));
    Test.make ~name:"E11_exhaustive_qh" (Staged.stage (fun () ->
        ignore (Ucq.is_exhaustively_q_hierarchical (path_union 6))));
    Test.make ~name:"E12_karp_luby_1k" (Staged.stage (fun () ->
        let psi =
          Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]
        in
        ignore (Karp_luby.estimate ~seed:1 ~samples:1000 psi db_graph)));
    (let sg =
       Signature.make [ Signature.symbol "R" 1; Signature.symbol "S" 2 ]
     in
     let q =
       Cq.make
         (Structure.make sg [ 0; 1 ] [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ])
         [ 0 ]
     in
     let st = Dynamic.create_exn q (Structure.make sg (List.init 1000 (fun i -> i)) []) in
     let i = ref 0 in
     Test.make ~name:"E13_dynamic_update" (Staged.stage (fun () ->
         incr i;
         let u = !i mod 1000 in
         Dynamic.insert st "S" [ u; (u * 13) mod 1000 ];
         Dynamic.delete st "S" [ u; (u * 13) mod 1000 ])));
  ]

let run_bechamel () =
  header "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.4) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"ucqc" (bechamel_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> e
          | _ -> nan
        in
        (name, est) :: acc)
      results []
  in
  let widths = [ 34; 18 ] in
  row widths [ "benchmark"; "ns/run" ];
  List.iter
    (fun (name, est) -> row widths [ name; Printf.sprintf "%.0f" est ])
    (List.sort compare rows)

(* ================================================================== *)
(* E14: --json — parallel speedup table (BENCH_parallel.json)         *)
(* ================================================================== *)

(** The [--json] mode: measure the wall-clock speedup of the domain pool
    at jobs ∈ {1, 2, 4} on the two engine workloads with the most
    parallel slack — the E3 Ψ₁ inclusion–exclusion count and the
    Karp–Luby fpras at ε = 0.1 — and write the table to
    [BENCH_parallel.json].  Every jobs > 1 result is cross-checked
    against jobs = 1 (exact counts must be equal; KL estimates are a
    function of (seed, jobs), so each is re-run for reproducibility).

    Each run also carries a per-phase breakdown (span aggregates from a
    separate traced execution — the timed runs stay untraced), and the
    file ends with a measurement of the tracing overhead itself on the
    inclusion–exclusion workload. *)

(** One traced (untimed) execution, reduced to the top span aggregates:
    where the run spent its time, by span name. *)
let span_phases (run : unit -> unit) : Telemetry.span_stat list =
  Telemetry.reset ();
  Telemetry.enable ();
  run ();
  Telemetry.disable ();
  let stats = Telemetry.span_stats () in
  Telemetry.reset ();
  List.filteri (fun i _ -> i < 8) stats

let phases_json (indent : string) (phases : Telemetry.span_stat list) : string =
  String.concat ",\n"
    (List.map
       (fun (s : Telemetry.span_stat) ->
         Printf.sprintf
           "%s{\"span\": %S, \"calls\": %d, \"total_ms\": %.3f, \"steps\": %d}"
           indent s.Telemetry.sname s.Telemetry.calls
           (Int64.to_float s.Telemetry.total_ns /. 1e6)
           s.Telemetry.steps)
       phases)

let parallel_json () =
  let jobs_list = [ 1; 2; 4 ] in
  let psi1, ktk = Paper_examples.psi1 () in
  let host =
    let n = 12 in
    Graph.of_edges n (Listx.take (n * (n - 1) / 4) (Graph.edges (Graph.clique n)))
  in
  let db = Ktk.database_of_graph ktk host in
  let kl_psi =
    Ucq.make
      [
        mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ];
        mkcq 3 [ [ 0; 2 ]; [ 2; 1 ] ] [ 0; 1 ];
        mkcq 4 [ [ 0; 2 ]; [ 2; 3 ]; [ 3; 1 ] ] [ 0; 1 ];
      ]
  in
  let kl_db = Generators.random_digraph ~seed:17 80 280 in
  (* [exact_across_jobs]: must every jobs value reproduce the jobs = 1
     result bit-for-bit?  True for exact counting (deterministic
     reduction); the KL estimate is instead a function of (seed, jobs) —
     checked for reproducibility and for staying within the ε band. *)
  let workloads =
    [
      ( "E3_psi1_inclusion_exclusion",
        true,
        fun pool -> float_of_int (Ucq.count_inclusion_exclusion ~pool psi1 db) );
      ( "E12_karp_luby_fpras_eps0.1",
        false,
        fun pool ->
          (Karp_luby.fpras ~seed:1 ~pool ~epsilon:0.1 ~delta:0.05 kl_psi kl_db)
            .Karp_luby.value );
    ]
  in
  let measured =
    List.map
      (fun (name, exact_across_jobs, run) ->
        let per_jobs =
          List.map
            (fun jobs ->
              let pool = Pool.create ~jobs () in
              let value = run pool in
              let value' = run pool in
              let t = wall_time (fun () -> run pool) in
              let phases = span_phases (fun () -> ignore (run pool)) in
              (jobs, t, value, value = value', phases))
            jobs_list
        in
        (name, exact_across_jobs, per_jobs))
      workloads
  in
  (* tracing overhead on the sequential IE workload: the acceptance bar
     for the telemetry layer is < 2% when enabled, ~0 when off *)
  let ie_seq () = ignore (Ucq.count_inclusion_exclusion psi1 db) in
  let t_off = wall_time ~reps:5 ie_seq in
  Telemetry.enable ();
  let t_on =
    wall_time ~reps:5 (fun () ->
        Telemetry.reset ();
        ie_seq ())
  in
  Telemetry.disable ();
  Telemetry.reset ();
  let overhead_pct = 100. *. ((t_on /. t_off) -. 1.) in
  let buf = Buffer.create 2048 in
  let t1_of per_jobs =
    match List.find_opt (fun (j, _, _, _, _) -> j = 1) per_jobs with
    | Some (_, t, _, _, _) -> t
    | None -> nan
  in
  (* provenance stamp: which commit produced these numbers, and when —
     without it two BENCH_parallel.json files cannot be compared *)
  let git_commit = Buildid.git_commit () in
  let timestamp =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"git_commit\": %S,\n" git_commit);
  Buffer.add_string buf (Printf.sprintf "  \"timestamp\": %S,\n" timestamp);
  let cores = Domain.recommended_domain_count () in
  Buffer.add_string buf (Printf.sprintf "  \"cores_available\": %d,\n" cores);
  (* on a single hardware thread a jobs > 1 run measures contention, not
     parallelism: the speedup columns are recorded for the trajectory
     but must not be read as a comparison (tools/bench_check.exe skips
     its speedup bar when this flag is false) *)
  Buffer.add_string buf
    (Printf.sprintf "  \"parallel_comparison_valid\": %b,\n" (cores >= 2));
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs\": [%s],\n"
       (String.concat ", " (List.map string_of_int jobs_list)));
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun wi (name, exact_across_jobs, per_jobs) ->
      let t1 = t1_of per_jobs in
      let v1 =
        match List.find_opt (fun (j, _, _, _, _) -> j = 1) per_jobs with
        | Some (_, _, v, _, _) -> v
        | None -> nan
      in
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"name\": %S,\n" name);
      Buffer.add_string buf
        (Printf.sprintf "      \"exact_across_jobs\": %b,\n" exact_across_jobs);
      Buffer.add_string buf "      \"runs\": [\n";
      List.iteri
        (fun i (jobs, t, value, reproducible, phases) ->
          let consistent =
            if exact_across_jobs then value = v1
            else
              reproducible
              && abs_float (value -. v1) /. abs_float v1 < 0.2
          in
          Buffer.add_string buf
            (Printf.sprintf
               "        {\"jobs\": %d, \"wall_s\": %.6f, \"speedup_vs_1\": \
                %.3f, \"value\": %.4f, \"reproducible\": %b, \
                \"consistent\": %b,\n         \"phases\": [\n%s\n         \
                ]}%s\n"
               jobs t (t1 /. t) value reproducible consistent
               (phases_json "          " phases)
               (if i = List.length per_jobs - 1 then "" else ",")))
        per_jobs;
      Buffer.add_string buf "      ]\n";
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if wi = List.length measured - 1 then "" else ","))
    )
    measured;
  Buffer.add_string buf "  ],\n";
  (* resident-pool evidence: every workload above ran on the same
     process-global worker registry, so the spawn count is the total
     domains created across all [3 workloads × 3 jobs × ~10 runs] — the
     pre-persistent pool spawned (jobs − 1) fresh domains per run *)
  Buffer.add_string buf
    (Printf.sprintf
       "  \"pool\": {\"domains_spawned\": %d, \"domains_idle\": %d},\n"
       (Pool.spawn_count ()) (Pool.idle_count ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"telemetry_overhead\": {\"workload\": \
        \"E3_psi1_inclusion_exclusion_seq\", \"off_wall_s\": %.6f, \
        \"on_wall_s\": %.6f, \"overhead_pct\": %.2f}\n"
       t_off t_on overhead_pct);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  prerr_endline "wrote BENCH_parallel.json"

(* ================================================================== *)
(* E19: --json — optimizer effect table (BENCH_optimize.json)         *)
(* ================================================================== *)

(** The redundant-union workload of E19: five single-free-variable path
    disjuncts of which three are cover-redundant — one strictly subsumed
    ([E(x,y),E(y,z)] under [E(x,y)]), one duplicate ([E(x,w)]), one
    subsumed 2-cycle — so the optimizer shrinks ℓ = 5 → 2 and the
    inclusion–exclusion subset count 31 → 3.  [tools/bench_check.exe]
    gates on the written file: counts must agree bit-for-bit, the subset
    and expansion-term counts must strictly shrink, and the optimized
    end-to-end wall time (optimizer pass included) must not lose to the
    unoptimized count. *)
let optimize_json () =
  let psi =
    Ucq.make
      [
        mkcq 2 [ [ 0; 1 ] ] [ 0 ] (* (x) :- E(x,y) — kept *);
        mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0 ] (* subsumed by disjunct 1 *);
        mkcq 2 [ [ 0; 1 ] ] [ 0 ] (* duplicate of disjunct 1 *);
        mkcq 2 [ [ 0; 1 ]; [ 1; 0 ] ] [ 0 ] (* 2-cycle: subsumed too *);
        mkcq 2 [ [ 1; 0 ] ] [ 0 ] (* (x) :- E(y,x) — kept *);
      ]
  in
  let db = Generators.random_digraph ~seed:29 2000 8000 in
  let r = Optimize.run psi in
  let subsets_before, subsets_after = Optimize.expansion_subsets r in
  let support_before = List.length (Ucq.support psi) in
  let support_after = List.length (Ucq.support r.Optimize.optimized) in
  let count_unoptimized = Ucq.count_via_expansion psi db in
  let count_optimized =
    Ucq.count_via_expansion r.Optimize.optimized db
  in
  let wall_unoptimized =
    wall_time ~reps:5 (fun () -> Ucq.count_via_expansion psi db)
  in
  (* the honest comparison re-runs the optimizer every rep: the bar is
     "optimize + count" vs "count", not a pre-paid rewrite *)
  let wall_optimized =
    wall_time ~reps:5 (fun () ->
        let r = Optimize.run psi in
        Ucq.count_via_expansion r.Optimize.optimized db)
  in
  let wall_optimizer_pass = wall_time ~reps:5 (fun () -> Optimize.run psi) in
  let git_commit = Buildid.git_commit () in
  let timestamp =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"kind\": \"optimize\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"git_commit\": %S,\n" git_commit);
  Buffer.add_string buf (Printf.sprintf "  \"timestamp\": %S,\n" timestamp);
  Buffer.add_string buf
    "  \"workload\": \"E19_redundant_union_paths\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"changed\": %b,\n  \"complete\": %b,\n" r.Optimize.changed
       r.Optimize.complete);
  Buffer.add_string buf
    (Printf.sprintf "  \"disjuncts_before\": %d,\n  \"disjuncts_after\": %d,\n"
       (Ucq.length psi)
       (Ucq.length r.Optimize.optimized));
  Buffer.add_string buf
    (Printf.sprintf "  \"subsets_before\": %d,\n  \"subsets_after\": %d,\n"
       subsets_before subsets_after);
  Buffer.add_string buf
    (Printf.sprintf "  \"support_before\": %d,\n  \"support_after\": %d,\n"
       support_before support_after);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"count_unoptimized\": %d,\n  \"count_optimized\": %d,\n  \
        \"counts_equal\": %b,\n"
       count_unoptimized count_optimized
       (count_unoptimized = count_optimized));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"wall_unoptimized_s\": %.6f,\n  \"wall_optimized_s\": %.6f,\n  \
        \"wall_optimizer_pass_s\": %.6f,\n"
       wall_unoptimized wall_optimized wall_optimizer_pass);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup\": %.3f\n"
       (wall_unoptimized /. wall_optimized));
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_optimize.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  prerr_endline "wrote BENCH_optimize.json"

(* ================================================================== *)
(* E20: --json — expansion by class transitions (BENCH_expansion.json) *)
(* ================================================================== *)

(* The disjunct shapes and width templates of the check_wide_unions
   benchmark corpus (perfbench/gen.ml), rebuilt here because bench/
   cannot link the harness.  Shapes are over the free pair (x, y), with
   a and b quantified; template l holds the first l of the listed
   shapes, in that order. *)
let wide_shapes =
  [
    ("edge", [ ("x", "y") ]);
    ("back", [ ("y", "x") ]);
    ("hop2", [ ("x", "a"); ("a", "y") ]);
    ("hop3", [ ("x", "a"); ("a", "b"); ("b", "y") ]);
    ("tri", [ ("x", "y"); ("y", "a"); ("a", "x") ]);
    ("cout", [ ("x", "a"); ("y", "a") ]);
    ("cin", [ ("a", "x"); ("a", "y") ]);
    ("sub_edge", [ ("x", "y"); ("x", "a") ]);
    ("sq", [ ("x", "a"); ("a", "y"); ("y", "b"); ("b", "x") ]);
    ("sub_hop2", [ ("x", "a"); ("a", "y"); ("a", "b") ]);
    ("tri2", [ ("x", "a"); ("a", "y"); ("y", "x") ]);
  ]

let wide_template (l : int) : string list =
  List.filteri
    (fun i _ -> i < l)
    [ "edge"; "hop2"; "tri"; "cout"; "sub_edge"; "hop3"; "hop2"; "back";
      "cin"; "sq"; "sub_hop2"; "tri2" ]

let wide_union (l : int) : Ucq.t =
  let disjunct k shape =
    let name v = if v = "x" || v = "y" then v else Printf.sprintf "%s%d" v k in
    String.concat ", "
      (List.map
         (fun (s, t) -> Printf.sprintf "E(%s, %s)" (name s) (name t))
         (List.assoc shape wide_shapes))
  in
  fst
    (Parse.ucq
       ("(x, y) :- " ^ String.concat " ; " (List.mapi disjunct (wide_template l))))

(* The three small CNFs whose Lemma 51 unions (l = 8, 8, 9) the
   benchmark corpus checks. *)
let lemma51_cnfs =
  [ (2, [ [ 1; 2 ]; [ -1; 2 ] ]); (2, [ [ 1; 2 ]; [ -1; -2 ] ]);
    (2, [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ]) ]

(** The E20 table: for Ψ₁, Ψ₂, the Lemma 51 unions of the benchmark's
    CNFs and the synthetic l = 8–12 templates, the walk ([Ucq.expansion])
    against the subset-by-subset reference ([Ucq.expansion_by_subsets]):
    budget steps, #cores computed, classes and support size — all
    deterministic — plus wall time.  [tools/bench_check.exe] requires
    steps, classes and support to match the reference's, the two term
    lists to be equal, and fewer #cores than subsets from l = 8 on. *)
let expansion_json () =
  let unions =
    [ ("psi1", fst (Paper_examples.psi1 ())); ("psi2", fst (Paper_examples.psi2 ())) ]
    @ List.concat
        (List.mapi
           (fun k (n, clauses) ->
             match Pipeline.ucq_of_cnf (Cnf.make n clauses) with
             | Pipeline.Query { psi; _ } -> [ (Printf.sprintf "lemma51_cnf%d" k, psi) ]
             | Pipeline.Resolved _ -> [])
           lemma51_cnfs)
    @ List.map (fun l -> (Printf.sprintf "synthetic_l%d" l, wide_union l)) [ 8; 9; 10; 11; 12 ]
  in
  let cores_c = Telemetry.counter "ucq.expansion.cores" in
  (* steps and #cores from one metered, counted run; time from untraced
     runs *)
  let measure (f : ?budget:Budget.t -> Ucq.t -> Ucq.expansion_term list) psi =
    let budget = Budget.unlimited () in
    Telemetry.reset ();
    Telemetry.enable ~record:false ();
    let terms = f ~budget psi in
    let cores = Telemetry.counter_value cores_c in
    Telemetry.disable ();
    Telemetry.reset ();
    let wall = wall_time ~reps:3 (fun () -> f psi) in
    (terms, Budget.steps_done budget, cores, wall)
  in
  let fields (terms, steps, cores, wall) =
    Printf.sprintf
      "{\"steps\": %d, \"cores\": %d, \"classes\": %d, \"support\": %d, \
       \"wall_ms\": %.3f}"
      steps cores (List.length terms)
      (List.length
         (List.filter (fun (t : Ucq.expansion_term) -> t.coefficient <> 0) terms))
      (1000. *. wall)
  in
  let rows =
    List.map
      (fun (name, psi) ->
        let walk = measure Ucq.expansion psi in
        let reference = measure Ucq.expansion_by_subsets psi in
        let (tw, _, _, _) = walk and (tr, _, _, _) = reference in
        let l = Ucq.length psi in
        Printf.printf "E20 %-14s l=%2d subsets=%5d walk %s reference %s\n%!" name l
          ((1 lsl l) - 1) (fields walk) (fields reference);
        Printf.sprintf
          "    {\"name\": %S, \"l\": %d, \"subsets\": %d, \"equal\": %b,\n     \
           \"walk\": %s,\n     \"reference\": %s}"
          name l ((1 lsl l) - 1) (Ucq.terms_equal tw tr) (fields walk) (fields reference))
      unions
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"kind\": \"expansion\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"git_commit\": %S,\n" (Buildid.git_commit ()));
  Buffer.add_string buf "  \"unions\": [\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_expansion.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  prerr_endline "wrote BENCH_expansion.json"

(* ================================================================== *)
(* E21: --json — per-term engine cost (BENCH_engine.json)             *)
(* ================================================================== *)

(* The count_skewed_graph database of perfbench (perfbench/gen.ml),
   rebuilt here because bench/ cannot link the harness: [m] distinct
   non-loop edges between Zipf-distributed (alpha = 1) source and target
   ranks, targets shifted by [n / 16] ranks, R holding one rank in five,
   and the ranks relabelled by the seed. *)
let zipf_digraph ~(seed : int) (n : int) (m : int) : Structure.t =
  let rng salt = Random.State.make [| seed; salt |] in
  let st = Random.State.make [| 0; 1 |] in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  let cdf = Array.map (fun x -> x /. !acc) cdf in
  let draw () =
    let u = Random.State.float st 1. in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let seen = Hashtbl.create (2 * m) in
  let edges = ref [] and k = ref 0 in
  while !k < m do
    let u = draw () in
    let v = (draw () + (n / 16)) mod n in
    if u <> v && not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.add seen (u, v) ();
      edges := (u, v) :: !edges;
      incr k
    end
  done;
  let rst = Random.State.make [| 0; 2 |] in
  let r = List.filter (fun _ -> Random.State.int rst 5 = 0) (List.init n Fun.id) in
  let label = Array.init n Fun.id in
  let lst = rng 7 in
  for i = n - 1 downto 1 do
    let j = Random.State.int lst (i + 1) in
    let t = label.(i) in
    label.(i) <- label.(j);
    label.(j) <- t
  done;
  Structure.make
    (Signature.make [ Signature.symbol "E" 2; Signature.symbol "R" 1 ])
    (List.init n Fun.id)
    [
      ("E", List.rev_map (fun (u, v) -> [ label.(u); label.(v) ]) !edges);
      ("R", List.map (fun x -> [ label.(x) ]) r);
    ]

(** The E21 table: every support term of the five count_skewed_graph
    shapes, counted by [Counting.count] (automatic strategy) on the
    5000-node, 17000-edge Zipf database of seed 1.  Per term: the count
    and the budget steps (deterministic), the words allocated
    ([Gc.allocated_bytes] / 8, from a collected heap: repeats to within
    half a percent) and the median wall time of three runs.
    [tools/bench_check.exe] holds counts and steps to
    [bench/engine_baseline.json] and allocation to a quarter of it. *)
let engine_json () =
  let db = zipf_digraph ~seed:1 5000 17000 in
  let shapes =
    [
      "(x, y, z) :- E(x, y), E(y, z)";
      "(x, y, z) :- E(x, y), E(y, z), E(z, x)";
      "(x, z) :- E(x, y), E(y, z)";
      "(x, y, z) :- R(x), E(x, y), E(x, z)";
      "(x, y) :- E(x, y) ; E(x, z), E(z, y)";
    ]
  in
  let engine q =
    if not (Cq.is_quantifier_free q) then "varelim"
    else if Cq.is_acyclic q then "yannakakis"
    else "weighted"
  in
  let rows =
    List.concat_map
      (fun shape ->
        List.map
          (fun (t : Ucq.expansion_term) ->
            let q = t.Ucq.representative in
            let budget = Budget.unlimited () in
            (* from a collected heap, so the figure does not depend on
               what the benches before this one left behind *)
            Gc.full_major ();
            let before = Gc.allocated_bytes () in
            let count = Counting.count ~budget q db in
            let words = (Gc.allocated_bytes () -. before) /. 8. in
            let wall = wall_time ~reps:3 (fun () -> Counting.count q db) in
            Printf.printf "E21 %-44s %-10s count=%d steps=%d words=%.0f wall=%.1f ms\n%!"
              (Pretty.cq q) (engine q) count (Budget.steps_done budget) words
              (1000. *. wall);
            Printf.sprintf
              "    {\"shape\": %S, \"term\": %S, \"engine\": %S, \"count\": %d, \
               \"steps\": %d, \"words\": %.0f, \"wall_ms\": %.3f}"
              shape (Pretty.cq q) (engine q) count (Budget.steps_done budget) words
              (1000. *. wall))
          (Ucq.support (fst (Parse.ucq shape))))
      shapes
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"kind\": \"engine\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"git_commit\": %S,\n" (Buildid.git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"database\": {\"nodes\": 5000, \"edges\": 17000, \"seed\": 1, \
        \"tuples\": %d},\n"
       (Structure.num_tuples db));
  Buffer.add_string buf "  \"terms\": [\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  prerr_endline "wrote BENCH_engine.json"

(* ================================================================== *)
(* E22: --json — tier-B folds against full counts (BENCH_delta.json)  *)
(* ================================================================== *)

(** The E22 table: the tier-B terms of serve_live_mix's two maintained
    queries on its database (2500 nodes, 9000 edges, seed 1, rebuilt by
    {!zipf_digraph}), folded through four writes in turn: a hub insert
    (an edge from a low-degree node into the node of 13th most
    out-edges, as the workload's hub), its delete, an insert between two
    low-degree nodes and its delete; every low-degree node written has
    the edge that makes the 2-hop count move.  Per term: the steps of
    the full count that prepared it; per write, the steps its fold
    metered, whether the guard replaced the fold by a recount, the
    maintained count and a recount over the database after the write
    (all deterministic), and each state's fold wall time (median of
    three single runs, informational).
    [tools/bench_check.exe] holds every maintained count to its
    recount, lets no guard fire, and every fold under its term's full
    count. *)
let delta_json () =
  let db = zipf_digraph ~seed:1 2500 9000 in
  let edges = Structure.relation db "E" in
  let n = Structure.universe_size db in
  let deg_out = Array.make n 0 and deg_in = Array.make n 0 in
  List.iter
    (function
      | [ u; v ] ->
          deg_out.(u) <- deg_out.(u) + 1;
          deg_in.(v) <- deg_in.(v) + 1
      | _ -> ())
    edges;
  let by_out = List.stable_sort (fun u v -> compare deg_out.(v) deg_out.(u)) (List.init n Fun.id) in
  let hub = List.nth by_out 12 in
  (* low-degree nodes with an edge where the writes below make one count *)
  let low = List.filter (fun x -> deg_in.(x) <= 2 && deg_out.(x) <= 2 && x <> hub) (List.init n Fun.id) in
  let absent u v = not (List.mem [ u; v ] edges) in
  let u = List.find (fun u -> deg_in.(u) > 0 && absent u hub) low in
  let a = List.find (fun a -> a <> u && deg_in.(a) > 0) low in
  let b = List.find (fun b -> b <> u && b <> a && deg_out.(b) > 0 && absent a b) low in
  let writes =
    [
      ("hub insert", `Insert, [ u; hub ]);
      ("hub delete", `Delete, [ u; hub ]);
      ("low-degree insert", `Insert, [ a; b ]);
      ("low-degree delete", `Delete, [ a; b ]);
    ]
  in
  let queries = [ "(x, z) :- E(x, y), E(y, z)"; "(x) :- E(x, y), R(y) ; E(x, y), E(y, x)" ] in
  let session = Delta.open_db db in
  let states = List.map (fun q -> (q, Delta.prepare (fst (Parse.ucq q)) session)) queries in
  List.iter
    (fun (q, st) -> if Delta.effective_tier st <> Tier.B then failwith ("E22: not on tier B: " ^ q))
    states;
  let prepared = List.map (fun (_, st) -> Delta.terms st) states in
  (* the median wall time of folding [r] into three fresh states of [psi]
     over its before-database *)
  let fold_ms psi (r : Delta.applied) =
    let one () =
      let st = Delta.prepare psi (Delta.open_db r.Delta.before) in
      let t0 = Unix.gettimeofday () in
      Delta.apply_state st (Delta.open_db r.Delta.after) { r with Delta.epoch = 1 };
      Unix.gettimeofday () -. t0
    in
    1000. *. List.nth (List.sort compare [ one (); one (); one () ]) 1
  in
  (* per write: its name and text, and per state the terms after its
     fold, each with whether the guard recounted it and a recount, and
     the fold's wall time *)
  let folds =
    List.map
      (fun (name, op, tuple) ->
        let r =
          match Delta.apply session { Delta.op; fact = { Delta.rel = "E"; tuple } } with
          | Ok r when r.Delta.changed -> r
          | _ -> failwith ("E22: the write changes nothing: " ^ name)
        in
        let text =
          Printf.sprintf "%cE(%s)" (if op = `Insert then '+' else '-')
            (String.concat ", " (List.map string_of_int tuple))
        in
        ( name,
          text,
          List.map
            (fun (_, st) ->
              let ms = fold_ms (Delta.query st) r in
              let before = Delta.terms st in
              Delta.apply_state ~budget:(Budget.unlimited ()) st session r;
              let terms =
                List.map2
                  (fun (b : Delta.term_info) (t : Delta.term_info) ->
                    ( t,
                      t.Delta.recounts > b.Delta.recounts,
                      Counting.count ~strategy:Counting.Varelim t.Delta.term r.Delta.after ))
                  before (Delta.terms st)
              in
              (terms, ms))
            states ))
      writes
  in
  let rows =
    List.concat
      (List.mapi
         (fun k (q, _) ->
           List.mapi
             (fun i (p : Delta.term_info) ->
               let per_write =
                 List.map
                   (fun (name, text, per_state) ->
                     let terms, ms = List.nth per_state k in
                     let (t : Delta.term_info), guard, recount = List.nth terms i in
                     Printf.printf
                       "E22 %-40s %-34s %-18s fold=%d full=%d guard=%b count=%d recount=%d (state %.2f ms)\n%!"
                       q (Pretty.cq p.Delta.term) name t.Delta.fold_steps p.Delta.full_steps guard
                       t.Delta.count recount ms;
                     Printf.sprintf
                       "        {\"write\": %S, \"delta\": %S, \"fold_steps\": %d, \"guard\": %b, \
                        \"count\": %d, \"recount\": %d, \"state_fold_ms\": %.3f}"
                       name text t.Delta.fold_steps guard t.Delta.count recount ms)
                   folds
               in
               Printf.sprintf
                 "    {\"query\": %S, \"term\": %S, \"full_steps\": %d, \"full_count\": %d, \
                  \"writes\": [\n%s\n    ]}"
                 q (Pretty.cq p.Delta.term) p.Delta.full_steps p.Delta.count
                 (String.concat ",\n" per_write))
             (List.nth prepared k))
         states)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"kind\": \"delta\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"git_commit\": %S,\n" (Buildid.git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"database\": {\"nodes\": 2500, \"edges\": 9000, \"seed\": 1, \"tuples\": %d, \"hub\": %d, \
        \"hub_out_edges\": %d},\n"
       (Structure.num_tuples db) hub deg_out.(hub));
  Buffer.add_string buf "  \"terms\": [\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_delta.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  prerr_endline "wrote BENCH_delta.json"

let () =
  if Array.exists (( = ) "--json") Sys.argv then begin
    parallel_json ();
    optimize_json ();
    expansion_json ();
    engine_json ();
    delta_json ();
    exit 0
  end;
  Printf.printf "ucqc benchmark harness — regenerating the paper's artefacts\n";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  run_bechamel ();
  Printf.printf "\nAll experiments completed.\n"
