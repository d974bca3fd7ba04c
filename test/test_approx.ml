(** Tests for uniform answer sampling and the Karp–Luby estimator. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

let test_sampler_cardinality () =
  let db = Generators.random_digraph ~seed:41 8 20 in
  List.iter
    (fun (name, q) ->
      let s = Sampler.make q db in
      Alcotest.(check int) name
        (Counting.count ~strategy:Counting.Naive q db)
        (Sampler.cardinality s))
    [
      ("edge", mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]);
      ("path3", mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ]);
      ("two components", mkcq 4 [ [ 0; 1 ]; [ 2; 3 ] ] [ 0; 1; 2; 3 ]);
      ("isolated var", mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ]);
      ("cyclic (fallback)", mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ]);
      ("quantified (fallback)", mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 2 ]);
    ]

let test_sampler_draws_valid_answers () =
  let db = Generators.random_digraph ~seed:43 7 16 in
  let q = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ] in
  let s = Sampler.make q db in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    match Sampler.draw st s with
    | None -> Alcotest.fail "sampler empty but count > 0"
    | Some answer ->
        Alcotest.(check bool) "drawn assignment is an answer" true
          (Hom.exists ~fixed:answer (Cq.structure q) db)
  done

(* [trials] draws from the sampler of [q] over [db]: every answer of
   [expected] must come up within 20% of [trials / expected]. *)
let check_uniform (q : Cq.t) (db : Structure.t) (expected : int) (trials : int) =
  let s = Sampler.make q db in
  Alcotest.(check int) "answers" expected (Sampler.cardinality s);
  let st = Random.State.make [| 11 |] in
  let tally = Hashtbl.create expected in
  for _ = 1 to trials do
    match Sampler.draw st s with
    | None -> Alcotest.fail "unexpected empty"
    | Some a -> Hashtbl.replace tally a (1 + Option.value ~default:0 (Hashtbl.find_opt tally a))
  done;
  Alcotest.(check int) "every answer seen" expected (Hashtbl.length tally);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "frequency within 20% of uniform" true
        (abs (c - (trials / expected)) < trials / expected / 5))
    tally

(* On the directed 4-cycle the path query P3 has exactly 4 answers. *)
let test_sampler_uniformity () =
  check_uniform (mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ]) (Generators.cycle_db 4) 4 4000

(* Node 0 has out-degree 3 and node 1 out-degree 1, so (x, y, z) :-
   E(x, y), E(x, z) has 9 answers at x = 0 and 1 at x = 1: a tree draw
   that ignored the subtree counts would give x = 1 half the time. *)
let test_tree_uniformity () =
  let db = Structure.make sg_e [ 0; 1; 2; 3 ] [ ("E", [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ] ]) ] in
  let q = mkcq 3 [ [ 0; 1 ]; [ 0; 2 ] ] [ 0; 1; 2 ] in
  Alcotest.(check bool) "drawn from the join tree" true
    (match Sampler.make q db with Sampler.Tree _ -> true | Sampler.Table _ -> false);
  check_uniform q db 10 10_000

(* (x, z) :- E(x, y), E(y, z) has 11 answers: the pair (0, 3) has three
   witnesses y and every other one, and each must still come up equally
   often. *)
let test_table_uniformity () =
  let db =
    Structure.make sg_e [ 0; 1; 2; 3; 4 ]
      [ ("E", [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 4 ]; [ 1; 3 ]; [ 2; 3 ]; [ 4; 3 ]; [ 3; 0 ]; [ 3; 2 ] ]) ]
  in
  let q = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 2 ] in
  Alcotest.(check bool) "drawn from the answer table" true
    (match Sampler.make q db with Sampler.Table _ -> true | Sampler.Tree _ -> false);
  check_uniform q db 11 10_000

(* [Random.State.int] refuses bounds of 2^30 and more. *)
let test_weights_past_2_30 () =
  let st = Random.State.make [| 3 |] in
  ignore (Sampler.weighted_choice st [ ("heavy", 1 lsl 31); ("light", 1) ] : string);
  let est =
    Karp_luby.estimate_with ~seed:5 ~samples:20 ~counts:[ 1 lsl 31; 1 ]
      ~draw:(fun _st _i -> Some [ (0, 0) ])
      ~member:(fun _j _a -> false)
      ()
  in
  Alcotest.(check int) "space" ((1 lsl 31) + 1) est.Karp_luby.space;
  (* three independent edges over K40: 1560^3 answers, all under the
     join tree's root *)
  let db = Generators.clique_db 40 in
  let q = mkcq 6 [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] (List.init 6 Fun.id) in
  let s = Sampler.make q db in
  Alcotest.(check int) "tree cardinality" (1560 * 1560 * 1560) (Sampler.cardinality s);
  match Sampler.draw st s with
  | None -> Alcotest.fail "no draw"
  | Some a -> Alcotest.(check bool) "a drawn answer" true (Hom.exists ~fixed:a (Cq.structure q) db)

let test_sampler_empty () =
  let db = Generators.path_db 3 in
  (* no triangle in a path *)
  let q = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  let s = Sampler.make q db in
  Alcotest.(check int) "empty count" 0 (Sampler.cardinality s);
  let st = Random.State.make [| 1 |] in
  Alcotest.(check bool) "no draw" true (Sampler.draw st s = None)

let test_karp_luby_exact_space () =
  let db = Generators.random_digraph ~seed:47 8 20 in
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ] in
  let est = Karp_luby.estimate ~samples:4000 psi db in
  let exact = Ucq.count_naive psi db in
  Alcotest.(check int) "space = sum of disjunct counts" est.Karp_luby.space
    (List.fold_left
       (fun acc q -> acc + Counting.count q db)
       0 (Ucq.disjuncts psi));
  (* generous tolerance: 4000 samples, hit rate >= 1/2 *)
  let err = abs_float (est.Karp_luby.value -. float_of_int exact) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f within 15%% of %d" est.Karp_luby.value exact)
    true
    (err <= 0.15 *. float_of_int exact)

let test_karp_luby_with_quantifiers () =
  let db = Generators.random_digraph ~seed:53 7 15 in
  (* (∃y E(x,y)) ∨ (∃y E(y,x)) *)
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ]; mkcq 2 [ [ 1; 0 ] ] [ 0 ] ] in
  let est = Karp_luby.estimate ~samples:4000 psi db in
  let exact = Ucq.count_naive psi db in
  let err = abs_float (est.Karp_luby.value -. float_of_int exact) in
  Alcotest.(check bool) "quantified estimate close" true
    (err <= 0.2 *. float_of_int (max exact 1))

let test_karp_luby_empty () =
  let db = Structure.make sg_e [ 0; 1 ] [] in
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ] ] in
  let est = Karp_luby.estimate ~samples:100 psi db in
  Alcotest.(check bool) "zero estimate" true (est.Karp_luby.value = 0.);
  (* a disjunct over a symbol the database lacks has no answer, and its
     membership test reads no relation: every draw from E(x, y) hits *)
  let sg_ef = Signature.make [ Signature.symbol "E" 2; Signature.symbol "F" 2 ] in
  let atom rel = Cq.make (Structure.make sg_ef [ 0; 1 ] [ (rel, [ [ 0; 1 ] ]) ]) [ 0; 1 ] in
  let db = Generators.path_db 3 in
  let est = Karp_luby.estimate ~samples:100 (Ucq.make [ atom "F"; atom "E" ]) db in
  Alcotest.(check (float 0.)) "F(x, y) ; E(x, y) estimates E's edges"
    (float_of_int (List.length (Structure.relation db "E")))
    est.Karp_luby.value

let test_fpras_budget () =
  let db = Generators.random_digraph ~seed:59 6 12 in
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ] in
  let est = Karp_luby.fpras ~epsilon:0.2 ~delta:0.1 psi db in
  (* 4 * 2 * ln(20) / 0.04 = 599.1 -> 600 samples *)
  Alcotest.(check int) "derived sample budget" 600 est.Karp_luby.samples

let test_dropped_draws_not_in_denominator () =
  (* regression for the denominator bias: draws that fail after every
     seed rotation must not count as misses.  Disjunct 0 always yields an
     answer, disjunct 1 always fails; the unbiased estimator divides by
     the successful draws only, so the estimate is exactly [space]
     (every successful draw is a hit), not [space / 2]. *)
  let samples = 1000 in
  let est =
    Karp_luby.estimate_with ~seed:5 ~samples ~counts:[ 2; 2 ]
      ~draw:(fun _st i -> if i = 0 then Some [ (0, 0) ] else None)
      ~member:(fun _j _a -> true)
      ()
  in
  Alcotest.(check bool) "some draws were dropped" true (est.Karp_luby.dropped > 0);
  Alcotest.(check int) "every successful draw is a hit"
    (samples - est.Karp_luby.dropped)
    est.Karp_luby.hits;
  Alcotest.(check (float 1e-9)) "estimate = space (unbiased)" 4.0
    est.Karp_luby.value;
  Alcotest.(check int) "samples field still counts requested draws" samples
    est.Karp_luby.samples

let test_all_draws_dropped () =
  let est =
    Karp_luby.estimate_with ~seed:5 ~samples:50 ~counts:[ 3 ]
      ~draw:(fun _st _i -> None)
      ~member:(fun _j _a -> true)
      ()
  in
  Alcotest.(check int) "everything dropped" 50 est.Karp_luby.dropped;
  Alcotest.(check (float 1e-9)) "no successes: value 0, not NaN" 0.0
    est.Karp_luby.value

let qcheck_approx =
  let open QCheck in
  [
    Test.make ~name:"sampler cardinality equals naive count" ~count:60
      (pair (int_range 0 1000) (int_range 0 15))
      (fun (seed, mask) ->
        let free = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2 ] in
        let q = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] free in
        let db = Generators.random_digraph ~seed 5 10 in
        Sampler.cardinality (Sampler.make q db)
        = Counting.count ~strategy:Counting.Naive q db);
    Test.make ~name:"drawn samples are answers" ~count:40 (int_range 0 1000)
      (fun seed ->
        let q = mkcq 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 1; 3 ] ] [ 0; 1; 2; 3 ] in
        let db = Generators.random_digraph ~seed 5 12 in
        let s = Sampler.make q db in
        let st = Random.State.make [| seed |] in
        match Sampler.draw st s with
        | None -> Sampler.cardinality s = 0
        | Some a -> Hom.exists ~fixed:a (Cq.structure q) db);
  ]

let suite =
  [
    ( "approx",
      [
        Alcotest.test_case "sampler cardinality" `Quick test_sampler_cardinality;
        Alcotest.test_case "draws are valid answers" `Quick
          test_sampler_draws_valid_answers;
        Alcotest.test_case "uniformity" `Quick test_sampler_uniformity;
        Alcotest.test_case "tree draws weigh subtree counts" `Quick test_tree_uniformity;
        Alcotest.test_case "table draws ignore witness counts" `Quick test_table_uniformity;
        Alcotest.test_case "weights past 2^30" `Quick test_weights_past_2_30;
        Alcotest.test_case "empty answer set" `Quick test_sampler_empty;
        Alcotest.test_case "karp-luby on a union" `Quick test_karp_luby_exact_space;
        Alcotest.test_case "karp-luby with quantifiers" `Quick
          test_karp_luby_with_quantifiers;
        Alcotest.test_case "karp-luby empty" `Quick test_karp_luby_empty;
        Alcotest.test_case "fpras sample budget" `Quick test_fpras_budget;
        Alcotest.test_case "dropped draws excluded from denominator" `Quick
          test_dropped_draws_not_in_denominator;
        Alcotest.test_case "all draws dropped" `Quick test_all_draws_dropped;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_approx );
  ]
