(** Tests for the per-term counting engine behind [Counting.count]: an
    oracle suite against [Naive], [count_big] and the backtracking answer
    set over spread element ids (answer tables, and the join tree's
    enumeration and draws too), the engine's restricted counts and
    answers against the term with the restriction as one more atom,
    what a restricted join charges, and the budget schedule each
    strategy charges, pinned against a transcript recorded before the
    engines were replaced ([budget_schedule.txt]). *)

(* ------------------------------------------------------------------ *)
(* Oracle suite                                                       *)
(* ------------------------------------------------------------------ *)

let oracle_sg =
  Signature.make
    Signature.[ symbol "N" 0; symbol "U" 1; symbol "E" 2; symbol "T" 3; symbol "F" 5 ]

(* Element [i] spread over negative ids, ids past 2^31 and small ones. *)
let spread (i : int) : int =
  match i mod 3 with 0 -> (-7919 * i) - 1 | 1 -> (1 lsl 31) + (104729 * i) | _ -> i

(* A random database over [oracle_sg]: 0 to 5 elements (the empty
   universe included) and, per symbol, 0 to 8 uniform tuples (so empty
   relations too), then renamed through [spread]. *)
let oracle_db (seed : int) : Structure.t =
  let st = Random.State.make [| seed; 17 |] in
  let n = Random.State.int st 6 in
  let rels =
    List.map
      (fun (s : Signature.symbol) ->
        let k = if n = 0 && s.arity > 0 then 0 else Random.State.int st 9 in
        (s.name, List.init k (fun _ -> List.init s.arity (fun _ -> Random.State.int st n))))
      oracle_sg
  in
  Structure.rename (Structure.make oracle_sg (List.init n Fun.id) rels) spread

(* A random CQ over [oracle_sg] (repeated variables, nullary atoms and
   arities up to 5 come with the signature), its variables spread too. *)
let oracle_cq (seed : int) : Cq.t =
  let q = Qgen.random_cq ~seed ~max_vars:4 ~max_atoms:4 oracle_sg in
  Cq.make (Structure.rename (Cq.structure q) spread) (List.map spread (Cq.free q))

(* A restriction for [q] over [db]: distinct rows over a random set of
   [q]'s variables, drawn from [db]'s universe; with [q] and [db] given
   the restriction as one more atom over a fresh relation. *)
let restricted (qs : int) (rs : int) (q : Cq.t) (db : Structure.t) : Elim.table * Cq.t * Structure.t =
  let st = Random.State.make [| qs; rs; 5 |] in
  let a = Cq.structure q in
  let cols = List.filter (fun _ -> Random.State.bool st) (Structure.universe a) in
  let dom = Array.of_list (Structure.universe db) in
  let rows =
    if Array.length dom = 0 then if cols = [] && Random.State.bool st then [ [] ] else []
    else
      List.sort_uniq compare
        (List.init (Random.State.int st 7) (fun _ ->
             List.map (fun _ -> dom.(Random.State.int st (Array.length dom))) cols))
  in
  let sym = Signature.symbol "Rst" (List.length cols) in
  let q' =
    Cq.make
      (Structure.make
         (Signature.union (Structure.signature a) (Signature.make [ sym ]))
         (Structure.universe a)
         (("Rst", [ cols ]) :: Structure.relations a))
      (Cq.free q)
  in
  let db' =
    Structure.make
      (Signature.union (Structure.signature db) (Signature.make [ sym ]))
      (Structure.universe db)
      (("Rst", rows) :: Structure.relations db)
  in
  ( { Elim.cols = Array.of_list cols; rows = List.length rows; data = Array.of_list (List.concat rows) },
    q',
    db' )

let pool2 = lazy (Pool.create ~jobs:2 ())

let qcheck_oracle =
  let open QCheck in
  let seeds = pair (int_range 0 1_000_000) (int_range 0 1_000_000) in
  [
    Test.make ~name:"engine strategies agree with naive and count_big" ~count:400 seeds
      (fun (qs, ds) ->
        let db = oracle_db ds in
        let agree q =
          let naive = Counting.count ~strategy:Counting.Naive q db in
          let by strategy = Counting.count ~strategy q db = naive in
          let qf = Cq.is_quantifier_free q in
          Bigint.to_int_opt (Counting.count_big q db) = Some naive
          && by Counting.Auto && by Counting.Varelim
          && ((not qf) || by Counting.Weighted)
          && ((not (qf && Cq.is_acyclic q)) || by Counting.Yannakakis)
        in
        (* the term as drawn, and with every variable free *)
        let q = oracle_cq qs in
        agree q && agree (Cq.of_structure (Cq.structure q)));
    Test.make ~name:"count_terms on a 2-domain pool equals sequential" ~count:60 seeds
      (fun (qs, ds) ->
        let psi = Qgen.random_ucq ~seed:qs ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 oracle_sg in
        let db = oracle_db ds in
        let terms = Ucq.support psi in
        let seq = Ucq.count_terms terms db in
        seq = Ucq.count_terms ~pool:(Lazy.force pool2) terms db && seq = Ucq.count_naive psi db);
    Test.make ~name:"answers, enumeration and draws agree with naive" ~count:400 seeds
      (fun (qs, ds) ->
        let db = oracle_db ds in
        let agree q =
          let naive = Test_db.naive_answers q db in
          Test_db.table_rows (Elim.answers q db) = naive
          && ((not (Cq.is_quantifier_free q && Cq.is_acyclic q))
             ||
             let s = Sampler.make q db and st = Random.State.make [| qs; ds |] in
             let drawn _ =
               match Sampler.draw st s with
               | None -> naive = []
               | Some a -> List.map fst a = Cq.free q && List.mem (List.map snd a) naive
             in
             Enumerate.to_list (Enumerate.prepare q db) = naive
             && Sampler.cardinality s = Counting.count ~strategy:Counting.Naive q db
             && List.for_all drawn (List.init 5 Fun.id))
        in
        (* the term as drawn, and with every variable free *)
        let q = oracle_cq qs in
        agree q && agree (Cq.of_structure (Cq.structure q)));
    Test.make ~name:"restricted counts and answers agree with an extra atom" ~count:300
      (triple (int_range 0 1_000_000) (int_range 0 1_000_000) (int_range 0 1_000_000))
      (fun (qs, ds, rs) ->
        let db = oracle_db ds and q = oracle_cq qs in
        let r, q', db' = restricted qs rs q db in
        let naive = Counting.count ~strategy:Counting.Naive q' db' in
        let by order = Elim.count ~restrict:r order q db = naive in
        by Elim.Projecting
        && ((not (Cq.is_quantifier_free q)) || (by Elim.Summing && by Elim.Acyclic))
        && Test_db.table_rows (Elim.answers ~restrict:r q db) = Test_db.naive_answers q' db');
  ]

(* (x) :- A(x, y), B(y) restricted to x = 0, where 0 has 100 A-edges
   and no B-row matches one: the join walks 100 partial rows and joins
   none, and it must charge what it walks, not only what it joins. *)
let test_restricted_charge () =
  let sg = Signature.make [ Signature.symbol "A" 2; Signature.symbol "B" 1 ] in
  let q = Cq.make (Structure.make sg [ 0; 1 ] [ ("A", [ [ 0; 1 ] ]); ("B", [ [ 1 ] ]) ]) [ 0 ] in
  let d =
    Structure.make sg (List.init 1001 Fun.id) [ ("A", List.init 100 (fun i -> [ 0; i + 1 ])); ("B", [ [ 1000 ] ]) ]
  in
  let r = { Elim.cols = [| 0 |]; rows = 1; data = [| 0 |] } in
  let b = Budget.unlimited () in
  Alcotest.(check int) "no answer" 0 (Elim.count ~budget:b ~restrict:r Elim.Projecting q d);
  Alcotest.(check bool) "every missed probe charged" true (Budget.steps_done b > 100);
  Alcotest.check_raises "a budget stops the walk"
    (Budget.Exhausted { Budget.phase = "start"; steps_done = 50 })
    (fun () -> ignore (Elim.count ~budget:(Budget.of_steps 50) ~restrict:r Elim.Projecting q d : int))

(* ------------------------------------------------------------------ *)
(* The pinned budget schedule                                         *)
(* ------------------------------------------------------------------ *)

(* A [Generators.random_digraph] for E, plus R (every third element) and
   S (a second digraph) for the golden queries that name them. *)
let schedule_db ~(seed : int) (n : int) (m : int) : Structure.t =
  let e = Generators.random_digraph ~seed n m in
  let s = Generators.random_digraph ~seed:(seed + 100) n (m / 2) in
  Structure.make
    (Signature.make [ Signature.symbol "E" 2; Signature.symbol "R" 1; Signature.symbol "S" 2 ])
    (Structure.universe e)
    [
      ("E", Structure.relation e "E");
      ("R", List.filter_map (fun v -> if v mod 3 = 0 then Some [ v ] else None) (Structure.universe e));
      ("S", Structure.relation s "E");
    ]

(* The five count_skewed_graph shapes of perfbench, the queries of the
   golden transcripts (test/golden.t, test/serve_golden.txt) and data/,
   a boolean triangle, a 4-cycle, and two shapes on which fewest
   factors and fewest rows pick different variables (a or x in one
   large factor, c in two smaller ones). *)
let schedule_queries =
  [
    "(x, y, z) :- E(x, y), E(y, z)";
    "(x, y, z) :- E(x, y), E(y, z), E(z, x)";
    "(x, z) :- E(x, y), E(y, z)";
    "(x, y, z) :- R(x), E(x, y), E(x, z)";
    "(x, y) :- E(x, y) ; E(x, z), E(z, y)";
    "(x, y) :- E(x, z), E(z, y) ; R(x), R(y)";
    "(x) :- R(x), S(x, y) ; R(x), S(x, y), E(y, z)";
    "(x) :- E(x, y), E(y, z), E(z, x)";
    "(a, b, c) :- E(a, b) ; E(b, c) ; E(c, a)";
    "() :- E(x, y), E(y, z), E(z, x)";
    "(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x)";
    "(x) :- E(x, a), R(b), R(c), S(b, c)";
    "(x, b, c) :- E(x, b), R(b), R(c), S(b, c)";
  ]

(* Every disjunct and every support term of the queries, once each. *)
let schedule_terms : Cq.t list Lazy.t =
  lazy
    (List.fold_left
       (fun acc text ->
         let psi = fst (Parse.ucq text) in
         let terms =
           Ucq.disjuncts psi
           @ List.map (fun (t : Ucq.expansion_term) -> t.Ucq.representative) (Ucq.support psi)
         in
         List.fold_left (fun acc q -> if List.exists (Cq.equal q) acc then acc else acc @ [ q ]) acc terms)
       [] schedule_queries)

let strategies =
  Counting.[ ("auto", Auto); ("naive", Naive); ("yannakakis", Yannakakis); ("weighted", Weighted);
             ("varelim", Varelim) ]

(* One run under [budget]: the count or the refusal, and the steps done
   (at exhaustion, the steps the exception reports). *)
let run_once strategy budget q db : string * int =
  match Counting.count ~strategy ~budget q db with
  | n -> (string_of_int n, Budget.steps_done budget)
  | exception Counting.Unsupported msg -> ("unsupported: " ^ msg, Budget.steps_done budget)
  | exception Budget.Exhausted e -> ("exhausted", e.Budget.steps_done)

(* The transcript: per database, term and strategy, the unlimited run,
   then runs under [Budget.of_steps k] for k = 0, 1, a quarter, a half
   and one less than the unlimited run's steps. *)
let schedule_lines () : string list =
  let dbs =
    [ ("small", schedule_db ~seed:1 12 40, List.map fst strategies);
      ("medium", schedule_db ~seed:2 200 1500, [ "auto"; "yannakakis"; "weighted"; "varelim" ]) ]
  in
  List.concat_map
    (fun (dname, db, names) ->
      List.concat_map
        (fun q ->
          List.concat_map
            (fun name ->
              let strategy = List.assoc name strategies in
              let result, total = run_once strategy (Budget.unlimited ()) q db in
              let ks =
                List.sort_uniq compare
                  (List.filter (fun k -> k >= 0 && k < total) [ 0; 1; total / 4; total / 2; total - 1 ])
              in
              Printf.sprintf "%s %s %s: %s steps=%d" dname name (Pretty.cq q) result total
              :: List.map
                   (fun k ->
                     let r, s = run_once strategy (Budget.of_steps k) q db in
                     Printf.sprintf "  of_steps %d: %s steps=%d" k r s)
                   ks)
            names)
        (Lazy.force schedule_terms))
    dbs

let test_budget_schedule () =
  let file = List.find Sys.file_exists [ "budget_schedule.txt"; "test/budget_schedule.txt" ] in
  let expected = In_channel.with_open_text file In_channel.input_lines in
  let actual = schedule_lines () in
  Alcotest.(check int) "transcript length" (List.length expected) (List.length actual);
  List.iteri (fun i (want, got) -> Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) want got)
    (List.combine expected actual)

let suite =
  [
    ( "engine",
      Alcotest.test_case "budget schedule pinned" `Quick test_budget_schedule
      :: Alcotest.test_case "a restricted join charges the rows it walks" `Quick test_restricted_charge
      :: List.map QCheck_alcotest.to_alcotest qcheck_oracle );
  ]
