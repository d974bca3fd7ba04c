(** Tests for the tiered incremental-counting engine: the delta-line
    parser, the database session, and the equivalence of maintained
    counts with from-scratch recomputation under random update
    streams. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let sg_rs =
  Signature.make [ Signature.symbol "R" 1; Signature.symbol "S" 2 ]

let mkq sg n rels free =
  Cq.make (Structure.make sg (List.init n (fun i -> i)) rels) free

(* tier A: (x) :- R(x), ∃y S(x, y) is q-hierarchical *)
let tier_a_q = mkq sg_rs 2 [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ] [ 0 ]

(* tier B: (x, y) :- E(x, z), E(z, y) is acyclic but not
   q-hierarchical (z is quantified yet its atom set strictly contains
   the free variables') *)
let tier_b_q = mkq sg_e 3 [ ("E", [ [ 0; 2 ]; [ 2; 1 ] ]) ] [ 0; 1 ]

(* tier C: the triangle is cyclic *)
let tier_c_q =
  mkq sg_e 3 [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]) ] [ 0; 1; 2 ]

let spec_testable : Delta_parse.spec Alcotest.testable =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Delta_parse.render s))
    (fun a b ->
      a.Delta_parse.sign = b.Delta_parse.sign
      && a.Delta_parse.rel = b.Delta_parse.rel
      && a.Delta_parse.args = b.Delta_parse.args)

let parse_one (text : string) : Delta_parse.spec =
  match Delta_parse.line text with
  | Ok (Delta_parse.Deltas [ s ]) -> s
  | Ok (Delta_parse.Deltas _) -> Alcotest.fail ("unexpected batch: " ^ text)
  | Ok Delta_parse.Blank -> Alcotest.fail ("unexpected blank: " ^ text)
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)

let test_parse_text () =
  let s = parse_one "+E(1,2)" in
  Alcotest.(check string) "render" "+E(1,2)" (Delta_parse.render s);
  let s = parse_one "  - E ( 1 , 2 ) .  # trailing comment" in
  Alcotest.(check string) "spaced form" "-E(1,2)" (Delta_parse.render s);
  let s = parse_one "+Likes(alice,post1)" in
  Alcotest.(check string) "identifiers" "+Likes(alice,post1)"
    (Delta_parse.render s);
  let s = parse_one "+Flag()" in
  Alcotest.(check string) "nullary" "+Flag()" (Delta_parse.render s);
  (match Delta_parse.line "" with
  | Ok Delta_parse.Blank -> ()
  | _ -> Alcotest.fail "empty line should be blank");
  match Delta_parse.line "   # just a comment" with
  | Ok Delta_parse.Blank -> ()
  | _ -> Alcotest.fail "comment line should be blank"

let test_parse_errors () =
  let rejects text =
    match Delta_parse.line text with
    | Error (Ucqc_error.Parse_error sp) ->
        (* spans stay inside the line, 1-based end-exclusive *)
        Alcotest.(check bool)
          (Printf.sprintf "span of %S in text" text)
          true
          (sp.col >= 1
          && sp.end_col >= sp.col
          && sp.end_col <= String.length text + 2)
    | Error _ -> Alcotest.fail ("non-parse error for " ^ text)
    | Ok _ -> Alcotest.fail ("accepted malformed input " ^ text)
  in
  List.iter rejects
    [
      "E(1,2)";
      "+";
      "+E";
      "+E(";
      "+E(1";
      "+E(1,";
      "+E(1,2) junk";
      "+E(-1)";
      "+E(1e)";
      "+1R(2)";
      "+E(99999999999999999999999)";
      "{";
      "{\"op\":\"noop\"}";
      "{\"op\":\"insert\"}";
      "{\"op\":\"insert\",\"fact\":3}";
      "{\"op\":\"apply\",\"deltas\":\"+E(1,2)\"}";
      "{\"op\":\"apply\",\"deltas\":[3]}";
    ]

let test_parse_ndjson () =
  let s = parse_one "{\"op\":\"insert\",\"fact\":\"E(1,2)\"}" in
  Alcotest.(check string) "insert frame" "+E(1,2)" (Delta_parse.render s);
  let s = parse_one "{\"op\":\"delete\",\"fact\":\"E(1,2)\"}" in
  Alcotest.(check string) "delete frame" "-E(1,2)" (Delta_parse.render s);
  match
    Delta_parse.line "{\"op\":\"apply\",\"deltas\":[\"+E(1,2)\",\"-R(3)\"]}"
  with
  | Ok (Delta_parse.Deltas [ a; b ]) ->
      Alcotest.(check string) "batch fst" "+E(1,2)" (Delta_parse.render a);
      Alcotest.(check string) "batch snd" "-R(3)" (Delta_parse.render b)
  | _ -> Alcotest.fail "apply batch should parse to two deltas"

let test_render_roundtrip () =
  List.iter
    (fun text ->
      let s = parse_one text in
      Alcotest.check spec_testable
        (Printf.sprintf "roundtrip %S" text)
        s
        (parse_one (Delta_parse.render s)))
    [ "+E(1,2)"; "- E(0, 0) ."; "+Likes(alice,bob)"; "-Flag()" ]

let test_session_epochs () =
  let s = Structure.make sg_e [ 0; 1; 2 ] [ ("E", [ [ 0; 1 ] ]) ] in
  let d = Delta.open_db s in
  Alcotest.(check int) "initial epoch" 0 (Delta.epoch d);
  let apply op rel tuple =
    match Delta.apply d { Delta.op; fact = { Delta.rel; tuple } } with
    | Ok r -> r
    | Error e -> Alcotest.fail (Ucqc_error.to_string e)
  in
  let r = apply `Insert "E" [ 1; 2 ] in
  Alcotest.(check bool) "insert changes" true r.Delta.changed;
  Alcotest.(check int) "epoch bumps" 1 (Delta.epoch d);
  let r = apply `Insert "E" [ 1; 2 ] in
  Alcotest.(check bool) "duplicate insert is a no-op" false r.Delta.changed;
  Alcotest.(check int) "no-op keeps epoch" 1 (Delta.epoch d);
  let r = apply `Delete "E" [ 0; 2 ] in
  Alcotest.(check bool) "absent delete is a no-op" false r.Delta.changed;
  let r = apply `Delete "E" [ 0; 1 ] in
  Alcotest.(check bool) "delete changes" true r.Delta.changed;
  Alcotest.(check int) "epoch after delete" 2 (Delta.epoch d);
  Alcotest.(check int) "tuple really gone" 1
    (List.length (Structure.relation (Delta.structure d) "E"))

let test_session_validation () =
  let s = Structure.make sg_e [ 0; 1 ] [] in
  let d = Delta.open_db s in
  let expect_error name u =
    match Delta.validate d u with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (name ^ " should be rejected")
  in
  expect_error "unknown relation"
    { Delta.op = `Insert; fact = { Delta.rel = "F"; tuple = [ 0 ] } };
  expect_error "arity mismatch"
    { Delta.op = `Insert; fact = { Delta.rel = "E"; tuple = [ 0 ] } };
  expect_error "outside the universe"
    { Delta.op = `Insert; fact = { Delta.rel = "E"; tuple = [ 0; 9 ] } };
  match
    Delta.validate d
      { Delta.op = `Delete; fact = { Delta.rel = "E"; tuple = [ 1; 0 ] } }
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)

let test_resolve_constants () =
  let s = Structure.make sg_e [ 0; 1; 7 ] [] in
  let env = { Parse.constants = [ ("alice", 7) ] } in
  let d = Delta.open_db ~env s in
  let spec text =
    match Delta_parse.delta_string text with
    | Ok sp -> sp
    | Error e -> Alcotest.fail (Ucqc_error.to_string e)
  in
  (match Delta.resolve d (spec "+E(alice,1)") with
  | Ok u -> Alcotest.(check (list int)) "interned" [ 7; 1 ] u.Delta.fact.tuple
  | Error e -> Alcotest.fail (Ucqc_error.to_string e));
  match Delta.resolve d (spec "+E(bob,1)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown constant should be rejected"

let test_tier_assignment () =
  let d_rs = Delta.open_db (Structure.make sg_rs [ 0; 1; 2 ] []) in
  let d_e = Delta.open_db (Structure.make sg_e [ 0; 1; 2 ] []) in
  let tier psi d = Delta.effective_tier (Delta.prepare psi d) in
  Alcotest.(check string) "tier A" "A"
    (Tier.to_string (tier (Ucq.make [ tier_a_q ]) d_rs));
  Alcotest.(check string) "tier B" "B"
    (Tier.to_string (tier (Ucq.make [ tier_b_q ]) d_e));
  Alcotest.(check string) "tier C" "C"
    (Tier.to_string (tier (Ucq.make [ tier_c_q ]) d_e))

(** Drive [steps] random updates through a session over [init] (by
    default the [n] elements with no tuple), folding every change into
    each prepared state and checking any maintained count against naive
    recomputation at every step; the session and the states at the
    end. *)
let drive ?(init : Structure.t option) ~(seed : int) ~(steps : int) ~(n : int)
    (sg : Signature.t) (queries : (string * Ucq.t) list) : Delta.db * (string * Delta.state) list =
  let start =
    match init with Some s -> s | None -> Structure.make sg (List.init n (fun i -> i)) []
  in
  let d = Delta.open_db start in
  let states = List.map (fun (name, psi) -> (name, Delta.prepare psi d)) queries in
  let rng = Random.State.make [| seed |] in
  for step = 1 to steps do
    let s = List.nth sg (Random.State.int rng (List.length sg)) in
    let tuple =
      List.init s.Signature.arity (fun _ -> Random.State.int rng n)
    in
    let op = if Random.State.bool rng then `Insert else `Delete in
    (match Delta.apply d { Delta.op; fact = { Delta.rel = s.Signature.name; tuple } } with
    | Error e -> Alcotest.fail (Ucqc_error.to_string e)
    | Ok r ->
        if r.Delta.changed then
          List.iter (fun (_, st) -> Delta.apply_state st d r) states);
    List.iter
      (fun (name, st) ->
        (match Delta.degraded st with
        | Some reason ->
            Alcotest.fail
              (Printf.sprintf "%s degraded at step %d: %s" name step reason)
        | None -> ());
        match Delta.maintained_count st d with
        | Some (got, _) ->
            let want = Ucq.count_naive (Delta.query st) (Delta.structure d) in
            if got <> want then
              Alcotest.fail
                (Printf.sprintf "%s at step %d: maintained %d <> recomputed %d"
                   name step got want)
        | None -> ())
      states
  done;
  (d, states)

let drive_and_check ?init ~seed ~steps ~n sg queries : unit =
  ignore (drive ?init ~seed ~steps ~n sg queries : Delta.db * (string * Delta.state) list)

let test_maintained_equivalence () =
  let psi_a = Ucq.make [ tier_a_q ] in
  let exists_s = mkq sg_rs 2 [ ("S", [ [ 0; 1 ] ]) ] [ 0 ] in
  let has_r = mkq sg_rs 1 [ ("R", [ [ 0 ] ]) ] [ 0 ] in
  let psi_union_a = Ucq.make [ exists_s; has_r ] in
  drive_and_check ~seed:31 ~steps:120 ~n:5 sg_rs
    [ ("tier-a", psi_a); ("tier-a union", psi_union_a) ];
  let psi_b = Ucq.make [ tier_b_q ] in
  (* a boolean acyclic non-qh query: () :- E(x, z), E(z, y) *)
  let bool_b = mkq sg_e 3 [ ("E", [ [ 0; 2 ]; [ 2; 1 ] ]) ] [] in
  drive_and_check ~seed:32 ~steps:60 ~n:4 sg_e
    [ ("tier-b", psi_b); ("tier-b boolean", Ucq.make [ bool_b ]) ]

(* (x) :- R(x) ; R(x), S(x, y): the second disjunct and the pair
   combine to one class whose coefficients cancel, so of three subsets
   one support term, R(x), is maintained *)
let test_tier_a_support () =
  let has_r = mkq sg_rs 1 [ ("R", [ [ 0 ] ]) ] [ 0 ] in
  let psi = Ucq.make [ has_r; tier_a_q ] in
  let d = Delta.open_db (Structure.make sg_rs [ 0; 1; 2; 3 ] []) in
  let st = Delta.prepare psi d in
  Alcotest.(check string) "runs on tier A" "A" (Tier.to_string (Delta.effective_tier st));
  (match Delta.terms st with
  | [ t ] ->
      Alcotest.(check int) "coefficient" 1 t.Delta.coefficient;
      Alcotest.(check bool) "the term is R(x)" true (Cq.isomorphic t.Delta.term has_r);
      Alcotest.(check int) "a Dynamic term reports no steps" 0 (t.Delta.full_steps + t.Delta.fold_steps)
  | ts -> Alcotest.failf "%d terms, not one" (List.length ts));
  drive_and_check ~seed:38 ~steps:80 ~n:4 sg_rs [ ("R(x) ; R(x), S(x, y)", psi) ]

let test_tier_b_isolated_free () =
  (* (x, w) :- E(x, z), E(z, y) with w isolated free: the count picks
     up a |U| factor that the maintained state must track *)
  let q = mkq sg_e 4 [ ("E", [ [ 0; 2 ]; [ 2; 1 ] ]) ] [ 0; 3 ] in
  drive_and_check ~seed:33 ~steps:50 ~n:4 sg_e
    [ ("tier-b isolated", Ucq.make [ q ]) ]

let sg_ep =
  Signature.make [ Signature.symbol "E" 2; Signature.symbol "P" 1 ]

let test_tier_b_union () =
  (* a union whose combined queries are all acyclic but not
     exhaustively q-hierarchical: the two-hop query joined with unary
     guards stays acyclic in every combination *)
  let q1 = mkq sg_ep 3 [ ("E", [ [ 0; 2 ]; [ 2; 1 ] ]) ] [ 0; 1 ] in
  let q2 = mkq sg_ep 2 [ ("P", [ [ 0 ]; [ 1 ] ]) ] [ 0; 1 ] in
  let psi = Ucq.make [ q1; q2 ] in
  let d = Delta.open_db (Structure.make sg_ep [ 0; 1; 2; 3 ] []) in
  let st = Delta.prepare psi d in
  Alcotest.(check string) "union runs on tier B" "B"
    (Tier.to_string (Delta.effective_tier st));
  drive_and_check ~seed:34 ~steps:60 ~n:4 sg_ep [ ("tier-b union", psi) ]

let sg_t = Signature.make [ Signature.symbol "E" 2; Signature.symbol "T" 3 ]

(* Tier-B terms the fold must bind in more than one way: the
   quantifier-free 3-edge path (three atoms over the changed relation),
   (x, z) :- E(x, y), E(y, y), E(y, z) (a repeated variable, quantified),
   and (x, z) :- T(x, y, x), T(y, z, w) (a ternary relation, with a
   repeated variable in it). *)
let path3_q = mkq sg_e 4 [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ] [ 0; 1; 2; 3 ]
let loop_q = mkq sg_e 3 [ ("E", [ [ 0; 1 ]; [ 1; 1 ]; [ 1; 2 ] ]) ] [ 0; 2 ]
let ternary_q = mkq sg_t 4 [ ("T", [ [ 0; 1; 0 ]; [ 1; 2; 3 ] ]) ] [ 0; 2 ]

(* Apply one change to E and fold it into [st] under [budget]. *)
let fold_budget ?(rel = "E") (d : Delta.db) (st : Delta.state) (budget : Budget.t) op (tuple : int list) : unit =
  match Delta.apply d { Delta.op; fact = { Delta.rel; tuple } } with
  | Ok r -> Delta.apply_state ~budget st d r
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)

let fold_one ?rel d st op tuple = fold_budget ?rel d st (Budget.unlimited ()) op tuple

(* Folds, not only guard recounts, must have run: fewer recounts than
   changes. *)
let check_folded (name : string) (d : Delta.db) (st : Delta.state) : unit =
  let recounts = List.fold_left (fun acc t -> acc + t.Delta.recounts) 0 (Delta.terms st) in
  Alcotest.(check bool) (name ^ ": some change folded") true (recounts < Delta.epoch d)

let test_tier_b_bindings () =
  (* a quantifier-free term's full count charges no step, so its
     allowance is the tuples that count read: +E(3, 0) on a 3-edge path
     makes three candidates, which fold without a recount *)
  let d = Delta.open_db (Structure.make sg_e [ 0; 1; 2; 3 ] [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) ]) in
  let st = Delta.prepare (Ucq.make [ path3_q ]) d in
  fold_one d st `Insert [ 3; 0 ];
  (match Delta.terms st with
  | [ t ] ->
      Alcotest.(check int) "the full count charged nothing" 0 t.Delta.full_steps;
      Alcotest.(check bool) "the fold metered its candidates" true (t.Delta.fold_steps >= 3);
      Alcotest.(check int) "no recount" 0 t.Delta.recounts;
      Alcotest.(check int) "exact" (Ucq.count_naive (Delta.query st) (Delta.structure d)) t.Delta.count
  | _ -> Alcotest.fail "one term");
  List.iter
    (fun (name, sg, q, seed) ->
      let psi = Ucq.make [ q ] in
      let d = Delta.open_db (Structure.make sg [ 0; 1; 2; 3 ] []) in
      Alcotest.(check string) (name ^ " runs on tier B") "B"
        (Tier.to_string (Delta.effective_tier (Delta.prepare psi d)));
      match drive ~seed ~steps:80 ~n:4 sg [ (name, psi) ] with
      | d, [ (_, st) ] -> check_folded name d st
      | _ -> Alcotest.fail "one state")
    [
      ("3-edge path", sg_e, path3_q, 35);
      ("repeated variable", sg_e, loop_q, 36);
      ("ternary", sg_t, ternary_q, 37);
    ]

(* The complete digraph on [n] elements, loops included. *)
let complete (n : int) : Structure.t =
  let us = List.init n Fun.id in
  Structure.make sg_e us [ ("E", Combinat.tuples 2 us) ]

(* The dense reproductions: -E(0, 0) on a complete digraph, where a fold
   through the loop would build far more candidates than a recount reads.
   The guard stops it; the count stays exact, and no term is recounted
   twice for one change. *)
let test_dense_guard () =
  List.iter
    (fun (n, text) ->
      let psi = fst (Parse.ucq text) in
      let d = Delta.open_db (complete n) in
      let st = Delta.prepare psi d in
      Alcotest.(check string) (text ^ " runs on tier B") "B"
        (Tier.to_string (Delta.effective_tier st));
      let recounts = Telemetry.counter "delta.fold.recounts" in
      Telemetry.reset ();
      Telemetry.enable ~record:false ();
      Fun.protect
        ~finally:(fun () ->
          Telemetry.disable ();
          Telemetry.reset ())
        (fun () ->
          fold_one d st `Delete [ 0; 0 ];
          let want =
            Counting.count (List.hd (Ucq.disjuncts psi)) (Delta.structure d)
          in
          (match Delta.maintained_count st d with
          | Some (got, Delta.Maintained) -> Alcotest.(check int) (text ^ ": exact") want got
          | _ -> Alcotest.fail (text ^ ": the state should still be maintained"));
          let per_term = List.map (fun t -> t.Delta.recounts) (Delta.terms st) in
          List.iter (fun k -> Alcotest.(check bool) (text ^ ": at most one recount") true (k <= 1)) per_term;
          Alcotest.(check int) (text ^ ": the counter sees each recount")
            (List.fold_left ( + ) 0 per_term)
            (Telemetry.counter_value recounts);
          Alcotest.(check bool) (text ^ ": the guard fired") true (Telemetry.counter_value recounts > 0)))
    [
      (40, "(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e)");
      (12, "(a, b, c, d, e, f) :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, f), E(f, h)");
    ]

let sg_er = Signature.make [ Signature.symbol "E" 2; Signature.symbol "R" 1 ]

(* +R(0) into (x) :- E(x, y), R(y), where 0 has 50 in-neighbours C with
   no other out-edge and R holds 2000 elements apart from them.  The
   check over C must join C's out-edges before R: a join that took R
   right after the restriction over x would walk |C| * |R| partial rows,
   far past the term's allowance (the tuples its count read, plus one
   step), and the guard would recount. *)
let test_connected_join () =
  let m = 50 and big = 2000 in
  let d =
    Delta.open_db
      (Structure.make sg_er
         (List.init (1 + m + big) Fun.id)
         [ ("E", List.init m (fun i -> [ i + 1; 0 ])); ("R", List.init big (fun i -> [ m + 1 + i ])) ])
  in
  let st = Delta.prepare (Ucq.make [ mkq sg_er 2 [ ("E", [ [ 0; 1 ] ]); ("R", [ [ 1 ] ]) ] [ 0 ] ]) d in
  Alcotest.(check string) "runs on tier B" "B" (Tier.to_string (Delta.effective_tier st));
  fold_one ~rel:"R" d st `Insert [ 0 ];
  match Delta.terms st with
  | [ t ] ->
      Alcotest.(check int) "exact" m t.Delta.count;
      Alcotest.(check int) "no recount" 0 t.Delta.recounts;
      Alcotest.(check bool) "the fold walked C's edges, not R" true (t.Delta.fold_steps < 10 * m)
  | _ -> Alcotest.fail "one term"

(* A fold keeps its caller's cancellation and deadline: once the caller
   is cancelled, -E(0, 1) under a 4-edge path on K12 stops at the fold's
   first step, not at its allowance (hundreds of steps), and the state
   degrades without a recount. *)
let test_fold_cancelled () =
  let d = Delta.open_db (complete 12) in
  let st = Delta.prepare (fst (Parse.ucq "(a, b, c, d, e) :- E(a, b), E(b, c), E(c, d), E(d, e)")) d in
  let b = Budget.unlimited () in
  Budget.cancel b;
  fold_budget d st b `Delete [ 0; 1 ];
  Alcotest.(check string) "degraded" "C" (Tier.to_string (Delta.effective_tier st));
  Alcotest.(check bool) "the fold stopped at once" true (Budget.steps_done b <= 1)

let test_memoization () =
  let psi = Ucq.make [ tier_c_q ] in
  let d =
    Delta.open_db
      (Structure.make sg_e [ 0; 1; 2 ]
         [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]) ])
  in
  let st = Delta.prepare psi d in
  Alcotest.(check bool) "tier C starts unmaintained" true
    (Delta.maintained_count st d = None);
  let n = Ucq.count_naive psi (Delta.structure d) in
  Delta.memoize st d n;
  (match Delta.maintained_count st d with
  | Some (got, Delta.Memoized) -> Alcotest.(check int) "memo hit" n got
  | _ -> Alcotest.fail "expected a memoized count");
  (match
     Delta.apply d
       { Delta.op = `Delete; fact = { Delta.rel = "E"; tuple = [ 0; 1 ] } }
   with
  | Ok r ->
      Alcotest.(check bool) "changed" true r.Delta.changed;
      Delta.apply_state st d r
  | Error e -> Alcotest.fail (Ucqc_error.to_string e));
  Alcotest.(check bool) "memo invalidated by the epoch" true
    (Delta.maintained_count st d = None)

let test_missed_epoch_degrades () =
  let psi = Ucq.make [ tier_a_q ] in
  let d = Delta.open_db (Structure.make sg_rs [ 0; 1 ] []) in
  let st = Delta.prepare psi d in
  Alcotest.(check string) "starts on tier A" "A"
    (Tier.to_string (Delta.effective_tier st));
  let change rel tuple =
    match Delta.apply d { Delta.op = `Insert; fact = { Delta.rel = rel; tuple } } with
    | Ok r -> r
    | Error e -> Alcotest.fail (Ucqc_error.to_string e)
  in
  let _skipped = change "R" [ 0 ] in
  let r2 = change "S" [ 0; 1 ] in
  (* the state never saw the first change; folding in the second must
     degrade rather than serve a stale count *)
  Delta.apply_state st d r2;
  Alcotest.(check bool) "degraded" true (Delta.degraded st <> None);
  Alcotest.(check string) "effective tier C" "C"
    (Tier.to_string (Delta.effective_tier st));
  Alcotest.(check bool) "no maintained count" true
    (Delta.maintained_count st d = None)

let test_jobs_equivalence () =
  (* maintained tier-A/B counts must be bit-identical to a full
     recompute regardless of the pool the recompute runs on (the
     --jobs settings of the CLI) *)
  List.iter
    (fun (sg, psi, seed) ->
      let n = 4 in
      let d =
        Delta.open_db (Structure.make sg (List.init n (fun i -> i)) [])
      in
      let st = Delta.prepare psi d in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to 50 do
        let s = List.nth sg (Random.State.int rng (List.length sg)) in
        let tuple =
          List.init s.Signature.arity (fun _ -> Random.State.int rng n)
        in
        let op = if Random.State.bool rng then `Insert else `Delete in
        match
          Delta.apply d
            { Delta.op; fact = { Delta.rel = s.Signature.name; tuple } }
        with
        | Error e -> Alcotest.fail (Ucqc_error.to_string e)
        | Ok r -> if r.Delta.changed then Delta.apply_state st d r
      done;
      let maintained =
        match Delta.maintained_count st d with
        | Some (m, Delta.Maintained) -> m
        | _ -> Alcotest.fail "state should still be maintained"
      in
      List.iter
        (fun jobs ->
          let pool = Pool.create ~jobs () in
          match
            Runner.count ~via:Runner.Expansion ~fallback:false ~seed:1 ~pool
              ~budget:(Budget.make ()) psi (Delta.structure d)
          with
          | Ok (Runner.Exact got) ->
              Alcotest.(check int)
                (Printf.sprintf "maintained = recompute at jobs=%d" jobs)
                got maintained
          | Ok (Runner.Approximate _) | Error _ ->
              Alcotest.fail "recompute should be exact")
        [ 1; 2; 4 ])
    [
      (sg_rs, Ucq.make [ tier_a_q ], 41);
      (sg_e, Ucq.make [ tier_b_q ], 42);
    ]

let test_render_facts_roundtrip () =
  let s =
    Structure.make sg_rs [ 0; 1; 2; 5 ]
      [ ("R", [ [ 0 ]; [ 2 ] ]); ("S", [ [ 0; 1 ]; [ 2; 5 ] ]) ]
  in
  match Parse.database_result (Delta.render_facts s) with
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)
  | Ok (s', _) ->
      Alcotest.(check (list int)) "universe" (Structure.universe s)
        (Structure.universe s');
      List.iter
        (fun rel ->
          Alcotest.(check (list (list int)))
            rel
            (List.sort compare (Structure.relation s rel))
            (List.sort compare (Structure.relation s' rel)))
        [ "R"; "S" ]

(* qcheck: random update streams keep every tier's maintained count
   equal to full recomputation *)
let qcheck_delta =
  let open QCheck in
  [
    Test.make ~name:"maintained counts match recomputation" ~count:20
      (int_range 0 10_000) (fun seed ->
        let exists_s = mkq sg_rs 2 [ ("S", [ [ 0; 1 ] ]) ] [ 0 ] in
        let has_r = mkq sg_rs 1 [ ("R", [ [ 0 ] ]) ] [ 0 ] in
        drive_and_check ~seed ~steps:40 ~n:4 sg_rs
          [
            ("A", Ucq.make [ tier_a_q ]);
            ("A union", Ucq.make [ exists_s; has_r ]);
          ];
        drive_and_check ~seed:(seed + 1) ~steps:30 ~n:4 sg_e
          [ ("B", Ucq.make [ tier_b_q ]) ];
        true);
    Test.make ~name:"maintained counts match recomputation on dense databases" ~count:12
      (triple (int_range 0 10_000) (int_range 2 6) (int_range 50 95))
      (fun (seed, n, pct) ->
        (* each tuple present with probability pct / 100 *)
        let rng = Random.State.make [| seed; n; pct |] in
        let us = List.init n Fun.id in
        let init =
          Structure.make sg_e us
            [ ("E", List.filter (fun _ -> Random.State.int rng 100 < pct) (Combinat.tuples 2 us)) ]
        in
        drive_and_check ~init ~seed ~steps:12 ~n sg_e
          [
            ("2-hop", Ucq.make [ tier_b_q ]);
            ("3-edge path", Ucq.make [ path3_q ]);
            ("repeated variable", Ucq.make [ loop_q ]);
          ];
        true);
  ]

(* the first union from [seed] on that Tier.select maintains (tier A or
   B): at most six disjuncts over E and R *)
let rec maintained_ucq (seed : int) : Ucq.t =
  let psi = Qgen.random_ucq ~seed ~max_disjuncts:6 ~max_vars:4 ~max_atoms:3 sg_er in
  if (Tier.select psi).Tier.tier = Tier.C then maintained_ucq (seed + 1) else psi

(* qcheck: a tier-A/B state keeps one term per support class, and its
   count follows every update *)
let qcheck_support =
  let open QCheck in
  [
    Test.make ~name:"support terms match recomputation" ~count:40 (int_range 0 10_000) (fun seed ->
        let psi = maintained_ucq seed in
        match drive ~seed ~steps:30 ~n:4 sg_er [ ("random union", psi) ] with
        | _, [ (_, st) ] ->
            Delta.effective_tier st = (Tier.select psi).Tier.tier
            && List.length (Delta.terms st) = List.length (Ucq.support psi)
        | _ -> false);
  ]

(* fuzz: the delta-line parser is total and deterministic on corpus
   files and raw random bytes, and spans stay inside the input *)
let check_total (text : string) : unit =
  let once () =
    try Ok (Delta_parse.line text) with e -> Error (Printexc.to_string e)
  in
  match (once (), once ()) with
  | Error e, _ | _, Error e ->
      Alcotest.fail (Printf.sprintf "parser raised on %S: %s" text e)
  | Ok a, Ok b ->
      if a <> b then Alcotest.fail (Printf.sprintf "non-deterministic on %S" text);
      (match a with
      | Error (Ucqc_error.Parse_error sp) ->
          let lines = String.split_on_char '\n' text in
          let nlines = max 1 (List.length lines) in
          if
            sp.line < 1
            || sp.line > nlines + 1
            || sp.col < 1
            || sp.end_col < sp.col
            || sp.end_col > String.length text + 2
          then Alcotest.fail (Printf.sprintf "span escapes input on %S" text)
      | _ -> ())

let test_fuzz_corpus () =
  let dir =
    List.find Sys.file_exists [ "delta_corpus"; "test/delta_corpus" ]
  in
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      String.split_on_char '\n' text |> List.iter check_total)
    (Sys.readdir dir)

let qcheck_fuzz =
  let open QCheck in
  let delta_alphabet =
    Gen.oneofl
      [ '+'; '-'; 'E'; 'R'; '('; ')'; ','; '.'; ' '; '0'; '1'; '9'; '{'; '}';
        '"'; ':'; '['; ']'; '\\'; '#'; '_'; '\''; 'a'; '\t'; '\n'; '\x00';
        '\xff' ]
  in
  [
    Test.make ~name:"delta parser total on random bytes" ~count:500
      (string_gen_of_size (Gen.int_range 0 40) Gen.char) (fun s ->
        check_total s;
        true);
    Test.make ~name:"delta parser total on delta-alphabet strings" ~count:1000
      (string_gen_of_size (Gen.int_range 0 40) delta_alphabet) (fun s ->
        check_total s;
        true);
  ]

let suite =
  [
    ( "delta",
      [
        Alcotest.test_case "parse text deltas" `Quick test_parse_text;
        Alcotest.test_case "parse errors carry spans" `Quick test_parse_errors;
        Alcotest.test_case "parse NDJSON frames" `Quick test_parse_ndjson;
        Alcotest.test_case "render roundtrips" `Quick test_render_roundtrip;
        Alcotest.test_case "session epochs" `Quick test_session_epochs;
        Alcotest.test_case "session validation" `Quick test_session_validation;
        Alcotest.test_case "identifier constants resolve" `Quick
          test_resolve_constants;
        Alcotest.test_case "tier assignment" `Quick test_tier_assignment;
        Alcotest.test_case "maintained counts match recomputation" `Quick
          test_maintained_equivalence;
        Alcotest.test_case "a tier-A union keeps its support" `Quick test_tier_a_support;
        Alcotest.test_case "tier B with isolated free variable" `Quick
          test_tier_b_isolated_free;
        Alcotest.test_case "tier B union" `Quick test_tier_b_union;
        Alcotest.test_case "tier B binds paths, loops and ternary atoms" `Quick
          test_tier_b_bindings;
        Alcotest.test_case "dense deletes stop at the guard" `Quick test_dense_guard;
        Alcotest.test_case "a restriction leads a connected join" `Quick test_connected_join;
        Alcotest.test_case "a fold stops when its caller is cancelled" `Quick test_fold_cancelled;
        Alcotest.test_case "tier C memoization" `Quick test_memoization;
        Alcotest.test_case "missed epoch degrades" `Quick
          test_missed_epoch_degrades;
        Alcotest.test_case "maintained = recompute across jobs" `Quick
          test_jobs_equivalence;
        Alcotest.test_case "fuzz corpus" `Quick test_fuzz_corpus;
      ]
      @ List.map QCheck_alcotest.to_alcotest (qcheck_delta @ qcheck_support @ qcheck_fuzz) );
  ]
