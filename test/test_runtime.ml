(** Tests for the resource-budget layer: deterministic exhaustion, the
    engine boundaries with graceful degradation, structured errors with
    their exit codes, and the hardened parser (positions and the crash
    corpus).  All budget tests use step budgets — no sleeps, no wall-clock
    assertions. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

(** A cyclic union whose exact count is expensive enough to exhaust small
    step budgets on a dense digraph. *)
let triangle_psi () =
  Ucq.make
    [
      mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ];
      mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] [ 0; 1; 2 ];
    ]

let dense_db () = Generators.random_digraph ~seed:91 10 45

(** A random graph whose minor-min-width root lower bound is strictly
    below the min-fill upper bound (seed found by search), so the exact
    branch and bound genuinely expands nodes — and ticks the budget —
    instead of pruning at the root. *)
let searchy_graph () =
  let st = Random.State.make [| 176 |] in
  let n = 6 + Random.State.int st 8 in
  let m = n + Random.State.int st (2 * n) in
  let g = Graph.make n in
  for _ = 1 to m do
    Graph.add_edge g (Random.State.int st n) (Random.State.int st n)
  done;
  Alcotest.(check bool) "root prune gap" true
    (Treewidth.lower_bound g < fst (Treewidth.heuristic g));
  g

(* ------------------------------------------------------------------ *)
(* Budget mechanics                                                   *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.of_steps 5 in
  Budget.tick b;
  Budget.tick b;
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check int) "four done" 4 (Budget.steps_done b);
  Alcotest.(check (option int)) "one left" (Some 1) (Budget.remaining_steps b);
  (match Budget.tick b with
  | () -> Alcotest.fail "fifth tick must exhaust"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "steps recorded" 5 e.Budget.steps_done);
  (* once exhausted, stays exhausted *)
  (match Budget.check b with
  | () -> Alcotest.fail "check after exhaustion must raise"
  | exception Budget.Exhausted _ -> ())

let test_budget_bulk_ticks () =
  let b = Budget.of_steps 10 in
  Budget.ticks b 7;
  Alcotest.(check int) "bulk counted" 7 (Budget.steps_done b);
  (match Budget.ticks b 100 with
  | () -> Alcotest.fail "overdraft must exhaust"
  | exception Budget.Exhausted _ -> ());
  (* unlimited budgets never trip on steps *)
  let u = Budget.unlimited () in
  Budget.ticks u 1_000_000;
  Alcotest.(check bool) "unlimited" false (Budget.is_limited u)

let test_budget_cancel () =
  let b = Budget.unlimited () in
  Budget.tick b;
  Budget.cancel b;
  match Budget.tick b with
  | () -> Alcotest.fail "tick after cancel must raise"
  | exception Budget.Exhausted _ -> ()

(* [within] keeps its own step count but its parent's deadline and
   cancellation, and caps its steps at what the parent has left. *)
let test_budget_within () =
  let ticks_until_exhausted b =
    let n = ref 0 in
    (try
       while !n < 10_000 do
         Budget.tick b;
         incr n
       done
     with Budget.Exhausted _ -> ());
    !n
  in
  let parent = Budget.unlimited () in
  let w = Budget.within parent 5 in
  Alcotest.(check int) "its own cap" 4 (ticks_until_exhausted w);
  Alcotest.(check int) "the parent is not charged" 0 (Budget.steps_done parent);
  Alcotest.(check int) "the parent's remaining steps cap it" 2
    (ticks_until_exhausted (Budget.within (Budget.of_steps 3) 100));
  let w = Budget.within parent 100 in
  Budget.cancel parent;
  Alcotest.(check int) "the parent's cancellation stops it" 0 (ticks_until_exhausted w);
  let late = Budget.of_timeout 0. in
  Unix.sleepf 0.001;
  Alcotest.(check bool) "the parent's deadline stops it" true
    (ticks_until_exhausted (Budget.within late 10_000) <= 256)

let test_budget_run_boundary () =
  let b = Budget.of_steps 3 in
  (match
     Budget.run b ~phase:"loop" (fun () ->
         for _ = 1 to 100 do
           Budget.tick b
         done)
   with
  | Ok () -> Alcotest.fail "must exhaust"
  | Error e ->
      Alcotest.(check string) "phase label" "loop" e.Budget.phase);
  (* a fresh budget and a terminating computation succeed *)
  match Budget.run (Budget.of_steps 10) ~phase:"ok" (fun () -> 41 + 1) with
  | Ok n -> Alcotest.(check int) "value through boundary" 42 n
  | Error _ -> Alcotest.fail "must not exhaust"

(* ------------------------------------------------------------------ *)
(* Deterministic exhaustion across engines                            *)
(* ------------------------------------------------------------------ *)

(** [same_twice f] runs the budgeted computation twice from identical
    fresh budgets and insists on identical outcomes (the fault-injection
    determinism contract). *)
let same_twice (label : string) (f : Budget.t -> ('a, Budget.exhaustion) result) (n : int)
    : unit =
  let r1 = f (Budget.of_steps n) in
  let r2 = f (Budget.of_steps n) in
  Alcotest.(check bool)
    (Printf.sprintf "%s deterministic at %d steps" label n)
    true (r1 = r2)

let budgets_to_probe = [ 1; 2; 5; 17; 60; 250; 1000; 5000 ]

let test_determinism_count () =
  let psi = triangle_psi () and db = dense_db () in
  List.iter
    (same_twice "count" (fun b ->
         Budget.run b ~phase:"count" (fun () ->
             Ucq.count_via_expansion ~budget:b psi db)))
    budgets_to_probe;
  List.iter
    (same_twice "count-naive" (fun b ->
         Budget.run b ~phase:"count" (fun () -> Ucq.count_naive ~budget:b psi db)))
    budgets_to_probe

let test_determinism_treewidth () =
  let g = searchy_graph () in
  List.iter
    (same_twice "treewidth" (fun b ->
         Budget.run b ~phase:"tw" (fun () -> Treewidth.treewidth ~budget:b g)))
    budgets_to_probe

let test_determinism_wl () =
  let d1 = Generators.random_labelled_graph ~seed:5 ~labels:1 6 9 in
  let d2 = Generators.random_labelled_graph ~seed:6 ~labels:1 6 9 in
  List.iter
    (same_twice "wl" (fun b ->
         Budget.run b ~phase:"wl" (fun () -> Wl.equivalent ~budget:b ~k:2 d1 d2)))
    budgets_to_probe

let test_determinism_karp_luby () =
  let psi = triangle_psi () and db = dense_db () in
  (* same seed, no budget: identical estimates *)
  let e1 = Karp_luby.estimate ~seed:7 ~samples:500 psi db in
  let e2 = Karp_luby.estimate ~seed:7 ~samples:500 psi db in
  Alcotest.(check bool) "same seed same estimate" true (e1 = e2);
  (* budgeted: deterministic exhaustion *)
  List.iter
    (same_twice "karp-luby" (fun b ->
         Budget.run b ~phase:"kl" (fun () ->
             Karp_luby.estimate ~seed:7 ~budget:b ~samples:5000 psi db)))
    [ 1; 50; 400 ]

let test_budget_does_not_change_results () =
  (* a generous budget must be invisible in the result *)
  let psi = triangle_psi () and db = dense_db () in
  let unbudgeted = Ucq.count_via_expansion psi db in
  let b = Budget.of_steps max_int in
  Alcotest.(check int) "expansion" unbudgeted
    (Ucq.count_via_expansion ~budget:b psi db);
  Alcotest.(check int) "naive agrees" unbudgeted
    (Ucq.count_naive ~budget:(Budget.of_steps max_int) psi db)

(* ------------------------------------------------------------------ *)
(* Runner: graceful degradation and exit codes                        *)
(* ------------------------------------------------------------------ *)

let test_runner_count_fallback () =
  let psi = triangle_psi () and db = dense_db () in
  (* exact under an ample budget *)
  let exact = Ucq.count_via_expansion psi db in
  (match Runner.count ~budget:(Budget.unlimited ()) psi db with
  | Ok (Runner.Exact n) -> Alcotest.(check int) "exact" exact n
  | _ -> Alcotest.fail "ample budget must stay exact");
  (* tiny budget: degrade to a tagged Karp-Luby estimate, exit 2 *)
  let r = Runner.count ~seed:3 ~budget:(Budget.of_steps 50) psi db in
  (match r with
  | Ok (Runner.Approximate { epsilon; delta; exhausted; _ }) ->
      Alcotest.(check (float 1e-9)) "epsilon tag" Runner.default_epsilon epsilon;
      Alcotest.(check (float 1e-9)) "delta tag" Runner.default_delta delta;
      Alcotest.(check bool) "steps recorded" true (exhausted.Budget.steps_done > 0)
  | _ -> Alcotest.fail "tiny budget must degrade");
  Alcotest.(check int) "degraded exit code" 2 (Runner.count_exit_code r);
  (* fallbacks disabled: structured Budget_exhausted, exit 124 *)
  let r = Runner.count ~fallback:false ~budget:(Budget.of_steps 50) psi db in
  (match r with
  | Error (Ucqc_error.Budget_exhausted { phase; steps_done }) ->
      Alcotest.(check string) "phase" "count" phase;
      Alcotest.(check bool) "steps" true (steps_done > 0)
  | _ -> Alcotest.fail "no-fallback must surface Budget_exhausted");
  Alcotest.(check int) "exhausted exit code" 124 (Runner.count_exit_code r)

let test_runner_count_determinism () =
  (* the full boundary (including the fallback estimate) is deterministic;
     the abandoned-attempt wall time is the one field allowed to vary
     between otherwise identical runs, so zero it before comparing *)
  let strip = function
    | Ok (Runner.Approximate a) ->
        Ok
          (Runner.Approximate
             { a with abandoned = { a.abandoned with elapsed_s = 0. } })
    | r -> r
  in
  let psi = triangle_psi () and db = dense_db () in
  List.iter
    (fun n ->
      let r1 = Runner.count ~seed:11 ~budget:(Budget.of_steps n) psi db in
      let r2 = Runner.count ~seed:11 ~budget:(Budget.of_steps n) psi db in
      Alcotest.(check bool)
        (Printf.sprintf "runner deterministic at %d" n)
        true
        (strip r1 = strip r2))
    [ 1; 30; 200; 2000 ]

let test_runner_treewidth_fallback () =
  let g = searchy_graph () in
  let exact =
    match Runner.treewidth ~budget:(Budget.unlimited ()) g with
    | Ok (Runner.Exact_width w) -> w
    | _ -> Alcotest.fail "ample budget must stay exact"
  in
  let r = Runner.treewidth ~budget:(Budget.of_steps 5) g in
  (match r with
  | Ok (Runner.Heuristic { lower; upper; _ }) ->
      Alcotest.(check bool) "bounds ordered" true (lower <= upper);
      Alcotest.(check bool) "bounds bracket exact" true
        (lower <= exact && exact <= upper)
  | _ -> Alcotest.fail "tiny budget must degrade to bounds");
  Alcotest.(check int) "degraded exit" 2 (Runner.treewidth_exit_code r);
  match Runner.treewidth ~fallback:false ~budget:(Budget.of_steps 5) g with
  | Error (Ucqc_error.Budget_exhausted _) as r ->
      Alcotest.(check int) "no-fallback exit" 124 (Runner.treewidth_exit_code r)
  | _ -> Alcotest.fail "no-fallback must error"

let test_runner_wl_dimension_fallback () =
  let psi =
    Ucq.make [ mkcq 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ] [ 0; 1; 2; 3 ] ]
  in
  (match Runner.wl_dimension ~budget:(Budget.unlimited ()) psi with
  | Ok (Runner.Exact_dim k) -> Alcotest.(check int) "C4 dimension" 2 k
  | _ -> Alcotest.fail "ample budget must stay exact");
  (* a 1-step budget exhausts on the very first expansion tick *)
  match Runner.wl_dimension ~budget:(Budget.of_steps 1) psi with
  | Ok (Runner.Bounds { lower; upper; _ }) ->
      Alcotest.(check bool) "bounds bracket" true (lower <= 2 && 2 <= upper)
  | _ -> Alcotest.fail "tiny budget must degrade to Theorem 7 bounds"

let test_runner_meta () =
  let psi = triangle_psi () in
  (match Runner.decide_meta ~budget:(Budget.unlimited ()) psi with
  | Ok d -> Alcotest.(check bool) "triangles not linear" false d.Meta.linear_time
  | Error _ -> Alcotest.fail "ample budget must decide");
  (match Runner.decide_meta ~budget:(Budget.of_steps 1) psi with
  | Error (Ucqc_error.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "META has no fallback: must error");
  (* quantified input: structured Unsupported, not an escape *)
  let quantified = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ] ] in
  match Runner.decide_meta ~budget:(Budget.unlimited ()) quantified with
  | Error (Ucqc_error.Unsupported _) -> ()
  | _ -> Alcotest.fail "quantified META must report Unsupported"

(* ------------------------------------------------------------------ *)
(* Degradation ordering: step limit and deadline in the same budget    *)
(* ------------------------------------------------------------------ *)

(* An already-expired deadline is the one wall-clock configuration that
   behaves deterministically (it is past on every probe), so it can be
   combined with a step limit to pin down which limit trips first. *)

let test_budget_both_limits_ordering () =
  (* the step limit sits below the 256-tick clock-probe stride, so it
     must win even against an expired deadline *)
  let tick_until_exhausted b =
    let rec go () = Budget.tick b; go () in
    match go () with
    | (_ : unit) -> Alcotest.fail "must exhaust"
    | exception Budget.Exhausted e -> e
  in
  let b = Budget.make ~max_steps:5 ~timeout:(-1.0) () in
  let e = tick_until_exhausted b in
  Alcotest.(check int) "step limit wins below the stride" 5 e.Budget.steps_done;
  (* above the stride the expired deadline wins, at exactly the probe *)
  let b = Budget.make ~max_steps:100_000 ~timeout:(-1.0) () in
  let e = tick_until_exhausted b in
  Alcotest.(check int) "deadline wins at the probe stride" 256
    e.Budget.steps_done;
  Alcotest.(check bool) "steps remain" true
    (Budget.remaining_steps b > Some 0);
  (* same configuration twice: identical exhaustion points *)
  let probe () =
    tick_until_exhausted (Budget.make ~max_steps:100_000 ~timeout:(-1.0) ())
  in
  Alcotest.(check bool) "both-limit exhaustion deterministic" true
    (probe () = probe ());
  (* [check] probes the clock unconditionally — no stride coarsening *)
  let b = Budget.make ~max_steps:5 ~timeout:(-1.0) () in
  match Budget.check b with
  | () -> Alcotest.fail "check must see the expired deadline"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "no steps consumed" 0 e.Budget.steps_done

let test_runner_both_limits () =
  let psi = triangle_psi () and db = dense_db () in
  let both () = Budget.make ~max_steps:50 ~timeout:(-1.0) () in
  (* with fallbacks on, a doubly-dead budget still degrades: the
     Karp-Luby substitute is polynomial and deliberately un-budgeted *)
  let r = Runner.count ~seed:5 ~budget:(both ()) psi db in
  (match r with
  | Ok (Runner.Approximate { exhausted; abandoned; _ }) ->
      Alcotest.(check string) "exhausted in count phase" "count"
        exhausted.Budget.phase;
      Alcotest.(check bool) "step limit tripped below the stride" true
        (exhausted.Budget.steps_done <= 256);
      Alcotest.(check string) "abandoned phase" "count" abandoned.Runner.phase
  | _ -> Alcotest.fail "both limits tripping must still degrade");
  Alcotest.(check int) "degraded exit" 2 (Runner.count_exit_code r);
  (* degradation is reported identically on a re-run (wall time aside) *)
  let strip = function
    | Ok (Runner.Approximate a) ->
        Ok
          (Runner.Approximate
             { a with abandoned = { a.abandoned with elapsed_s = 0. } })
    | r -> r
  in
  let again = Runner.count ~seed:5 ~budget:(both ()) psi db in
  Alcotest.(check bool) "both-limit degradation deterministic" true
    (strip r = strip again);
  (* no fallback: the same exhaustion surfaces as the structured error *)
  match Runner.count ~fallback:false ~budget:(both ()) psi db with
  | Error (Ucqc_error.Budget_exhausted { phase; steps_done }) as r ->
      Alcotest.(check string) "phase" "count" phase;
      Alcotest.(check bool) "steps recorded" true (steps_done > 0);
      Alcotest.(check int) "exit 124" 124 (Runner.count_exit_code r)
  | _ -> Alcotest.fail "no-fallback must surface Budget_exhausted"

(* ------------------------------------------------------------------ *)
(* Structured errors and exit codes                                   *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let open Ucqc_error in
  Alcotest.(check int) "parse" 65
    (exit_code (parse_error_at ~line:1 ~col:2 "x"));
  Alcotest.(check int) "arity" 65
    (exit_code (Arity_mismatch { rel = "E"; expected = 1; got = 2 }));
  Alcotest.(check int) "unsupported" 65 (exit_code (Unsupported "x"));
  Alcotest.(check int) "budget" 124
    (exit_code (Budget_exhausted { phase = "p"; steps_done = 3 }));
  Alcotest.(check int) "internal" 70 (exit_code (Internal "bug"))

let test_error_rendering () =
  let open Ucqc_error in
  Alcotest.(check string) "parse message"
    "parse error at line 3, column 7: expected '('"
    (to_string
       (Parse_error
          { line = 3; col = 7; end_line = 3; end_col = 9; msg = "expected '('" }));
  Alcotest.(check string) "budget message"
    "budget exhausted in phase count after 42 steps"
    (to_string (Budget_exhausted { phase = "count"; steps_done = 42 }))

let test_guard () =
  (match Ucqc_error.guard (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "guard passes values");
  (match Ucqc_error.guard (fun () -> invalid_arg "domain") with
  | Error (Ucqc_error.Unsupported _) -> ()
  | _ -> Alcotest.fail "Invalid_argument becomes Unsupported");
  (match Ucqc_error.guard (fun () -> failwith "boom") with
  | Error (Ucqc_error.Internal _) -> ()
  | _ -> Alcotest.fail "Failure becomes Internal");
  let b = Budget.of_steps 1 in
  match Ucqc_error.guard (fun () -> Budget.tick b; Budget.tick b) with
  | Error (Ucqc_error.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "Exhausted becomes Budget_exhausted"

(* ------------------------------------------------------------------ *)
(* Parser hardening                                                   *)
(* ------------------------------------------------------------------ *)

let test_parse_positions () =
  (match Parse.ucq_result "(x, y) :- E(x, z),\n  F(z y)" with
  | Error (Ucqc_error.Parse_error { line; col; _ }) ->
      Alcotest.(check int) "line" 2 line;
      Alcotest.(check int) "col" 7 col
  | _ -> Alcotest.fail "must report the position of the bad token");
  (match Parse.ucq_result "(x) :- E(x), E(x, x)" with
  | Error (Ucqc_error.Arity_mismatch { rel; expected; got }) ->
      Alcotest.(check string) "relation" "E" rel;
      Alcotest.(check bool) "arities" true
        ((expected, got) = (1, 2) || (expected, got) = (2, 1))
  | _ -> Alcotest.fail "arity clash must be structured");
  match Parse.database_result "E(1, 2).\nE(3, ~)." with
  | Error (Ucqc_error.Parse_error { line; _ }) ->
      Alcotest.(check int) "db line" 2 line
  | _ -> Alcotest.fail "db errors must carry positions"

let test_parse_result_ok () =
  (match Parse.ucq_result "(x, y) :- E(x, y) ; E(y, x)" with
  | Ok (psi, _) -> Alcotest.(check int) "two disjuncts" 2 (Ucq.length psi)
  | Error _ -> Alcotest.fail "well-formed query must parse");
  match Parse.cq_result "(x, y) :- E(x, y) ; E(y, x)" with
  | Error (Ucqc_error.Parse_error _) -> ()
  | _ -> Alcotest.fail "cq_result must reject unions"

let test_crash_corpus () =
  (* dune runtest runs from the test directory; direct invocations of the
     binary may run from the workspace root *)
  let dir =
    List.find Sys.file_exists [ "crash_corpus"; "test/crash_corpus" ]
  in
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Alcotest.(check bool) "corpus present" true (Array.length entries >= 10);
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let text =
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let result =
        if String.length name >= 3 && String.sub name 0 3 = "db_" then
          Result.map (fun _ -> ()) (Parse.database_result text)
        else Result.map (fun _ -> ()) (Parse.ucq_result text)
      in
      match result with
      | Error _ -> () (* structured error: the contract *)
      | Ok () -> Alcotest.failf "corpus input %s parsed successfully" name
      | exception e ->
          Alcotest.failf "corpus input %s escaped with %s" name
            (Printexc.to_string e))
    entries

let suite =
  [
    ( "runtime",
      [
        Alcotest.test_case "budget steps" `Quick test_budget_steps;
        Alcotest.test_case "budget bulk ticks" `Quick test_budget_bulk_ticks;
        Alcotest.test_case "budget cancel" `Quick test_budget_cancel;
        Alcotest.test_case "budget within" `Quick test_budget_within;
        Alcotest.test_case "run boundary" `Quick test_budget_run_boundary;
        Alcotest.test_case "count determinism" `Quick test_determinism_count;
        Alcotest.test_case "treewidth determinism" `Quick
          test_determinism_treewidth;
        Alcotest.test_case "wl determinism" `Quick test_determinism_wl;
        Alcotest.test_case "karp-luby determinism" `Quick
          test_determinism_karp_luby;
        Alcotest.test_case "budget invisible in results" `Quick
          test_budget_does_not_change_results;
        Alcotest.test_case "runner count fallback" `Quick
          test_runner_count_fallback;
        Alcotest.test_case "runner count determinism" `Quick
          test_runner_count_determinism;
        Alcotest.test_case "runner treewidth fallback" `Quick
          test_runner_treewidth_fallback;
        Alcotest.test_case "runner wl-dimension fallback" `Quick
          test_runner_wl_dimension_fallback;
        Alcotest.test_case "runner meta" `Quick test_runner_meta;
        Alcotest.test_case "both limits ordering" `Quick
          test_budget_both_limits_ordering;
        Alcotest.test_case "runner both limits" `Quick test_runner_both_limits;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "error rendering" `Quick test_error_rendering;
        Alcotest.test_case "guard" `Quick test_guard;
        Alcotest.test_case "parse positions" `Quick test_parse_positions;
        Alcotest.test_case "parse result api" `Quick test_parse_result_ok;
        Alcotest.test_case "crash corpus" `Quick test_crash_corpus;
      ] );
  ]
