(** Tests for the static analyzer: rule-by-rule unit tests on tiny
    queries, deny semantics, SARIF emission/validation, and qcheck
    properties (pretty/parse round-trip, analyzer determinism, pool
    independence). *)

let check = Analysis.check

let codes text =
  List.map (fun d -> d.Diagnostic.code) (check text).Analysis.diagnostics

let has code text = List.mem code (codes text)

let find code text =
  List.find_opt
    (fun d -> d.Diagnostic.code = code)
    (check text).Analysis.diagnostics

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Rule-by-rule unit tests                                            *)
(* ------------------------------------------------------------------ *)

let test_clean () =
  let r = check "(x, y) :- E(x, y)" in
  (* a free-connex acyclic single CQ gets only the informational
     WL-dimension and plan reports *)
  Alcotest.(check (list string)) "only the reports" [ "UCQ204"; "UCQ301" ]
    (List.map (fun d -> d.Diagnostic.code) r.Analysis.diagnostics);
  Alcotest.(check bool) "plan present" true (r.Analysis.plan <> None);
  Alcotest.(check bool) "max severity Info" true
    (Analysis.max_severity r = Some Diagnostic.Info)

let test_syntax_error () =
  let r = check "(x" in
  match r.Analysis.diagnostics with
  | [ d ] ->
      Alcotest.(check string) "code" "UCQ001" d.Diagnostic.code;
      Alcotest.(check bool) "severity Error" true
        (d.Diagnostic.severity = Diagnostic.Error);
      Alcotest.(check bool) "has a span" true (d.Diagnostic.span <> None);
      (* Error findings are denied even with no --deny specs *)
      Alcotest.(check int) "always denied" 1
        (List.length (Analysis.denied_diagnostics [] r))
  | ds -> Alcotest.failf "expected exactly UCQ001, got %d findings" (List.length ds)

let test_arity_clash () =
  let d =
    match find "UCQ002" "(x) :- E(x), E(x, x)" with
    | Some d -> d
    | None -> Alcotest.fail "UCQ002 not reported"
  in
  (* the span points at the later, conflicting atom *)
  match d.Diagnostic.span with
  | Some s ->
      Alcotest.(check int) "line" 1 s.Diagnostic.line;
      Alcotest.(check int) "col of second atom" 14 s.Diagnostic.col
  | None -> Alcotest.fail "UCQ002 span missing"

let test_occurrence_hints () =
  (* y occurs once: UCQ101 *)
  Alcotest.(check bool) "single occurrence" true (has "UCQ101" "(x) :- E(x, y)");
  (* y occurs twice but in one atom only: UCQ102 *)
  Alcotest.(check bool) "single atom" true (has "UCQ102" "(x) :- T(x, y, y)");
  (* y shared across atoms: neither hint *)
  let t = "(x) :- E(x, y), E(y, x)" in
  Alcotest.(check bool) "joining var is fine" false
    (has "UCQ101" t || has "UCQ102" t);
  (* underscore prefix opts out of both hints *)
  let t = "(x) :- T(x, _y, _y), E(x, _z)" in
  Alcotest.(check bool) "wildcard opt-out" false
    (has "UCQ101" t || has "UCQ102" t)

let test_duplicate_atom () =
  let d =
    match find "UCQ103" "(x) :- E(x, y), E(x, y), E(y, x)" with
    | Some d -> d
    | None -> Alcotest.fail "UCQ103 not reported"
  in
  Alcotest.(check bool) "warning" true
    (d.Diagnostic.severity = Diagnostic.Warning);
  Alcotest.(check bool) "span on the duplicate" true
    (match d.Diagnostic.span with Some s -> s.Diagnostic.col = 17 | None -> false)

let test_subsumed_disjunct () =
  (* every answer of disjunct 2 is an answer of disjunct 1 *)
  let t = "(x) :- E(x, y) ; E(x, y), E(y, z)" in
  Alcotest.(check bool) "UCQ104" true (has "UCQ104" t);
  Alcotest.(check bool) "not a duplicate" false (has "UCQ106" t)

let test_duplicate_disjunct () =
  (* alpha-equivalent disjuncts: equivalent over the free variables *)
  let t = "(x) :- E(x, y) ; E(x, z)" in
  Alcotest.(check bool) "UCQ106" true (has "UCQ106" t);
  Alcotest.(check bool) "no one-way subsumption" false (has "UCQ104" t)

let test_cartesian_product () =
  Alcotest.(check bool) "disjoint parts" true
    (has "UCQ105" "(x, y) :- E(x, x), E(y, y)");
  Alcotest.(check bool) "connected is fine" false
    (has "UCQ105" "(x, y) :- E(x, y), E(y, x)")

let test_unconstrained_free_var () =
  Alcotest.(check bool) "free var in no atom" true
    (has "UCQ107" "(x, y) :- E(x, x)");
  Alcotest.(check bool) "constrained is fine" false
    (has "UCQ107" "(x, y) :- E(x, y)")

let test_contract_treewidth () =
  (* quantifier-free K4: contract = Gaifman = K4, treewidth 3 > 2 *)
  let k4 =
    "(a, b, c, d) :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)"
  in
  Alcotest.(check bool) "K4 over threshold" true (has "UCQ201" k4);
  (* the triangle has contract treewidth 2: at the default threshold *)
  Alcotest.(check bool) "triangle within threshold" false
    (has "UCQ201" "(a, b, c) :- E(a, b), E(b, c), E(c, a)")

let test_free_connex_and_cyclic () =
  (* the path query: acyclic but not free-connex *)
  Alcotest.(check bool) "not free-connex" true
    (has "UCQ202" "(x, y) :- E(x, z), E(z, y)");
  (* quantifier-free triangle: cyclic, but not free-connex-diagnosed *)
  let tri = "(a, b, c) :- E(a, b), E(b, c), E(c, a)" in
  Alcotest.(check bool) "cyclic" true (has "UCQ206" tri);
  Alcotest.(check bool) "UCQ202 only fires on acyclic" false (has "UCQ202" tri)

let test_ie_blowup () =
  let union n =
    "(x) :- "
    ^ String.concat " ; "
        (List.init n (fun i -> Printf.sprintf "R%d(x)" i))
  in
  (match find "UCQ203" (union 8) with
  | Some d ->
      Alcotest.(check bool) "names 255 subsets" true
        (contains ~sub:"255" d.Diagnostic.message)
  | None -> Alcotest.fail "UCQ203 not reported at 8 disjuncts");
  Alcotest.(check bool) "below threshold" false (has "UCQ203" (union 7))

let test_quantified_union () =
  Alcotest.(check bool) "quantified union" true
    (has "UCQ205" "(x) :- E(x, y) ; E(y, x)");
  Alcotest.(check bool) "quantifier-free union" false
    (has "UCQ205" "(x, y) :- E(x, y) ; E(y, x)");
  Alcotest.(check bool) "single disjunct" false (has "UCQ205" "(x) :- E(x, y)")

let test_plan_report () =
  let r = check "(x, y) :- E(x, y) ; E(y, x)" in
  match r.Analysis.plan with
  | None -> Alcotest.fail "plan missing"
  | Some p ->
      Alcotest.(check int) "disjuncts" 2 p.Plan.disjuncts;
      Alcotest.(check int) "subsets" 3 p.Plan.subsets;
      Alcotest.(check bool) "expansion metered" true (p.Plan.expansion_steps > 0);
      Alcotest.(check bool) "acyclic support" true p.Plan.all_acyclic;
      (* outcome anchors: no limit completes; a limit at or below the
         exactly-known expansion cost exhausts *)
      Alcotest.(check bool) "unlimited is exact" true
        (Plan.predicted_outcome ~db_elems:5 ~db_tuples:10 p = Plan.Exact);
      Alcotest.(check bool) "starved falls back" true
        (Plan.predicted_outcome ~max_steps:1 ~db_elems:5 ~db_tuples:10 p
        = Plan.Fallback);
      Alcotest.(check bool) "describe mentions the method" true
        (contains ~sub:"count --via expansion" (Plan.describe p))

let test_budget_exhaustion () =
  let r =
    check ~budget:(Budget.of_steps 1) "(x) :- E(x, y), E(y, z) ; E(z, x)"
  in
  Alcotest.(check bool) "UCQ003 reported" true
    (List.exists
       (fun d -> d.Diagnostic.code = "UCQ003")
       r.Analysis.diagnostics);
  (* structural findings survive exhaustion of the semantic stage *)
  Alcotest.(check bool) "still sorted and duplicate-free" true
    (let ds = r.Analysis.diagnostics in
     List.sort_uniq Diagnostic.compare ds = ds)

(* A budget that pays for the rules before the plan but runs out inside
   its expansion: the finding names the rule that ran out. *)
let test_budget_exhaustion_in_plan () =
  let text =
    "(x) :- " ^ String.concat " ; " (List.init 8 (Printf.sprintf "R%d(x)"))
  in
  let full = Budget.unlimited () in
  let p =
    match (check ~budget:full text).Analysis.plan with
    | Some p -> p
    | None -> Alcotest.fail "plan missing under an unlimited budget"
  in
  Alcotest.(check int) "one tick per index set" 255 p.Plan.expansion_steps;
  (* the quantifier-free support is acyclic: the plan's own profiling
     ticks nothing, so the rules before it took the rest *)
  let before = Budget.steps_done full - p.Plan.expansion_steps in
  let r = check ~budget:(Budget.of_steps (before + 100)) text in
  match
    List.find_opt
      (fun d -> d.Diagnostic.code = "UCQ003")
      r.Analysis.diagnostics
  with
  | None -> Alcotest.fail "UCQ003 not reported"
  | Some d ->
      Alcotest.(check bool) "names the plan rule" true
        (contains ~sub:"in plan" d.Diagnostic.message);
      Alcotest.(check bool) "no plan" true (r.Analysis.plan = None);
      Alcotest.(check bool) "the unbudgeted UCQ203 survives" true
        (List.exists
           (fun d -> d.Diagnostic.code = "UCQ203")
           r.Analysis.diagnostics)

(* [wide_repeated l]: l disjuncts cycling through four shapes, with
   quantified variables renamed per disjunct. *)
let wide_repeated (l : int) : string =
  let shape k =
    match k mod 4 with
    | 0 -> "E(x, y)"
    | 1 -> Printf.sprintf "E(x, a%d), E(a%d, y)" k k
    | 2 -> "E(y, x)"
    | _ -> Printf.sprintf "E(x, a%d), E(y, a%d)" k k
  in
  "(x, y) :- " ^ String.concat " ; " (List.init l shape)

(* The walk ticks the default budget before it allocates or computes
   anything per index set, so a union too wide for the budget stops in
   well under a second: one #core per subset up to the 10^6th would
   take minutes, and 2^30 index lists would not fit in memory. *)
let test_wide_union_stops () =
  List.iter
    (fun l ->
      let t0 = Unix.gettimeofday () in
      let r = check (wide_repeated l) in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "l = %d: UCQ003" l)
        true
        (List.exists
           (fun d -> d.Diagnostic.code = "UCQ003")
           r.Analysis.diagnostics);
      Alcotest.(check bool)
        (Printf.sprintf "l = %d: no plan" l)
        true (r.Analysis.plan = None);
      Alcotest.(check bool)
        (Printf.sprintf "l = %d: under a second (%.2f s)" l dt)
        true (dt < 1.0))
    [ 20; 30 ];
  (* 1 lsl 64 wraps: a mask loop would run zero times and report an
     empty support *)
  let r = check (wide_repeated 64) in
  Alcotest.(check bool) "l = 64: UCQ004" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "UCQ004"
         && contains ~sub:"Invalid_argument" d.Diagnostic.message)
       r.Analysis.diagnostics);
  Alcotest.(check bool) "l = 64: no plan" true (r.Analysis.plan = None)

(* ------------------------------------------------------------------ *)
(* Deny semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_deny_parsing () =
  Alcotest.(check bool) "severity name" true
    (Diagnostic.deny_of_string "warning" = Ok (Diagnostic.At_least Diagnostic.Warning));
  Alcotest.(check bool) "case-insensitive" true
    (Diagnostic.deny_of_string "Hint" = Ok (Diagnostic.At_least Diagnostic.Hint));
  Alcotest.(check bool) "registered code" true
    (Diagnostic.deny_of_string "UCQ103" = Ok (Diagnostic.Code "UCQ103"));
  Alcotest.(check bool) "lower-case code" true
    (Diagnostic.deny_of_string "ucq103" = Ok (Diagnostic.Code "UCQ103"));
  Alcotest.(check bool) "unregistered code rejected" true
    (match Diagnostic.deny_of_string "UCQ999" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "garbage rejected" true
    (match Diagnostic.deny_of_string "sometimes" with Error _ -> true | Ok _ -> false)

let test_denied_filter () =
  let r = check "(x) :- E(x, y), E(x, y)" in
  let denied specs = Analysis.denied_diagnostics specs r in
  Alcotest.(check int) "nothing denied by default" 0 (List.length (denied []));
  Alcotest.(check bool) "deny warning catches UCQ103" true
    (List.exists
       (fun d -> d.Diagnostic.code = "UCQ103")
       (denied [ Diagnostic.At_least Diagnostic.Warning ]));
  Alcotest.(check bool) "deny by code" true
    (List.exists
       (fun d -> d.Diagnostic.code = "UCQ103")
       (denied [ Diagnostic.Code "UCQ103" ]));
  Alcotest.(check int) "deny error catches nothing here" 0
    (List.length (denied [ Diagnostic.At_least Diagnostic.Error ]))

(* ------------------------------------------------------------------ *)
(* SARIF                                                              *)
(* ------------------------------------------------------------------ *)

let test_sarif_valid () =
  let reports =
    [
      check ~path:"a.ucq" "(x) :- E(x, y), E(x, y)";
      check ~path:"b.ucq" "(x";
      check ~path:"c.ucq" "(x, y) :- E(x, y)";
    ]
  in
  let total =
    List.fold_left
      (fun n r -> n + List.length r.Analysis.diagnostics)
      0 reports
  in
  let log = Sarif.of_reports ~tool_version:"test" reports in
  (match Sarif.validate log with
  | Ok n -> Alcotest.(check int) "one result per diagnostic" total n
  | Error msg -> Alcotest.failf "emitted SARIF invalid: %s" msg);
  (* the emitted text round-trips through the in-tree JSON parser *)
  match Sarif.validate (Trace_json.parse (Sarif.to_string log)) with
  | Ok n -> Alcotest.(check int) "round-trip" total n
  | Error msg -> Alcotest.failf "round-tripped SARIF invalid: %s" msg

let test_sarif_invalid () =
  let rejects what log =
    match Sarif.validate log with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" what
  in
  rejects "a non-object" Trace_json.Null;
  rejects "a wrong version"
    (Trace_json.Obj
       [ ("version", Trace_json.Str "1.0"); ("runs", Trace_json.Arr []) ]);
  rejects "empty runs"
    (Trace_json.Obj
       [ ("version", Trace_json.Str "2.1.0"); ("runs", Trace_json.Arr []) ]);
  (* tamper with valid output: rename a result's ruleId to an undeclared
     code *)
  let log = Sarif.of_reports [ check ~path:"a.ucq" "(x" ] in
  let rec tamper = function
    | Trace_json.Obj kvs ->
        Trace_json.Obj
          (List.map
             (fun (k, v) ->
               if k = "ruleId" then (k, Trace_json.Str "UCQ999")
               else (k, tamper v))
             kvs)
    | Trace_json.Arr xs -> Trace_json.Arr (List.map tamper xs)
    | j -> j
  in
  rejects "an undeclared ruleId" (tamper log)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let sg = Generators.graph_signature

let random_query seed =
  Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 sg

let seed_arb = QCheck.int_range 0 10_000

(* Satellite property: Pretty.ucq . Parse.ucq = id modulo variable
   renaming — checked as: same shape, and the same count on random
   databases.  A quantified variable appearing in no atom is the one
   (semantically inert) thing the rendering cannot preserve, so the
   quantifier count may only shrink. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"pretty/parse round-trip (modulo renaming)"
    ~count:60 seed_arb (fun seed ->
      let psi = random_query seed in
      match Parse.ucq_result (Pretty.ucq psi) with
      | Error _ -> false
      | Ok (psi2, _) ->
          let db = Generators.random_digraph ~seed:((seed * 13) + 5) 4 9 in
          let db2 = Generators.random_digraph ~seed:((seed * 7) + 1) 5 14 in
          Ucq.length psi2 = Ucq.length psi
          && List.length (Ucq.free psi2) = List.length (Ucq.free psi)
          && Ucq.num_quantified psi2 <= Ucq.num_quantified psi
          && Ucq.count_naive psi2 db = Ucq.count_naive psi db
          && Ucq.count_naive psi2 db2 = Ucq.count_naive psi db2)

let qcheck_deterministic =
  QCheck.Test.make ~name:"analyzer is deterministic" ~count:40 seed_arb
    (fun seed ->
      let text = Pretty.ucq (random_query seed) in
      check text = check text)

let qcheck =
  [ qcheck_roundtrip; qcheck_deterministic ]

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "clean query" `Quick test_clean;
        Alcotest.test_case "UCQ001 syntax error" `Quick test_syntax_error;
        Alcotest.test_case "UCQ002 arity clash" `Quick test_arity_clash;
        Alcotest.test_case "UCQ101/102 occurrence hints" `Quick
          test_occurrence_hints;
        Alcotest.test_case "UCQ103 duplicate atom" `Quick test_duplicate_atom;
        Alcotest.test_case "UCQ104 subsumed disjunct" `Quick
          test_subsumed_disjunct;
        Alcotest.test_case "UCQ106 duplicate disjunct" `Quick
          test_duplicate_disjunct;
        Alcotest.test_case "UCQ105 cartesian product" `Quick
          test_cartesian_product;
        Alcotest.test_case "UCQ107 unconstrained free var" `Quick
          test_unconstrained_free_var;
        Alcotest.test_case "UCQ201 contract treewidth" `Quick
          test_contract_treewidth;
        Alcotest.test_case "UCQ202/206 connexity and cycles" `Quick
          test_free_connex_and_cyclic;
        Alcotest.test_case "UCQ203 IE blowup" `Quick test_ie_blowup;
        Alcotest.test_case "UCQ205 quantified union" `Quick
          test_quantified_union;
        Alcotest.test_case "UCQ301 plan report" `Quick test_plan_report;
        Alcotest.test_case "UCQ003 budget exhaustion" `Quick
          test_budget_exhaustion;
        Alcotest.test_case "UCQ003 names the plan rule" `Quick
          test_budget_exhaustion_in_plan;
        Alcotest.test_case "UCQ003 stops wide unions fast" `Quick
          test_wide_union_stops;
        Alcotest.test_case "deny parsing" `Quick test_deny_parsing;
        Alcotest.test_case "denied filter" `Quick test_denied_filter;
        Alcotest.test_case "SARIF emit + validate" `Quick test_sarif_valid;
        Alcotest.test_case "SARIF validator rejects" `Quick test_sarif_invalid;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck );
  ]
