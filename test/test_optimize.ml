(** Tests for the count-preserving cover optimizer: unit tests for each
    rewrite rule, fix-payload round-trips, and the qcheck properties the
    optimizer is sold on — [count (optimize psi) = count psi]
    bit-identical across every engine and pool size, plus the
    UCQ104/UCQ106 detection oracle against the hom engine directly. *)

let parse_ucq text =
  match Parse.ucq_result text with
  | Ok (psi, _) -> psi
  | Error e -> Alcotest.failf "parse failed: %s" (Ucqc_error.to_string e)

let counts_equal ?(seeds = 6) psi psi' =
  let ok = ref true in
  for seed = 0 to seeds - 1 do
    let db = Generators.random_digraph ~seed 4 10 in
    if Ucq.count_naive psi db <> Ucq.count_naive psi' db then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Rewrite rules, one by one                                          *)
(* ------------------------------------------------------------------ *)

let test_duplicate_drop () =
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, z)" in
  let r = Optimize.run psi in
  Alcotest.(check bool) "changed" true r.Optimize.changed;
  Alcotest.(check int) "one disjunct left" 1 (Ucq.length r.Optimize.optimized);
  Alcotest.(check (list int)) "kept the first" [ 0 ] r.Optimize.kept;
  (match r.Optimize.rewrites with
  | [ Optimize.Drop_duplicate { index = 1; by = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly Drop_duplicate of disjunct 2 by 1");
  Alcotest.(check bool) "count preserved" true
    (counts_equal psi r.Optimize.optimized)

let test_subsumed_drop () =
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, y), E(y, z)" in
  let r = Optimize.run psi in
  Alcotest.(check bool) "changed" true r.Optimize.changed;
  Alcotest.(check int) "one disjunct left" 1 (Ucq.length r.Optimize.optimized);
  (match
     List.find_opt
       (function Optimize.Drop_subsumed { index = 1; by = 0; map } ->
           (* the recorded witness must actually be a homomorphism *)
           let ds = Array.of_list (Ucq.disjunct_structures psi) in
           let fixed = List.map (fun v -> (v, v)) (Ucq.free psi) in
           Hom.verify ~fixed ds.(0) ds.(1) map
         | _ -> false)
       r.Optimize.rewrites
   with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a verified Drop_subsumed of disjunct 2");
  Alcotest.(check bool) "count preserved" true
    (counts_equal psi r.Optimize.optimized)

let test_minimize () =
  (* E(x,y) ∧ E(x,z) retracts to E(x,y) fixing the free x *)
  let psi = parse_ucq "(x) :- E(x, y), E(x, z)" in
  let r = Optimize.run psi in
  Alcotest.(check bool) "changed" true r.Optimize.changed;
  Alcotest.(check int) "still one disjunct" 1 (Ucq.length r.Optimize.optimized);
  Alcotest.(check int) "one atom left" 1 (Ucq.num_atoms r.Optimize.optimized);
  (match r.Optimize.rewrites with
  | [ Optimize.Minimize { index = 0; atoms_before = 2; atoms_after = 1; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected exactly Minimize of disjunct 1, 2 -> 1 atoms");
  Alcotest.(check bool) "count preserved" true
    (counts_equal psi r.Optimize.optimized)

let test_identity_on_minimal () =
  let psi = parse_ucq "(x, y) :- E(x, y)" in
  let r = Optimize.run psi in
  Alcotest.(check bool) "not changed" false r.Optimize.changed;
  Alcotest.(check bool) "physically the input" true
    (r.Optimize.optimized == psi);
  Alcotest.(check bool) "complete" true r.Optimize.complete;
  Alcotest.(check int) "no rewrites" 0 (List.length r.Optimize.rewrites)

let test_never_empty () =
  (* three pairwise-equivalent disjuncts: the cover must keep one *)
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, z) ; E(x, w)" in
  let r = Optimize.run psi in
  Alcotest.(check int) "one survivor" 1 (Ucq.length r.Optimize.optimized);
  Alcotest.(check bool) "count preserved" true
    (counts_equal psi r.Optimize.optimized)

let test_metrics () =
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, y), E(y, z) ; E(x, w)" in
  let r = Optimize.run psi in
  Alcotest.(check int) "disjuncts removed" 2 (Optimize.disjuncts_removed r);
  Alcotest.(check int) "atoms removed" 3 (Optimize.atoms_removed r);
  let before, after = Optimize.expansion_subsets r in
  Alcotest.(check (pair int int)) "2^l - 1 subsets" (7, 1) (before, after)

(* ------------------------------------------------------------------ *)
(* Analyzer hints and diagnostics                                     *)
(* ------------------------------------------------------------------ *)

let test_hints_agree () =
  let text = "(x) :- E(x, y) ; E(x, y), E(y, z) ; E(x, w)" in
  let psi = parse_ucq text in
  let hints = (Analysis.check text).Analysis.diagnostics in
  Alcotest.(check bool) "analysis produced witnesses" true
    (List.exists (fun d -> d.Diagnostic.witness <> None) hints);
  let with_hints = Optimize.run ~hints psi in
  let without = Optimize.run psi in
  Alcotest.(check bool) "hinted run = unhinted run" true
    (with_hints = without)

let test_diagnostics_rendered () =
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, y), E(y, z) ; E(x, w)" in
  let r = Optimize.run psi in
  let ds = Optimize.diagnostics r in
  let codes = List.map (fun d -> d.Diagnostic.code) ds in
  Alcotest.(check bool) "UCQ401 present" true (List.mem "UCQ401" codes);
  Alcotest.(check bool) "UCQ402 present" true (List.mem "UCQ402" codes);
  Alcotest.(check bool) "UCQ404 present" true (List.mem "UCQ404" codes);
  (* with a span the UCQ404 carries the machine-applicable fix *)
  let span =
    { Diagnostic.line = 1; col = 1; end_line = 1; end_col = 44 }
  in
  let d404 =
    List.find
      (fun d -> d.Diagnostic.code = "UCQ404")
      (Optimize.diagnostics ~span r)
  in
  match d404.Diagnostic.fix with
  | Some { Diagnostic.replacements = [ { Diagnostic.text; _ } ]; _ } ->
      Alcotest.(check bool) "fix text parses back, count-equal" true
        (counts_equal psi (parse_ucq text))
  | _ -> Alcotest.fail "UCQ404 with a span must carry a one-replacement fix"

let test_analysis_fix_parses_back () =
  let text = "(x) :- E(x, y) ; E(x, y), E(y, z)" in
  let psi = parse_ucq text in
  let r = Analysis.check text in
  let d =
    match
      List.find_opt
        (fun d -> d.Diagnostic.code = "UCQ104")
        r.Analysis.diagnostics
    with
    | Some d -> d
    | None -> Alcotest.fail "UCQ104 not reported"
  in
  match d.Diagnostic.fix with
  | Some { Diagnostic.replacements = [ { Diagnostic.text = t; _ } ]; _ } ->
      Alcotest.(check bool) "fix parses back, count-equal" true
        (counts_equal psi (parse_ucq t))
  | _ -> Alcotest.fail "UCQ104 must carry a one-replacement fix"

let test_sarif_fixes () =
  let reports =
    [
      Analysis.check ~path:"red.ucq" "(x) :- E(x, y) ; E(x, y), E(y, z)";
      Analysis.check ~path:"dup.ucq" "(x) :- E(x, y) ; E(x, z)";
    ]
  in
  let log = Sarif.of_reports ~tool_version:"test" reports in
  (match Sarif.validate log with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "SARIF with fixes invalid: %s" msg);
  (* the fixes survive the textual round-trip too *)
  match Sarif.validate (Trace_json.parse (Sarif.to_string log)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "round-tripped SARIF invalid: %s" msg

(* ------------------------------------------------------------------ *)
(* Runner integration                                                 *)
(* ------------------------------------------------------------------ *)

let test_runner_optimize () =
  let psi = parse_ucq "(x) :- E(x, y) ; E(x, y), E(y, z) ; E(x, w)" in
  let db = Generators.random_digraph ~seed:3 6 15 in
  let run ~optimize =
    match
      Runner.count ~optimize ~select:optimize
        ~budget:(Budget.of_steps 10_000_000) psi db
    with
    | Ok (Runner.Exact n) -> n
    | Ok (Runner.Approximate _) -> Alcotest.fail "unexpected degradation"
    | Error e -> Alcotest.failf "runner failed: %s" (Ucqc_error.to_string e)
  in
  Alcotest.(check int) "optimized = unoptimized" (run ~optimize:false)
    (run ~optimize:true)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let sg = Generators.graph_signature
let seed_arb = QCheck.int_range 0 10_000
let pool4 = lazy (Pool.create ~jobs:4 ())

let random_query seed =
  Qgen.random_ucq ~seed ~max_disjuncts:4 ~max_vars:4 ~max_atoms:3 sg

(* The tentpole property: the rewrite is count-preserving bit-for-bit,
   under every engine and every pool size. *)
let qcheck_count_preserved =
  QCheck.Test.make ~name:"count (optimize psi) = count psi, all engines"
    ~count:80 seed_arb (fun seed ->
      let psi = random_query seed in
      let opt = (Optimize.run psi).Optimize.optimized in
      let db = Generators.random_digraph ~seed:((seed * 19) + 11) 4 9 in
      let naive = Ucq.count_naive psi db in
      let pool = Lazy.force pool4 in
      Ucq.count_naive opt db = naive
      && Ucq.count_inclusion_exclusion opt db = naive
      && Ucq.count_via_expansion opt db = naive
      && Ucq.count_inclusion_exclusion ~pool opt db = naive
      && Ucq.count_via_expansion ~pool opt db = naive)

let qcheck_total_deterministic =
  QCheck.Test.make ~name:"optimizer is total and deterministic" ~count:80
    seed_arb (fun seed ->
      let psi = random_query seed in
      match Optimize.run psi with
      | r ->
          r = Optimize.run psi
          && Ucq.length r.Optimize.optimized >= 1
          && List.length r.Optimize.kept = Ucq.length r.Optimize.optimized
      | exception _ -> false)

(* Satellite 3: the analyzer's UCQ104/UCQ106 verdicts against the hom
   engine driven directly — same homomorphism questions, independent
   code path — and the verdicts must not depend on --jobs. *)
let subsumption_codes (r : Analysis.report) : (string * int) list =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      match (d.Diagnostic.code, d.Diagnostic.witness) with
      | (("UCQ104" | "UCQ106") as c), Some (Diagnostic.Hom_witness w) ->
          Some (c, w.target)
      | ("UCQ104" | "UCQ106"), _ ->
          Alcotest.fail "subsumption finding without a hom witness"
      | _ -> None)
    r.Analysis.diagnostics

let qcheck_detection_oracle =
  QCheck.Test.make ~name:"UCQ104/106 agree with the hom-engine oracle"
    ~count:60 seed_arb (fun seed ->
      let psi = random_query seed in
      let text = Pretty.ucq psi in
      (* the analyzer re-parses, so the oracle must too (same interning) *)
      match Parse.ucq_result text with
      | Error _ -> QCheck.assume_fail ()
      | Ok (psi, _) ->
          let ds = Array.of_list (Ucq.disjunct_structures psi) in
          let n = Array.length ds in
          let fixed = List.map (fun v -> (v, v)) (Ucq.free psi) in
          let hom i j = Hom.exists ~fixed ds.(i) ds.(j) in
          let expected = ref [] in
          for j = n - 1 downto 0 do
            let dup = ref false and sub = ref false in
            for i = 0 to n - 1 do
              if i <> j && hom i j then
                if hom j i then (if i < j then dup := true) else sub := true
            done;
            if !dup then expected := ("UCQ106", j) :: !expected
            else if !sub then expected := ("UCQ104", j) :: !expected
          done;
          subsumption_codes (Analysis.check text) = !expected)

(* Every dropped disjunct is also count-dead: deleting it alone does not
   change the count (the per-rewrite soundness claim, checked directly). *)
let qcheck_drops_are_dead =
  QCheck.Test.make ~name:"each dropped disjunct contributes no answers"
    ~count:60 seed_arb (fun seed ->
      let psi = random_query seed in
      let r = Optimize.run psi in
      let dropped =
        List.filter_map
          (function
            | Optimize.Drop_subsumed { index; _ }
            | Optimize.Drop_duplicate { index; _ } ->
                Some index
            | Optimize.Minimize _ -> None)
          r.Optimize.rewrites
      in
      dropped = []
      ||
      let db = Generators.random_digraph ~seed:((seed * 23) + 7) 4 9 in
      List.for_all
        (fun j ->
          let without =
            Ucq.make (List.filteri (fun k _ -> k <> j) (Ucq.disjuncts psi))
          in
          Ucq.count_naive without db = Ucq.count_naive psi db)
        dropped)

(* ------------------------------------------------------------------ *)
(* check --optimize: UCQ405                                           *)
(* ------------------------------------------------------------------ *)

let codes (r : Analysis.report) =
  List.map (fun d -> d.Diagnostic.code) r.Analysis.diagnostics

let tier_change text =
  let r = Analysis.check text in
  (r, Optimize.with_tier_change r (parse_ucq text))

let test_ucq405_fires () =
  (* the subsumed disjunct keeps the union from being q-hierarchical *)
  let r, r' = tier_change "(x) :- R(x), S(x, y) ; R(x), S(x, y), E(y, z)" in
  Alcotest.(check bool) "absent as written" false (List.mem "UCQ405" (codes r));
  match
    List.filter (fun d -> d.Diagnostic.code = "UCQ405") r'.Analysis.diagnostics
  with
  | [ d ] ->
      Alcotest.(check string) "names both tiers"
        "maintenance tier changes under --optimize: tier B as written, tier \
         A after the count-preserving rewrite (exhaustively q-hierarchical: \
         every combined query admits constant-time maintenance)"
        d.Diagnostic.message;
      Alcotest.(check (list string)) "every other finding kept"
        (List.sort compare ("UCQ405" :: codes r))
        (List.sort compare (codes r'))
  | _ -> Alcotest.fail "expected exactly one UCQ405"

let test_ucq405_unchanged_query () =
  let r, r' = tier_change "(x, y) :- E(x, z), E(z, y)" in
  Alcotest.(check (list string)) "minimal query: report unchanged" (codes r)
    (codes r')

let test_ucq405_same_tier () =
  (* the #core drops E(x, w), but both spellings are tier B *)
  let text = "(x, y) :- E(x, z), E(z, y), E(x, w)" in
  Alcotest.(check bool) "the rewrite changes the query" true
    (Optimize.run (parse_ucq text)).Optimize.changed;
  let r, r' = tier_change text in
  Alcotest.(check (list string)) "same tier: report unchanged" (codes r)
    (codes r')

let qcheck =
  [
    qcheck_count_preserved;
    qcheck_total_deterministic;
    qcheck_detection_oracle;
    qcheck_drops_are_dead;
  ]

let suite =
  [
    ( "optimize",
      [
        Alcotest.test_case "duplicate disjunct dropped" `Quick
          test_duplicate_drop;
        Alcotest.test_case "subsumed disjunct dropped" `Quick
          test_subsumed_drop;
        Alcotest.test_case "disjunct minimized to #core" `Quick test_minimize;
        Alcotest.test_case "identity on minimal query" `Quick
          test_identity_on_minimal;
        Alcotest.test_case "cover never empties the union" `Quick
          test_never_empty;
        Alcotest.test_case "shrink metrics" `Quick test_metrics;
        Alcotest.test_case "analyzer hints agree with cold run" `Quick
          test_hints_agree;
        Alcotest.test_case "UCQ40x diagnostics and fix" `Quick
          test_diagnostics_rendered;
        Alcotest.test_case "UCQ104 fix parses back" `Quick
          test_analysis_fix_parses_back;
        Alcotest.test_case "SARIF fixes validate" `Quick test_sarif_fixes;
        Alcotest.test_case "Runner --optimize equivalence" `Quick
          test_runner_optimize;
        Alcotest.test_case "UCQ405 fires on a tier change" `Quick
          test_ucq405_fires;
        Alcotest.test_case "UCQ405 silent without a rewrite" `Quick
          test_ucq405_unchanged_query;
        Alcotest.test_case "UCQ405 silent when the tier holds" `Quick
          test_ucq405_same_tier;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck );
  ]
