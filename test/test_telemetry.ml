(** Tests for the telemetry layer: span nesting/ordering invariants,
    Chrome-trace export validity (via the in-tree validator CI also
    uses), metric-count determinism under parallel merge, the abandoned-
    attempt accounting of the Runner, and the no-op cost contract
    (byte-identical solver output, zero allocations on the counter hot
    path). *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

let psi_union () =
  Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]

(* big enough that a 40-step budget exhausts mid-sweep *)
let psi_heavy () =
  Ucq.make
    [
      mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ];
      mkcq 3 [ [ 1; 0 ] ] [ 0; 1; 2 ];
    ]

(* every test must leave telemetry off and empty for its neighbours *)
let scoped (f : unit -> 'a) : 'a =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  scoped (fun () ->
      Telemetry.with_span "outer" (fun () ->
          Alcotest.(check (list string)) "stack inside outer" [ "outer" ]
            (Telemetry.current_stack ());
          Telemetry.with_span "inner" (fun () ->
              Alcotest.(check (list string)) "stack inside inner"
                [ "inner"; "outer" ] (Telemetry.current_stack ()));
          Alcotest.(check (list string)) "inner popped" [ "outer" ]
            (Telemetry.current_stack ()));
      Alcotest.(check (list string)) "all popped" []
        (Telemetry.current_stack ());
      let stats = Telemetry.span_stats () in
      let find n =
        List.find_opt (fun s -> s.Telemetry.sname = n) stats
      in
      Alcotest.(check bool) "outer recorded" true (find "outer" <> None);
      Alcotest.(check bool) "inner recorded" true (find "inner" <> None);
      let outer = Option.get (find "outer") in
      let inner = Option.get (find "inner") in
      Alcotest.(check int) "outer called once" 1 outer.Telemetry.calls;
      Alcotest.(check bool) "outer time includes inner (inclusive)" true
        (outer.Telemetry.total_ns >= inner.Telemetry.total_ns))

let test_span_closed_on_exception () =
  scoped (fun () ->
      (try
         Telemetry.with_span "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (list string)) "stack popped after raise" []
        (Telemetry.current_stack ());
      (* B/E balance survives the exception: the export must validate *)
      let tmp = Filename.temp_file "ucqc_trace" ".json" in
      let oc = open_out tmp in
      Telemetry.export_chrome_trace oc;
      close_out oc;
      let v = Trace_json.parse_file tmp in
      Sys.remove tmp;
      match Trace_json.validate_chrome_trace v with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("trace invalid after exception: " ^ msg))

let test_span_budget_delta () =
  scoped (fun () ->
      let b = Budget.of_steps 1_000 in
      ignore
        (Budget.run b ~phase:"t" (fun () ->
             Telemetry.with_span ~budget:b "ticking" (fun () ->
                 for _ = 1 to 42 do
                   Budget.tick b
                 done)));
      let st =
        List.find
          (fun s -> s.Telemetry.sname = "ticking")
          (Telemetry.span_stats ())
      in
      Alcotest.(check int) "steps delta attributed to the span" 42
        st.Telemetry.steps)

let test_disabled_spans_invisible () =
  Telemetry.reset ();
  (* telemetry off: no stack, no events, no metric movement *)
  Telemetry.with_span "ghost" (fun () ->
      Alcotest.(check (list string)) "no stack when off" []
        (Telemetry.current_stack ()));
  let c = Telemetry.counter "test.ghost" in
  Telemetry.incr c;
  Alcotest.(check int) "counter frozen when off" 0 (Telemetry.counter_value c);
  Alcotest.(check bool) "no spans recorded when off" true
    (Telemetry.span_stats () = [])

let test_chrome_trace_valid () =
  scoped (fun () ->
      let psi = psi_union () in
      let db = Generators.random_digraph ~seed:5 5 12 in
      ignore (Ucq.count_via_expansion psi db);
      ignore (Ucq.count_inclusion_exclusion psi db);
      let tmp = Filename.temp_file "ucqc_trace" ".json" in
      let oc = open_out tmp in
      Telemetry.export_chrome_trace oc;
      close_out oc;
      let v = Trace_json.parse_file tmp in
      Sys.remove tmp;
      match Trace_json.validate_chrome_trace v with
      | Ok n -> Alcotest.(check bool) "events present" true (n > 0)
      | Error msg -> Alcotest.fail msg)

let test_metrics_export_well_formed () =
  scoped (fun () ->
      let c = Telemetry.counter "test.export" in
      Telemetry.add c 7;
      let h = Telemetry.histogram "test.h" in
      Telemetry.observe h 0.5;
      Telemetry.observe h 1024.;
      let g = Telemetry.gauge "test.g" in
      Telemetry.set_gauge g 3.25;
      let tmp = Filename.temp_file "ucqc_metrics" ".json" in
      let oc = open_out tmp in
      Telemetry.export_metrics oc;
      close_out oc;
      let v = Trace_json.parse_file tmp in
      Sys.remove tmp;
      match Trace_json.member "counters" v with
      | Some (Trace_json.Obj kvs) ->
          Alcotest.(check bool) "exported counter present" true
            (List.assoc_opt "test.export" kvs = Some (Trace_json.Num 7.))
      | _ -> Alcotest.fail "metrics JSON missing counters object")

(* ------------------------------------------------------------------ *)
(* Runner abandoned-attempt accounting                                *)
(* ------------------------------------------------------------------ *)

let test_runner_abandoned_capture () =
  let psi = psi_heavy () in
  let db = Generators.random_digraph ~seed:71 6 14 in
  match
    Runner.count ~via:Runner.Naive ~budget:(Budget.of_steps 40) psi db
  with
  | Ok (Runner.Approximate { abandoned; exhausted; _ }) ->
      Alcotest.(check string) "abandoned phase" "count"
        abandoned.Runner.phase;
      Alcotest.(check bool) "abandoned steps recorded" true
        (abandoned.Runner.steps > 0);
      Alcotest.(check bool) "abandoned steps within exhaustion total" true
        (abandoned.Runner.steps <= exhausted.Budget.steps_done);
      Alcotest.(check bool) "elapsed non-negative" true
        (abandoned.Runner.elapsed_s >= 0.)
  | other ->
      Alcotest.fail
        (match other with
        | Ok (Runner.Exact _) -> "expected degradation, got exact"
        | Error _ -> "expected degradation, got error"
        | _ -> "unexpected outcome")

let test_runner_degraded_event () =
  scoped (fun () ->
      let psi = psi_heavy () in
      let db = Generators.random_digraph ~seed:71 6 14 in
      (match
         Runner.count ~via:Runner.Naive ~budget:(Budget.of_steps 40) psi db
       with
      | Ok (Runner.Approximate _) -> ()
      | _ -> Alcotest.fail "expected degradation");
      let tmp = Filename.temp_file "ucqc_trace" ".json" in
      let oc = open_out tmp in
      Telemetry.export_chrome_trace oc;
      close_out oc;
      let v = Trace_json.parse_file tmp in
      Sys.remove tmp;
      match Trace_json.member "traceEvents" v with
      | Some (Trace_json.Arr evs) ->
          let is_degraded ev =
            Trace_json.member "name" ev
            = Some (Trace_json.Str "runner.degraded")
          in
          Alcotest.(check bool) "runner.degraded event emitted" true
            (List.exists is_degraded evs)
      | _ -> Alcotest.fail "no traceEvents")

(* ------------------------------------------------------------------ *)
(* No-op cost contract                                                *)
(* ------------------------------------------------------------------ *)

let test_noop_identical_output () =
  (* the solver must produce the same numbers with telemetry off as a
     never-enabled run; this runs with telemetry genuinely off *)
  Telemetry.reset ();
  let psi = psi_union () in
  let db = Generators.random_digraph ~seed:9 5 12 in
  let base = Ucq.count_via_expansion psi db in
  scoped (fun () -> ignore (Ucq.count_via_expansion psi db));
  Alcotest.(check int) "count unchanged after a traced run" base
    (Ucq.count_via_expansion psi db);
  Alcotest.(check int) "IE count unchanged"
    (Ucq.count_inclusion_exclusion psi db)
    (scoped (fun () -> Ucq.count_inclusion_exclusion psi db))

let test_noop_zero_alloc_counters () =
  (* with telemetry off, the counter hot path (one atomic flag read)
     must not allocate: compare minor-heap words around a tight loop *)
  Telemetry.reset ();
  let c = Telemetry.counter "test.hot" in
  (* warm up: force any lazy initialisation *)
  for _ = 1 to 100 do
    Telemetry.incr c
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Telemetry.incr c;
    Telemetry.add c 3
  done;
  let after = Gc.minor_words () in
  let allocated = int_of_float (after -. before) in
  Alcotest.(check bool)
    (Printf.sprintf "no-op counter path allocates nothing (got %d words)"
       allocated)
    true (allocated = 0);
  Alcotest.(check int) "and records nothing" 0 (Telemetry.counter_value c)

let test_disabled_span_no_events () =
  (* with_span when off must not touch domain state: stack stays empty,
     span_stats stays empty even after re-enabling *)
  Telemetry.reset ();
  Telemetry.with_span "off1" (fun () ->
      Telemetry.with_span "off2" (fun () -> ()));
  Telemetry.enable ();
  Alcotest.(check bool) "nothing recorded from disabled spans" true
    (Telemetry.span_stats () = []);
  Telemetry.disable ();
  Telemetry.reset ()

(* ------------------------------------------------------------------ *)
(* Parallel-merge determinism (qcheck)                                *)
(* ------------------------------------------------------------------ *)

let qcheck_telemetry =
  let open QCheck in
  [
    Test.make ~name:"metric counts deterministic under jobs>1" ~count:15
      (int_range 0 10_000)
      (fun seed ->
        let psi =
          Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:3 ~max_atoms:3 sg_e
        in
        let db = Generators.random_digraph ~seed:(seed + 3) 5 10 in
        let run pool =
          scoped (fun () ->
              ignore (Ucq.count_via_expansion ?pool psi db);
              ( Telemetry.counter_value (Telemetry.counter "ucq.ie.terms"),
                Telemetry.counter_value
                  (Telemetry.counter "ucq.expansion.classes") ))
        in
        let seq = run None in
        let par = run (Some (Pool.create ~jobs:4 ())) in
        let par' = run (Some (Pool.create ~jobs:4 ())) in
        (* counts are scheduling-independent: sequential = parallel, and
           parallel runs agree with each other *)
        seq = par && par = par');
    Test.make ~name:"parallel span merge balances B/E per domain" ~count:10
      (int_range 0 10_000)
      (fun seed ->
        let psi =
          Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:3 ~max_atoms:3 sg_e
        in
        let db = Generators.random_digraph ~seed:(seed + 7) 5 10 in
        scoped (fun () ->
            ignore
              (Ucq.count_inclusion_exclusion
                 ~pool:(Pool.create ~jobs:4 ())
                 psi db);
            let tmp = Filename.temp_file "ucqc_trace" ".json" in
            let oc = open_out tmp in
            Telemetry.export_chrome_trace oc;
            close_out oc;
            let v = Trace_json.parse_file tmp in
            Sys.remove tmp;
            match Trace_json.validate_chrome_trace v with
            | Ok _ -> true
            | Error _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Histogram edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_histogram_empty () =
  scoped (fun () ->
      let h = Telemetry.histogram "t.empty" in
      let s = Telemetry.histogram_snapshot h in
      Alcotest.(check int) "empty count" 0 s.Telemetry.hs_count;
      Alcotest.(check (float 0.)) "empty sum" 0. s.Telemetry.hs_sum;
      Alcotest.(check int) "no bucket populated" 0
        (Array.fold_left ( + ) 0 s.Telemetry.hs_counts);
      Alcotest.(check (float 0.)) "empty quantile is 0" 0.
        (Telemetry.quantile_of_counts s.Telemetry.hs_counts 0.99))

let test_histogram_single_sample () =
  scoped (fun () ->
      let h = Telemetry.histogram "t.single" in
      Telemetry.observe h 3.5;
      let s = Telemetry.histogram_snapshot h in
      Alcotest.(check int) "one sample" 1 s.Telemetry.hs_count;
      Alcotest.(check (float 1e-6)) "sum is the sample" 3.5
        s.Telemetry.hs_sum;
      Alcotest.(check int) "exactly one bucket" 1
        (Array.fold_left ( + ) 0 s.Telemetry.hs_counts);
      (* every quantile of a single sample reports that bucket's edge *)
      let p50 = Telemetry.quantile_of_counts s.Telemetry.hs_counts 0.5 in
      let p99 = Telemetry.quantile_of_counts s.Telemetry.hs_counts 0.99 in
      Alcotest.(check (float 0.)) "p50 = p99 for one sample" p50 p99;
      Alcotest.(check bool) "edge bounds the sample" true (p50 >= 3.5))

let test_histogram_max_bucket_overflow () =
  scoped (fun () ->
      let h = Telemetry.histogram "t.overflow" in
      (* far past the top bucket's range (2^31): both must clamp into
         bucket 63 instead of raising or indexing out of bounds *)
      Telemetry.observe h 1e10;
      Telemetry.observe h 4e10;
      let s = Telemetry.histogram_snapshot h in
      Alcotest.(check int) "both counted" 2 s.Telemetry.hs_count;
      Alcotest.(check int) "both in the top bucket" 2
        s.Telemetry.hs_counts.(63);
      Alcotest.(check bool) "sum survives" true
        (Float.abs (s.Telemetry.hs_sum -. 5e10) < 1.))

let test_histogram_cross_domain_merge () =
  scoped (fun () ->
      let h = Telemetry.histogram "t.domains" in
      let per = 5000 in
      (* two domains observing concurrently: the atomic buckets must
         lose nothing, and the per-bucket totals are deterministic
         (set-of-observations determined, order independent) *)
      let worker lo =
        Domain.spawn (fun () ->
            for i = lo to lo + per - 1 do
              Telemetry.observe h (float_of_int ((i mod 1000) + 1))
            done)
      in
      let d1 = worker 0 and d2 = worker per in
      Domain.join d1;
      Domain.join d2;
      let s = Telemetry.histogram_snapshot h in
      Alcotest.(check int) "no observation lost" (2 * per)
        s.Telemetry.hs_count;
      Alcotest.(check int) "buckets sum to the count" (2 * per)
        (Array.fold_left ( + ) 0 s.Telemetry.hs_counts);
      (* the same observations sequentially: bucket-for-bucket equal *)
      let h' = Telemetry.histogram "t.domains.seq" in
      for i = 0 to (2 * per) - 1 do
        Telemetry.observe h' (float_of_int ((i mod 1000) + 1))
      done;
      let s' = Telemetry.histogram_snapshot h' in
      Alcotest.(check (array int)) "merge deterministic"
        s'.Telemetry.hs_counts s.Telemetry.hs_counts;
      Alcotest.(check (float 1e-3)) "sums agree" s'.Telemetry.hs_sum
        s.Telemetry.hs_sum)

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "span nesting and stats" `Quick test_span_nesting;
        Alcotest.test_case "span closed on exception" `Quick
          test_span_closed_on_exception;
        Alcotest.test_case "budget delta per span" `Quick
          test_span_budget_delta;
        Alcotest.test_case "disabled spans invisible" `Quick
          test_disabled_spans_invisible;
        Alcotest.test_case "chrome trace validates" `Quick
          test_chrome_trace_valid;
        Alcotest.test_case "metrics export well-formed" `Quick
          test_metrics_export_well_formed;
        Alcotest.test_case "runner captures abandoned attempt" `Quick
          test_runner_abandoned_capture;
        Alcotest.test_case "runner emits degradation event" `Quick
          test_runner_degraded_event;
        Alcotest.test_case "no-op mode: identical output" `Quick
          test_noop_identical_output;
        Alcotest.test_case "no-op mode: zero-alloc counters" `Quick
          test_noop_zero_alloc_counters;
        Alcotest.test_case "no-op mode: no events" `Quick
          test_disabled_span_no_events;
        Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
        Alcotest.test_case "histogram: single sample" `Quick
          test_histogram_single_sample;
        Alcotest.test_case "histogram: max-bucket overflow" `Quick
          test_histogram_max_bucket_overflow;
        Alcotest.test_case "histogram: cross-domain merge deterministic"
          `Quick test_histogram_cross_domain_merge;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_telemetry );
  ]
