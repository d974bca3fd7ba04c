(* The op paths the workloads share, and the per-layer metrics of a
   traced run. *)

open Brt

(* ------------------------------------------------------------------ *)
(* Traced-run tallies                                                 *)
(* ------------------------------------------------------------------ *)

(* Sample lists and sums recorded next to the spans in a traced run. *)
let tallies : (string, float list) Hashtbl.t = Hashtbl.create 32

let push name x = Hashtbl.replace tallies name (x :: Option.value ~default:[] (Hashtbl.find_opt tallies name))

(* [note] tallies inside a traced op only, so warm-up and set-up work
   never enters a per-op figure; [record] tallies anywhere in a traced
   run. *)
let note (name : string) (x : float) = if !enabled && !current_op >= 0 then push name x
let record (name : string) (x : float) = if !enabled then push name x

let noted (name : string) : float list = Option.value ~default:[] (Hashtbl.find_opt tallies name)
let noted_sum name = sum (noted name)
let noted_median name = match noted name with [] -> 0. | xs -> median xs
let ratio a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* ucqc check --optimize --format json                                *)
(* ------------------------------------------------------------------ *)

(* The CLI's check path on one query text: the analyzer, then the
   optimizer and the maintenance tier of the rewritten query (UCQ405
   when the tier changes), then the JSON rendering.  The UCQ405 step is
   a copy of the one in the [check] command of bin/ucqc_cli.ml, which
   no library exports: when that step changes, this copy must follow,
   or check_* goes on timing the old path. *)
let check_pipeline (text : string) : string * Analysis.report =
  let budget = Budget.of_steps Analysis.default_max_steps in
  let r = with_span "analysis.check" (fun () -> Analysis.check ~budget text) in
  note "analysis.check_steps" (float_of_int (Budget.steps_done budget));
  let r =
    match (r.Analysis.update_tier, with_span "frontend.parse_query" (fun () -> Parse.ucq_result text)) with
    | Some sel, Ok (psi, _) ->
        let orep = with_span "optimize.run" (fun () -> Optimize.run psi) in
        let sel' = with_span "analysis.tier_select" (fun () -> Tier.select orep.Optimize.optimized) in
        if orep.Optimize.changed && sel'.Tier.tier <> sel.Tier.tier then
          let d =
            Diagnostic.make "UCQ405"
              "maintenance tier changes under --optimize: tier %s as written, tier %s after the \
               count-preserving rewrite (%s)"
              (Tier.to_string sel.Tier.tier) (Tier.to_string sel'.Tier.tier) sel'.Tier.reason
          in
          { r with Analysis.diagnostics = List.sort Diagnostic.compare (d :: r.Analysis.diagnostics) }
        else r
    | _ -> r
  in
  let json =
    with_span "analysis.render" (fun () ->
        Trace_json.to_string (Trace_json.Arr [ Analysis.report_to_json r ]))
  in
  (json, r)

(* No finding says the analyzer ran out of budget (UCQ003) or a rule
   failed (UCQ004). *)
let complete (r : Analysis.report) : bool =
  List.for_all (fun d -> d.Diagnostic.code <> "UCQ003" && d.Diagnostic.code <> "UCQ004") r.Analysis.diagnostics

(* A check answer is correct when it repeats the warm-up report and is
   complete. *)
let check_ok ~(expected : string) ((json, r) : string * Analysis.report) : bool =
  String.equal json expected && complete r

(* ------------------------------------------------------------------ *)
(* ucqc count, once the database is loaded                            *)
(* ------------------------------------------------------------------ *)

(* [count text db] is the one-shot count path: parse, then the
   optimizing, predictor-selected [Runner.count]; [None] unless exact. *)
let count (text : string) (db : Structure.t) : int option =
  match Parse.ucq_result text with
  | Error _ -> None
  | Ok (psi, _) -> (
      match Runner.count ~optimize:true ~select:true ~budget:(Budget.unlimited ()) psi db with
      | Ok (Runner.Exact n) -> Some n
      | Ok (Runner.Approximate _) | Error _ -> None)

(* Same cap as the Runner's predictor-driven selection. *)
let plan_predict_cap = 200_000

let engine_of (q : Cq.t) : string =
  if not (Cq.is_quantifier_free q) then "varelim" else if Cq.is_acyclic q then "yannakakis" else "weighted"

(* The evaluation half of [Runner.count] on an already optimized
   query: the predictor (when selection is on), the expansion support,
   and each support term under the engine its shape selects. *)
let replay_eval ~(predict : bool) (q : Ucq.t) (db : Structure.t) : int =
  if predict then
    with_span "analysis.plan_predict" (fun () ->
        try ignore (Plan.predict ~budget:(Budget.of_steps plan_predict_cap) q : Plan.t) with _ -> ());
  let support = with_span "ucq.expansion" (fun () -> Ucq.support q) in
  note "ucq.subsets" (float_of_int ((1 lsl Ucq.length q) - 1));
  note "ucq.support_terms" (float_of_int (List.length support));
  note "db.count_ops" 1.;
  List.fold_left
    (fun acc (t : Ucq.expansion_term) ->
      let engine = engine_of t.Ucq.representative in
      let budget = Budget.unlimited () in
      let c = with_span ("db." ^ engine) (fun () -> Counting.count ~budget t.Ucq.representative db) in
      note ("db.terms." ^ engine) 1.;
      note "db.steps" (float_of_int (Budget.steps_done budget));
      acc + (t.Ucq.coefficient * c))
    0 support

let optimize (psi : Ucq.t) : Ucq.t =
  let orep = with_span "optimize.run" (fun () -> Optimize.run psi) in
  note "optimize.disjuncts" (float_of_int (Ucq.length psi));
  note "optimize.removed" (float_of_int (Optimize.disjuncts_removed orep));
  orep.Optimize.optimized

(* The traced replay of [count]: the public calls [Runner.count
   ~optimize:true ~select:true] makes, each under its layer's span. *)
let replay_count (text : string) (db : Structure.t) : int option =
  with_span "core.count" (fun () ->
      match with_span "frontend.parse_query" (fun () -> Parse.ucq_result text) with
      | Error _ -> None
      | Ok (psi, _) -> Some (replay_eval ~predict:true (optimize psi) db))

(* ------------------------------------------------------------------ *)
(* Traced ops                                                         *)
(* ------------------------------------------------------------------ *)

let untraced_ms = ref 0.
let traced_ops = ref 0

(* [traced_op ~plain ~replay] runs [plain] with tracing off, timed as
   the op's untraced cost, then [replay] as a traced op; both results
   are returned for checking. *)
let traced_op ~(plain : unit -> 'a) ~(replay : unit -> 'b) : 'a * 'b =
  enabled := false;
  fresh_heap ();
  let a, t = timed plain in
  untraced_ms := !untraced_ms +. t;
  enabled := true;
  fresh_heap ();
  let b = with_op !traced_ops replay in
  incr traced_ops;
  (a, b)

(* One write op and its time in ms, the heap collected first.  A write
   must run exactly once, so a traced run traces it and its traced
   duration stands in for its untraced cost. *)
let write_op ~(trace : bool) (f : unit -> 'a) : 'a * float =
  fresh_heap ();
  if trace then begin
    enabled := true;
    let r, t = timed (fun () -> with_op !traced_ops f) in
    untraced_ms := !untraced_ms +. t;
    incr traced_ops;
    (r, t)
  end
  else timed f

(* One count op, judged against [expected]; its untraced time in ms.
   A traced run times the plain path and then replays it. *)
let count_op ~(trace : bool) ~(judge : bool -> unit) (text : string) (db : Structure.t) (expected : int) :
    float =
  if trace then begin
    let (r, t), replay = traced_op ~plain:(fun () -> timed (fun () -> count text db)) ~replay:(fun () -> replay_count text db) in
    record "core.count_ms" t;
    record "core.degraded" (if r = None then 1. else 0.);
    judge (r = Some expected && replay = Some expected);
    t
  end
  else begin
    fresh_heap ();
    let r, t = timed (fun () -> count text db) in
    judge (r = Some expected);
    t
  end

(* One check op, judged against the warm-up [report]; its untraced
   time in ms. *)
let check_op ~(trace : bool) ~(judge : bool -> unit) (text : string) (report : string) : float =
  if trace then begin
    let (r, t), replay =
      traced_op ~plain:(fun () -> timed (fun () -> check_pipeline text)) ~replay:(fun () -> check_pipeline text)
    in
    judge (check_ok ~expected:report r && check_ok ~expected:report replay);
    t
  end
  else begin
    fresh_heap ();
    let r, t = timed (fun () -> check_pipeline text) in
    judge (check_ok ~expected:report r);
    t
  end

(* Forget what the warm-up recorded. *)
let reset_trace () =
  Hashtbl.reset tallies;
  finished := [];
  op_words := 0.;
  op_majors := 0;
  untraced_ms := 0.;
  traced_ops := 0

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                 *)
(* ------------------------------------------------------------------ *)

(* The thirteen end-to-end metrics, from one workload's populations.
   Rates divide by the wall time of the whole timed phase. *)
let end_to_end ~(setup_s : float list) ~(rss_mb : float) ~(attempted : int) ~(failed : int)
    ~(wall_s : float) ~counts ~checks ~updates ~refreshes : outcome =
  let pct name (s : samples) q = metric ~n:s.n name "ms" (quantile s.xs q) in
  let rate name (s : samples) = metric ~n:s.n name "1/s" (float_of_int s.n /. wall_s) in
  {
    attempted;
    failed;
    metrics =
      [
        metric ~n:(List.length setup_s) "setup_s" "s" (median setup_s);
        metric "peak_rss_mb" "MB" rss_mb;
        metric ~n:attempted "ops_ok_ratio" "fraction"
          (ratio (float_of_int (attempted - failed)) (float_of_int attempted));
        pct "count_p50_ms" counts 0.5;
        pct "count_p90_ms" counts 0.9;
        rate "counts_per_s" counts;
        pct "check_p50_ms" checks 0.5;
        pct "check_p90_ms" checks 0.9;
        rate "checks_per_s" checks;
        pct "update_p50_ms" updates 0.5;
        pct "update_p90_ms" updates 0.9;
        pct "refresh_p50_ms" refreshes 0.5;
        pct "refresh_p90_ms" refreshes 0.9;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                  *)
(* ------------------------------------------------------------------ *)

let per_layer_metrics () : metric list =
  let ms name = metric name "ms" in
  let self name = median_self_per_op name in
  (* probes timed outside any op (check_wide_unions) take precedence *)
  let probed name = match noted (name ^ "_ms") with [] -> self name | xs -> median xs in
  let mut = span_durations "relational.mutate" in
  let q p = match mut with [] -> 0. | xs -> quantile xs p in
  let count_ops = noted_sum "db.count_ops" in
  let per_count name = ratio (noted_sum name) count_ops in
  let prepare t = match span_durations ~in_ops:false ("delta.prepare." ^ t) with [] -> 0. | xs -> median xs in
  let recompute = span_durations "delta.recompute" in
  [
    ms "frontend.parse_db_ms" (noted_median "frontend.parse_db_ms");
    ms "frontend.parse_query_ms" (self "frontend.parse_query");
    metric ~n:(List.length mut) "relational.mutate_p50_ms" "ms" (q 0.5);
    metric ~n:(List.length mut) "relational.mutate_p90_ms" "ms" (q 0.9);
    metric "relational.tuples" "count" (noted_median "relational.tuples");
    ms "analysis.check_ms" (self "analysis.check");
    metric "analysis.check_steps" "steps" (noted_median "analysis.check_steps");
    ms "analysis.plan_predict_ms" (probed "analysis.plan_predict");
    ms "analysis.tier_select_ms" (self "analysis.tier_select");
    ms "analysis.render_ms" (self "analysis.render");
    ms "optimize.run_ms" (self "optimize.run");
    metric "optimize.disjuncts_removed_ratio" "fraction"
      (ratio (noted_sum "optimize.removed") (noted_sum "optimize.disjuncts"));
    ms "ucq.expansion_ms" (probed "ucq.expansion");
    metric "ucq.subsets" "count" (noted_median "ucq.subsets");
    metric "ucq.support_terms" "count" (noted_median "ucq.support_terms");
    metric "ucq.support_ratio" "fraction" (ratio (noted_sum "ucq.support_terms") (noted_sum "ucq.subsets"));
    ms "db.yannakakis_ms" (self "db.yannakakis");
    ms "db.weighted_ms" (self "db.weighted");
    ms "db.varelim_ms" (self "db.varelim");
    metric "db.terms.yannakakis" "count/op" (per_count "db.terms.yannakakis");
    metric "db.terms.weighted" "count/op" (per_count "db.terms.weighted");
    metric "db.terms.varelim" "count/op" (per_count "db.terms.varelim");
    metric "db.steps" "steps/op" (per_count "db.steps");
    ms "core.count_ms" (noted_median "core.count_ms");
    metric "core.degraded_ratio" "fraction" (ratio (noted_sum "core.degraded") (float_of_int (List.length (noted "core.count_ms"))));
    ms "delta.prepare_ms.A" (prepare "A");
    ms "delta.prepare_ms.B" (prepare "B");
    ms "delta.prepare_ms.C" (prepare "C");
    ms "delta.apply_state_ms.A" (self "delta.apply_state.A");
    ms "delta.apply_state_ms.B" (self "delta.apply_state.B");
    ms "delta.apply_state_ms.C" (self "delta.apply_state.C");
    metric ~n:(List.length recompute) "delta.recompute_ms" "ms" (match recompute with [] -> 0. | xs -> median xs);
    metric "delta.maintained_ratio" "fraction" (ratio (noted_sum "delta.maintained") (noted_sum "delta.reads"));
    metric "delta.degraded_states" "count" (noted_sum "delta.degraded_states");
    ms "server.service_ms.count" (noted_median "server.service_ms.count");
    ms "server.service_ms.update" (noted_median "server.service_ms.update");
    ms "server.queue_ms" (noted_median "server.queue_ms");
    ms "server.transport_ms" (noted_median "server.transport_ms");
    metric "server.cache_hit_ratio" "fraction" (ratio (noted_sum "server.cache_hits") (noted_sum "server.cache_lookups"));
    metric "server.protocol_parse_us" "us" (1000. *. self "server.parse_request");
    metric "server.render_us" "us" (1000. *. self "server.render");
    metric "server.error_responses" "count" (noted_sum "server.errors");
  ]
  @ trace_summary ~untraced_ms:!untraced_ms ~ops:!traced_ops
