(** Result-based engine boundaries with graceful degradation.

    The library's engines raise {!Budget.Exhausted} from their hot loops;
    this module is the boundary that catches it and either degrades to a
    polynomial-time substitute — exact UCQ counting falls back to the
    Karp–Luby estimator, exact treewidth to the minor-min-width /
    min-fill bound pair — or reports a structured
    {!Ucqc_error.Budget_exhausted}.  Every wrapper returns [Result]; no
    exception of the library escapes it.  Degraded results are tagged so
    callers (the CLI, services) can distinguish exact from approximate
    output and pick the corresponding exit code. *)

(* Extend the runtime-level guard with engine exceptions the runtime
   library cannot know about (layering: ucq_runtime sits below the
   engines). *)
let guard (f : unit -> 'a) : ('a, Ucqc_error.t) result =
  try Ucqc_error.guard f
  with Counting.Unsupported msg -> Error (Ucqc_error.Unsupported msg)

(* ------------------------------------------------------------------ *)
(* Abandoned-attempt accounting                                       *)
(* ------------------------------------------------------------------ *)

type abandoned = { phase : string; steps : int; elapsed_s : float }

(* Meter the exact attempt so its cost is not lost on degradation: the
   budget's counter keeps running into the fallback, so the consumption
   of the abandoned attempt must be deltas captured at its boundary. *)
let metered ~(budget : Budget.t) ~(phase : string) (f : unit -> 'a) :
    ('a, Budget.exhaustion) result * abandoned =
  let steps0 = Budget.steps_done budget in
  let t0 = Unix.gettimeofday () in
  let result = Budget.run budget ~phase f in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (result, { phase; steps = Budget.steps_done budget - steps0; elapsed_s })

let degraded_event ~(task : string) ~(fallback : string)
    (abandoned : abandoned) : unit =
  Telemetry.event
    ~attrs:(fun () ->
      [
        ("task", Telemetry.S task);
        ("fallback", Telemetry.S fallback);
        ("reason", Telemetry.S "budget-exhausted");
        ("phase", Telemetry.S abandoned.phase);
        ("steps", Telemetry.I abandoned.steps);
        ("elapsed_ms", Telemetry.F (abandoned.elapsed_s *. 1000.));
      ])
    "runner.degraded"

(* ------------------------------------------------------------------ *)
(* Counting                                                           *)
(* ------------------------------------------------------------------ *)

type count_outcome =
  | Exact of int
  | Approximate of {
      value : float;
      epsilon : float;
      delta : float;
      exhausted : Budget.exhaustion;
      abandoned : abandoned;
    }

type count_method = Expansion | Inclusion_exclusion | Naive

let default_epsilon = 0.1
let default_delta = 0.05

(* Cap on the private profiling budget of predictor-driven selection —
   prediction must stay cheap relative to the run it steers (the same
   cap the server's drift tracker uses). *)
let plan_predict_cap = 200_000

(** [count ?via ?fallback ?optimize ?select ?seed ~budget psi d]
    counts [ans(Ψ → D)] exactly (via the CQ expansion by default) under
    [budget].  On exhaustion, when [fallback] (default [true]), it
    degrades to the un-budgeted Karp–Luby [(ε, δ)]-estimate at
    {!default_epsilon} and {!default_delta} — polynomial per sample —
    tagged with the exhaustion record; with [fallback = false] the exhaustion
    becomes [Error (Budget_exhausted _)].

    [optimize] (default [false]) first applies the count-preserving
    cover optimizer ({!Optimize.run}): the answer count is unchanged by
    construction, but dropped disjuncts shrink the [2^ℓ] expansion the
    exact path must pay for.  [select] (default [false]) replaces the
    fixed try-then-degrade order with predictor-driven selection: the
    calibrated {!Plan} estimate (computed on a private capped budget)
    decides up front whether the exact expansion can finish under the
    remaining budget, and on a [Fallback] verdict goes straight to
    Karp–Luby without sinking the budget into a doomed exact attempt.
    Selection only ever skips work — a wrong [Exact] verdict still
    degrades normally on exhaustion. *)
let count ?(via = Expansion) ?(fallback = true)
    ?(optimize = false) ?(select = false) ?seed ?(pool : Pool.t option)
    ~(budget : Budget.t) (psi : Ucq.t) (d : Structure.t) :
    (count_outcome, Ucqc_error.t) result =
  let psi =
    if not optimize then psi
    else begin
      let r = Optimize.run psi in
      if r.Optimize.changed then
        Telemetry.event
          ~attrs:(fun () ->
            [
              ("task", Telemetry.S "count");
              ( "disjuncts_removed",
                Telemetry.I (Optimize.disjuncts_removed r) );
              ("atoms_removed", Telemetry.I (Optimize.atoms_removed r));
            ])
          "runner.optimized";
      r.Optimize.optimized
    end
  in
  (* Predictor-driven selection: only meaningful for the expansion
     method (the predictor meters exactly that code path), only when a
     fallback exists to select, and only advisory — prediction failures
     of any kind fall back to the try-then-degrade order. *)
  let plan =
    if select && fallback && via = Expansion then
      match Plan.predict ~budget:(Budget.of_steps plan_predict_cap) psi with
      | plan -> Some plan
      | exception _ -> None
    else None
  in
  let exact () =
    match via with
    | Expansion -> (
        (* with real parallelism, rank the expansion terms by the
           calibrated database-aware estimate so the pool packs the
           most expensive term first; sequentially the ranking is dead
           weight, so skip the profiling entirely *)
        let term_cost =
          if Pool.is_parallel pool then
            Some
              (Plan.rep_cost
                 ~db_elems:(Structure.universe_size d)
                 ~db_tuples:(Structure.num_tuples d))
          else None
        in
        match plan with
        | Some p ->
            (* the predictor already expanded: pay its metered steps,
               exactly what expanding again would tick, and evaluate
               its support *)
            Budget.ticks budget p.Plan.expansion_steps;
            Ucq.count_terms ~budget ?pool ?term_cost
              p.Plan.support_terms d
        | None ->
            Ucq.count_via_expansion ~budget ?pool ?term_cost psi d)
    | Inclusion_exclusion ->
        Ucq.count_inclusion_exclusion ~budget ?pool psi d
    | Naive -> Ucq.count_naive ~budget ?pool psi d
  in
  let estimate ~exhausted ~abandoned =
    degraded_event ~task:"count" ~fallback:"karp-luby" abandoned;
    guard (fun () ->
        let epsilon = default_epsilon and delta = default_delta in
        let est = Karp_luby.fpras ?seed ?pool ~epsilon ~delta psi d in
        Approximate
          { value = est.Karp_luby.value; epsilon; delta; exhausted; abandoned })
  in
  let predicted_fallback =
    match plan with
    | None -> false
    | Some plan ->
        Plan.predicted_outcome
          ?max_steps:(Budget.remaining_steps budget)
          ~db_elems:(Structure.universe_size d)
          ~db_tuples:(Structure.num_tuples d) plan
        = Plan.Fallback
  in
  if predicted_fallback then
    estimate
      ~exhausted:{ Budget.phase = "count.predicted"; steps_done = 0 }
      ~abandoned:{ phase = "count.predicted"; steps = 0; elapsed_s = 0. }
  else
    match guard (fun () -> metered ~budget ~phase:"count" exact) with
    | Error e -> Error e
    | Ok (Ok n, _) -> Ok (Exact n)
    | Ok (Error exhausted, abandoned) ->
        if not fallback then Error (Ucqc_error.of_exhaustion exhausted)
        else estimate ~exhausted ~abandoned

(* ------------------------------------------------------------------ *)
(* Treewidth                                                          *)
(* ------------------------------------------------------------------ *)

type treewidth_outcome =
  | Exact_width of int
  | Heuristic of {
      lower : int;
      upper : int;
      exhausted : Budget.exhaustion;
      abandoned : abandoned;
    }

(** [treewidth ?fallback ~budget g] computes exact treewidth by branch and
    bound; on exhaustion it degrades to the polynomial
    minor-min-width/min-fill bound pair [lower ≤ tw(g) ≤ upper]. *)
let treewidth ?(fallback = true) ?(pool : Pool.t option)
    ~(budget : Budget.t) (g : Graph.t) :
    (treewidth_outcome, Ucqc_error.t) result =
  match
    guard (fun () ->
        metered ~budget ~phase:"treewidth" (fun () ->
            Treewidth.treewidth ~budget ?pool g))
  with
  | Error e -> Error e
  | Ok (Ok w, _) -> Ok (Exact_width w)
  | Ok (Error exhausted, abandoned) ->
      if not fallback then Error (Ucqc_error.of_exhaustion exhausted)
      else begin
        degraded_event ~task:"treewidth" ~fallback:"heuristic-bounds" abandoned;
        guard (fun () ->
            let lower = Treewidth.lower_bound g in
            let upper, _ = Treewidth.heuristic g in
            Heuristic { lower; upper; exhausted; abandoned })
      end

(* ------------------------------------------------------------------ *)
(* WL-dimension                                                       *)
(* ------------------------------------------------------------------ *)

type dimension_outcome =
  | Exact_dim of int
  | Bounds of {
      lower : int;
      upper : int;
      exhausted : Budget.exhaustion;
      abandoned : abandoned;
    }

(** [wl_dimension ?fallback ~budget psi] computes [dim_WL(Ψ) = hdtw(Ψ)]
    exactly; on exhaustion it degrades to the Theorem 7 polynomial-per-term
    bound pair.  (The fallback re-runs the [2^ℓ] expansion un-budgeted:
    exhaustion almost always happens in the per-term exact treewidth, and
    the expansion itself is small for query-sized [ℓ].) *)
let wl_dimension ?(fallback = true) ?(pool : Pool.t option)
    ~(budget : Budget.t) (psi : Ucq.t) :
    (dimension_outcome, Ucqc_error.t) result =
  match
    guard (fun () ->
        metered ~budget ~phase:"wl-dimension" (fun () ->
            Wl_dimension.exact ~budget ?pool psi))
  with
  | Error e -> Error e
  | Ok (Ok k, _) -> Ok (Exact_dim k)
  | Ok (Error exhausted, abandoned) ->
      if not fallback then Error (Ucqc_error.of_exhaustion exhausted)
      else begin
        degraded_event ~task:"wl-dimension" ~fallback:"theorem-7-bounds"
          abandoned;
        guard (fun () ->
            let lower, upper = Wl_dimension.approximate psi in
            Bounds { lower; upper; exhausted; abandoned })
      end

(* ------------------------------------------------------------------ *)
(* META                                                               *)
(* ------------------------------------------------------------------ *)

(** [decide_meta ~budget psi] runs the META decision procedure.  There is
    no approximate substitute for a yes/no classification, so exhaustion
    is always an error. *)
let decide_meta ~(budget : Budget.t) (psi : Ucq.t) :
    (Meta.decision, Ucqc_error.t) result =
  match
    guard (fun () ->
        Budget.run budget ~phase:"meta" (fun () ->
            Meta.decide ~budget psi))
  with
  | Error e -> Error e
  | Ok (Ok d) -> Ok d
  | Ok (Error exhausted) -> Error (Ucqc_error.of_exhaustion exhausted)

(* ------------------------------------------------------------------ *)
(* Exit codes                                                         *)
(* ------------------------------------------------------------------ *)

let exit_exact = 0
let exit_degraded = 2

(** [exit_code ~degraded r]: 0 for an exact success, 2 for a degraded
    one, and the {!Ucqc_error.exit_code} of the error otherwise. *)
let exit_code ~(degraded : 'a -> bool) : ('a, Ucqc_error.t) result -> int =
  function
  | Ok v -> if degraded v then exit_degraded else exit_exact
  | Error e -> Ucqc_error.exit_code e

let count_exit_code : (count_outcome, Ucqc_error.t) result -> int =
  exit_code ~degraded:(function Exact _ -> false | Approximate _ -> true)

let treewidth_exit_code : (treewidth_outcome, Ucqc_error.t) result -> int =
  exit_code ~degraded:(function Exact_width _ -> false | Heuristic _ -> true)

(* ------------------------------------------------------------------ *)
(* Static pre-flight                                                  *)
(* ------------------------------------------------------------------ *)

let preflight ?(budget : Budget.t option) ?(path : string option)
    (text : string) : Analysis.report =
  let report = Analysis.check ?budget ?path text in
  Telemetry.event
    ~attrs:(fun () ->
      [
        ("path", Telemetry.S (Option.value path ~default:"<stdin>"));
        ("findings", Telemetry.I (List.length report.Analysis.diagnostics));
        ( "max_severity",
          Telemetry.S
            (match Analysis.max_severity report with
            | None -> "clean"
            | Some s -> Diagnostic.severity_to_string s) );
      ])
    "runner.preflight";
  report
