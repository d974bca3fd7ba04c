(** Result-based engine boundaries with graceful degradation.

    Wrappers around the exact engines that run under a {!Budget.t}, catch
    the {!Budget.Exhausted} signal at the boundary, and either degrade to
    a tagged polynomial-time substitute or return a structured
    {!Ucqc_error.t}.  No library exception escapes these functions.

    Degradation matrix:
    - exact UCQ count     → Karp–Luby [(ε, δ)]-estimate ({!Approximate})
    - exact treewidth     → minor-min-width / min-fill pair ({!Heuristic})
    - exact WL-dimension  → Theorem 7 bound pair ({!Bounds})
    - META decision       → no substitute: always an error on exhaustion

    Pass [~fallback:false] to disable degradation and surface
    [Budget_exhausted] instead. *)

(** [guard f] is {!Ucqc_error.guard} extended with the engine-level
    exceptions ([Counting.Unsupported]) that the runtime layer cannot
    know. *)
val guard : (unit -> 'a) -> ('a, Ucqc_error.t) result

(** {2 Abandoned attempts}

    When a wrapper degrades, the cost already sunk into the abandoned
    exact attempt is captured — the budget counter keeps running into the
    fallback, so without the deltas that consumption would be
    unattributable.  Every degradation also emits a [runner.degraded]
    telemetry event carrying the same data plus the reason. *)

type abandoned = {
  phase : string;  (** budget phase of the abandoned attempt *)
  steps : int;  (** budget steps consumed by the attempt alone *)
  elapsed_s : float;  (** wall seconds spent on the attempt *)
}

(** {2 Counting} *)

type count_outcome =
  | Exact of int
  | Approximate of {
      value : float;
      epsilon : float;
      delta : float;
      exhausted : Budget.exhaustion;
          (** where the exact computation ran out *)
      abandoned : abandoned;
          (** what the abandoned exact attempt consumed *)
    }

(** Which exact counting algorithm to budget. *)
type count_method = Expansion | Inclusion_exclusion | Naive

val default_epsilon : float
(** [0.1] — relative error of the degraded estimate. *)

val default_delta : float
(** [0.05] — failure probability of the degraded estimate. *)

(** [count ?via ?fallback ?optimize ?select ?seed ~budget psi d]
    counts [ans(Ψ → D)] exactly under [budget], degrading to a
    Karp–Luby estimate at {!default_epsilon} and {!default_delta} on
    exhaustion (unless [fallback = false]).

    [optimize] (default [false]) first applies the count-preserving
    cover optimizer ({!Optimize.run}) — same count, fewer disjuncts.
    [select] (default [false]) lets the calibrated {!Plan} predictor
    skip a doomed exact attempt and go straight to the estimator
    (expansion method only; advisory — a wrong [Exact] verdict still
    degrades normally).  A selection-skipped run reports exhaustion
    phase ["count.predicted"] with zero consumed steps.  When the
    predictor completes, the exact attempt evaluates the support it
    built, charging its metered expansion steps to [budget], instead of
    expanding a second time. *)
val count :
  ?via:count_method ->
  ?fallback:bool ->
  ?optimize:bool ->
  ?select:bool ->
  ?seed:int ->
  ?pool:Pool.t ->
  budget:Budget.t ->
  Ucq.t ->
  Structure.t ->
  (count_outcome, Ucqc_error.t) result

(** {2 Treewidth} *)

type treewidth_outcome =
  | Exact_width of int
  | Heuristic of {
      lower : int;
      upper : int;
      exhausted : Budget.exhaustion;
      abandoned : abandoned;
    }

val treewidth :
  ?fallback:bool ->
  ?pool:Pool.t ->
  budget:Budget.t ->
  Graph.t ->
  (treewidth_outcome, Ucqc_error.t) result

(** {2 WL-dimension} *)

type dimension_outcome =
  | Exact_dim of int
  | Bounds of {
      lower : int;
      upper : int;
      exhausted : Budget.exhaustion;
      abandoned : abandoned;
    }

val wl_dimension :
  ?fallback:bool ->
  ?pool:Pool.t ->
  budget:Budget.t ->
  Ucq.t ->
  (dimension_outcome, Ucqc_error.t) result

(** {2 META} *)

val decide_meta :
  budget:Budget.t -> Ucq.t -> (Meta.decision, Ucqc_error.t) result

(** {2 Static pre-flight}

    [preflight ?budget ?path text] runs the static analyzer
    ({!Analysis.check}) over a query text — the engine behind
    [ucqc check] and the [--lint] flag of the executing subcommands.
    Never raises; emits a [runner.preflight] telemetry event with the
    finding count and maximum severity.  Without a budget the analyzer's
    own default allowance applies, so pre-flight never consumes the
    execution budget of the run it precedes. *)

val preflight :
  ?budget:Budget.t ->
  ?path:string ->
  string ->
  Analysis.report

(** {2 Exit codes}

    0 — exact success; 2 — degraded success; errors map through
    {!Ucqc_error.exit_code} (65 data, 124 budget, 70 internal). *)

val exit_exact : int
val exit_degraded : int
val exit_code : degraded:('a -> bool) -> ('a, Ucqc_error.t) result -> int
val count_exit_code : (count_outcome, Ucqc_error.t) result -> int
val treewidth_exit_code : (treewidth_outcome, Ucqc_error.t) result -> int
