(** Structured tracing and metrics for the solver stack.

    The paper's pipelines are multi-phase by construction — treewidth
    branch and bound inside the [2^ℓ] expansion inside a META decision,
    Karp–Luby chunks inside a degraded count — and a budget alone only
    says {e that} steps were consumed, not {e where}.  This module records
    nested, wall-clock-timed {e spans} with structured attributes and
    budget-step deltas, plus a process-wide metrics registry (counters,
    gauges, log-scale histograms), and exports them as a Chrome-trace /
    Perfetto JSON file, a flat metrics JSON dump, or an end-of-run
    summary table.

    {b Cost model.}  Telemetry is off by default.  Every entry point
    first reads one atomic flag; when the flag is clear, {!with_span}
    tail-calls its thunk and the metric operations return without
    allocating, so instrumented hot loops keep their sequential and
    allocation behaviour bit-for-bit.  Attributes are passed as a thunk
    and are only forced when a span is actually recorded.

    {b Domain safety.}  Each domain appends to its own buffer
    (domain-local storage, registered globally at first use); no lock is
    taken on the recording path.  Exporters merge the per-domain buffers
    after the parallel region has joined — the same discipline {!Pool}
    already imposes — so traces taken under [--jobs N] are race-free and
    B/E-balanced per domain.  Metric cells are {!Atomic.t}, so counts
    are exact under concurrency and independent of scheduling. *)

(** {1 Lifecycle} *)

(** [enable ?record ()] turns telemetry on.  With [record = false] spans
    maintain the per-domain name stack (for crash context, see
    {!current_stack}) but append no events — the mode long fuzzing runs
    use to avoid unbounded buffers.  Default [record = true]. *)
val enable : ?record:bool -> unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [reset ()] clears every per-domain event buffer and zeroes every
    registered metric (the registry itself is kept: interned counters
    stay valid). *)
val reset : unit -> unit

(** {1 Spans and events} *)

(** Attribute values attached to spans and instant events. *)
type attr = S of string | I of int | F of float | B of bool

(** [with_span ?attrs ?budget name f] runs [f] inside a span.  When
    telemetry is off this is exactly [f ()].  When on, the span records
    monotonic begin/end timestamps, the recording domain's id, [attrs]
    (forced once, at span begin), and — when [budget] is given — the
    {!Budget.steps_done} delta consumed while the span was open.  The
    span is closed on both normal and exceptional exit, so traces stay
    balanced even when {!Budget.Exhausted} cuts through [f]. *)
val with_span :
  ?attrs:(unit -> (string * attr) list) ->
  ?budget:Budget.t ->
  string ->
  (unit -> 'a) ->
  'a

(** [event ?attrs name] records an instant (zero-duration) event — e.g.
    the [runner.degraded] marker emitted when a fallback fires. *)
val event : ?attrs:(unit -> (string * attr) list) -> string -> unit

(** [current_stack ()] is the names of the spans currently open in the
    calling domain, innermost first.  Empty when telemetry is off.  The
    fuzzer attaches this to crash reports. *)
val current_stack : unit -> string list

(** {1 Metrics} *)

type counter
type gauge
type histogram

(** [counter name] interns (or retrieves) the counter [name].  Create
    counters once at module initialisation; {!add}/{!incr} on the hot
    path are then one atomic flag read plus one fetch-and-add, with no
    allocation in either mode. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [counter_value c] reads the current count (0 when never enabled). *)
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

(** [histogram name] interns a base-2 log-scale histogram: [observe]
    drops a value into its {!bucket_of}, so nine decades of latencies or
    sizes fit in 64 fixed buckets with no per-observation allocation. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit

(** {2 The log₂ bucket layout}

    One layout for every histogram: these, the rolling windows of
    [Rolling] and the Prometheus exposition. *)

(** Number of buckets (64): bucket [b] covers [[2^(b-32), 2^(b-31))]. *)
val buckets : int

(** [bucket_of v] is the bucket index of value [v]; non-positive and NaN
    values clamp to bucket 0, huge values clamp to bucket 63. *)
val bucket_of : float -> int

(** [bucket_upper b] is the exclusive upper edge [2^(b-31)] of bucket
    [b] — the value quantile extraction reports. *)
val bucket_upper : int -> float

(** [quantile_of_counts counts p] extracts the [p]-quantile (clamped to
    [[0, 1]]) from a bucket-count array: the upper edge of the bucket
    containing the rank-⌈p·n⌉ observation.  [0.] when the array is
    empty of observations.  Works on {!histogram_snapshot} counts and
    rolling-window snapshots alike. *)
val quantile_of_counts : int array -> float -> float

(** {1 Metric snapshots}

    Read-side API for live exporters (the server's [/metrics] endpoint):
    point-in-time copies of the registered metric cells.  Safe to call
    from any thread at any time; values are read one atomic at a time,
    so a histogram snapshot racing an in-flight [observe] can be off by
    that single observation — monitoring-grade, not transactional. *)

(** Point-in-time copy of one histogram: the 64 base-2 log bucket counts
    (bucket [b] covers [[2^(b-32), 2^(b-31))]), total observation count,
    and the sum of observed values. *)
type histogram_snapshot = {
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
}

val histogram_snapshot : histogram -> histogram_snapshot

(** Every registered counter / gauge / histogram, sorted by name.  The
    enumeration takes the registry lock (interning is rare); the reads
    themselves are lock-free. *)
val counters_snapshot : unit -> (string * int) list

val gauges_snapshot : unit -> (string * float) list
val histograms_snapshot : unit -> (string * histogram_snapshot) list

(** {1 Aggregation and export} *)

(** Per-span-name aggregate over all domain buffers: number of completed
    spans, total (inclusive) wall nanoseconds, and total budget steps
    attributed to spans of this name. *)
type span_stat = {
  sname : string;
  calls : int;
  total_ns : int64;
  steps : int;
}

(** [span_stats ()] merges the per-domain buffers (call only after
    parallel regions have joined) and aggregates by span name.  Sorted
    by descending total time. *)
val span_stats : unit -> span_stat list

(** [wall_window ()] is the [(first, last)] monotonic timestamps over
    every recorded event, or [None] when nothing was recorded. *)
val wall_window : unit -> (int64 * int64) option

(** [export_chrome_trace oc] writes the merged buffers as Chrome
    [chrome://tracing] / Perfetto JSON ([{"traceEvents": [...]}]) with
    balanced ["B"]/["E"] pairs per domain, microsecond timestamps
    relative to {!enable} time, span attributes under ["args"], and the
    per-span budget-step delta on the ["E"] event. *)
val export_chrome_trace : out_channel -> unit

(** [export_metrics oc] writes every registered counter, gauge and
    histogram as a flat JSON object. *)
val export_metrics : out_channel -> unit

(** [print_summary oc] writes the end-of-run table: wall window, span
    coverage of the window by top-level spans, one row per span name
    (calls, total ms, steps), and the non-zero counters. *)
val print_summary : out_channel -> unit
