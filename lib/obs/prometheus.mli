(** Prometheus text exposition: building, parsing, and conformance
    checking (exposition format 0.0.4).

    Three consumers share this module: the server's [/metrics] endpoint
    builds an exposition with {!create}/{!scalar}/{!log2_histogram}/
    {!render}; [ucqc top] scrapes one back with {!parse}; and
    [tools/obs_check.exe] holds a scraped exposition against the format
    rules with {!validate} in CI — so a renderer bug is caught by the
    in-tree checker, not by a production Prometheus.

    {b Naming.}  Metric names are sanitized ([[a-zA-Z0-9_:]], leading
    digit prefixed) and counters get the conventional [_total] suffix
    appended if missing.  Histograms use the log₂ bucket layout of
    {!Telemetry.bucket_of}: cumulative [_bucket] lines
    at the populated power-of-two upper edges plus [+Inf], and the
    standard [_sum]/[_count] pair. *)

type kind = Counter | Gauge

(** Exposition builder.  Families render in first-registration order;
    repeated calls with the same name and different labels append
    samples to the existing family (the kind must match). *)
type t

val create : unit -> t

(** [sanitize name] maps an internal metric name (e.g.
    ["serve.cache.hit"]) to a legal Prometheus name
    (["serve_cache_hit"]). *)
val sanitize : string -> string

(** [scalar t ~kind name v] adds one counter or gauge sample.
    @raise Invalid_argument when [name] was already registered with a
    different kind. *)
val scalar :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  kind:kind ->
  string ->
  float ->
  unit

(** [log2_histogram t name ~counts ~sum] adds one histogram sample set
    from a 64-bucket log₂ count array ({!Telemetry.bucket_of}'s
    layout). *)
val log2_histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  counts:int array ->
  sum:float ->
  unit

val render : t -> string

(** {1 Scraping side} *)

type sample = {
  sname : string;  (** full sample name, e.g. ["ucqc_serve_requests_total"] *)
  slabels : (string * string) list;
  svalue : float;
}

(** [parse text] extracts every sample line of an exposition, in order.
    [Error] describes the first malformed line. *)
val parse : string -> (sample list, string) result

(** [find samples ?labels name] is the value of the first sample named
    [name] whose label set contains every pair in [labels]. *)
val find : ?labels:(string * string) list -> sample list -> string -> float option

(** [validate text] holds [text] against the exposition rules: line
    grammar; at most one [HELP]/[TYPE] per family, [TYPE] preceding the
    family's samples; family lines contiguous; no duplicate
    (name, labels) sample; counter samples finite and non-negative; and
    for histogram families (per label set): [le] buckets sorted with
    non-decreasing cumulative counts, a [+Inf] bucket present and equal
    to [_count], and [_sum]/[_count] lines present.  Returns the number
    of samples checked, or a description of the first violation. *)
val validate : string -> (int, string) result
