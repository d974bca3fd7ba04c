(** Lock-free rolling-window histograms and quantile extraction.

    {!Telemetry} histograms are cumulative-since-boot: right for
    Prometheus (rate math happens scrape-side) but wrong for "p99 over
    the last minute" — a resident server's lifetime histogram is
    dominated by history.  A {!t} keeps the same 64-bucket base-2 log
    layout ({!Telemetry.bucket_of}) sliced into time slots that expire
    as the window slides, so quantiles always describe recent
    traffic.

    {b Concurrency.}  [observe] is lock-free: one CAS when a slot
    rotates into a new period, atomic increments otherwise.  A rotation
    racing concurrent observers can drop (or double-drop) the handful of
    observations in flight during the zeroing — monitoring-grade by
    design, never on the query path.

    {b Quantiles.}  Extraction is bucket-resolution: the reported value
    is the {e upper edge} of the bucket containing the rank-⌈p·n⌉
    sample.  Deterministic and merge-order independent — merging two
    count arrays in either order yields identical quantiles — at the
    cost of up-to-2× overshoot, which is the right trade for log-scale
    latency monitoring. *)

type t

(** [create ?window_s ?slots ()] is a rolling window covering the last
    [window_s] seconds (default 60) sliced into [slots] time slots
    (default 6; more slots = smoother expiry, more memory). *)
val create : ?window_s:float -> ?slots:int -> unit -> t

(** [observe t ?now v] drops [v] into the current time slot.  [now]
    (seconds, e.g. [Unix.gettimeofday]) defaults to the wall clock and
    exists so tests can drive the window deterministically. *)
val observe : ?now:float -> t -> float -> unit

(** [snapshot ?now t] sums the live (non-expired) slots into one
    64-bucket count array. *)
val snapshot : ?now:float -> t -> int array

(** [count ?now t] is the number of live observations. *)
val count : ?now:float -> t -> int

(** [quantile ?now t p] =
    [Telemetry.quantile_of_counts (snapshot ?now t) p]. *)
val quantile : ?now:float -> t -> float -> float
