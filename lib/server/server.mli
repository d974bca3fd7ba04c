(** The [ucqc serve] daemon: a fault-tolerant long-running query service.

    Loads one [.facts] database and answers {!Protocol} requests over a
    Unix or TCP socket.  The database lives in a {!Session}: the
    universe and signature are fixed at load time, but tuples change
    through the [insert]/[delete]/[apply] mutation ops, each accepted
    change advancing a monotonically increasing {e epoch}.  Mutations
    are evaluated ops — they run on the single evaluator thread, which
    makes it the one ordering point for the database, the epoch, and
    every cached maintained state (tiered incremental counting: see
    {!Delta}).  The architecture is
    a deliberately boring thread layout chosen for isolation:

    - the {b main thread} runs the accept loop (select with a short tick
      so shutdown is prompt) and the drain sequence;
    - one {b connection thread} per client does framing, request
      parsing, inline [ping]/[stats] answers, and admission — it never
      evaluates a query and never records telemetry spans;
    - a single {b evaluator thread} owns the {!Session} (with its
      prepared-query {!Cache}) and retires queued requests one at a
      time, fanning each one out on the domain {!Pool} ([--jobs]).
      Being the only span-recording
      thread in the main domain keeps the telemetry buffers race-free —
      the same single-writer discipline {!Pool} imposes on its workers.

    Fault containment, layer by layer: oversized or malformed frames are
    answered with structured errors ({!Framer}/{!Protocol} are total);
    engine failures and budget exhaustion are contained per request by
    {!Runner}'s result boundaries plus a catch-all that converts any
    escape into an [internal] error response; a full queue sheds with
    [overloaded] + [retry_after_ms]; disconnected clients turn writes
    into no-ops (EPIPE is ignored, SIGPIPE masked); idle connections are
    closed after [idle_timeout_s].  Nothing a client sends can take the
    process down or corrupt another request's response: responses are
    written as single frames under a per-connection lock.

    Shutdown ({!stop}, or SIGINT/SIGTERM under {!install_signal_stop}):
    stop accepting, answer further requests with [shutting_down], retire
    the admitted backlog, and — past [drain_deadline_s] — cancel the
    in-flight request's budget (cooperative, via {!Budget.cancel}) and
    answer the rest with [shutting_down].  Telemetry flushing is the
    caller's job after {!stop} returns (the CLI shares the flush path
    with one-shot mode). *)

type listen = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  listen : listen;
  jobs : int;  (** domain-pool width for each evaluation *)
  queue_depth : int;  (** admission bound; beyond it requests are shed *)
  max_frame_bytes : int;  (** request frames larger than this are rejected *)
  idle_timeout_s : float;  (** close connections idle this long *)
  request_timeout_s : float option;
      (** per-request wall-clock cap and default ([None]: unlimited) *)
  max_steps_cap : int option;  (** per-request step cap ([None]: unlimited) *)
  cache_capacity : int;  (** prepared-query entries kept (0 disables) *)
  drain_deadline_s : float;  (** graceful-drain allowance on shutdown *)
  max_connections : int;  (** concurrent clients; excess is shed at accept *)
  metrics_addr : (string * int) option;
      (** bind an {!Obs_gateway} here ([host, port]; port 0 lets the
          kernel pick — see {!metrics_port}).  [None] disables the
          observability HTTP plane entirely. *)
  access_log : string option;
      (** append one JSON line per evaluated request to this file *)
  slow_query_log : string option;
      (** append one JSON line ({!Slowlog.entry}) per slow query *)
  slow_factor : float;
      (** a query is "slow" when its observed step count exceeds
          [slow_factor] times the {!Plan} cost prediction *)
  optimize : bool;
      (** apply the count-preserving cover optimizer ({!Optimize.run})
          to each prepared query, once, at prepare time.  The rewrite is
          cached on the entry; evaluation, maintained state, and cost
          prediction all use the optimized query.  Default [true]. *)
}

(** Defaults: 64-deep queue, 1 MiB frames, 300 s idle timeout, 30 s
    request timeout, 256 cache entries, 5 s drain deadline, 128
    connections, no metrics gateway, no request logs, slow factor 8,
    optimizer on. *)
val default_config : listen:listen -> jobs:int -> config

type t

(** [start ?env config ~db] binds the socket and spawns the accept and
    evaluator threads.  [env] is the constant-interning environment of
    the loaded [.facts] file, so mutation ops may use the same
    identifier constants; without it only integer constants resolve.
    @raise Unix.Unix_error when binding fails (the one fault that must
    be loud: the service cannot exist). *)
val start : ?env:Parse.db_env -> config -> db:Structure.t -> t

(** [metrics_port t] is the actual bound port of the metrics gateway
    ([None] when [metrics_addr] was [None]).  Useful with port 0. *)
val metrics_port : t -> int option

(** [request_stop t] flips the drain flag (signal-handler safe: one
    atomic store).  {!stop} performs the actual drain. *)
val request_stop : t -> unit

val stop_requested : t -> bool

(** [stop t] runs the drain sequence and joins the threads.  Idempotent.
    Returns the number of requests discarded past the deadline (0 on a
    fully graceful drain). *)
val stop : t -> int

(** [install_signal_stop t] routes SIGINT/SIGTERM to {!request_stop} and
    records the signal so the CLI can report it. *)
val install_signal_stop : t -> unit

(** [last_signal t] is the signal that triggered the stop, if any
    (e.g. [Sys.sigterm]) — the CLI maps it to exit 130/143. *)
val last_signal : t -> int option

(** [wait_until_stop_requested t] blocks (polling the flag) until
    {!request_stop} was called — the CLI's main wait. *)
val wait_until_stop_requested : t -> unit
