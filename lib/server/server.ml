(** The [ucqc serve] daemon.  See the interface for the architecture and
    failure model; the comments here cover the mechanics.

    Locking discipline (ordering, to stay deadlock-free):
    [stop_lock] > [conns_lock] > per-connection [wlock].  No code path
    takes them in the other direction, and nothing blocks while holding
    [wlock] except the bounded (send-timeout) response write.

    File-descriptor lifetime: a connection's fd is closed exactly once,
    by whichever party ([conn] reader thread, evaluator release, or the
    drain sequence) observes [reader_done && pending = 0] first — all
    under [wlock], so a closed descriptor number recycled by the kernel
    is never touched again through a stale [conn]. *)

type listen = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  listen : listen;
  jobs : int;
  queue_depth : int;
  max_frame_bytes : int;
  idle_timeout_s : float;
  request_timeout_s : float option;
  max_steps_cap : int option;
  cache_capacity : int;
  drain_deadline_s : float;
  max_connections : int;
  metrics_addr : (string * int) option;
  access_log : string option;
  slow_query_log : string option;
  slow_factor : float;
  optimize : bool;
}

let default_config ~listen ~jobs =
  {
    listen;
    jobs;
    queue_depth = 64;
    max_frame_bytes = 1 lsl 20;
    idle_timeout_s = 300.;
    request_timeout_s = Some 30.;
    max_steps_cap = None;
    cache_capacity = 256;
    drain_deadline_s = 5.;
    max_connections = 128;
    metrics_addr = None;
    access_log = None;
    slow_query_log = None;
    slow_factor = 8.;
    optimize = true;
  }

(* Poll tick for every blocking wait (accept select, read timeout): the
   worst-case latency from a stop request to every loop noticing it. *)
let tick_s = 0.25

(* A response write to a client that has stopped reading gives up after
   this long; the client is then treated as dead.  Bounds how long the
   evaluator can be held hostage by a slow reader. *)
let write_timeout_s = 5.0

(* [classify] runs the exact (unbudgeted) treewidth engine on the
   combined query; gate it by total variable count so serve mode cannot
   be wedged by one adversarial classify request.  Matches the CLI's
   treewidth size gate. *)
let classify_var_gate = 20

(* ------------------------------------------------------------------ *)
(* Telemetry counters (interned once; no-ops when telemetry is off)   *)
(* ------------------------------------------------------------------ *)

let c_connections = Telemetry.counter "serve.connections"
let c_requests = Telemetry.counter "serve.requests"
let c_ok = Telemetry.counter "serve.responses.ok"
let c_degraded = Telemetry.counter "serve.responses.degraded"
let c_errors = Telemetry.counter "serve.responses.error"
let c_shed = Telemetry.counter "serve.shed"
let c_malformed = Telemetry.counter "serve.frames.malformed"
let c_oversized = Telemetry.counter "serve.frames.oversized"
let c_cache_hit = Telemetry.counter "serve.cache.hit"
let c_cache_interned = Telemetry.counter "serve.cache.interned"
let c_cache_miss = Telemetry.counter "serve.cache.miss"
let c_cache_invalid = Telemetry.counter "serve.cache.invalid"
let c_idle_closed = Telemetry.counter "serve.idle_closed"
let c_discarded = Telemetry.counter "serve.discarded"
let c_slow = Telemetry.counter "serve.slow_queries"

(* per-query-class request counters: the /metrics breakdown by op *)
let op_counters =
  List.map
    (fun op -> (op, Telemetry.counter ("serve.requests." ^ op)))
    [ "ping"; "stats"; "count"; "classify"; "check"; "insert"; "delete"; "apply" ]

let evaluated_ops = [ "count"; "classify"; "check"; "insert"; "delete"; "apply" ]

(* per-op latency histograms (lifetime; the rolling windows below keep
   the recent view) and the drift-ratio histogram: observed budget steps
   over predicted plan cost — log₂ buckets fit a ratio perfectly, 1.0
   lands in the middle of the range *)
let op_latency_histograms =
  List.map
    (fun op -> (op, Telemetry.histogram ("serve.latency_ms." ^ op)))
    evaluated_ops

let h_count_steps = Telemetry.histogram "serve.steps.count"
let h_drift = Telemetry.histogram "serve.drift_ratio"

(* Below this many observed steps a large drift ratio is noise (a tiny
   query mispredicted by 10x is still instant); no slow-log entry. *)
let slow_min_steps = 1024

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

(* The server's own stats live in atomics (the [stats] op must work with
   telemetry disabled); each bump also feeds the telemetry counter of
   the same name for [--metrics]. *)
type stats = {
  connections_total : int Atomic.t;
  connections_active : int Atomic.t;
  requests_total : int Atomic.t;
  responses_ok : int Atomic.t;
  responses_degraded : int Atomic.t;
  responses_error : int Atomic.t;
  shed : int Atomic.t;
  frames_malformed : int Atomic.t;
  frames_oversized : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_interned : int Atomic.t;
  cache_misses : int Atomic.t;
  cache_invalid : int Atomic.t;
  cache_entries : int Atomic.t;  (* gauge, maintained by the evaluator *)
  idle_closed : int Atomic.t;
  discarded : int Atomic.t;
  slow_queries : int Atomic.t;
  updates_applied : int Atomic.t;
  updates_noop : int Atomic.t;
}

let make_stats () =
  {
    connections_total = Atomic.make 0;
    connections_active = Atomic.make 0;
    requests_total = Atomic.make 0;
    responses_ok = Atomic.make 0;
    responses_degraded = Atomic.make 0;
    responses_error = Atomic.make 0;
    shed = Atomic.make 0;
    frames_malformed = Atomic.make 0;
    frames_oversized = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_interned = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_invalid = Atomic.make 0;
    cache_entries = Atomic.make 0;
    idle_closed = Atomic.make 0;
    discarded = Atomic.make 0;
    slow_queries = Atomic.make 0;
    updates_applied = Atomic.make 0;
    updates_noop = Atomic.make 0;
  }

(* One coherent snapshot of the values only the evaluator may read
   consistently (pool registry + cache size), republished by the
   evaluator after every request.  The stats handler and the metrics
   gateway read the whole record through one [Atomic.get], so the pool
   counters can never be torn against the cache counters the way the
   old per-field reads could. *)
type eval_snapshot = {
  es_pool_spawned : int;
  es_pool_idle : int;
  es_cache_entries : int;
  es_cache_invalids : int;
  es_db_epoch : int;
  es_db_tuples : int;
  (* maintained states by effective tier, over the live cache entries *)
  es_maint_a : int;
  es_maint_b : int;
  es_maint_c : int;
}

let bump (a : int Atomic.t) (c : Telemetry.counter) : unit =
  Atomic.incr a;
  Telemetry.incr c

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wlock : Mutex.t;
  mutable fd_open : bool;  (* guarded by wlock *)
  mutable reader_done : bool;  (* guarded by wlock *)
  mutable pending : int;  (* responses the evaluator still owes; wlock *)
}

type work = {
  wid : Trace_json.t option;
  wrid : string;  (* generated request id, threaded end to end *)
  wop : Protocol.op;
  wconn : conn;
  enqueued_at : float;
}

type t = {
  cfg : config;
  (* the database, the prepared-query cache and the pool; only the
     evaluator thread may use it after [start] returns *)
  session : Session.t;
  listen_fd : Unix.file_descr;
  queue : work Admission.t;
  stats : stats;
  eval_snap : eval_snapshot Atomic.t;
  reqids : Reqid.gen;
  (* rolling latency windows, by op plus an "all" aggregate; written by
     the evaluator, read by the gateway — lock-free on both sides *)
  rolling_all : Rolling.t;
  rolling_by_op : (string * Rolling.t) list;
  access_oc : out_channel option;  (* evaluator thread only *)
  slow_oc : out_channel option;  (* evaluator thread only *)
  started_at : float;
  stop_requested_flag : bool Atomic.t;
  stopping : bool Atomic.t;
  stop_signal : int Atomic.t;  (* 0 = none *)
  evaluator_done : bool Atomic.t;
  current_budget : Budget.t option Atomic.t;
  next_cid : int Atomic.t;
  conns : (int, conn) Hashtbl.t;  (* guarded by conns_lock *)
  conns_lock : Mutex.t;
  mutable threads : Thread.t list;  (* conn threads; conns_lock *)
  mutable acceptor : Thread.t option;
  mutable evaluator : Thread.t option;
  mutable gateway : Obs_gateway.t option;
  stop_lock : Mutex.t;
  mutable stopped : bool;  (* guarded by stop_lock *)
  mutable discarded_total : int;  (* guarded by stop_lock *)
}

let draining (t : t) : bool =
  Atomic.get t.stop_requested_flag || Atomic.get t.stopping

(* ------------------------------------------------------------------ *)
(* Response plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let num (i : int) = Trace_json.Num (float_of_int i)
let fnum (f : float) = Trace_json.Num f

(* Write one response frame.  Best-effort: a dead or stalled client
   (EPIPE, send timeout) silently loses the response — its connection is
   torn down by the reader side shortly after. *)
let send (c : conn) (resp : Protocol.response) : unit =
  let line = Protocol.to_string resp in
  Mutex.protect c.wlock (fun () ->
      if c.fd_open then
        try
          let len = String.length line in
          let pos = ref 0 in
          while !pos < len do
            let n = Unix.write_substring c.fd line !pos (len - !pos) in
            if n <= 0 then raise Exit;
            pos := !pos + n
          done
        with _ -> ())

(* Close the fd exactly once, when both the reader is done and no
   evaluator response is outstanding. *)
let close_if_done (t : t) (c : conn) : unit =
  let close_now =
    Mutex.protect c.wlock (fun () ->
        if c.fd_open && c.reader_done && c.pending = 0 then begin
          c.fd_open <- false;
          true
        end
        else false)
  in
  if close_now then begin
    (try Unix.close c.fd with _ -> ());
    Mutex.protect t.conns_lock (fun () -> Hashtbl.remove t.conns c.cid)
  end

let release (t : t) (c : conn) : unit =
  Mutex.protect c.wlock (fun () -> c.pending <- c.pending - 1);
  close_if_done t c

let shutting_down_response ?id () : Protocol.response =
  Protocol.make_response ?id Protocol.Shutting_down
    [ ("message", Trace_json.Str "server is draining; reconnect later") ]

let count_response_status (t : t) (r : Protocol.response) : unit =
  match r.Protocol.rstatus with
  | Protocol.Ok_ -> bump t.stats.responses_ok c_ok
  | Protocol.Degraded -> bump t.stats.responses_degraded c_degraded
  | Protocol.Error_ -> bump t.stats.responses_error c_errors
  | Protocol.Overloaded | Protocol.Shutting_down -> ()

(* ------------------------------------------------------------------ *)
(* Inline ops (answered on the connection thread)                     *)
(* ------------------------------------------------------------------ *)

let uptime_ms (t : t) : float = (Unix.gettimeofday () -. t.started_at) *. 1000.

let pong (t : t) ?id () : Protocol.response =
  (* identity fields so a probe can assert what it is talking to;
     [Buildid.git_commit] is forced at [start], so this never shells
     out on the connection thread *)
  Protocol.make_response ?id Protocol.Ok_
    [
      ("pong", Trace_json.Bool true);
      ("uptime_ms", fnum (uptime_ms t));
      ("uptime_s", fnum ((Unix.gettimeofday () -. t.started_at)));
      ("version", Trace_json.Str Buildid.version);
      ("git_commit", Trace_json.Str (Buildid.git_commit ()));
    ]

let stats_response (t : t) ?id () : Protocol.response =
  let s = t.stats in
  let g a = num (Atomic.get a) in
  (* pool and cache figures come from the one coherent evaluator-thread
     snapshot, not from live [Pool.*] reads racing the cache gauges *)
  let snap = Atomic.get t.eval_snap in
  Protocol.make_response ?id Protocol.Ok_
    [
      ( "result",
        Trace_json.Obj
          [
            ("uptime_ms", fnum (uptime_ms t));
            ("jobs", num (Pool.jobs (Session.pool t.session)));
            (* resident-pool health: a steady server holds the spawn
               count constant while requests are served — if it grows
               per request, domain reuse is broken *)
            ("pool_domains_spawned", num snap.es_pool_spawned);
            ("pool_domains_idle", num snap.es_pool_idle);
            ("connections_total", g s.connections_total);
            ("connections_active", g s.connections_active);
            ("requests_total", g s.requests_total);
            ("responses_ok", g s.responses_ok);
            ("responses_degraded", g s.responses_degraded);
            ("responses_error", g s.responses_error);
            ("shed", g s.shed);
            ("frames_malformed", g s.frames_malformed);
            ("frames_oversized", g s.frames_oversized);
            ("idle_closed", g s.idle_closed);
            ("discarded", g s.discarded);
            ("queue_depth", num (Admission.depth t.queue));
            ( "cache",
              Trace_json.Obj
                [
                  ("hits", g s.cache_hits);
                  ("interned", g s.cache_interned);
                  ("misses", g s.cache_misses);
                  ("invalid", g s.cache_invalid);
                  ("entries", num snap.es_cache_entries);
                ] );
            ( "db",
              Trace_json.Obj
                [
                  ("epoch", num snap.es_db_epoch);
                  ("tuples", num snap.es_db_tuples);
                  ("updates_applied", g s.updates_applied);
                  ("updates_noop", g s.updates_noop);
                  ( "maintained",
                    Trace_json.Obj
                      [
                        ("tier_a", num snap.es_maint_a);
                        ("tier_b", num snap.es_maint_b);
                        ("tier_c", num snap.es_maint_c);
                      ] );
                ] );
            ("slow_queries", g s.slow_queries);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Evaluator                                                          *)
(* ------------------------------------------------------------------ *)

let runner_method : Protocol.count_method -> Runner.count_method = function
  | Protocol.Expansion -> Runner.Expansion
  | Protocol.Inclusion_exclusion -> Runner.Inclusion_exclusion
  | Protocol.Naive -> Runner.Naive

let op_label = Protocol.op_label

(* Drift tracking only runs when some observability output can see it:
   a metrics endpoint, a slow-query log, or an access log. *)
let obs_on (t : t) : bool =
  t.cfg.metrics_addr <> None || t.cfg.slow_query_log <> None
  || t.cfg.access_log <> None

(* Effective budget = min(per-request ask, server cap); absent on both
   sides means unlimited.  The budget is created at dequeue time, so
   time spent queued never counts against the compute allowance. *)
let cap_steps (t : t) (req : int option) : int option =
  match (t.cfg.max_steps_cap, req) with
  | None, r -> r
  | (Some _ as c), None -> c
  | Some c, Some r -> Some (min c r)

let cap_timeout (t : t) (req_ms : float option) : float option =
  let req_s = Option.map (fun ms -> ms /. 1000.) req_ms in
  match (t.cfg.request_timeout_s, req_s) with
  | None, r -> r
  | (Some _ as c), None -> c
  | Some c, Some r -> Some (Float.min c r)

(* The session's lookup (parse, then the rewrite on a miss), counted
   into the cache statistics. *)
let prepare (t : t) (text : string) : Cache.outcome =
  let outcome = Session.prepare t.session text in
  (match outcome with
  | Cache.Hit _ -> bump t.stats.cache_hits c_cache_hit
  | Cache.Interned _ -> bump t.stats.cache_interned c_cache_interned
  | Cache.Miss _ -> bump t.stats.cache_misses c_cache_miss
  | Cache.Invalid _ -> bump t.stats.cache_invalid c_cache_invalid);
  Atomic.set t.stats.cache_entries (Cache.entries (Session.cache t.session));
  outcome

let abandoned_json (a : Runner.abandoned) : Trace_json.t =
  Trace_json.Obj
    [
      ("phase", Trace_json.Str a.Runner.phase);
      ("steps", num a.Runner.steps);
      ("elapsed_s", fnum a.Runner.elapsed_s);
    ]

(* ------------------------------------------------------------------ *)
(* Plan-drift tracking                                                *)
(* ------------------------------------------------------------------ *)

(* Lint codes for a slow-log entry, via the same memoized analysis the
   [check] op uses (primary spelling only — good enough for a log). *)
let entry_lint_codes (entry : Cache.entry) : string list =
  let report =
    match entry.Cache.analysis with
    | Some r -> r
    | None ->
        let r =
          Telemetry.with_span "serve.analysis" (fun () ->
              Analysis.check entry.Cache.primary_text)
        in
        entry.Cache.analysis <- Some r;
        r
  in
  List.sort_uniq compare
    (List.map
       (fun d -> d.Diagnostic.code)
       report.Analysis.diagnostics)

(* Compare what the plan predicted with what the budget actually
   metered; fire the slow-query log when observed > k × predicted. *)
let note_drift (t : t) ~(rid : string) ~(query : string)
    ~(entry : Cache.entry) ~(observed : int) ~(elapsed_ms : float)
    ~(degradation : string) : unit =
  match Session.plan_cost t.session entry with
  | None -> ()
  | Some pred when pred <= 0. -> ()
  | Some pred ->
      let ratio = float_of_int observed /. pred in
      Telemetry.observe h_drift ratio;
      if ratio > t.cfg.slow_factor && observed >= slow_min_steps then begin
        bump t.stats.slow_queries c_slow;
        match t.slow_oc with
        | None -> ()
        | Some oc ->
            let line =
              Slowlog.to_json
                {
                  Slowlog.ts = Unix.gettimeofday ();
                  request_id = rid;
                  query;
                  op = "count";
                  predicted_cost = pred;
                  observed_steps = observed;
                  factor = ratio;
                  threshold = t.cfg.slow_factor;
                  degradation;
                  lint_codes = entry_lint_codes entry;
                  elapsed_ms;
                }
            in
            output_string oc (line ^ "\n");
            flush oc
      end

let answer_count (t : t) ?id ~rid ~query ~meth ~seed ~max_steps ~timeout_ms
    ~no_fallback () : Protocol.response =
  let outcome = prepare t query in
  let cache_field = ("cache", Trace_json.Str (Cache.outcome_label outcome)) in
  match outcome with
  | Cache.Invalid err ->
      let r = Protocol.of_ucqc_error ?id err in
      { r with Protocol.body = r.Protocol.body @ [ cache_field ] }
  | Cache.Hit entry | Cache.Interned entry | Cache.Miss entry -> (
      (* each budget is published so a forced drain can cancel it
         cooperatively; cleared before the response is built.  The last
         one made is the recount's, which drift tracking times. *)
      let t0 = ref 0. in
      let budget () =
        let b =
          Budget.make
            ?max_steps:(cap_steps t max_steps)
            ?timeout:(cap_timeout t timeout_ms)
            ()
        in
        Atomic.set t.current_budget (Some b);
        t0 := Unix.gettimeofday ();
        b
      in
      let o =
        Fun.protect
          ~finally:(fun () -> Atomic.set t.current_budget None)
          (fun () ->
            Session.count t.session ~via:(runner_method meth)
              ~fallback:(not no_fallback) ~seed ~budget entry)
      in
      let steps_field = ("steps", num o.Session.steps) in
      if o.Session.source = Session.Computed then begin
        Telemetry.observe h_count_steps (float_of_int o.Session.steps);
        if obs_on t then
          note_drift t ~rid ~query ~entry ~observed:o.Session.steps
            ~elapsed_ms:((Unix.gettimeofday () -. !t0) *. 1000.)
            ~degradation:
              (match o.Session.result with
              | Ok (Runner.Exact _) -> "exact"
              | Ok (Runner.Approximate _) -> "karp-luby"
              | Error _ -> "error")
      end;
      match o.Session.result with
      | Ok (Runner.Exact n) ->
          let source =
            match o.Session.source with
            | Session.Maintained -> "maintained"
            | Session.Memoized -> "memoized"
            | Session.Computed -> "computed"
          in
          let tier_fields =
            match o.Session.tier with
            | None -> []
            | Some tier ->
                [
                  ("tier", Trace_json.Str (Tier.to_string tier));
                  ("epoch", num o.Session.epoch);
                ]
          in
          Protocol.make_response ?id Protocol.Ok_
            [
              ( "result",
                Trace_json.Obj
                  ([
                     ("count", num n);
                     ("exact", Trace_json.Bool true);
                     ("source", Trace_json.Str source);
                   ]
                  @ tier_fields) );
              cache_field;
              steps_field;
            ]
      | Ok (Runner.Approximate { value; epsilon; delta; exhausted; abandoned })
        ->
          Protocol.make_response ?id Protocol.Degraded
            [
              ( "result",
                Trace_json.Obj
                  [
                    ("estimate", fnum value);
                    ("epsilon", fnum epsilon);
                    ("delta", fnum delta);
                    ("exact", Trace_json.Bool false);
                    ( "exhausted",
                      Trace_json.Obj
                        [
                          ("phase", Trace_json.Str exhausted.Budget.phase);
                          ("steps_done", num exhausted.Budget.steps_done);
                        ] );
                    ("abandoned", abandoned_json abandoned);
                  ] );
              cache_field;
              steps_field;
            ]
      | Error err ->
          let r = Protocol.of_ucqc_error ?id err in
          {
            r with
            Protocol.body = r.Protocol.body @ [ cache_field; steps_field ];
          })

let classify_json (r : Classify.report) : Trace_json.t =
  Trace_json.Obj
    [
      ("combined_tw", num r.Classify.combined_tw);
      ("combined_contract_tw", num r.Classify.combined_contract_tw);
      ("gamma_max_tw", num r.Classify.gamma_max_tw);
      ("gamma_max_contract_tw", num r.Classify.gamma_max_contract_tw);
      ("quantifier_free", Trace_json.Bool r.Classify.quantifier_free);
      ( "union_of_self_join_free",
        Trace_json.Bool r.Classify.union_of_self_join_free );
      ("num_quantified", num r.Classify.num_quantified);
      ("num_disjuncts", num r.Classify.num_disjuncts);
    ]

let answer_classify (t : t) ?id ~query () : Protocol.response =
  let outcome = prepare t query in
  let cache_field = ("cache", Trace_json.Str (Cache.outcome_label outcome)) in
  match outcome with
  | Cache.Invalid err ->
      let r = Protocol.of_ucqc_error ?id err in
      { r with Protocol.body = r.Protocol.body @ [ cache_field ] }
  | Cache.Hit entry | Cache.Interned entry | Cache.Miss entry ->
      let vars =
        Ucq.arity entry.Cache.ucq + Ucq.num_quantified entry.Cache.ucq
      in
      if vars > classify_var_gate then begin
        (* classify runs the exact treewidth engine unbudgeted; in serve
           mode that must not be reachable with unbounded input *)
        let r =
          Protocol.error_response ?id ~kind:"unsupported" ~code:65
            (Printf.sprintf
               "classify is limited to %d total variables in serve mode \
                (query has %d); use the one-shot CLI"
               classify_var_gate vars)
        in
        { r with Protocol.body = r.Protocol.body @ [ cache_field ] }
      end
      else
        let report =
          match entry.Cache.classify with
          | Some r -> r
          | None ->
              let r =
                Telemetry.with_span "serve.analysis" (fun () ->
                    Classify.analyze ~with_gamma:false
                      ~pool:(Session.pool t.session) entry.Cache.ucq)
              in
              entry.Cache.classify <- Some r;
              r
        in
        (* the maintenance tier rides along: the same selection the
           watch/serve update engines use (gated like UCQ207), computed
           on the optimized query — the one actually maintained *)
        let sel =
          Tier.select (Session.optimized t.session entry).Optimize.optimized
        in
        let result =
          match classify_json report with
          | Trace_json.Obj fs ->
              Trace_json.Obj
                (fs
                @ [
                    ( "maintenance_tier",
                      Trace_json.Obj
                        [
                          ( "tier",
                            Trace_json.Str (Tier.to_string sel.Tier.tier) );
                          ("reason", Trace_json.Str sel.Tier.reason);
                        ] );
                  ])
          | j -> j
        in
        Protocol.make_response ?id Protocol.Ok_
          [ ("result", result); cache_field ]

let answer_check (t : t) ?id ~query () : Protocol.response =
  let outcome = prepare t query in
  let cache_field = ("cache", Trace_json.Str (Cache.outcome_label outcome)) in
  (* [Analysis.check] is total (parse failures become diagnostics) and
     budgeted internally, so even an Invalid outcome gets a report.  The
     report is memoized only for the entry's primary spelling: spans are
     text-relative, so an alias text must be re-analyzed. *)
  let memoized (entry : Cache.entry) : Analysis.report option =
    if String.equal entry.Cache.primary_text query then begin
      (match entry.Cache.analysis with
      | Some _ -> ()
      | None ->
          entry.Cache.analysis <-
            Some
              (Telemetry.with_span "serve.analysis" (fun () ->
                   Analysis.check query)));
      entry.Cache.analysis
    end
    else None
  in
  let report =
    match outcome with
    | Cache.Hit e | Cache.Interned e | Cache.Miss e -> (
        match memoized e with
        | Some r -> r
        | None ->
            Telemetry.with_span "serve.analysis" (fun () ->
                Analysis.check query))
    | Cache.Invalid _ ->
        Telemetry.with_span "serve.analysis" (fun () ->
            Analysis.check query)
  in
  let max_sev =
    match Analysis.max_severity report with
    | None -> Trace_json.Null
    | Some s -> Trace_json.Str (Diagnostic.severity_to_string s)
  in
  Protocol.make_response ?id Protocol.Ok_
    [
      ("result", Analysis.report_to_json report);
      ("findings", num (List.length report.Analysis.diagnostics));
      ("max_severity", max_sev);
      cache_field;
    ]

(* ------------------------------------------------------------------ *)
(* Mutations (evaluator thread: the single-writer ordering point)     *)
(* ------------------------------------------------------------------ *)

(* [insert]/[delete] answer with booleans, [apply] with counts; a fold
   that exhausts its budget degrades that state, never the response *)
let answer_update (t : t) ?id ~(single : bool)
    (deltas : (Delta_parse.spec, Ucqc_error.t) result list) :
    Protocol.response =
  let budget () =
    Budget.make ?max_steps:t.cfg.max_steps_cap
      ?timeout:t.cfg.request_timeout_s ()
  in
  match Session.apply t.session ~budget deltas with
  | Error e -> Protocol.of_ucqc_error ?id e
  | Ok b ->
      ignore (Atomic.fetch_and_add t.stats.updates_applied b.Session.applied);
      ignore (Atomic.fetch_and_add t.stats.updates_noop b.Session.noop);
      let count n = if single then Trace_json.Bool (n > 0) else num n in
      Protocol.make_response ?id Protocol.Ok_
        [
          ( "result",
            Trace_json.Obj
              [
                ("applied", count b.Session.applied);
                ("noop", count b.Session.noop);
                ("epoch", num b.Session.epoch);
              ] );
        ]

let answer (t : t) (w : work) : Protocol.response =
  match w.wop with
  | Protocol.Ping -> pong t ?id:w.wid ()  (* unreachable: answered inline *)
  | Protocol.Stats -> stats_response t ?id:w.wid ()
  | Protocol.Count { query; meth; seed; max_steps; timeout_ms; no_fallback } ->
      answer_count t ?id:w.wid ~rid:w.wrid ~query ~meth ~seed ~max_steps
        ~timeout_ms ~no_fallback ()
  | Protocol.Classify { query } -> answer_classify t ?id:w.wid ~query ()
  | Protocol.Check { query } -> answer_check t ?id:w.wid ~query ()
  | Protocol.Insert { fact } ->
      answer_update t ?id:w.wid ~single:true
        [ Delta_parse.fact_string ~sign:Delta_parse.Insert fact ]
  | Protocol.Delete { fact } ->
      answer_update t ?id:w.wid ~single:true
        [ Delta_parse.fact_string ~sign:Delta_parse.Delete fact ]
  | Protocol.Apply { deltas } ->
      answer_update t ?id:w.wid ~single:false
        (List.mapi
           (fun i d -> Delta_parse.delta_string ~lineno:(i + 1) d)
           deltas)

(* One JSON line per evaluated request — written only by the evaluator
   thread, so lines never interleave. *)
let access_line (w : work) (resp : Protocol.response) ~(elapsed_ms : float)
    ~(queue_ms : float) : string =
  Trace_json.to_string
    (Trace_json.Obj
       [
         ("ts", fnum (Unix.gettimeofday ()));
         ("request_id", Trace_json.Str w.wrid);
         ("op", Trace_json.Str (op_label w.wop));
         ( "status",
           Trace_json.Str (Protocol.status_to_string resp.Protocol.rstatus) );
         ("code", num resp.Protocol.rcode);
         ("conn", num w.wconn.cid);
         ("elapsed_ms", fnum elapsed_ms);
         ("queue_ms", fnum queue_ms);
       ])

let publish_snapshot (t : t) : unit =
  let cache = Session.cache t.session and ddb = Session.db t.session in
  let a = ref 0 and b = ref 0 and c = ref 0 in
  Cache.iter cache (fun e ->
      match e.Cache.maint with
      | None -> ()
      | Some st -> (
          match Delta.effective_tier st with
          | Tier.A -> incr a
          | Tier.B -> incr b
          | Tier.C -> incr c));
  Atomic.set t.eval_snap
    {
      es_pool_spawned = Pool.spawn_count ();
      es_pool_idle = Pool.idle_count ();
      es_cache_entries = Cache.entries cache;
      es_cache_invalids = Cache.invalids cache;
      es_db_epoch = Delta.epoch ddb;
      es_db_tuples = Delta.num_tuples ddb;
      es_maint_a = !a;
      es_maint_b = !b;
      es_maint_c = !c;
    }

(* Per-request isolation boundary: nothing thrown while answering one
   request may reach the evaluator loop.  The snapshot is republished
   before the response goes out, so a [stats] request or a [/metrics]
   scrape sent after an acknowledged write reads its epoch. *)
let process (t : t) (w : work) : unit =
  let t0 = Unix.gettimeofday () in
  let queue_ms = (t0 -. w.enqueued_at) *. 1000. in
  let resp =
    try
      Telemetry.with_span "serve.request"
        ~attrs:(fun () ->
          [
            ("op", Telemetry.S (op_label w.wop));
            ("request_id", Telemetry.S w.wrid);
          ])
        (fun () -> answer t w)
    with e ->
      Protocol.error_response ?id:w.wid ~kind:"internal" ~code:70
        (Printf.sprintf "request failed: %s" (Printexc.to_string e))
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Admission.note_service_ms t.queue elapsed_ms;
  let resp =
    {
      resp with
      Protocol.body =
        resp.Protocol.body
        @ [
            ("request_id", Trace_json.Str w.wrid);
            ("elapsed_ms", fnum elapsed_ms);
            ("queue_ms", fnum queue_ms);
          ];
    }
  in
  count_response_status t resp;
  let op = op_label w.wop in
  (match List.assoc_opt op op_latency_histograms with
  | Some h -> Telemetry.observe h elapsed_ms
  | None -> ());
  if obs_on t then begin
    Rolling.observe t.rolling_all elapsed_ms;
    (match List.assoc_opt op t.rolling_by_op with
    | Some r -> Rolling.observe r elapsed_ms
    | None -> ());
    match t.access_oc with
    | Some oc ->
        output_string oc (access_line w resp ~elapsed_ms ~queue_ms ^ "\n");
        flush oc
    | None -> ()
  end;
  publish_snapshot t;
  send w.wconn resp;
  release t w.wconn

let evaluator_loop (t : t) : unit =
  publish_snapshot t;
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some w ->
        process t w;
        loop ()
  in
  (try loop () with _ -> ());
  Atomic.set t.evaluator_done true

(* ------------------------------------------------------------------ *)
(* Connection threads                                                 *)
(* ------------------------------------------------------------------ *)

let handle_request (t : t) (c : conn) (line : string) : unit =
  bump t.stats.requests_total c_requests;
  match Protocol.parse_request line with
  | Error e ->
      bump t.stats.frames_malformed c_malformed;
      bump t.stats.responses_error c_errors;
      send c (Protocol.of_req_error e)
  | Ok { Protocol.id; op } -> (
      (match List.assoc_opt (op_label op) op_counters with
      | Some cnt -> Telemetry.incr cnt
      | None -> ());
      match op with
      | Protocol.Ping ->
          bump t.stats.responses_ok c_ok;
          send c (pong t ?id ())
      | Protocol.Stats ->
          bump t.stats.responses_ok c_ok;
          send c (stats_response t ?id ())
      | Protocol.Count _ | Protocol.Classify _ | Protocol.Check _
      | Protocol.Insert _ | Protocol.Delete _ | Protocol.Apply _ ->
          if draining t then send c (shutting_down_response ?id ())
          else begin
            Mutex.protect c.wlock (fun () -> c.pending <- c.pending + 1);
            let w =
              {
                wid = id;
                wrid = Reqid.next t.reqids;
                wop = op;
                wconn = c;
                enqueued_at = Unix.gettimeofday ();
              }
            in
            match Admission.offer t.queue w with
            | Admission.Accepted -> ()
            | Admission.Shed { retry_after_ms } ->
                Mutex.protect c.wlock (fun () -> c.pending <- c.pending - 1);
                bump t.stats.shed c_shed;
                send c
                  (Protocol.make_response ?id Protocol.Overloaded
                     [
                       ("retry_after_ms", num retry_after_ms);
                       ("message", Trace_json.Str "admission queue is full");
                     ])
            | Admission.Draining ->
                Mutex.protect c.wlock (fun () -> c.pending <- c.pending - 1);
                send c (shutting_down_response ?id ())
          end)

let handle_frame (t : t) (c : conn) (fr : Framer.frame) : unit =
  match fr with
  | Framer.Oversized limit ->
      bump t.stats.frames_oversized c_oversized;
      bump t.stats.responses_error c_errors;
      send c (Protocol.of_req_error (Protocol.Frame_too_large limit))
  | Framer.Frame line -> if String.trim line <> "" then handle_request t c line

let conn_loop (t : t) (c : conn) : unit =
  (try
     Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO tick_s;
     Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO write_timeout_s
   with _ -> ());
  let framer = Framer.create ~max_frame_bytes:t.cfg.max_frame_bytes () in
  let buf = Bytes.create 8192 in
  let idle_deadline = ref (Unix.gettimeofday () +. t.cfg.idle_timeout_s) in
  let running = ref true in
  while !running do
    if Atomic.get t.stopping then running := false
    else
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 ->
          (* client EOF; a final unterminated line still gets answered *)
          (match Framer.eof framer with
          | Some fr -> handle_frame t c fr
          | None -> ());
          running := false
      | n ->
          idle_deadline := Unix.gettimeofday () +. t.cfg.idle_timeout_s;
          List.iter (handle_frame t c) (Framer.feed framer buf ~off:0 ~len:n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          if Unix.gettimeofday () > !idle_deadline then begin
            bump t.stats.idle_closed c_idle_closed;
            running := false
          end
      | exception _ -> running := false
  done;
  Mutex.protect c.wlock (fun () -> c.reader_done <- true);
  Atomic.decr t.stats.connections_active;
  close_if_done t c

(* ------------------------------------------------------------------ *)
(* Accept loop                                                        *)
(* ------------------------------------------------------------------ *)

let accept_one (t : t) (fd : Unix.file_descr) : unit =
  bump t.stats.connections_total c_connections;
  let active = Atomic.fetch_and_add t.stats.connections_active 1 in
  if active >= t.cfg.max_connections then begin
    Atomic.decr t.stats.connections_active;
    bump t.stats.shed c_shed;
    (* shed at accept: one well-formed frame, then hang up *)
    let line =
      Protocol.to_string
        (Protocol.make_response Protocol.Overloaded
           [
             ("retry_after_ms", num 1000);
             ("message", Trace_json.Str "connection limit reached");
           ])
    in
    (try
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
       ignore (Unix.write_substring fd line 0 (String.length line))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else begin
    (match t.cfg.listen with
    | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
    | Unix_socket _ -> ());
    let c =
      {
        cid = Atomic.fetch_and_add t.next_cid 1;
        fd;
        wlock = Mutex.create ();
        fd_open = true;
        reader_done = false;
        pending = 0;
      }
    in
    Mutex.protect t.conns_lock (fun () -> Hashtbl.replace t.conns c.cid c);
    let th =
      Thread.create
        (fun () ->
          try conn_loop t c
          with _ ->
            (* belt and braces: a crashed reader must still release *)
            Mutex.protect c.wlock (fun () -> c.reader_done <- true);
            Atomic.decr t.stats.connections_active;
            close_if_done t c)
        ()
    in
    Mutex.protect t.conns_lock (fun () -> t.threads <- th :: t.threads)
  end

let accept_loop (t : t) : unit =
  while not (draining t) do
    match Unix.select [ t.listen_fd ] [] [] tick_s with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> accept_one t fd
        | exception
            Unix.Unix_error
              ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
            ()
        | exception _ -> ())
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception _ ->
        (* listen fd went bad; without it the loop has no purpose, but
           never spin *)
        if not (draining t) then Thread.delay tick_s
  done

(* ------------------------------------------------------------------ *)
(* Metrics gateway                                                    *)
(* ------------------------------------------------------------------ *)

let exposition_content_type = "text/plain; version=0.0.4; charset=utf-8"

(* "serve.latency_ms.count" -> ("serve.latency_ms", "count"): the
   per-op telemetry histograms export as one family with an [op]
   label instead of an op-mangled family name. *)
let split_op_histogram (name : string) : (string * string) option =
  let try_prefix p =
    let lp = String.length p in
    if String.length name > lp && String.sub name 0 lp = p then
      Some
        (String.sub p 0 (lp - 1), String.sub name lp (String.length name - lp))
    else None
  in
  match try_prefix "serve.latency_ms." with
  | Some r -> Some r
  | None -> try_prefix "serve.steps."

(* Render the full exposition.  Everything read here is an atomic cell,
   an atomic snapshot, or a lock-free rolling window — the evaluator
   thread is never consulted, so scraping cannot add query latency. *)
let render_metrics (t : t) : string =
  let p = Prometheus.create () in
  let gauge ?help ?labels name v =
    Prometheus.scalar p ?help ?labels ~kind:Prometheus.Gauge name v
  in
  gauge
    ~help:"Build identity (value is always 1)"
    ~labels:
      [ ("version", Buildid.version); ("commit", Buildid.git_commit ()) ]
    "ucqc_build_info" 1.;
  gauge "ucqc_uptime_seconds" (Unix.gettimeofday () -. t.started_at);
  gauge ~help:"1 while the server is draining" "ucqc_draining"
    (if draining t then 1. else 0.);
  gauge "ucqc_connections_active"
    (float_of_int (Atomic.get t.stats.connections_active));
  gauge "ucqc_queue_depth" (float_of_int (Admission.depth t.queue));
  gauge "ucqc_queue_service_ewma_ms" (Admission.service_ewma_ms t.queue);
  let snap = Atomic.get t.eval_snap in
  gauge "ucqc_pool_domains_spawned" (float_of_int snap.es_pool_spawned);
  gauge "ucqc_pool_domains_idle" (float_of_int snap.es_pool_idle);
  gauge "ucqc_cache_entries" (float_of_int snap.es_cache_entries);
  gauge "ucqc_cache_invalid_entries" (float_of_int snap.es_cache_invalids);
  gauge ~help:"Database epoch (accepted mutations)" "ucqc_db_epoch"
    (float_of_int snap.es_db_epoch);
  gauge "ucqc_db_tuples" (float_of_int snap.es_db_tuples);
  List.iter
    (fun (tier, v) ->
      gauge ~labels:[ ("tier", tier) ]
        ~help:"Cached maintained states by effective tier"
        "ucqc_maintained_states" (float_of_int v))
    [ ("A", snap.es_maint_a); ("B", snap.es_maint_b); ("C", snap.es_maint_c) ];
  (* every registered telemetry counter / gauge / histogram under its
     sanitized name: the serve.* family, pool.steals, ... — a counter
     added anywhere in the stack shows up here with no further code *)
  List.iter
    (fun (name, v) ->
      Prometheus.scalar p ~kind:Prometheus.Counter
        ("ucqc_" ^ Prometheus.sanitize name)
        (float_of_int v))
    (Telemetry.counters_snapshot ());
  List.iter
    (fun (name, v) -> gauge ("ucqc_" ^ Prometheus.sanitize name) v)
    (Telemetry.gauges_snapshot ());
  List.iter
    (fun (name, hs) ->
      let fam, labels =
        match split_op_histogram name with
        | Some (base, op) ->
            ("ucqc_" ^ Prometheus.sanitize base, [ ("op", op) ])
        | None -> ("ucqc_" ^ Prometheus.sanitize name, [])
      in
      Prometheus.log2_histogram p ~labels fam
        ~counts:hs.Telemetry.hs_counts ~sum:hs.Telemetry.hs_sum)
    (Telemetry.histograms_snapshot ());
  (* recent-traffic quantiles from the rolling windows *)
  List.iter
    (fun (op, r) ->
      let counts = Rolling.snapshot r in
      List.iter
        (fun (qs, q) ->
          gauge
            ~labels:[ ("op", op); ("quantile", qs); ("window", "60s") ]
            "ucqc_rolling_latency_ms"
            (Telemetry.quantile_of_counts counts q))
        [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ])
    (("all", t.rolling_all) :: t.rolling_by_op);
  Prometheus.render p

let gateway_handler (t : t) (req : Microhttp.request) : Obs_gateway.reply =
  let text status body =
    {
      Obs_gateway.status;
      content_type = "text/plain; charset=utf-8";
      body;
    }
  in
  let unhealthy = draining t || Atomic.get t.evaluator_done in
  match (req.Microhttp.meth, Microhttp.path req.Microhttp.target) with
  | "GET", "/metrics" ->
      {
        Obs_gateway.status = 200;
        content_type = exposition_content_type;
        body = render_metrics t;
      }
  | "GET", "/healthz" ->
      if unhealthy then text 503 "draining\n" else text 200 "ok\n"
  | "GET", "/readyz" ->
      if unhealthy then text 503 "not ready\n" else text 200 "ready\n"
  | "GET", _ -> text 404 "not found\n"
  | _, _ -> text 405 "method not allowed\n"

let metrics_port (t : t) : int option = Option.map Obs_gateway.port t.gateway

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let bind_listen (l : listen) : Unix.file_descr =
  match l with
  | Unix_socket path ->
      (* reclaim a stale socket file, but never unlink anything else *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with _ -> ())
      | _ ->
          raise
            (Unix.Unix_error (Unix.EEXIST, "bind", path))
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 128
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      fd
  | Tcp { host; port } ->
      let addr =
        try Unix.inet_addr_of_string host
        with _ -> (
          match
            Unix.getaddrinfo host ""
              [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
          with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (addr, port));
         Unix.listen fd 128
       with e ->
         (try Unix.close fd with _ -> ());
         raise e);
      fd

let start ?env (cfg : config) ~(db : Structure.t) : t =
  (* a client hanging up mid-write must be an EPIPE, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* a metrics endpoint with telemetry off would export zeros: flip the
     metric cells on (recording off, so a resident server accumulates no
     unbounded span buffers) unless the caller already enabled more *)
  if cfg.metrics_addr <> None && not (Telemetry.enabled ()) then
    Telemetry.enable ~record:false ();
  (* force the memo now: ping and /metrics must never shell out to git
     on a latency path *)
  ignore (Buildid.git_commit ());
  let listen_fd = bind_listen cfg.listen in
  (* partial-startup unwinding: anything acquired before a later
     failure (bad log path, metrics port in use) is released *)
  let cleanup : (unit -> unit) list ref =
    ref [ (fun () -> try Unix.close listen_fd with _ -> ()) ]
  in
  let guard f =
    try f ()
    with e ->
      List.iter (fun g -> g ()) !cleanup;
      raise e
  in
  let open_log path_opt =
    guard (fun () ->
        match path_opt with
        | None -> None
        | Some path ->
            let oc =
              open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
            in
            cleanup := (fun () -> try close_out oc with _ -> ()) :: !cleanup;
            Some oc)
  in
  let access_oc = open_log cfg.access_log in
  let slow_oc = open_log cfg.slow_query_log in
  let t =
    {
      cfg;
      session =
        Session.create ?env ~optimize:cfg.optimize
          ~capacity:cfg.cache_capacity
          ~pool:(Pool.create ~jobs:cfg.jobs ())
          db;
      listen_fd;
      queue = Admission.create ~depth:cfg.queue_depth ();
      stats = make_stats ();
      eval_snap =
        Atomic.make
          {
            es_pool_spawned = Pool.spawn_count ();
            es_pool_idle = Pool.idle_count ();
            es_cache_entries = 0;
            es_cache_invalids = 0;
            es_db_epoch = 0;
            es_db_tuples = Structure.num_tuples db;
            es_maint_a = 0;
            es_maint_b = 0;
            es_maint_c = 0;
          };
      reqids = Reqid.create ();
      rolling_all = Rolling.create ();
      rolling_by_op = List.map (fun op -> (op, Rolling.create ())) evaluated_ops;
      access_oc;
      slow_oc;
      started_at = Unix.gettimeofday ();
      stop_requested_flag = Atomic.make false;
      stopping = Atomic.make false;
      stop_signal = Atomic.make 0;
      evaluator_done = Atomic.make false;
      current_budget = Atomic.make None;
      next_cid = Atomic.make 1;
      conns = Hashtbl.create 64;
      conns_lock = Mutex.create ();
      threads = [];
      acceptor = None;
      evaluator = None;
      gateway = None;
      stop_lock = Mutex.create ();
      stopped = false;
      discarded_total = 0;
    }
  in
  (match cfg.metrics_addr with
  | Some (host, port) ->
      t.gateway <-
        Some
          (guard (fun () ->
               Obs_gateway.start ~host ~port ~handler:(gateway_handler t)))
  | None -> ());
  t.evaluator <- Some (Thread.create (fun () -> evaluator_loop t) ());
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let request_stop (t : t) : unit = Atomic.set t.stop_requested_flag true
let stop_requested (t : t) : bool = Atomic.get t.stop_requested_flag

let install_signal_stop (t : t) : unit =
  let handler signal =
    (* signal-handler safe: two atomic stores, nothing else *)
    Atomic.set t.stop_signal signal;
    request_stop t
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)

let last_signal (t : t) : int option =
  match Atomic.get t.stop_signal with 0 -> None | s -> Some s

let wait_until_stop_requested (t : t) : unit =
  while not (stop_requested t) do
    Thread.delay 0.1
  done

let stop (t : t) : int =
  Mutex.protect t.stop_lock (fun () ->
      if t.stopped then t.discarded_total
      else begin
        t.stopped <- true;
        Atomic.set t.stop_requested_flag true;
        Atomic.set t.stopping true;
        (* 1. stop accepting *)
        (match t.acceptor with Some th -> Thread.join th | None -> ());
        t.acceptor <- None;
        (try Unix.close t.listen_fd with _ -> ());
        (match t.cfg.listen with
        | Unix_socket p -> ( try Unix.unlink p with _ -> ())
        | Tcp _ -> ());
        (* 2. close admission; the evaluator retires the backlog *)
        Admission.close t.queue;
        let deadline = Unix.gettimeofday () +. t.cfg.drain_deadline_s in
        while
          (not (Atomic.get t.evaluator_done))
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.01
        done;
        let discarded = ref 0 in
        if not (Atomic.get t.evaluator_done) then begin
          (* 3. deadline exceeded: answer the backlog with
             [shutting_down] and cancel the in-flight request *)
          let dropped = Admission.discard_pending t.queue in
          List.iter
            (fun w ->
              incr discarded;
              bump t.stats.discarded c_discarded;
              send w.wconn (shutting_down_response ?id:w.wid ());
              release t w.wconn)
            dropped;
          (match Atomic.get t.current_budget with
          | Some b -> Budget.cancel b
          | None -> ());
          (* grace for the cancelled request to unwind cooperatively *)
          let grace =
            Unix.gettimeofday () +. Float.max 1.0 t.cfg.drain_deadline_s
          in
          while
            (not (Atomic.get t.evaluator_done))
            && Unix.gettimeofday () < grace
          do
            Thread.delay 0.01
          done
        end;
        if Atomic.get t.evaluator_done then (
          (match t.evaluator with Some th -> Thread.join th | None -> ());
          t.evaluator <- None);
        (* 4. wake blocked readers and join connection threads *)
        let conns =
          Mutex.protect t.conns_lock (fun () ->
              Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
        in
        List.iter
          (fun c ->
            Mutex.protect c.wlock (fun () ->
                if c.fd_open then
                  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ()))
          conns;
        let threads =
          Mutex.protect t.conns_lock (fun () ->
              let ths = t.threads in
              t.threads <- [];
              ths)
        in
        List.iter (fun th -> try Thread.join th with _ -> ()) threads;
        (* 5. anything still open (a response the evaluator never
           delivered): close unconditionally *)
        let leftovers =
          Mutex.protect t.conns_lock (fun () ->
              let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
              Hashtbl.reset t.conns;
              cs)
        in
        List.iter
          (fun c ->
            Mutex.protect c.wlock (fun () ->
                if c.fd_open then begin
                  c.fd_open <- false;
                  try Unix.close c.fd with _ -> ()
                end))
          leftovers;
        (* 6. the query plane is quiesced: take down the observability
           plane last — it stayed up through the whole drain on purpose,
           so /healthz visibly reported 503 while requests were being
           retired — and close the request logs *)
        (match t.gateway with Some g -> Obs_gateway.stop g | None -> ());
        t.gateway <- None;
        (match t.access_oc with
        | Some oc -> ( try close_out oc with _ -> ())
        | None -> ());
        (match t.slow_oc with
        | Some oc -> ( try close_out oc with _ -> ())
        | None -> ());
        (* 7. the evaluator is gone, so no run is in flight: join the
           parked worker domains the resident pool accumulated (an
           optional courtesy — a later server in the same process would
           simply respawn them) *)
        Pool.shutdown_all ();
        t.discarded_total <- !discarded;
        !discarded
      end)
