(** Tests for the observability plane: rolling windows, Prometheus
    exposition build/parse/validate, the gateway's HTTP sliver, request
    ids, slow-query log records, and the served [/metrics] endpoint
    end to end. *)

(* ------------------------------------------------------------------ *)
(* Rolling windows                                                    *)
(* ------------------------------------------------------------------ *)

let test_rolling_buckets () =
  Alcotest.(check int) "64 buckets" 64 Telemetry.buckets;
  Alcotest.(check int) "zero clamps low" 0 (Telemetry.bucket_of 0.);
  Alcotest.(check int) "negative clamps low" 0 (Telemetry.bucket_of (-3.));
  Alcotest.(check int) "nan clamps low" 0 (Telemetry.bucket_of Float.nan);
  Alcotest.(check int) "huge clamps high" 63 (Telemetry.bucket_of 1e40);
  (* 1.0 = 2^0 lands in the bucket whose range is [2^-1, 2^0)... the
     layout fact that matters is only edge consistency: every value is
     strictly below its bucket's upper edge and at or above the
     previous bucket's *)
  List.iter
    (fun v ->
      let b = Telemetry.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "%g below upper edge of bucket %d" v b)
        true
        (v < Telemetry.bucket_upper b || b = 63);
      if b > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%g at/above lower edge of bucket %d" v b)
          true
          (v >= Telemetry.bucket_upper (b - 1)))
    [ 0.001; 0.5; 1.; 1.5; 2.; 3.; 100.; 1024.; 5e8 ]

let test_rolling_quantiles () =
  let counts = Array.make Telemetry.buckets 0 in
  Alcotest.(check (float 0.)) "empty quantile is 0" 0.
    (Telemetry.quantile_of_counts counts 0.99);
  (* a single sample: every quantile reports its bucket's upper edge *)
  counts.(Telemetry.bucket_of 5.) <- 1;
  let edge = Telemetry.bucket_upper (Telemetry.bucket_of 5.) in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "single-sample p%g" p)
        edge
        (Telemetry.quantile_of_counts counts p))
    [ 0.; 0.5; 0.99; 1. ];
  (* 90 fast + 10 slow: p50 reports the fast edge, p99 the slow edge *)
  let counts = Array.make Telemetry.buckets 0 in
  counts.(Telemetry.bucket_of 1.) <- 90;
  counts.(Telemetry.bucket_of 1000.) <- 10;
  Alcotest.(check (float 0.)) "p50 in the fast bucket"
    (Telemetry.bucket_upper (Telemetry.bucket_of 1.))
    (Telemetry.quantile_of_counts counts 0.5);
  Alcotest.(check (float 0.)) "p99 in the slow bucket"
    (Telemetry.bucket_upper (Telemetry.bucket_of 1000.))
    (Telemetry.quantile_of_counts counts 0.99);
  (* merge-order independence: summing two count arrays in either order
     yields the same quantiles *)
  let a = Array.make Telemetry.buckets 0 and b = Array.make Telemetry.buckets 0 in
  a.(3) <- 5;
  a.(10) <- 2;
  b.(10) <- 4;
  b.(40) <- 1;
  let merge x y = Array.init Telemetry.buckets (fun i -> x.(i) + y.(i)) in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "merge commutes at p%g" p)
        (Telemetry.quantile_of_counts (merge a b) p)
        (Telemetry.quantile_of_counts (merge b a) p))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_rolling_window_expiry () =
  let r = Rolling.create ~window_s:60. ~slots:6 () in
  let t0 = 1000. in
  Rolling.observe ~now:t0 r 10.;
  Rolling.observe ~now:t0 r 20.;
  Alcotest.(check int) "both live inside the window" 2
    (Rolling.count ~now:(t0 +. 5.) r);
  Alcotest.(check bool) "quantile sees them" true
    (Rolling.quantile ~now:(t0 +. 5.) r 0.5 > 0.);
  (* ride past the window: the old slots expire *)
  Alcotest.(check int) "expired after the window" 0
    (Rolling.count ~now:(t0 +. 120.) r);
  Alcotest.(check (float 0.)) "quantile back to 0" 0.
    (Rolling.quantile ~now:(t0 +. 120.) r 0.99);
  (* new traffic after expiry counts fresh *)
  Rolling.observe ~now:(t0 +. 121.) r 5.;
  Alcotest.(check int) "fresh observation alone" 1
    (Rolling.count ~now:(t0 +. 121.) r)

let test_rolling_concurrent () =
  (* observers on several threads, no torn totals beyond the documented
     rotation race — with a fixed [now] there is no rotation at all, so
     the count must be exact *)
  let r = Rolling.create () in
  let n = 4 and per = 2000 in
  let now = 7777. in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            for j = 1 to per do
              Rolling.observe ~now r (float_of_int ((i * per) + j))
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all concurrent observations counted" (n * per)
    (Rolling.count ~now r)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                              *)
(* ------------------------------------------------------------------ *)

let test_prom_roundtrip () =
  let p = Prometheus.create () in
  Prometheus.scalar p ~kind:Prometheus.Counter ~help:"requests served"
    "ucqc_requests" 42.;
  Prometheus.scalar p ~kind:Prometheus.Gauge "ucqc_queue_depth" 3.;
  Prometheus.scalar p ~kind:Prometheus.Gauge
    ~labels:[ ("op", "count"); ("quantile", "0.99") ]
    "ucqc_latency" 12.5;
  let counts = Array.make 64 0 in
  counts.(Telemetry.bucket_of 1.) <- 10;
  counts.(Telemetry.bucket_of 100.) <- 2;
  Prometheus.log2_histogram p ~labels:[ ("op", "count") ] "ucqc_steps"
    ~counts ~sum:230.;
  let text = Prometheus.render p in
  (match Prometheus.validate text with
  | Ok n -> Alcotest.(check bool) "several samples" true (n > 5)
  | Error msg -> Alcotest.fail ("rendered exposition invalid: " ^ msg));
  let samples =
    match Prometheus.parse text with
    | Ok s -> s
    | Error msg -> Alcotest.fail ("rendered exposition unparseable: " ^ msg)
  in
  Alcotest.(check (option (float 0.))) "counter got _total"
    (Some 42.)
    (Prometheus.find samples "ucqc_requests_total");
  Alcotest.(check (option (float 0.))) "labeled gauge found"
    (Some 12.5)
    (Prometheus.find ~labels:[ ("quantile", "0.99") ] samples "ucqc_latency");
  Alcotest.(check (option (float 0.))) "histogram count"
    (Some 12.)
    (Prometheus.find ~labels:[ ("op", "count") ] samples "ucqc_steps_count");
  Alcotest.(check (option (float 0.))) "histogram sum"
    (Some 230.)
    (Prometheus.find ~labels:[ ("op", "count") ] samples "ucqc_steps_sum");
  Alcotest.(check (option (float 0.))) "+Inf bucket equals count"
    (Some 12.)
    (Prometheus.find ~labels:[ ("le", "+Inf") ] samples "ucqc_steps_bucket")

let test_prom_sanitize () =
  Alcotest.(check string) "dots become underscores" "serve_cache_hit"
    (Prometheus.sanitize "serve.cache.hit");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Prometheus.sanitize "9lives");
  Alcotest.(check string) "legal names pass through" "ok_name:x"
    (Prometheus.sanitize "ok_name:x")

let test_prom_validate_rejects () =
  let bad_cases =
    [
      ( "interleaved families",
        "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\na_total 2\n"
      );
      ("negative counter", "# TYPE a_total counter\na_total -1\n");
      ( "histogram beyond count",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
         h_sum 1\nh_count 3\n" );
      ( "histogram without +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n" );
      ("duplicate sample", "# TYPE g gauge\ng 1\ng 2\n");
      ("garbage line", "not a metric line at all!\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      match Prometheus.validate text with
      | Ok _ -> Alcotest.failf "validate accepted %s" name
      | Error _ -> ())
    bad_cases;
  (* and a well-formed minimal exposition still passes *)
  match Prometheus.validate "# TYPE up gauge\nup 1\n" with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "minimal exposition: %d samples, expected 1" n
  | Error msg -> Alcotest.fail ("minimal exposition rejected: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Microhttp                                                          *)
(* ------------------------------------------------------------------ *)

let test_microhttp () =
  (match Microhttp.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok r ->
      Alcotest.(check string) "method" "GET" r.Microhttp.meth;
      Alcotest.(check string) "target" "/metrics" r.Microhttp.target
  | Error e -> Alcotest.fail e);
  (match Microhttp.parse_request "garbage\r\n\r\n" with
  | Ok _ -> Alcotest.fail "malformed request accepted"
  | Error _ -> ());
  Alcotest.(check string) "query string dropped" "/metrics"
    (Microhttp.path "/metrics?format=prometheus");
  Alcotest.(check bool) "incomplete head" false
    (Microhttp.head_complete "GET / HTTP/1.1\r\nHost:");
  Alcotest.(check bool) "complete head" true
    (Microhttp.head_complete "GET / HTTP/1.1\r\n\r\n");
  let resp = Microhttp.response ~status:200 ~content_type:"text/plain" "hi" in
  Alcotest.(check bool) "response has content-length" true
    (let needle = "Content-Length: 2" in
     let nl = String.length needle and rl = String.length resp in
     let rec go i = i + nl <= rl && (String.sub resp i nl = needle || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------------ *)
(* Request ids and slow-log records                                   *)
(* ------------------------------------------------------------------ *)

let test_reqid_unique () =
  let g = Reqid.create () in
  let n = 1000 in
  let ids = List.init n (fun _ -> Reqid.next g) in
  Alcotest.(check int) "all distinct" n
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) "r- prefix" true
        (String.length id > 2 && String.sub id 0 2 = "r-"))
    ids

let test_slowlog_roundtrip () =
  let e =
    {
      Slowlog.ts = 1234.5;
      request_id = "r-abc123-7";
      query = "(x) :- E(x, y)";
      op = "count";
      predicted_cost = 12.;
      observed_steps = 50000;
      factor = 4166.7;
      threshold = 8.;
      degradation = "karp-luby";
      lint_codes = [ "UCQ105"; "UCQ301" ];
      elapsed_ms = 298.4;
    }
  in
  let line = Slowlog.to_json e in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Slowlog.of_json line with
  | Error msg -> Alcotest.fail ("roundtrip failed: " ^ msg)
  | Ok e' ->
      Alcotest.(check string) "request id" e.Slowlog.request_id
        e'.Slowlog.request_id;
      Alcotest.(check int) "observed steps" e.Slowlog.observed_steps
        e'.Slowlog.observed_steps;
      Alcotest.(check (float 1e-6)) "predicted cost" e.Slowlog.predicted_cost
        e'.Slowlog.predicted_cost;
      Alcotest.(check (list string)) "lint codes" e.Slowlog.lint_codes
        e'.Slowlog.lint_codes;
      Alcotest.(check string) "degradation" e.Slowlog.degradation
        e'.Slowlog.degradation

(* ------------------------------------------------------------------ *)
(* The served /metrics endpoint, end to end                           *)
(* ------------------------------------------------------------------ *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let small_db () =
  Structure.make sg_e
    (List.init 5 (fun i -> i))
    [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 2; 3 ]; [ 3; 4 ] ]) ]

let http_get (port : int) (target : string) : int * string =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let reqs =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
      target
  in
  ignore (Unix.write_substring fd reqs 0 (String.length reqs) : int);
  let buf = Bytes.create 8192 in
  let acc = Buffer.create 8192 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes acc buf 0 n;
        drain ()
    | exception _ -> ()
  in
  drain ();
  let raw = Buffer.contents acc in
  let len = String.length raw in
  let rec head_end i =
    if i + 4 > len then Alcotest.fail "malformed HTTP response"
    else if String.sub raw i 4 = "\r\n\r\n" then i
    else head_end (i + 1)
  in
  let he = head_end 0 in
  let status =
    match int_of_string_opt (String.sub raw 9 3) with
    | Some s -> s
    | None -> Alcotest.fail "no HTTP status"
  in
  (status, String.sub raw (he + 4) (len - he - 4))

let test_server_metrics_endpoint () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-test-obs-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let slow_log = Filename.temp_file "ucqc_slow" ".jsonl" in
  let config =
    {
      (Server.default_config ~listen:(Server.Unix_socket path) ~jobs:1) with
      Server.queue_depth = 8;
      cache_capacity = 8;
      request_timeout_s = Some 10.;
      metrics_addr = Some ("127.0.0.1", 0);
      slow_query_log = Some slow_log;
      slow_factor = 8.;
    }
  in
  let t = Server.start config ~db:(small_db ()) in
  let mport =
    match Server.metrics_port t with
    | Some p -> p
    | None -> Alcotest.fail "metrics gateway not started"
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t : int);
      (* the server auto-enabled telemetry for its counters; leave the
         process the way the other suites expect it *)
      Telemetry.disable ();
      Telemetry.reset ();
      try Sys.remove slow_log with Sys_error _ -> ())
    (fun () ->
      (* drive one cheap and one deliberately mispredicted count *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_UNIX path);
      let send s =
        ignore (Unix.write_substring fd s 0 (String.length s) : int)
      in
      let recv_line =
        let buf = Buffer.create 256 in
        let one = Bytes.create 1 in
        fun () ->
          Buffer.clear buf;
          let rec go () =
            match Unix.read fd one 0 1 with
            | 0 -> Alcotest.fail "server closed the connection early"
            | _ when Bytes.get one 0 = '\n' -> Buffer.contents buf
            | _ ->
                Buffer.add_char buf (Bytes.get one 0);
                go ()
          in
          go ()
      in
      send
        {|{"op": "count", "query": "(x, y) :- E(x, z), E(z, y)", "id": 1}|};
      send "\n";
      let r1 = Trace_json.parse (recv_line ()) in
      (* every evaluated response carries a request id once the obs
         plane is on *)
      let rid1 =
        match Trace_json.member "request_id" r1 with
        | Some (Trace_json.Str s) -> s
        | _ -> Alcotest.fail "response lacks request_id"
      in
      send
        {|{"op": "count", "query": "(a, b, c, d, e, f, g, h, i) :- E(a, b), E(c, d), E(e, f), E(g, h), E(i, a)", "method": "naive", "max_steps": 50000, "id": 2}|};
      send "\n";
      let r2 = Trace_json.parse (recv_line ()) in
      let rid2 =
        match Trace_json.member "request_id" r2 with
        | Some (Trace_json.Str s) -> s
        | _ -> Alcotest.fail "mispredicted response lacks request_id"
      in
      Alcotest.(check bool) "request ids distinct" true (rid1 <> rid2);
      (* stats must read the coherent evaluator snapshot *)
      send {|{"op": "stats", "id": 3}|};
      send "\n";
      let st = Trace_json.parse (recv_line ()) in
      (match Trace_json.member "result" st with
      | Some r -> (
          (match Trace_json.member "cache" r with
          | Some c -> (
              match Trace_json.member "entries" c with
              | Some (Trace_json.Num n) ->
                  Alcotest.(check bool) "snapshot sees cached entries" true
                    (n >= 1.)
              | _ -> Alcotest.fail "stats cache block lacks entries")
          | None -> Alcotest.fail "stats lacks cache block");
          match Trace_json.member "slow_queries" r with
          | Some (Trace_json.Num n) ->
              Alcotest.(check bool) "slow query counted in stats" true
                (n >= 1.)
          | _ -> Alcotest.fail "stats lacks slow_queries")
      | None -> Alcotest.fail "stats response has no result");
      (* every scrape validates; the session's families are the only
         update counters, and the epoch is exported once *)
      let scrape () =
        let status, body = http_get mport "/metrics" in
        Alcotest.(check int) "metrics is 200" 200 status;
        (match Prometheus.validate body with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail ("exposition invalid: " ^ msg));
        let samples =
          match Prometheus.parse body with
          | Ok s -> s
          | Error msg -> Alcotest.fail ("exposition unparseable: " ^ msg)
        in
        Alcotest.(check (option (float 0.))) "no serve.db.epoch family" None
          (Prometheus.find samples "ucqc_serve_db_epoch");
        samples
      in
      let applied samples =
        match Prometheus.find samples "ucqc_session_updates_applied_total" with
        | Some v -> v
        | None -> Alcotest.fail "session update counter missing"
      in
      let applied_before = applied (scrape ()) in
      send {|{"op": "insert", "fact": "E(4, 0)", "id": 4}|};
      send "\n";
      ignore (recv_line () : string);
      (* the evaluator publishes its snapshot after each response: one
         more evaluated request makes the insert's visible *)
      send {|{"op": "count", "query": "(x, y) :- E(x, y)", "id": 5}|};
      send "\n";
      ignore (recv_line () : string);
      Unix.close fd;
      (* the exposition validates and reflects the traffic *)
      let samples = scrape () in
      (* telemetry counters are process-wide across the suites: deltas *)
      Alcotest.(check (float 0.)) "one applied update" 1.
        (applied samples -. applied_before);
      Alcotest.(check (option (float 0.))) "epoch after one insert" (Some 1.)
        (Prometheus.find samples "ucqc_db_epoch");
      (match Prometheus.find samples "ucqc_serve_requests_count_total" with
      | Some n -> Alcotest.(check bool) "count requests counted" true (n >= 2.)
      | None -> Alcotest.fail "request counter missing");
      (match Prometheus.find samples "ucqc_serve_slow_queries_total" with
      | Some n -> Alcotest.(check bool) "slow query exported" true (n >= 1.)
      | None -> Alcotest.fail "slow-query counter missing");
      (match
         Prometheus.find
           ~labels:[ ("op", "count"); ("quantile", "0.99") ]
           samples "ucqc_rolling_latency_ms"
       with
      | Some q -> Alcotest.(check bool) "rolling p99 positive" true (q > 0.)
      | None -> Alcotest.fail "rolling latency gauge missing");
      let hstatus, hbody = http_get mport "/healthz" in
      Alcotest.(check int) "healthz 200 while serving" 200 hstatus;
      Alcotest.(check string) "healthz body" "ok\n" hbody;
      (* the slow-query log carries the mispredicted request's id *)
      let ic = open_in slow_log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let entries =
        List.filter_map
          (fun l ->
            match Slowlog.of_json l with Ok e -> Some e | Error _ -> None)
          !lines
      in
      match
        List.find_opt (fun e -> e.Slowlog.request_id = rid2) entries
      with
      | Some e ->
          Alcotest.(check string) "slow entry op" "count" e.Slowlog.op;
          Alcotest.(check bool) "slow entry observed steps" true
            (e.Slowlog.observed_steps >= 50000)
      | None -> Alcotest.fail "no slow-log entry for the mispredicted query");
  (* the gateway dies with the server: the port must refuse *)
  match http_get mport "/healthz" with
  | exception _ -> ()
  | status, _ ->
      Alcotest.failf "gateway still answering HTTP %d after stop" status

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "rolling bucket layout" `Quick test_rolling_buckets;
        Alcotest.test_case "rolling quantiles" `Quick test_rolling_quantiles;
        Alcotest.test_case "rolling window expiry" `Quick
          test_rolling_window_expiry;
        Alcotest.test_case "rolling concurrent observers" `Quick
          test_rolling_concurrent;
        Alcotest.test_case "prometheus build/parse roundtrip" `Quick
          test_prom_roundtrip;
        Alcotest.test_case "prometheus sanitize" `Quick test_prom_sanitize;
        Alcotest.test_case "prometheus validate rejects" `Quick
          test_prom_validate_rejects;
        Alcotest.test_case "microhttp parsing" `Quick test_microhttp;
        Alcotest.test_case "request ids unique" `Quick test_reqid_unique;
        Alcotest.test_case "slowlog json roundtrip" `Quick
          test_slowlog_roundtrip;
        Alcotest.test_case "served /metrics end to end" `Quick
          test_server_metrics_endpoint;
      ] );
  ]
