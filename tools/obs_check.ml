(** Observability conformance checker for [ucqc serve].

    Spawns the real server binary with [--metrics-addr 127.0.0.1:0],
    an access log and a slow-query log, then holds the whole
    observability plane against its contract:

    - every [/metrics] scrape passes {!Prometheus.validate} (exposition
      format 0.0.4) and is served with the exposition content type;
    - counters are monotone across scrapes (same name and label set,
      never decreasing, never disappearing);
    - a deliberately mispredicted query (naive enumeration where the
      plan predicts cheap acyclic counting) produces a slow-query log
      entry whose request id matches the wire response, carrying the
      plan estimate, the observed step count and the lint codes;
    - every evaluated request appears in the access log under its
      request id;
    - [/healthz] answers 200 while serving and flips to 503 during a
      SIGTERM drain, and the process still exits 0.

    Run from the repository root: [dune exec tools/obs_check.exe].
    [--bin PATH] overrides the server binary; [--out DIR] keeps every
    scraped exposition as files (the CI artifact). *)

open Live

let out_dir : string option ref = ref None

let save name contents =
  match !out_dir with
  | None -> ()
  | Some dir ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc contents;
      close_out oc

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

(* the live server plus the ops-plane port and the logs it writes *)
type obs_server = {
  srv : server;
  mport : int;
  access_log : string;
  slow_log : string;
}

(* The CLI announces the actual gateway port on stderr:
   "ucqc: metrics on http://HOST:PORT/metrics" — the contract that makes
   --metrics-addr HOST:0 scriptable. *)
let parse_metrics_port (log_text : string) : int option =
  let needle = "ucqc: metrics on http://" in
  let nlen = String.length needle in
  let llen = String.length log_text in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub log_text i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt log_text start ':' with
      | None -> None
      | Some colon ->
          let digits = Buffer.create 8 in
          let i = ref (colon + 1) in
          while
            !i < llen && log_text.[!i] >= '0' && log_text.[!i] <= '9'
          do
            Buffer.add_char digits log_text.[!i];
            incr i
          done;
          int_of_string_opt (Buffer.contents digits))

let start_obs_server ?(extra = []) () : obs_server =
  let access_log = Filename.concat !tmp "access.jsonl" in
  let slow_log = Filename.concat !tmp "slow.jsonl" in
  let srv =
    start_server ~name:"obs"
      ~extra:
        ([
           "--metrics-addr"; "127.0.0.1:0";
           "--access-log"; access_log;
           "--slow-query-log"; slow_log;
         ]
        @ extra)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_port () =
    match parse_metrics_port (try read_file srv.log with _ -> "") with
    | Some p -> p
    | None ->
        if Unix.gettimeofday () > deadline then
          failwith "server never announced its metrics port"
        else begin
          Unix.sleepf 0.05;
          wait_port ()
        end
  in
  let mport = wait_port () in
  { srv; mport; access_log; slow_log }

(* ------------------------------------------------------------------ *)
(* Client: HTTP on the ops plane                                     *)
(* ------------------------------------------------------------------ *)

(* One HTTP GET against the gateway; the reply is (status, headers,
   body).  The gateway closes after every response, so read to EOF. *)
let http_get (port : int) (target : string) : (int * string * string, string) result =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connect :%d: %s" port (Unix.error_message e))
  | () -> (
      send_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
           target);
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
        if i + 4 > len then None
        else if String.sub raw i 4 = "\r\n\r\n" then Some i
        else head_end (i + 1)
      in
      match head_end 0 with
      | None -> Error "malformed HTTP response"
      | Some he ->
          let head = String.sub raw 0 he in
          let body = String.sub raw (he + 4) (len - he - 4) in
          let status =
            if String.length head >= 12 then
              Option.value ~default:(-1)
                (int_of_string_opt (String.sub head 9 3))
            else -1
          in
          Ok (status, head, body))

let scrape (s : obs_server) ~(name : string) : Prometheus.sample list =
  match http_get s.mport "/metrics" with
  | Error msg ->
      report "scrape %s: %s" name msg;
      []
  | Ok (status, head, body) -> (
      save (name ^ ".prom") body;
      if status <> 200 then report "scrape %s: HTTP %d" name status;
      let lower = String.lowercase_ascii head in
      let has_sub needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      if not (has_sub "text/plain; version=0.0.4" lower) then
        report "scrape %s served without the exposition content type" name;
      (match Prometheus.validate body with
      | Ok n ->
          Printf.printf "   %s: %d samples validated\n%!" name n
      | Error msg -> report "scrape %s fails validation: %s" name msg);
      match Prometheus.parse body with
      | Ok samples -> samples
      | Error msg ->
          report "scrape %s unparseable: %s" name msg;
          [])

let value ?labels (samples : Prometheus.sample list) (name : string) : float
    option =
  Prometheus.find ?labels samples name

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

let check_monotone ~(from_name : string) ~(to_name : string)
    (before : Prometheus.sample list) (after : Prometheus.sample list) : unit
    =
  let is_counter (s : Prometheus.sample) =
    let n = s.Prometheus.sname in
    let suffix = "_total" in
    let nl = String.length n and sl = String.length suffix in
    nl >= sl && String.sub n (nl - sl) sl = suffix
  in
  List.iter
    (fun (s : Prometheus.sample) ->
      if is_counter s then
        match
          value ~labels:s.Prometheus.slabels after s.Prometheus.sname
        with
        | None ->
            report "counter %s%s disappeared between %s and %s"
              s.Prometheus.sname
              (match s.Prometheus.slabels with
              | [] -> ""
              | l ->
                  "{"
                  ^ String.concat ","
                      (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                  ^ "}")
              from_name to_name
        | Some v ->
            if v < s.Prometheus.svalue then
              report "counter %s went backwards: %g -> %g (%s -> %s)"
                s.Prometheus.sname s.Prometheus.svalue v from_name to_name)
    before

let check_health (s : obs_server) ~(expect : int) ~(what : string) : unit =
  match http_get s.mport "/healthz" with
  | Error msg -> report "healthz (%s): %s" what msg
  | Ok (status, _, _) ->
      if status <> expect then
        report "healthz (%s): HTTP %d, expected %d" what status expect

(* A query the static plan prices as cheap acyclic counting, forced
   through naive enumeration: 5^9 assignments against a prediction of a
   handful of steps — drift far past any sane slow factor. *)
let mispredicted_query =
  "(a, b, c, d, e, f, g, h, i) :- E(a, b), E(c, d), E(e, f), E(g, h), E(i, \
   a)"

let drive_load (s : obs_server) : string option =
  let quick = "(x) :- E(x, y)" in
  let mk id fields =
    req
      ([ ("op", Trace_json.Str "count"); ("id", Trace_json.Num id) ] @ fields)
  in
  let lines =
    List.init 8 (fun i ->
        mk
          (float_of_int (200 + i))
          [ ("query", Trace_json.Str quick) ])
    @ [
        mk 300.
          [
            ("query", Trace_json.Str mispredicted_query);
            ("method", Trace_json.Str "naive");
            ("max_steps", Trace_json.Num 50000.);
          ];
      ]
  in
  let resps = roundtrip ~deadline_s:20. s.srv lines ~expect:(List.length lines) in
  if List.length resps <> List.length lines then
    report "load: %d responses for %d requests" (List.length resps)
      (List.length lines);
  (* the mispredicted request must degrade (its exact budget blown) and
     carry a request id we can chase through the logs *)
  match
    List.find_opt
      (fun v -> num_of (mem "id" v) = Some 300.)
      resps
  with
  | None ->
      report "mispredicted request never answered";
      None
  | Some v ->
      (match str_of (mem "status" v) with
      | Some ("degraded" | "ok") -> ()
      | st ->
          report "mispredicted request status %s"
            (Option.value ~default:"<missing>" st));
      let rid = str_of (mem "request_id" v) in
      if rid = None then report "mispredicted response lacks request_id";
      rid

let check_slow_log (s : obs_server) (rid : string option) : unit =
  match rid with
  | None -> ()
  | Some rid -> (
      let text = try read_file s.slow_log with _ -> "" in
      save "slow.jsonl" text;
      let entries =
        String.split_on_char '\n' text
        |> List.filter (fun l -> l <> "")
        |> List.filter_map (fun l ->
               match Slowlog.of_json l with
               | Ok e -> Some e
               | Error msg ->
                   report "slow log line unparseable (%s): %S" msg l;
                   None)
      in
      if entries = [] then report "slow log is empty after a mispredicted query";
      match
        List.find_opt (fun e -> e.Slowlog.request_id = rid) entries
      with
      | None -> report "no slow-log entry for request %s" rid
      | Some e ->
          if e.Slowlog.observed_steps <= 0 then
            report "slow-log entry has no observed steps";
          if e.Slowlog.predicted_cost < 0. then
            report "slow-log predicted cost %g < 0" e.Slowlog.predicted_cost;
          if e.Slowlog.factor < e.Slowlog.threshold then
            report "slow-log entry below its own threshold (%g < %g)"
              e.Slowlog.factor e.Slowlog.threshold;
          if e.Slowlog.op <> "count" then
            report "slow-log entry op %s" e.Slowlog.op;
          if e.Slowlog.lint_codes = [] then
            report "slow-log entry carries no lint codes for a query the \
                    analyzer flags")

let check_access_log (s : obs_server) : unit =
  let text = try read_file s.access_log with _ -> "" in
  save "access.jsonl" text;
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  if List.length lines < 9 then
    report "access log has %d lines, expected at least 9 evaluated requests"
      (List.length lines);
  List.iter
    (fun l ->
      match Trace_json.parse l with
      | exception _ -> report "access log line not JSON: %S" l
      | v ->
          if str_of (mem "request_id" v) = None then
            report "access log line lacks request_id: %S" l;
          if str_of (mem "op" v) = None then
            report "access log line lacks op: %S" l;
          if num_of (mem "elapsed_ms" v) = None then
            report "access log line lacks elapsed_ms: %S" l)
    lines

(* ------------------------------------------------------------------ *)

let () =
  let rec parse_args = function
    | [] -> ()
    | "--bin" :: v :: rest ->
        bin := v;
        parse_args rest
    | "--db" :: v :: rest ->
        db_file := v;
        parse_args rest
    | "--out" :: v :: rest ->
        out_dir := Some v;
        parse_args rest
    | a :: _ ->
        Printf.eprintf "obs_check: unknown argument %s\n" a;
        exit 64
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  exit_if_no_bin "obs_check";
  (match !out_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  tmp := mkdtemp "obs";
  let s =
    start_obs_server
      ~extra:
        [ "--request-timeout"; "10"; "--drain-deadline"; "3"; "--slow-factor";
          "8" ]
      ()
  in
  Printf.printf "obs_check: server up, metrics port %d\n%!" s.mport;

  let before = ref [] and after = ref [] in
  section "scrape before load" (fun () ->
      before := scrape s ~name:"scrape-before";
      if !before = [] then report "empty first scrape";
      check_health s ~expect:200 ~what:"serving";
      (match http_get s.mport "/readyz" with
      | Ok (200, _, _) -> ()
      | Ok (st, _, _) -> report "readyz: HTTP %d" st
      | Error msg -> report "readyz: %s" msg);
      (* the ops plane knows its own identity *)
      match value !before "ucqc_build_info" with
      | Some 1. -> ()
      | _ -> report "ucqc_build_info missing or not 1");

  let slow_rid = ref None in
  section "load (including a mispredicted query)" (fun () ->
      slow_rid := drive_load s);

  section "scrape after load: monotone counters" (fun () ->
      after := scrape s ~name:"scrape-after";
      check_monotone ~from_name:"before" ~to_name:"after" !before !after;
      (match
         ( value !before "ucqc_serve_requests_count_total",
           value !after "ucqc_serve_requests_count_total" )
       with
      | Some b, Some a when a >= b +. 9. -> ()
      | b, a ->
          report "count requests did not advance (%s -> %s)"
            (match b with Some x -> string_of_float x | None -> "absent")
            (match a with Some x -> string_of_float x | None -> "absent"));
      (match value !after "ucqc_serve_slow_queries_total" with
      | Some n when n >= 1. -> ()
      | _ -> report "slow-query counter did not fire");
      match
        value
          ~labels:[ ("op", "count"); ("quantile", "0.99") ]
          !after "ucqc_rolling_latency_ms"
      with
      | Some q when q > 0. -> ()
      | _ -> report "rolling p99 for count missing or zero after load");

  section "slow-query log" (fun () -> check_slow_log s !slow_rid);
  section "access log" (fun () -> check_access_log s);

  section "SIGTERM drain: healthz flips, exit 0" (fun () ->
      (* pin the evaluator so the drain window is observable: a naive
         sweep over 11 variables outlasts the 3 s drain deadline *)
      let fd = connect s.srv in
      send_all fd
        (req
           [
             ("op", Trace_json.Str "count");
             ( "query",
               Trace_json.Str
                 "(a, b, c, d, e, f, g, h, i, j, k) :- E(a, b), E(c, d), \
                  E(e, f), E(g, h), E(i, j), E(k, a)" );
             ("method", Trace_json.Str "naive");
             ("id", Trace_json.Num 400.);
           ]);
      Unix.sleepf 0.3;
      Unix.kill s.srv.pid Sys.sigterm;
      (* the drain flag is set in the signal handler, so the flip must
         be prompt even though the evaluator is pinned *)
      let deadline = Unix.gettimeofday () +. 2. in
      let rec wait_503 () =
        match http_get s.mport "/healthz" with
        | Ok (503, _, _) -> ()
        | _ ->
            if Unix.gettimeofday () > deadline then
              report "healthz never flipped to 503 during the drain"
            else begin
              Unix.sleepf 0.05;
              wait_503 ()
            end
      in
      wait_503 ();
      ignore (scrape s ~name:"scrape-draining");
      (match value (scrape s ~name:"scrape-draining-2") "ucqc_draining" with
      | Some 1. -> ()
      | _ -> report "ucqc_draining not 1 during the drain");
      (try Unix.close fd with _ -> ());
      (match wait_exit s.srv ~deadline_s:15. with
      | Some (Unix.WEXITED 0) -> ()
      | Some (Unix.WEXITED c) ->
          report "server exited %d after SIGTERM, expected 0" c;
          Printf.printf "server log:\n%s\n"
            (try read_file s.srv.log with _ -> "<unreadable>")
      | Some (Unix.WSIGNALED sg) -> report "server killed by signal %d" sg
      | Some (Unix.WSTOPPED _) -> report "server stopped unexpectedly"
      | None ->
          report "server did not exit within 15 s of SIGTERM";
          (try Unix.kill s.srv.pid Sys.sigkill with _ -> ());
          ignore (try Unix.waitpid [] s.srv.pid with _ -> (0, Unix.WEXITED 0)));
      (* the gateway goes down last — after the drain it must be gone *)
      match http_get s.mport "/healthz" with
      | Error _ -> ()
      | Ok (st, _, _) ->
          report "gateway still answering (HTTP %d) after exit" st);

  finish "obs_check" ~what:"checks"
