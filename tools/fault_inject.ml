(** Fault-injection harness for [ucqc serve].

    Spawns the real server binary, then attacks it: malformed and
    oversized frames, truncated writes, mid-request disconnects, a
    slowloris client, bursts past the admission bound, budget-blowing
    queries, interleaved mutation streams — asserting after each
    scenario that the server is still alive, every response frame is
    well-formed JSON, ids are echoed exactly once, and the counters
    stay consistent.  Ends with a SIGTERM drain: the process must exit
    0 within the deadline and leave a validating Chrome trace and
    parseable metrics behind.

    Also the server's correctness oracle: a [count] answered over the
    socket must be bit-identical to the one-shot CLI on the same query
    and database — including after every accepted update, where the
    oracle re-renders the mutated database to a [.facts] file and
    one-shots it.  Tier-A/B queries must keep answering from their
    maintained states ([result.source] never falls back to
    ["computed"]) while the epoch advances, and a [ucqc watch] run
    over an equivalent delta stream must agree with the one-shot CLI
    on its [--final-db] output.

    Run from the repository root: [dune exec tools/fault_inject.exe].
    [--bin PATH] overrides the server binary (default
    [_build/default/bin/ucqc_cli.exe]). *)

open Live

let query_file = ref "data/example_query.ucq"

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let stop_server ?(signal = Sys.sigterm) ?(expect = 0) (s : server) : unit =
  (try Unix.kill s.pid signal with _ -> ());
  match wait_exit s ~deadline_s:10. with
  | None ->
      report "server (pid %d) did not exit within 10 s of signal %d" s.pid
        signal;
      (try Unix.kill s.pid Sys.sigkill with _ -> ());
      ignore (try Unix.waitpid [] s.pid with _ -> (0, Unix.WEXITED 0))
  | Some (Unix.WEXITED code) ->
      if code <> expect then begin
        report "server exited %d, expected %d" code expect;
        Printf.printf "server log:\n%s\n"
          (try read_file s.log with _ -> "<unreadable>")
      end
  | Some (Unix.WSIGNALED sg) -> report "server killed by signal %d" sg
  | Some (Unix.WSTOPPED _) -> report "server stopped unexpectedly"

let alive (s : server) : bool =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ -> false
  | exception _ -> false

(* ------------------------------------------------------------------ *)
(* Client plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let num f = Trace_json.Num f

let status_of (v : Trace_json.t) : string =
  Option.value ~default:"<missing>" (str_of (mem "status" v))

let id_of (v : Trace_json.t) : float option = num_of (mem "id" v)

(* Well-formedness every response must satisfy. *)
let check_response_shape (v : Trace_json.t) : unit =
  (match mem "status" v with
  | Some (Trace_json.Str _) -> ()
  | _ -> report "response lacks a string status: %s" (Trace_json.to_string v));
  match mem "code" v with
  | Some (Trace_json.Num _) -> ()
  | _ -> report "response lacks a numeric code: %s" (Trace_json.to_string v)

(* ------------------------------------------------------------------ *)
(* One-shot CLI oracle                                                *)
(* ------------------------------------------------------------------ *)

let run_oneshot (args : string list) : int * string =
  let out = Filename.concat !tmp "oneshot.out" in
  let outfd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let errfd =
    Unix.openfile
      (Filename.concat !tmp "oneshot.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o600
  in
  let pid =
    Unix.create_process !bin (Array.of_list (!bin :: args)) null outfd errfd
  in
  Unix.close outfd;
  Unix.close errfd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, String.trim (read_file out))

(* ------------------------------------------------------------------ *)
(* Scenarios                                                          *)
(* ------------------------------------------------------------------ *)

let scenario_ping (s : server) =
  section "ping" (fun () ->
      match
        roundtrip s [ req [ ("op", Trace_json.Str "ping"); ("id", num 1.) ] ]
          ~expect:1
      with
      | [ v ] ->
          check_response_shape v;
          if status_of v <> "ok" then report "ping status %s" (status_of v);
          if mem "pong" v <> Some (Trace_json.Bool true) then
            report "ping lacks pong:true";
          if id_of v <> Some 1. then report "ping id not echoed"
      | l -> report "ping: %d responses, expected 1" (List.length l))

let scenario_correctness (s : server) =
  section "correctness vs one-shot CLI" (fun () ->
      let code, expected = run_oneshot [ "count"; !query_file; !db_file ] in
      if code <> 0 then report "one-shot count exited %d" code
      else
        let query = read_file !query_file in
        match
          roundtrip s
            [
              req
                [
                  ("op", Trace_json.Str "count");
                  ("id", num 10.);
                  ("query", Trace_json.Str query);
                ];
            ]
            ~expect:1
        with
        | [ v ] -> (
            check_response_shape v;
            if status_of v <> "ok" then
              report "served count status %s: %s" (status_of v)
                (Trace_json.to_string v)
            else
              match num_of (mem "count" (Option.get (mem "result" v))) with
              | Some n ->
                  let served = Printf.sprintf "%d" (int_of_float n) in
                  if served <> expected then
                    report "served count %s <> one-shot %s" served expected
              | None -> report "count response lacks result.count")
        | l -> report "count: %d responses, expected 1" (List.length l))

let scenario_malformed (s : server) =
  section "malformed frames" (fun () ->
      let junk =
        [
          "not json at all\n";
          "{\"op\":\n";
          "[1,2,3]\n";
          "{\"op\":\"count\"}\n";
          "{\"op\":\"count\",\"query\":42}\n";
          "{\"op\":\"launch-missiles\"}\n";
          "{\"op\":\"count\",\"query\":\"(x) :- E(x, y)\",\"id\":{\"nested\":1}}\n";
          "{\"op\":\"count\",\"query\":\"(x) :- E(x, y)\",\"max_steps\":-5}\n";
          "\"just a string\"\n";
          "null\n";
        ]
      in
      let resps = roundtrip s junk ~expect:(List.length junk) in
      if List.length resps <> List.length junk then
        report "malformed: %d responses for %d frames" (List.length resps)
          (List.length junk);
      List.iter
        (fun v ->
          check_response_shape v;
          if status_of v <> "error" then
            report "malformed frame answered %s: %s" (status_of v)
              (Trace_json.to_string v))
        resps;
      if not (alive s) then report "server died on malformed frames")

let scenario_oversized (s : server) =
  section "oversized frame" (fun () ->
      (* main server runs with --max-frame-bytes 8192 *)
      let big = String.make 20_000 'a' ^ "\n" in
      let follow = req [ ("op", Trace_json.Str "ping"); ("id", num 7.) ] in
      let resps = roundtrip s [ big; follow ] ~expect:2 in
      (match resps with
      | [ a; b ] ->
          check_response_shape a;
          check_response_shape b;
          if status_of a <> "error" then
            report "oversized frame answered %s" (status_of a);
          (match str_of (mem "kind" (Option.value ~default:Trace_json.Null
                                       (mem "error" a))) with
          | Some "frame_too_large" -> ()
          | k ->
              report "oversized frame kind %s"
                (Option.value ~default:"<none>" k));
          (* the connection survived the oversized frame *)
          if status_of b <> "ok" then report "ping after oversized failed"
      | l -> report "oversized: %d responses, expected 2" (List.length l));
      if not (alive s) then report "server died on oversized frame")

let scenario_random_bytes (s : server) =
  section "random bytes" (fun () ->
      (* deterministic LCG junk, newlines sprinkled in so frames form *)
      let st = ref 0x2545F491 in
      let next () =
        st := (!st * 1103515245) + 12345;
        (!st lsr 16) land 0xff
      in
      let buf = Buffer.create 4096 in
      for _ = 1 to 2048 do
        let b = next () in
        if b land 0x3f = 0 then Buffer.add_char buf '\n'
        else Buffer.add_char buf (Char.chr (max 1 b))
      done;
      Buffer.add_char buf '\n';
      let fd = connect s in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          send_all fd (Buffer.contents buf);
          send_all fd (req [ ("op", Trace_json.Str "ping"); ("id", num 9.) ]);
          let resps = recv_lines fd 1000 ~deadline_s:3. in
          List.iter
            (fun line ->
              match parse_response line with
              | Some v -> check_response_shape v
              | None -> report "random-bytes response not JSON: %S" line)
            resps;
          let pings =
            List.filter
              (fun l ->
                match parse_response l with
                | Some v -> id_of v = Some 9.
                | None -> false)
              resps
          in
          if List.length pings <> 1 then
            report "ping after random bytes: %d echoes" (List.length pings));
      if not (alive s) then report "server died on random bytes")

let scenario_truncated (s : server) =
  section "truncated frame + disconnect" (fun () ->
      let fd = connect s in
      send_all fd "{\"op\":\"count\",\"query\":\"(x) :- E";
      Unix.close fd;
      Unix.sleepf 0.1;
      if not (alive s) then report "server died on truncated frame";
      (* server still answers *)
      match
        roundtrip s [ req [ ("op", Trace_json.Str "ping") ] ] ~expect:1
      with
      | [ _ ] -> ()
      | l -> report "ping after truncated: %d responses" (List.length l))

let scenario_mid_request_disconnect (s : server) =
  section "mid-request disconnect" (fun () ->
      let query = read_file !query_file in
      let fd = connect s in
      send_all fd
        (req
           [
             ("op", Trace_json.Str "count");
             ("query", Trace_json.Str query);
             ("id", num 11.);
           ]);
      (* hang up before the evaluator answers *)
      Unix.close fd;
      Unix.sleepf 0.3;
      if not (alive s) then report "server died on mid-request disconnect";
      match
        roundtrip s [ req [ ("op", Trace_json.Str "ping") ] ] ~expect:1
      with
      | [ _ ] -> ()
      | l -> report "ping after disconnect: %d responses" (List.length l))

let scenario_slowloris (s : server) =
  section "slowloris" (fun () ->
      let line = req [ ("op", Trace_json.Str "ping"); ("id", num 21.) ] in
      let fd = connect s in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          String.iter
            (fun c ->
              send_all fd (String.make 1 c);
              Unix.sleepf 0.01)
            line;
          match recv_lines fd 1 ~deadline_s:5. with
          | [ l ] -> (
              match parse_response l with
              | Some v ->
                  if id_of v <> Some 21. then report "slowloris wrong id"
              | None -> report "slowloris response not JSON")
          | l -> report "slowloris: %d responses" (List.length l)))

let scenario_idle_timeout () =
  section "idle timeout" (fun () ->
      let s =
        start_server ~name:"idle" ~extra:[ "--idle-timeout"; "0.5" ] ()
      in
      Fun.protect
        ~finally:(fun () -> stop_server s)
        (fun () ->
          let fd = connect s in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5
               with _ -> ());
              let deadline = Unix.gettimeofday () +. 5. in
              let chunk = Bytes.create 64 in
              let rec wait_eof () =
                if Unix.gettimeofday () > deadline then
                  report "idle connection not closed within 5 s"
                else
                  match Unix.read fd chunk 0 64 with
                  | 0 -> () (* closed by the server: expected *)
                  | _ -> wait_eof ()
                  | exception
                      Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
                    ->
                      wait_eof ()
                  | exception _ -> ()
              in
              wait_eof ())))

let scenario_burst () =
  section "burst beyond the queue bound" (fun () ->
      let s =
        start_server ~name:"burst"
          ~extra:
            [ "--queue-depth"; "2"; "--jobs"; "1"; "--request-timeout"; "2" ]
          ()
      in
      Fun.protect
        ~finally:(fun () -> stop_server s)
        (fun () ->
          (* a query slow enough to pin the evaluator: naive enumeration
             over 9 variables, capped by the 2 s request timeout *)
          let heavy =
            "(a, b, c, d, e, f, g, h, i) :- E(a, b), E(c, d), E(e, f), E(g, \
             h), E(i, a)"
          in
          let quick = "(x) :- E(x, y)" in
          let fd = connect s in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              send_all fd
                (req
                   [
                     ("op", Trace_json.Str "count");
                     ("query", Trace_json.Str heavy);
                     ("method", Trace_json.Str "naive");
                     ("id", num 100.);
                   ]);
              Unix.sleepf 0.3;
              let n_burst = 10 in
              for i = 1 to n_burst do
                send_all fd
                  (req
                     [
                       ("op", Trace_json.Str "count");
                       ("query", Trace_json.Str quick);
                       ("id", num (100. +. float_of_int i));
                     ])
              done;
              let resps =
                List.filter_map parse_response
                  (recv_lines fd (n_burst + 1) ~deadline_s:15.)
              in
              if List.length resps <> n_burst + 1 then
                report "burst: %d responses for %d requests"
                  (List.length resps) (n_burst + 1);
              List.iter check_response_shape resps;
              (* each id answered exactly once *)
              for i = 0 to n_burst do
                let id = 100. +. float_of_int i in
                let n =
                  List.length
                    (List.filter (fun v -> id_of v = Some id) resps)
                in
                if n <> 1 then report "burst id %g answered %d times" id n
              done;
              let shed =
                List.filter (fun v -> status_of v = "overloaded") resps
              in
              if shed = [] then
                report "burst: nothing shed with queue depth 2";
              List.iter
                (fun v ->
                  match num_of (mem "retry_after_ms" v) with
                  | Some ms when ms > 0. -> ()
                  | _ -> report "overloaded without positive retry_after_ms")
                shed;
              (* the pinned request itself must resolve: degraded (its
                 exact attempt timed out) or exact if the machine raced
                 through it *)
              match List.find_opt (fun v -> id_of v = Some 100.) resps with
              | Some v ->
                  if not (List.mem (status_of v) [ "ok"; "degraded"; "error" ])
                  then report "heavy request status %s" (status_of v)
              | None -> report "heavy request never answered")))

let scenario_budget (s : server) =
  section "budget-blowing query" (fun () ->
      let mk id q fields =
        req
          ([
             ("op", Trace_json.Str "count");
             ("query", Trace_json.Str q);
             ("id", num id);
           ]
          @ fields)
      in
      (* two distinct queries: a repeated spelling would be answered
         exactly from its maintained state regardless of the budget, and
         this scenario is about the degradation path *)
      let resps =
        roundtrip s
          [
            mk 30. "(x) :- E(x, y) ; E(y, x)"
              [ ("max_steps", num 3.); ("no_fallback", Trace_json.Bool true) ];
            mk 31. "(x) :- E(x, y)" [ ("max_steps", num 3.) ];
          ]
          ~expect:2
      in
      match resps with
      | [ a; b ] ->
          check_response_shape a;
          check_response_shape b;
          if status_of a <> "error" || num_of (mem "code" a) <> Some 124. then
            report "no-fallback exhaustion: %s" (Trace_json.to_string a);
          if status_of b <> "degraded" then
            report "fallback exhaustion status %s" (status_of b)
          else if
            num_of
              (mem "estimate"
                 (Option.value ~default:Trace_json.Null (mem "result" b)))
            = None
          then report "degraded response lacks result.estimate"
      | l -> report "budget: %d responses, expected 2" (List.length l))

let scenario_cache_and_stats (s : server) =
  section "cache + stats consistency" (fun () ->
      let q = "(u, v) :- E(u, w), E(w, v), E(v, u)" in
      let mk id =
        req
          [
            ("op", Trace_json.Str "count");
            ("query", Trace_json.Str q);
            ("id", num id);
          ]
      in
      let resps = roundtrip s [ mk 40.; mk 41.; mk 42. ] ~expect:3 in
      (match resps with
      | [ a; b; c ] ->
          let cache v = Option.value ~default:"" (str_of (mem "cache" v)) in
          if cache a <> "miss" then report "first lookup cache=%s" (cache a);
          if cache b <> "hit" then report "second lookup cache=%s" (cache b);
          if cache c <> "hit" then report "third lookup cache=%s" (cache c);
          let counts =
            List.map
              (fun v -> num_of (mem "count" (Option.get (mem "result" v))))
              resps
          in
          (match counts with
          | [ Some x; Some y; Some z ] when x = y && y = z -> ()
          | _ -> report "cached results differ from cold result")
      | l -> report "cache: %d responses, expected 3" (List.length l));
      match
        roundtrip s [ req [ ("op", Trace_json.Str "stats") ] ] ~expect:1
      with
      | [ v ] -> (
          match mem "result" v with
          | Some r ->
              let get k = num_of (mem k r) in
              let ok = get "responses_ok" in
              let total = get "requests_total" in
              (match (ok, total) with
              | Some ok, Some total when ok <= total -> ()
              | _ -> report "stats: responses_ok > requests_total");
              (match mem "cache" r with
              | Some cr -> (
                  match num_of (mem "hits" cr) with
                  | Some h when h >= 2. -> ()
                  | _ -> report "stats: cache hits not recorded")
              | None -> report "stats lacks cache block")
          | None -> report "stats lacks result")
      | l -> report "stats: %d responses, expected 1" (List.length l))

let scenario_drain (s : server) ~(trace : string) ~(metrics : string) =
  section "SIGTERM drain" (fun () ->
      (* leave a request in flight while the signal lands *)
      let fd = connect s in
      send_all fd
        (req
           [
             ("op", Trace_json.Str "count");
             ("query", Trace_json.Str "(x, y) :- E(x, z), E(z, y)");
             ("id", num 50.);
           ]);
      Unix.sleepf 0.05;
      stop_server s ~expect:0;
      (try Unix.close fd with _ -> ());
      (* the drain must have flushed a valid Chrome trace *)
      (match Trace_json.parse (read_file trace) with
      | v -> (
          match Trace_json.validate_chrome_trace v with
          | Ok _ -> ()
          | Error msg -> report "drained trace invalid: %s" msg)
      | exception e ->
          report "drained trace unreadable: %s" (Printexc.to_string e));
      match Trace_json.parse (read_file metrics) with
      | Trace_json.Obj _ -> ()
      | _ -> report "drained metrics not a JSON object"
      | exception e ->
          report "drained metrics unreadable: %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Live-update scenarios                                              *)
(* ------------------------------------------------------------------ *)

(* A dedicated database with an explicit universe (spare element 5) and
   three relations, so one registered query lands on tier A and one on
   tier B. *)
let update_db_text =
  "universe { 0, 1, 2, 3, 4, 5 }\n\
   E(0, 1). E(1, 2). E(2, 0). E(2, 3). E(3, 4).\n\
   R(0). R(1).\n\
   S(0, 0).\n"

let tier_a_query = "(x) :- R(x), S(x, y)"
let tier_b_query = "(x, y) :- E(x, z), E(z, y)"

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* The harness's own mirror of the mutated database: the source of the
   equivalent [.facts] file the one-shot oracle counts. *)
type mirror = (string * int list) list ref

let mirror_of_seed () : mirror =
  ref
    [
      ("E", [ 0; 1 ]); ("E", [ 1; 2 ]); ("E", [ 2; 0 ]); ("E", [ 2; 3 ]);
      ("E", [ 3; 4 ]); ("R", [ 0 ]); ("R", [ 1 ]); ("S", [ 0; 0 ]);
    ]

let mirror_apply (m : mirror) ~(insert : bool) (rel : string)
    (args : int list) : unit =
  if insert then begin
    if not (List.mem (rel, args) !m) then m := !m @ [ (rel, args) ]
  end
  else m := List.filter (fun t -> t <> (rel, args)) !m

let mirror_facts (m : mirror) : string =
  let fact (rel, args) =
    Printf.sprintf "%s(%s)." rel
      (String.concat ", " (List.map string_of_int args))
  in
  "universe { 0, 1, 2, 3, 4, 5 }\n"
  ^ String.concat "\n" (List.map fact !m)
  ^ "\n"

(* Served count for [query], plus the [source]/[tier]/[epoch] fields of
   the response. *)
let served_count (s : server) ~(id : float) (query : string) :
    (int * string * string * float) option =
  match
    roundtrip s
      [
        req
          [
            ("op", Trace_json.Str "count");
            ("query", Trace_json.Str query);
            ("id", num id);
          ];
      ]
      ~expect:1
  with
  | [ v ] -> (
      check_response_shape v;
      if status_of v <> "ok" then begin
        report "count during updates: status %s: %s" (status_of v)
          (Trace_json.to_string v);
        None
      end
      else
        let r = Option.value ~default:Trace_json.Null (mem "result" v) in
        match num_of (mem "count" r) with
        | None ->
            report "count during updates lacks result.count";
            None
        | Some n ->
            let sf k = Option.value ~default:"" (str_of (mem k r)) in
            let ep = Option.value ~default:(-1.) (num_of (mem "epoch" r)) in
            Some (int_of_float n, sf "source", sf "tier", ep))
  | l ->
      report "count during updates: %d responses, expected 1" (List.length l);
      None

let oneshot_count (query_text : string) (facts : string) ~(tag : string) :
    int option =
  let qf = write_file (Filename.concat !tmp (tag ^ ".ucq")) query_text in
  let dbf = write_file (Filename.concat !tmp (tag ^ ".facts")) facts in
  let code, out = run_oneshot [ "count"; qf; dbf ] in
  if code <> 0 then begin
    report "one-shot oracle (%s) exited %d" tag code;
    None
  end
  else int_of_string_opt out

(* One mutation request; returns the response, counting shape failures. *)
let mutate (s : server) ~(id : float) (fields : (string * Trace_json.t) list)
    : Trace_json.t option =
  match roundtrip s [ req (("id", num id) :: fields) ] ~expect:1 with
  | [ v ] ->
      check_response_shape v;
      Some v
  | l ->
      report "mutation: %d responses, expected 1" (List.length l);
      None

let scenario_updates (s : server) =
  section "interleaved updates vs one-shot oracle" (fun () ->
      let m = mirror_of_seed () in
      (* prime both queries twice: the first count builds the maintained
         state, the second must already be served from it *)
      List.iteri
        (fun i q -> ignore (served_count s ~id:(100. +. float_of_int i) q))
        [ tier_a_query; tier_b_query; tier_a_query; tier_b_query ];
      (* an interleaved stream: single mutations, an atomic batch, and a
         no-op; the mirror replays every accepted change *)
      let steps =
        [
          ("insert", [ ("fact", Trace_json.Str "S(1, 1)") ],
           [ (true, "S", [ 1; 1 ]) ], true);
          ("apply",
           [ ("deltas",
              Trace_json.Arr
                [ Trace_json.Str "+E(4, 0)"; Trace_json.Str "-E(2, 3)" ]) ],
           [ (true, "E", [ 4; 0 ]); (false, "E", [ 2; 3 ]) ], true);
          ("delete", [ ("fact", Trace_json.Str "R(0)") ],
           [ (false, "R", [ 0 ]) ], true);
          ("insert", [ ("fact", Trace_json.Str "E(0, 1)") ], [], false);
          ("insert", [ ("fact", Trace_json.Str "S(5, 5)") ],
           [ (true, "S", [ 5; 5 ]) ], true);
        ]
      in
      let last_epoch = ref 0. in
      List.iteri
        (fun i (op, fields, changes, should_change) ->
          let id = 120. +. (10. *. float_of_int i) in
          (match mutate s ~id (("op", Trace_json.Str op) :: fields) with
          | Some v ->
              if status_of v <> "ok" then
                report "update %d (%s) status %s: %s" i op (status_of v)
                  (Trace_json.to_string v)
              else begin
                let r =
                  Option.value ~default:Trace_json.Null (mem "result" v)
                in
                let ep =
                  Option.value ~default:(-1.) (num_of (mem "epoch" r))
                in
                if should_change && ep <= !last_epoch then
                  report "update %d (%s) did not advance the epoch" i op;
                if (not should_change) && ep <> !last_epoch then
                  report "no-op update %d advanced the epoch" i;
                last_epoch := ep
              end
          | None -> ());
          List.iter
            (fun (insert, rel, args) -> mirror_apply m ~insert rel args)
            changes;
          (* after every update both served counts must equal a fresh
             one-shot count over the equivalent .facts file, and the
             tier-A/B states must still answer without recompute *)
          List.iteri
            (fun j (q, tier, tag) ->
              match served_count s ~id:(id +. 1. +. float_of_int j) q with
              | None -> ()
              | Some (n, source, served_tier, ep) -> (
                  if served_tier <> tier then
                    report "step %d: %s served from tier %S, expected %S" i
                      tag served_tier tier;
                  if source = "computed" then
                    report
                      "step %d: %s recomputed — maintained state was lost" i
                      tag;
                  if ep <> !last_epoch then
                    report "step %d: %s answered at epoch %g, db is at %g" i
                      tag ep !last_epoch;
                  match
                    oneshot_count q (mirror_facts m)
                      ~tag:(Printf.sprintf "upd-%d-%s" i tag)
                  with
                  | Some expected when expected <> n ->
                      report "step %d: %s served %d, one-shot says %d" i tag
                        n expected
                  | _ -> ()))
            [
              (tier_a_query, "A", "tier-a");
              (tier_b_query, "B", "tier-b");
            ])
        steps;
      if not (alive s) then report "server died during the update stream")

let scenario_malformed_updates (s : server) =
  section "malformed deltas" (fun () ->
      let epoch_of () =
        match
          roundtrip s [ req [ ("op", Trace_json.Str "stats") ] ] ~expect:1
        with
        | [ v ] ->
            Option.bind (mem "result" v) (fun r ->
                Option.bind (mem "db" r) (fun d -> num_of (mem "epoch" d)))
        | _ -> None
      in
      let before = epoch_of () in
      let expect_error i fields want_code =
        match mutate s ~id:(200. +. float_of_int i) fields with
        | Some v ->
            if status_of v <> "error" then
              report "malformed delta %d accepted: %s" i
                (Trace_json.to_string v)
            else if
              want_code <> 0. && num_of (mem "code" v) <> Some want_code
            then
              report "malformed delta %d: code %s, expected %g" i
                (Trace_json.to_string
                   (Option.value ~default:Trace_json.Null (mem "code" v)))
                want_code
        | None -> ()
      in
      let str k v = (k, Trace_json.Str v) in
      expect_error 0 [ str "op" "insert"; str "fact" "Z(0)" ] 65.;
      expect_error 1 [ str "op" "insert"; str "fact" "E(0)" ] 65.;
      expect_error 2 [ str "op" "delete"; str "fact" "E(0, 9)" ] 65.;
      expect_error 3 [ str "op" "insert"; str "fact" "not a fact (" ] 65.;
      expect_error 4 [ str "op" "insert" ] 64.;
      expect_error 5
        [ ("op", Trace_json.Str "apply"); ("deltas", Trace_json.Str "+E(0, 1)") ]
        64.;
      (* a batch with one bad delta must be rejected atomically *)
      expect_error 6
        [
          ("op", Trace_json.Str "apply");
          ( "deltas",
            Trace_json.Arr
              [ Trace_json.Str "+E(0, 3)"; Trace_json.Str "+Z(9)" ] );
        ]
        65.;
      (match (before, epoch_of ()) with
      | Some b, Some a when a <> b ->
          report "rejected deltas advanced the epoch (%g -> %g)" b a
      | _, None -> report "stats lost its db.epoch field"
      | _ -> ());
      if not (alive s) then report "server died on malformed deltas")

let scenario_update_stats (s : server) =
  section "update stats + maintained-state gauges" (fun () ->
      match
        roundtrip s [ req [ ("op", Trace_json.Str "stats") ] ] ~expect:1
      with
      | [ v ] -> (
          match Option.bind (mem "result" v) (mem "db") with
          | None -> report "stats lacks a db block"
          | Some d ->
              let g k = num_of (mem k d) in
              (match g "epoch" with
              | Some e when e >= 5. -> ()
              | e ->
                  report "db.epoch %g after 5 accepted updates"
                    (Option.value ~default:(-1.) e));
              (match g "updates_applied" with
              | Some n when n >= 5. -> ()
              | _ -> report "db.updates_applied not counting");
              (match g "updates_noop" with
              | Some n when n >= 1. -> ()
              | _ -> report "db.updates_noop not counting");
              (* the acceptance check that tier-A queries answer updates
                 without recompute: their states must still be resident
                 at tier A after the whole stream *)
              (match Option.bind (Some d) (mem "maintained") with
              | Some mt ->
                  let tier k = num_of (mem k mt) in
                  if tier "tier_a" <> Some 1. then
                    report "maintained tier_a gauge: %s"
                      (Trace_json.to_string mt);
                  if tier "tier_b" <> Some 1. then
                    report "maintained tier_b gauge: %s"
                      (Trace_json.to_string mt)
              | None -> report "db block lacks maintained gauges"))
      | l -> report "stats: %d responses, expected 1" (List.length l))

let scenario_update_drain (s : server) =
  section "updates during SIGTERM drain" (fun () ->
      (* enqueue a mutation burst and signal while it is in flight: every
         frame must still be answered with well-formed JSON (ok or
         shutting_down), and the exit must be a clean drain *)
      let fd = connect s in
      for i = 0 to 19 do
        let sign = if i mod 2 = 0 then "+" else "-" in
        send_all fd
          (req
             [
               ("op", Trace_json.Str "apply");
               ( "deltas",
                 Trace_json.Arr
                   [ Trace_json.Str (Printf.sprintf "%sE(%d, %d)" sign
                                       (i mod 5) ((i + 1) mod 5)) ] );
               ("id", num (300. +. float_of_int i));
             ])
      done;
      Unix.sleepf 0.02;
      stop_server s ~expect:0;
      let lines = recv_lines ~deadline_s:5. fd 20 in
      (try Unix.close fd with _ -> ());
      List.iter
        (fun line ->
          match parse_response line with
          | None -> report "drain response is not JSON: %S" line
          | Some v -> (
              check_response_shape v;
              match status_of v with
              | "ok" | "shutting_down" -> ()
              | st -> report "drain-time mutation answered %s" st))
        lines)

let scenario_watch_smoke () =
  section "ucqc watch smoke" (fun () ->
      let db = write_file (Filename.concat !tmp "watch.facts") update_db_text in
      let qa = write_file (Filename.concat !tmp "watch_a.ucq") tier_a_query in
      let qb = write_file (Filename.concat !tmp "watch_b.ucq") tier_b_query in
      let stream =
        write_file
          (Filename.concat !tmp "watch.stream")
          "+S(1, 1)\n\
           # a comment line\n\
           -E(2, 3)\n\
           {\"op\":\"apply\",\"deltas\":[\"+E(4, 0)\"]}\n\
           +E(0, 1)\n"
      in
      let final = Filename.concat !tmp "watch_final.facts" in
      let code, out =
        run_oneshot
          [ "watch"; qa; qb; db; "--input"; stream; "--final-db"; final ]
      in
      if code <> 0 then report "watch exited %d" code
      else begin
        let lines = String.split_on_char '\n' out in
        let last =
          List.fold_left
            (fun acc l -> if String.trim l = "" then acc else Some l)
            None lines
        in
        match Option.map Trace_json.parse last with
        | None | (exception _) -> report "watch produced no parseable output"
        | Some v -> (
            match mem "counts" v with
            | Some (Trace_json.Arr counts) ->
                List.iter
                  (fun c ->
                    let q =
                      Option.value ~default:"" (str_of (mem "query" c))
                    in
                    match num_of (mem "count" c) with
                    | None -> report "watch count for %s is null" q
                    | Some n -> (
                        let text = read_file q in
                        match
                          oneshot_count text (read_file final)
                            ~tag:("watch-" ^ Filename.basename q)
                        with
                        | Some expected when expected <> int_of_float n ->
                            report "watch %s: %g <> one-shot %d" q n expected
                        | _ -> ()))
                  counts
            | _ -> report "watch final line lacks counts: %s" out)
      end;
      (* a stream with one malformed line still processes the rest and
         exits 65 *)
      let bad_stream =
        write_file
          (Filename.concat !tmp "watch_bad.stream")
          "+S(2, 2)\nthis is not a delta\n-R(1)\n"
      in
      let code, out =
        run_oneshot [ "watch"; qa; db; "--input"; bad_stream ]
      in
      if code <> 65 then report "watch with a bad line exited %d, want 65" code;
      let rejected =
        List.exists
          (fun l ->
            match Trace_json.parse l with
            | v -> str_of (mem "status" v) = Some "rejected"
            | exception _ -> false)
          (String.split_on_char '\n' out)
      in
      if not rejected then report "watch did not report the rejected line")

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
    | "--query" :: v :: rest ->
        query_file := v;
        parse_args rest
    | a :: _ ->
        Printf.eprintf "fault_inject: unknown argument %s\n" a;
        exit 64
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  exit_if_no_bin "fault_inject";
  tmp := mkdtemp "fault";
  let trace = Filename.concat !tmp "serve.trace.json" in
  let metrics = Filename.concat !tmp "serve.metrics.json" in
  let s =
    start_server
      ~extra:
        [
          "--max-frame-bytes"; "8192";
          "--request-timeout"; "10";
          "--trace"; trace;
          "--metrics"; metrics;
        ]
      ()
  in
  scenario_ping s;
  scenario_correctness s;
  scenario_malformed s;
  scenario_oversized s;
  scenario_random_bytes s;
  scenario_truncated s;
  scenario_mid_request_disconnect s;
  scenario_slowloris s;
  scenario_budget s;
  scenario_cache_and_stats s;
  scenario_idle_timeout ();
  scenario_burst ();
  scenario_drain s ~trace ~metrics;
  (* the live-update scenarios mutate their database, so they get their
     own server over a dedicated .facts file *)
  let old_db = !db_file in
  db_file := write_file (Filename.concat !tmp "update_db.facts") update_db_text;
  let su = start_server ~name:"updates" () in
  scenario_updates su;
  scenario_malformed_updates su;
  scenario_update_stats su;
  stop_server su ~expect:0;
  let sd = start_server ~name:"update-drain" () in
  scenario_update_drain sd;
  db_file := old_db;
  scenario_watch_smoke ();
  finish "fault_inject" ~what:"scenarios"
