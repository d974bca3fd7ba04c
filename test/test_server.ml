(** Tests for the [ucqc serve] layers: the total wire-protocol parser,
    the newline framer, the prepared-query cache, admission control, and
    a small in-process end-to-end run over a Unix socket.  The heavy
    fault-injection scenarios (malformed frames, slowloris, bursts,
    drain under load) live in [tools/fault_inject.exe]; here we pin the
    unit contracts each layer promises. *)

let json = Alcotest.testable (Fmt.of_to_string Trace_json.to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Protocol.parse_request s with
  | Ok r -> r
  | Error e -> Alcotest.failf "%S must parse: %s" s (Protocol.req_error_message e)

let parse_err s =
  match Protocol.parse_request s with
  | Error e -> e
  | Ok _ -> Alcotest.failf "%S must be rejected" s

let test_protocol_requests () =
  (match parse_ok {|{"op": "ping", "id": 1}|} with
  | { Protocol.id = Some (Trace_json.Num 1.); op = Protocol.Ping } -> ()
  | _ -> Alcotest.fail "ping with numeric id");
  (match parse_ok {|{"op": "stats"}|} with
  | { Protocol.id = None; op = Protocol.Stats } -> ()
  | _ -> Alcotest.fail "stats without id");
  (* count defaults: expansion, seed 1, fallbacks on *)
  (match parse_ok {|{"op": "count", "query": "(x) :- E(x, y)"}|} with
  | {
      Protocol.op =
        Protocol.Count
          {
            query = "(x) :- E(x, y)";
            meth = Protocol.Expansion;
            seed = 1;
            max_steps = None;
            timeout_ms = None;
            no_fallback = false;
          };
      _;
    } -> ()
  | _ -> Alcotest.fail "count defaults");
  (* all budget fields through *)
  match
    parse_ok
      {|{"op": "count", "query": "q", "method": "ie", "seed": 7,
         "max_steps": 50, "timeout_ms": 1500, "no_fallback": true}|}
  with
  | {
      Protocol.op =
        Protocol.Count
          {
            meth = Protocol.Inclusion_exclusion;
            seed = 7;
            max_steps = Some 50;
            timeout_ms = Some 1500.;
            no_fallback = true;
            _;
          };
      _;
    } -> ()
  | _ -> Alcotest.fail "count with explicit budget fields"

let test_protocol_mutations () =
  (match parse_ok {|{"op": "insert", "fact": "E(1, 2)", "id": 1}|} with
  | { Protocol.op = Protocol.Insert { fact = "E(1, 2)" }; _ } -> ()
  | _ -> Alcotest.fail "insert with fact");
  (match parse_ok {|{"op": "delete", "fact": "E(1, 2)"}|} with
  | { Protocol.op = Protocol.Delete { fact = "E(1, 2)" }; _ } -> ()
  | _ -> Alcotest.fail "delete with fact");
  (match parse_ok {|{"op": "apply", "deltas": ["+E(1, 2)", "-R(3)"]}|} with
  | { Protocol.op = Protocol.Apply { deltas = [ "+E(1, 2)"; "-R(3)" ] }; _ }
    -> ()
  | _ -> Alcotest.fail "apply with a deltas array");
  (match parse_ok {|{"op": "apply", "deltas": []}|} with
  | { Protocol.op = Protocol.Apply { deltas = [] }; _ } -> ()
  | _ -> Alcotest.fail "apply with an empty batch");
  Alcotest.(check string)
    "insert label" "insert"
    (Protocol.op_label (Protocol.Insert { fact = "" }));
  Alcotest.(check string)
    "apply label" "apply"
    (Protocol.op_label (Protocol.Apply { deltas = [] }));
  (match parse_err {|{"op": "insert"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "insert without fact is Bad_request");
  (match parse_err {|{"op": "insert", "fact": 7}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "non-string fact is Bad_request");
  (match parse_err {|{"op": "apply"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "apply without deltas is Bad_request");
  (match parse_err {|{"op": "apply", "deltas": "+E(1, 2)"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "non-array deltas is Bad_request");
  match parse_err {|{"op": "apply", "deltas": ["+E(1, 2)", 3]}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "mixed-type deltas is Bad_request"

let test_protocol_rejections () =
  (match parse_err "not json at all" with
  | Protocol.Bad_json _ -> ()
  | _ -> Alcotest.fail "non-JSON is Bad_json");
  (match parse_err {|[1, 2]|} with
  | Protocol.Bad_json _ | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "non-object is rejected");
  (match parse_err {|{"op": "frobnicate"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "unknown op is Bad_request");
  (match parse_err {|{"op": "count"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "count without query is Bad_request");
  (match parse_err {|{"op": "count", "query": "q", "method": "magic"}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "unknown method is Bad_request");
  (* ids are echoed verbatim, so only scalars are accepted *)
  (match parse_err {|{"op": "ping", "id": {"nested": 1}}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "object id is Bad_request");
  (match parse_err {|{"op": "ping", "id": [1]}|} with
  | Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "array id is Bad_request");
  match (parse_ok {|{"op": "ping", "id": "abc"}|}).Protocol.id with
  | Some (Trace_json.Str "abc") -> ()
  | _ -> Alcotest.fail "string id round-trips"

let test_protocol_responses () =
  Alcotest.(check int) "ok code" 0 (Protocol.status_code Protocol.Ok_);
  Alcotest.(check int) "degraded code" 2 (Protocol.status_code Protocol.Degraded);
  Alcotest.(check int) "overloaded code" 75
    (Protocol.status_code Protocol.Overloaded);
  Alcotest.(check int) "shutting-down code" 75
    (Protocol.status_code Protocol.Shutting_down);
  (* a rendered frame is one newline-terminated line that parses back *)
  let r =
    Protocol.make_response ~id:(Trace_json.Str "a\nb") Protocol.Ok_
      [ ("result", Trace_json.Obj [ ("count", Trace_json.Num 5.) ]) ]
  in
  let line = Protocol.to_string r in
  Alcotest.(check bool) "newline-terminated" true
    (line.[String.length line - 1] = '\n');
  Alcotest.(check bool) "single line" false
    (String.contains (String.sub line 0 (String.length line - 1)) '\n');
  let v = Trace_json.parse line in
  Alcotest.(check (option json)) "id echoed verbatim"
    (Some (Trace_json.Str "a\nb"))
    (Trace_json.member "id" v);
  Alcotest.(check (option json)) "status rendered"
    (Some (Trace_json.Str "ok"))
    (Trace_json.member "status" v);
  (* error mappers: frame rejections carry 64, engine errors their code *)
  let code resp = resp.Protocol.rcode in
  Alcotest.(check int) "bad json is 64" 64
    (code (Protocol.of_req_error (Protocol.Bad_json "x")));
  Alcotest.(check int) "oversized is 64" 64
    (code (Protocol.of_req_error (Protocol.Frame_too_large 9)));
  Alcotest.(check int) "exhaustion is 124" 124
    (code
       (Protocol.of_ucqc_error
          (Ucqc_error.Budget_exhausted { phase = "count"; steps_done = 3 })));
  Alcotest.(check int) "internal is 70" 70
    (code (Protocol.of_ucqc_error (Ucqc_error.Internal "boom")));
  Alcotest.(check int) "unsupported is 65" 65
    (code (Protocol.of_ucqc_error (Ucqc_error.Unsupported "no")))

(* ------------------------------------------------------------------ *)
(* Framer                                                             *)
(* ------------------------------------------------------------------ *)

let feed_all fr s =
  let b = Bytes.of_string s in
  Framer.feed fr b ~off:0 ~len:(Bytes.length b)

let test_framer_chunking () =
  let fr = Framer.create ~max_frame_bytes:64 () in
  (* a frame split across arbitrary feeds reassembles *)
  Alcotest.(check bool) "no frame yet" true (feed_all fr "hel" = []);
  Alcotest.(check bool) "still buffering" true (feed_all fr "lo" = []);
  (match feed_all fr "\nwor" with
  | [ Framer.Frame "hello" ] -> ()
  | _ -> Alcotest.fail "first frame complete");
  (* CRLF is tolerated; two frames can arrive in one feed *)
  (match feed_all fr "ld\r\nagain\n" with
  | [ Framer.Frame "world"; Framer.Frame "again" ] -> ()
  | _ -> Alcotest.fail "CRLF stripped, batched frames split");
  Alcotest.(check int) "buffer drained" 0 (Framer.pending fr);
  (* EOF flushes a trailing partial frame exactly once *)
  ignore (feed_all fr "tail");
  (match Framer.eof fr with
  | Some (Framer.Frame "tail") -> ()
  | _ -> Alcotest.fail "EOF flushes the partial frame");
  Alcotest.(check bool) "EOF is then empty" true (Framer.eof fr = None)

let test_framer_oversized () =
  let fr = Framer.create ~max_frame_bytes:4 () in
  (* an over-limit frame is discarded to the next newline, reported once,
     and the connection keeps working *)
  (match feed_all fr "abcdefgh\nok\n" with
  | [ Framer.Oversized 4; Framer.Frame "ok" ] -> ()
  | _ -> Alcotest.fail "oversized reported once, next frame survives");
  (* a frame of exactly the limit is fine *)
  (match feed_all fr "abcd\n" with
  | [ Framer.Frame "abcd" ] -> ()
  | _ -> Alcotest.fail "limit-sized frame accepted");
  (* EOF in the middle of a discard still reports the oversize *)
  ignore (feed_all fr "toolong");
  match Framer.eof fr with
  | Some (Framer.Oversized 4) -> ()
  | _ -> Alcotest.fail "EOF reports the in-progress discard"

(* ------------------------------------------------------------------ *)
(* Prepared-query cache                                               *)
(* ------------------------------------------------------------------ *)

let label c text = Cache.outcome_label (Cache.lookup c text)

let test_cache_hits () =
  let c = Cache.create ~capacity:8 () in
  let q = "(x, y) :- E(x, z), E(z, y)" in
  Alcotest.(check string) "first sighting" "miss" (label c q);
  Alcotest.(check string) "exact text repeats" "hit" (label c q);
  (* a different spelling of the same UCQ shares the entry *)
  Alcotest.(check string) "renamed spelling interns" "interned"
    (label c "(a, b) :-  E(a, c), E(c, b)  # same query");
  Alcotest.(check string) "alias now hits" "hit"
    (label c "(a, b) :-  E(a, c), E(c, b)  # same query");
  Alcotest.(check int) "one entry for both spellings" 1 (Cache.entries c);
  (match Cache.lookup c q with
  | Cache.Hit e -> Alcotest.(check bool) "hits counted" true (e.Cache.hits >= 3)
  | _ -> Alcotest.fail "exact text must hit");
  (* parse failures are cached too: the second lookup skips the parse *)
  Alcotest.(check string) "invalid" "invalid" (label c "(x :- garbage(");
  Alcotest.(check string) "invalid cached" "invalid" (label c "(x :- garbage(");
  Alcotest.(check int) "one cached failure" 1 (Cache.invalids c)

let test_cache_eviction () =
  let c = Cache.create ~capacity:2 () in
  ignore (Cache.lookup c "(x) :- E(x, a)");
  ignore (Cache.lookup c "(x) :- E(a, x)");
  ignore (Cache.lookup c "(x) :- E(x, a)" : Cache.outcome) (* refresh LRU *);
  ignore (Cache.lookup c "(x, y) :- E(x, y)") (* evicts the middle one *);
  Alcotest.(check int) "capacity respected" 2 (Cache.entries c);
  Alcotest.(check string) "recently-used survived" "hit"
    (label c "(x) :- E(x, a)");
  Alcotest.(check string) "LRU victim re-misses" "miss"
    (label c "(x) :- E(a, x)");
  (* capacity 0 disables caching entirely *)
  let off = Cache.create ~capacity:0 () in
  Alcotest.(check string) "no cache: miss" "miss" (label off "(x) :- E(x, x)");
  Alcotest.(check string) "no cache: still miss" "miss"
    (label off "(x) :- E(x, x)");
  Alcotest.(check int) "nothing stored" 0 (Cache.entries off)

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

let test_admission () =
  let q = Admission.create ~depth:2 () in
  Alcotest.(check bool) "first accepted" true (Admission.offer q 1 = Admission.Accepted);
  Alcotest.(check bool) "second accepted" true (Admission.offer q 2 = Admission.Accepted);
  (match Admission.offer q 3 with
  | Admission.Shed { retry_after_ms } ->
      Alcotest.(check bool) "retry hint sane" true
        (retry_after_ms >= 10 && retry_after_ms <= 30_000)
  | _ -> Alcotest.fail "full queue must shed");
  Alcotest.(check int) "backlog gauge" 2 (Admission.depth q);
  (* FIFO order *)
  Alcotest.(check (option int)) "first out" (Some 1) (Admission.take q);
  Alcotest.(check (option int)) "second out" (Some 2) (Admission.take q);
  (* slower service times push the retry hint up *)
  let hint q =
    ignore (Admission.offer q 1 : int Admission.offer_outcome);
    ignore (Admission.offer q 2 : int Admission.offer_outcome);
    match Admission.offer q 3 with
    | Admission.Shed { retry_after_ms } -> retry_after_ms
    | _ -> Alcotest.fail "must shed"
  in
  let slow = Admission.create ~depth:2 () in
  List.iter (fun _ -> Admission.note_service_ms slow 5_000.) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "slow service raises the hint" true
    (hint slow > hint (Admission.create ~depth:2 ()));
  (* drain mode: no new work, the backlog still drains, then take ends *)
  let d = Admission.create ~depth:4 () in
  ignore (Admission.offer d 10 : int Admission.offer_outcome);
  Admission.close d;
  Alcotest.(check bool) "post-close offers drain" true
    (Admission.offer d 11 = Admission.Draining);
  Alcotest.(check (option int)) "backlog drains" (Some 10) (Admission.take d);
  Alcotest.(check (option int)) "then take ends" None (Admission.take d);
  (* forced drain empties the backlog oldest-first *)
  let f = Admission.create ~depth:4 () in
  ignore (Admission.offer f 1 : int Admission.offer_outcome);
  ignore (Admission.offer f 2 : int Admission.offer_outcome);
  Alcotest.(check (list int)) "discard order" [ 1; 2 ]
    (Admission.discard_pending f);
  Alcotest.(check int) "emptied" 0 (Admission.depth f)

(* ------------------------------------------------------------------ *)
(* In-process end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let small_db () =
  Structure.make sg_e
    (List.init 5 (fun i -> i))
    [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 0; 2 ] ]) ]

let test_server_end_to_end () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let config =
    {
      (Server.default_config ~listen:(Server.Unix_socket path) ~jobs:1) with
      Server.queue_depth = 8;
      cache_capacity = 8;
      request_timeout_s = Some 10.;
    }
  in
  let db = small_db () in
  let t = Server.start config ~db in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t : int))
    (fun () ->
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
      let query = "(x, y) :- E(x, z), E(z, y)" in
      let expected =
        match Parse.ucq_result query with
        | Ok (psi, _) -> Ucq.count_naive psi db
        | Error _ -> Alcotest.fail "test query must parse"
      in
      send {|{"op": "ping", "id": "p"}|};
      send "\n";
      let pong = Trace_json.parse (recv_line ()) in
      Alcotest.(check (option json)) "pong id" (Some (Trace_json.Str "p"))
        (Trace_json.member "id" pong);
      Alcotest.(check (option json)) "pong ok" (Some (Trace_json.Str "ok"))
        (Trace_json.member "status" pong);
      (* the same count twice: identical results, second one cache-hot *)
      let ask i =
        send
          (Trace_json.to_string
             (Trace_json.Obj
                [
                  ("op", Trace_json.Str "count");
                  ("query", Trace_json.Str query);
                  ("id", Trace_json.Num (float_of_int i));
                ]));
        send "\n";
        Trace_json.parse (recv_line ())
      in
      let counted v =
        match Trace_json.member "result" v with
        | Some r -> Trace_json.member "count" r
        | None -> None
      in
      let r1 = ask 1 and r2 = ask 2 in
      Alcotest.(check (option json)) "exact count"
        (Some (Trace_json.Num (float_of_int expected)))
        (counted r1);
      Alcotest.(check (option json)) "cached count identical" (counted r1)
        (counted r2);
      Alcotest.(check (option json)) "second answer is a cache hit"
        (Some (Trace_json.Str "hit"))
        (Trace_json.member "cache" r2);
      (* malformed frame: structured 64, connection survives *)
      send "this is not json\n";
      let err = Trace_json.parse (recv_line ()) in
      Alcotest.(check (option json)) "malformed is code 64"
        (Some (Trace_json.Num 64.))
        (Trace_json.member "code" err);
      send {|{"op": "ping", "id": "still-here"}|};
      send "\n";
      Alcotest.(check (option json)) "connection survived"
        (Some (Trace_json.Str "still-here"))
        (Trace_json.member "id" (Trace_json.parse (recv_line ())));
      Unix.close fd);
  Alcotest.(check int) "graceful drain discards nothing" 0 (Server.stop t);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* A [stats] request sent right after an acknowledged write reads that
   write's epoch (and tuple count): the evaluator publishes its snapshot
   before it answers. *)
let test_server_stats_after_write () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-test-stats-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let config =
    { (Server.default_config ~listen:(Server.Unix_socket path) ~jobs:1) with Server.queue_depth = 8 }
  in
  let db = small_db () in
  let t = Server.start config ~db in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t : int))
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let ask line =
        let line = line ^ "\n" in
        ignore (Unix.write_substring fd line 0 (String.length line) : int);
        Trace_json.parse (input_line ic)
      in
      let field path v =
        match List.fold_left (fun v k -> Option.bind v (Trace_json.member k)) (Some v) path with
        | Some (Trace_json.Num f) -> int_of_float f
        | _ -> Alcotest.fail ("missing " ^ String.concat "." path)
      in
      for i = 1 to 300 do
        let op = if i mod 2 = 1 then "insert" else "delete" in
        let ack = ask (Printf.sprintf {|{"op":"%s","fact":"E(4, 0)"}|} op) in
        let stats = ask {|{"op":"stats"}|} in
        Alcotest.(check int) (Printf.sprintf "epoch after write %d" i)
          (field [ "result"; "epoch" ] ack) (field [ "result"; "db"; "epoch" ] stats);
        Alcotest.(check int) (Printf.sprintf "tuples after write %d" i)
          (5 + (i mod 2)) (field [ "result"; "db"; "tuples" ] stats)
      done;
      Unix.close fd)

let test_server_pool_reuse () =
  (* the serve evaluator owns one resident pool for its whole lifetime:
     two sequential parallel-counted requests must not spawn any domain
     beyond what the first one left parked *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-test-pool-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let config =
    {
      (Server.default_config ~listen:(Server.Unix_socket path) ~jobs:2) with
      Server.queue_depth = 8;
      cache_capacity = 8;
      request_timeout_s = Some 10.;
    }
  in
  let t = Server.start config ~db:(small_db ()) in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t : int))
    (fun () ->
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
      (* distinct multi-disjunct queries: no cache hit, and ≥ 2 pool
         items per request so the parallel path actually engages *)
      let ask id query =
        send
          (Trace_json.to_string
             (Trace_json.Obj
                [
                  ("op", Trace_json.Str "count");
                  ("query", Trace_json.Str query);
                  ("id", Trace_json.Str id);
                ]));
        send "\n";
        Trace_json.parse (recv_line ())
      in
      let r1 = ask "q1" "(x, y) :- E(x, z), E(z, y) ; E(x, y)" in
      Alcotest.(check (option json)) "first request ok"
        (Some (Trace_json.Str "ok"))
        (Trace_json.member "status" r1);
      (* the first parallel count has parked its workers by the time its
         response arrived — the second request must reuse them *)
      let s0 = Pool.spawn_count () in
      let r2 = ask "q2" "(x, y) :- E(x, y) ; E(y, x)" in
      Alcotest.(check (option json)) "second request ok"
        (Some (Trace_json.Str "ok"))
        (Trace_json.member "status" r2);
      Alcotest.(check int) "second request spawned no domains" s0
        (Pool.spawn_count ());
      (* the stats response exposes the resident-pool gauges *)
      send {|{"op": "stats", "id": "s"}|};
      send "\n";
      let st = Trace_json.parse (recv_line ()) in
      (match Trace_json.member "result" st with
      | Some r ->
          Alcotest.(check (option json)) "stats report the pool jobs"
            (Some (Trace_json.Num 2.))
            (Trace_json.member "jobs" r);
          Alcotest.(check (option json)) "stats expose the spawn count"
            (Some (Trace_json.Num (float_of_int s0)))
            (Trace_json.member "pool_domains_spawned" r)
      | None -> Alcotest.fail "stats response has no result");
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Served golden transcript                                           *)
(* ------------------------------------------------------------------ *)

(* One fixed request script against an in-process server, compared line
   for line with [serve_golden.txt]: each [> request] line is sent and
   the response must equal the [< response] line after it.  Volatile
   fields are removed first ([request_id], [elapsed_ms], [queue_ms],
   [result.abandoned.elapsed_s]), and a [stats] answer keeps only its
   [db] block.  Setting [UCQC_GOLDEN_RECORD=FILE] writes the actual
   transcript to FILE (for re-recording after a deliberate change). *)

let golden_db_text =
  "universe { 0, 1, 2, 3, 4, 5 }\n\
   E(0, 1). E(1, 2). E(2, 0). E(2, 3). E(3, 4). E(4, 2).\n\
   R(0). R(2). R(4).\n"

let normalize_response (line : string) : string =
  let drop keys fs = List.filter (fun (k, _) -> not (List.mem k keys)) fs in
  let rec fix_result = function
    | Trace_json.Obj fs ->
        Trace_json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "abandoned", Trace_json.Obj a -> (k, Trace_json.Obj (drop [ "elapsed_s" ] a))
               | _ -> (k, fix_result v))
             fs)
    | v -> v
  in
  match Trace_json.parse line with
  | Trace_json.Obj fs ->
      let fs = drop [ "request_id"; "elapsed_ms"; "queue_ms" ] fs in
      let is_stats =
        match List.assoc_opt "result" fs with
        | Some r -> Trace_json.member "uptime_ms" r <> None
        | None -> false
      in
      let fs =
        List.map
          (fun (k, v) ->
            match k with
            | "result" when is_stats ->
                ( k,
                  Trace_json.Obj
                    [
                      ( "db",
                        Option.value ~default:Trace_json.Null
                          (Trace_json.member "db" v) );
                    ] )
            | "result" -> (k, fix_result v)
            | _ -> (k, v))
          fs
      in
      Trace_json.to_string (Trace_json.Obj fs)
  | v -> Trace_json.to_string v

let test_server_golden_transcript () =
  let file =
    List.find Sys.file_exists [ "serve_golden.txt"; "test/serve_golden.txt" ]
  in
  let script =
    In_channel.with_open_text file In_channel.input_lines
    |> List.filter_map (fun l ->
           if String.length l >= 2 && (l.[0] = '>' || l.[0] = '<') then
             Some (l.[0], String.sub l 2 (String.length l - 2))
           else None)
  in
  let requests = List.filter_map (fun (k, l) -> if k = '>' then Some l else None) script in
  let expected = List.filter_map (fun (k, l) -> if k = '<' then Some l else None) script in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-test-golden-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let config =
    {
      (Server.default_config ~listen:(Server.Unix_socket path) ~jobs:1) with
      Server.queue_depth = 8;
      cache_capacity = 8;
      request_timeout_s = Some 10.;
    }
  in
  let db, env =
    match Parse.database_result golden_db_text with
    | Ok v -> v
    | Error _ -> Alcotest.fail "golden database must parse"
  in
  let t = Server.start ~env config ~db in
  let actual =
    Fun.protect
      ~finally:(fun () -> ignore (Server.stop t : int))
      (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        Unix.connect fd (Unix.ADDR_UNIX path);
        let ic = Unix.in_channel_of_descr fd in
        let answers =
          List.map
            (fun req ->
              let line = req ^ "\n" in
              ignore (Unix.write_substring fd line 0 (String.length line) : int);
              normalize_response (input_line ic))
            requests
        in
        Unix.close fd;
        answers)
  in
  (match Sys.getenv_opt "UCQC_GOLDEN_RECORD" with
  | Some out when out <> "" ->
      Out_channel.with_open_text out (fun oc ->
          List.iter2
            (fun req resp -> Printf.fprintf oc "> %s\n< %s\n" req resp)
            requests actual)
  | _ -> ());
  Alcotest.(check int) "one expected response per request"
    (List.length requests) (List.length expected);
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string) (Printf.sprintf "response %d" (i + 1)) want got)
    (List.combine expected actual)

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "protocol requests" `Quick test_protocol_requests;
        Alcotest.test_case "protocol mutations" `Quick
          test_protocol_mutations;
        Alcotest.test_case "protocol rejections" `Quick
          test_protocol_rejections;
        Alcotest.test_case "protocol responses" `Quick test_protocol_responses;
        Alcotest.test_case "framer chunking" `Quick test_framer_chunking;
        Alcotest.test_case "framer oversized" `Quick test_framer_oversized;
        Alcotest.test_case "cache hits" `Quick test_cache_hits;
        Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
        Alcotest.test_case "admission control" `Quick test_admission;
        Alcotest.test_case "end to end" `Quick test_server_end_to_end;
        Alcotest.test_case "stats read the acknowledged epoch" `Quick
          test_server_stats_after_write;
        Alcotest.test_case "pool reuse across requests" `Quick
          test_server_pool_reuse;
        Alcotest.test_case "served golden transcript" `Quick
          test_server_golden_transcript;
      ] );
  ]
