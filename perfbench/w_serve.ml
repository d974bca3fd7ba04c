(* serve_live_mix: a real [ucqc serve] child on a Unix socket, one
   client connection, closed loop.  Chosen because here the same db
   engines handle tier-C recomputes and tier-B delta evaluation, beside
   mutation in relational, maintenance in delta and transport in server:
   a change that speeds reads by keeping more state shows its cost to
   writes in update_*, while count_skewed_graph shows the read side.
   Unlike the other two workloads, every round repeats the same four
   queries, so work is shared between ops. *)

open Brt

let nodes = 2500
let edges = 9000

(* The out-rank of the hub that hub writes touch: about 80 out-edges. *)
let hub_rank = 12

(* The registered queries. *)
let queries =
  [
    "(x, y) :- R(x), E(x, y)" (* q-hierarchical star: tier A *);
    "(x, z) :- E(x, y), E(y, z)" (* quantified 2-hop: tier B *);
    "(x, y, z) :- E(x, y), E(y, z), E(z, x)" (* triangle: tier C *);
    "(x) :- E(x, y), R(y) ; E(x, y), E(y, x)" (* union maintained on tier B *);
  ]

(* The widths of the unions the round's check sends, one per round in
   turn: a client bringing a new query of 5 to 9 disjuncts, which the
   server analyses over all 2^l combined queries.  Each check is a
   fresh relabeling of the width's fixed spelling, so the server
   re-analyses it instead of answering from its memo.  The classes'
   costs about double from one width to the next, so the 50th and 90th
   percentiles are the medians of the l = 7 and l = 9 classes: whole
   milliseconds of analysis, not the sub-millisecond transport a check
   of a small query would measure. *)
let check_widths = [| 5; 6; 7; 8; 9 |]

(* The write stream, in cycles of ten: an insert of an edge into one
   fixed out-hub (write 0) and its delete (write 5), an insert of an
   edge between two cold nodes (write 2) and its delete (write 7), and
   six moves between cold nodes in the other slots, each one [apply]
   batch that deletes the edge the previous move inserted and inserts
   a new one.  The database stays within three edges of the generated
   one.  Hub writes pay tier-B maintenance over the hub's out-edges,
   cold writes almost none, and a move sits between a cold insert and
   a hub write; so the 50th percentile is the median of the moves, six
   writes in ten, and the 90th the median of the hub writes, the top
   two in ten. *)
type write = Hub_insert | Hub_delete | Cold_insert | Cold_delete | Move

let cycle = 10

let write_class (k : int) : write =
  match k mod cycle with 0 -> Hub_insert | 5 -> Hub_delete | 2 -> Cold_insert | 7 -> Cold_delete | _ -> Move

(* ------------------------------------------------------------------ *)
(* The server child and its client                                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; ic : in_channel; oc : out_channel; fd : Unix.file_descr; sock : string }

(* Servers not yet stopped; whatever is left at exit (a failed run) is
   killed and waited for. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ())
        !live)

let spawned = ref 0

let spawn ~(ucqc : string) ~(workdir : string) ~(facts : string) : server =
  incr spawned;
  let sock = Filename.concat workdir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !spawned) in
  (try Sys.remove sock with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat workdir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process ucqc [| ucqc; "serve"; facts; "--socket"; sock; "--jobs"; "1" |] null null log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let t0 = now_ns () in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if ms_since t0 > 60_000. then failwith "ucqc serve did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "ucqc serve exited during start-up");
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  { pid; fd; sock; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let stop (s : server) : unit =
  (try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  close_in_noerr s.ic;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status);
  (try Sys.remove s.sock with Sys_error _ -> ());
  live := List.filter (( <> ) s.pid) !live

(* One request line, one response line: the client round trip. *)
let call (s : server) (line : string) : Trace_json.t * float =
  let t0 = now_ns () in
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc;
  let resp = input_line s.ic in
  let rtt = ms_since t0 in
  (Trace_json.parse resp, rtt)

let field path (j : Trace_json.t) : Trace_json.t option =
  List.fold_left (fun acc k -> Option.bind acc (Trace_json.member k)) (Some j) path

let num path j = match field path j with Some (Trace_json.Num f) -> Some f | _ -> None
let str path j = match field path j with Some (Trace_json.Str s) -> Some s | _ -> None
let ok j = str [ "status" ] j = Some "ok"
let json_str s = Trace_json.to_string (Trace_json.Str s)
let count_line q = Printf.sprintf "{\"op\": \"count\", \"query\": %s}" (json_str q)
let check_line q = Printf.sprintf "{\"op\": \"check\", \"query\": %s}" (json_str q)

(* One write as a request line: a single insert or delete, or a move as
   an [apply] batch of one delete and one insert. *)
let update_line (w : (bool * (int * int)) list) : string =
  match w with
  | [ (ins, (u, v)) ] ->
      Printf.sprintf "{\"op\": \"%s\", \"fact\": \"E(%d, %d)\"}" (if ins then "insert" else "delete") u v
  | _ ->
      let delta (ins, (u, v)) = json_str (Printf.sprintf "%cE(%d, %d)" (if ins then '+' else '-') u v) in
      Printf.sprintf "{\"op\": \"apply\", \"deltas\": [%s]}" (String.concat ", " (List.map delta w))

(* A count answer counts only when exact. *)
let exact_count j =
  if ok j && field [ "result"; "exact" ] j = Some (Trace_json.Bool true) then
    Option.map int_of_float (num [ "result"; "count" ] j)
  else None

(* The sorted finding codes of a check answer. *)
let finding_codes j : string list option =
  match field [ "result"; "diagnostics" ] j with
  | Some (Trace_json.Arr ds) ->
      Some (List.sort compare (List.map (fun d -> Option.value ~default:"" (str [ "code" ] d)) ds))
  | _ -> None

let no_budget_findings codes = not (List.exists (fun c -> c = "UCQ003" || c = "UCQ004") codes)

(* ------------------------------------------------------------------ *)
(* The in-process replay of the request stream (traced runs)          *)
(* ------------------------------------------------------------------ *)

(* The server's evaluator path for each request, as calls into the
   public functions of server, delta, relational and the count path. *)
module Replay = struct
  type t = { ddb : Delta.db; cache : Cache.t }

  let create (facts_text : string) : t =
    let (db, env), t =
      timed (fun () ->
          match Parse.database_result facts_text with
          | Ok r -> r
          | Error e -> failwith (Ucqc_error.to_string e))
    in
    Common.record "frontend.parse_db_ms" t;
    { ddb = Delta.open_db ~env db; cache = Cache.create ~capacity:256 () }

  let tier st = Tier.to_string (Delta.effective_tier st)

  let lookup r q = with_span "server.cache_lookup" (fun () -> Cache.lookup r.cache q)

  let count r (q : string) : int option =
    match lookup r q with
    | Cache.Invalid _ -> None
    | Cache.Hit e | Cache.Interned e | Cache.Miss e -> (
        let optimized =
          match e.Cache.optimized with
          | Some o -> o.Optimize.optimized
          | None ->
              let o = with_span "optimize.run" (fun () -> Optimize.run e.Cache.ucq) in
              e.Cache.optimized <- Some o;
              o.Optimize.optimized
        in
        let recompute st =
          let n =
            with_span "delta.recompute" (fun () ->
                Common.replay_eval ~predict:false optimized (Delta.structure r.ddb))
          in
          with_span "delta.memoize" (fun () -> Delta.memoize st r.ddb n);
          n
        in
        match e.Cache.maint with
        | None ->
            let st = with_span_named (fun st -> "delta.prepare." ^ tier st) (fun () -> Delta.prepare optimized r.ddb) in
            e.Cache.maint <- Some st;
            Some (recompute st)
        | Some st -> (
            Common.note "delta.reads" 1.;
            match with_span "delta.maintained_count" (fun () -> Delta.maintained_count st r.ddb) with
            | Some (n, _) ->
                Common.note "delta.maintained" 1.;
                Some n
            | None -> Some (recompute st)))

  let mutate r (spec : (Delta_parse.spec, Ucqc_error.t) result) : bool =
    match spec with
    | Error _ -> false
    | Ok spec -> (
        match with_span "delta.resolve" (fun () -> Delta.resolve r.ddb spec) with
        | Error _ -> false
        | Ok u -> (
            match with_span "relational.mutate" (fun () -> Delta.apply r.ddb u) with
            | Error _ -> false
            | Ok a ->
                if a.Delta.changed then
                  Cache.iter r.cache (fun e ->
                      match e.Cache.maint with
                      | Some st -> with_span ("delta.apply_state." ^ tier st) (fun () -> Delta.apply_state st r.ddb a)
                      | None -> ());
                a.Delta.changed))

  let check r q : bool =
    let report =
      match lookup r q with
      | (Cache.Hit e | Cache.Interned e | Cache.Miss e) when String.equal e.Cache.primary_text q -> (
          match e.Cache.analysis with
          | Some a -> a
          | None ->
              let a = with_span "analysis.check" (fun () -> Analysis.check q) in
              e.Cache.analysis <- Some a;
              a)
      | _ -> with_span "analysis.check" (fun () -> Analysis.check q)
    in
    Common.complete report

  (* One request line through parse, evaluation and rendering; [Some
     n] for a count. *)
  let request r (line : string) : bool * int option =
    match with_span "server.parse_request" (fun () -> Protocol.parse_request line) with
    | Error _ -> (false, None)
    | Ok req ->
        let ok, n =
          match req.Protocol.op with
          | Protocol.Count { query; _ } ->
              let n = count r query in
              (n <> None, n)
          | Protocol.Insert { fact } -> (mutate r (Delta_parse.fact_string ~sign:Delta_parse.Insert fact), None)
          | Protocol.Delete { fact } -> (mutate r (Delta_parse.fact_string ~sign:Delta_parse.Delete fact), None)
          | Protocol.Apply { deltas } ->
              (List.fold_left (fun ok d -> mutate r (Delta_parse.delta_string d) && ok) true deltas, None)
          | Protocol.Check { query } -> (check r query, None)
          | _ -> (false, None)
        in
        let body =
          match n with Some c -> [ ("result", Trace_json.Obj [ ("count", Trace_json.Num (float_of_int c)) ]) ] | None -> []
        in
        ignore
          (with_span "server.render" (fun () -> Protocol.to_string (Protocol.make_response Protocol.Ok_ body))
            : string);
        (ok, n)
end

(* ------------------------------------------------------------------ *)
(* The workload                                                       *)
(* ------------------------------------------------------------------ *)

let run ~(seed : int) ~(seconds : float) ~(trace : bool) ~(ucqc : string) ~(workdir : string) : outcome =
  let g = Gen.digraph ~seed ~n:nodes ~m:edges in
  let facts_text = Gen.facts_text g in
  let facts = Filename.concat workdir (Printf.sprintf "serve-%d.facts" (Unix.getpid ())) in
  Out_channel.with_open_text facts (fun oc -> output_string oc facts_text);
  let attempted = ref 0 and failed = ref 0 in
  let judge ok = incr attempted; if not ok then incr failed in
  (* every line sent to the kept server, for the in-process replay *)
  let sent = ref [] in
  let send s line =
    sent := line :: !sent;
    call s line
  in
  (* set-up: from spawning the server until every registered query has
     returned its first count, each count checked against a one-shot
     count.  The kept server's set-up is the first sample; the other
     four servers are set up and stopped during the timed phase, while
     the kept one idles (see [setup_samples]) *)
  let db0 = match Parse.database_result facts_text with Ok (d, _) -> d | Error e -> failwith (Ucqc_error.to_string e) in
  let expected = List.map (fun q -> Common.count q db0) queries in
  let set_up send =
    let t0 = now_ns () in
    let s = spawn ~ucqc ~workdir ~facts in
    let first = List.map (fun q -> exact_count (fst (send s (count_line q)))) queries in
    (s, ms_since t0, List.map2 (fun c e -> c <> None && c = e) first expected)
  in
  let s, setup0, first_ok = set_up send in
  let setup_sample () =
    let s, t, oks = set_up call in
    stop s;
    List.iter judge oks;
    t
  in
  (* the update stream, in the cycle of [write_class]; cold nodes have
     in- and out-degree at most two *)
  let mirror = Gen.mirror_of g.Gen.edges in
  let pick = Gen.rng seed 6 in
  let deg_in = Array.make nodes 0 and deg_out = Array.make nodes 0 in
  List.iter
    (fun (u, v) ->
      deg_out.(u) <- deg_out.(u) + 1;
      deg_in.(v) <- deg_in.(v) + 1)
    g.Gen.edges;
  let cold = Array.of_list (List.filter (fun x -> deg_in.(x) <= 2 && deg_out.(x) <= 2) (List.init nodes Fun.id)) in
  let hub = g.Gen.label.(hub_rank) in
  let rec cold_edge (into : int option) =
    let u = cold.(Random.State.int pick (Array.length cold)) in
    let v = match into with Some h -> h | None -> cold.(Random.State.int pick (Array.length cold)) in
    if u = v || Gen.mem mirror (u, v) then cold_edge into else (u, v)
  in
  let hub_edge = ref None and cold = ref None and moved = ref None in
  let next_update k =
    let w =
      match write_class k with
      | Hub_insert ->
          let e = cold_edge (Some hub) in
          hub_edge := Some e;
          [ (true, e) ]
      | Cold_insert ->
          let e = cold_edge None in
          cold := Some e;
          [ (true, e) ]
      | Hub_delete -> [ (false, Option.get !hub_edge) ]
      | Cold_delete -> [ (false, Option.get !cold) ]
      | Move ->
          (* the first move, a warm-up write, deletes a present edge *)
          let gone = match !moved with Some e -> e | None -> Gen.present mirror pick in
          let e = cold_edge None in
          moved := Some e;
          [ (false, gone); (true, e) ]
    in
    List.iter (fun (ins, e) -> if ins then Gen.insert mirror e else Gen.delete mirror e) w;
    w
  in
  (* the session epoch the server should report: every effective
     change advances it by one *)
  let epoch = ref 0 in
  let applied j w =
    epoch := !epoch + List.length w;
    ok j
    && num [ "result"; "epoch" ] j = Some (float_of_int !epoch)
    &&
    match w with
    | [ _ ] -> field [ "result"; "applied" ] j = Some (Trace_json.Bool true)
    | _ -> num [ "result"; "applied" ] j = Some (float_of_int (List.length w)) && num [ "result"; "noop" ] j = Some 0.
  in
  let counts = samples () and checks = samples () and updates = samples () and refreshes = samples () in
  let last = Array.make (List.length queries) None in
  (* five reads per round: star (tier A), 2-hop (B), triangle (C,
     recomputed), union (B), then the triangle again, now answered from
     its epoch memo -- three maintained, one memoized, one recomputed,
     so both percentiles sit inside a class *)
  let reads = [ 0; 1; 2; 3; 2 ] in
  let unions = Array.map (fun l -> fst (Gen.wide_union ~seed l 0)) check_widths in
  let expected_codes = Array.make (Array.length check_widths) None in
  let timed_from = ref max_int in
  let round ~timed_phase k =
    let seen = ref [] in
    let w = next_update k in
    let t0 = now_ns () in
    let j, tu = send s (update_line w) in
    judge (applied j w);
    if trace && timed_phase then begin
      Option.iter (Common.record "server.service_ms.update") (num [ "elapsed_ms" ] j);
      Option.iter (Common.record "server.elapsed_all") (num [ "elapsed_ms" ] j);
      Option.iter (Common.record "server.queue_ms") (num [ "queue_ms" ] j)
    end;
    let tcs =
      List.map
        (fun i ->
          let j, t = send s (count_line (List.nth queries i)) in
          let c = exact_count j in
          (* a second read in the same round must repeat the first *)
          judge (c <> None && ((not (List.mem i !seen)) || c = last.(i)));
          seen := i :: !seen;
          last.(i) <- c;
          if trace && timed_phase then begin
            Option.iter (Common.record "server.service_ms.count") (num [ "elapsed_ms" ] j);
            Option.iter (Common.record "server.elapsed_all") (num [ "elapsed_ms" ] j);
            Option.iter (Common.record "server.queue_ms") (num [ "queue_ms" ] j);
            (match (num [ "elapsed_ms" ] j, num [ "queue_ms" ] j) with
            | Some el, Some qu -> Common.record "server.transport_ms" (t -. el -. qu)
            | _ -> ());
            Common.record "server.cache_lookups" 1.;
            if str [ "cache" ] j = Some "hit" then Common.record "server.cache_hits" 1.;
            if not (ok j) then Common.record "server.errors" 1.
          end;
          t)
        reads
    in
    let tr = ms_since t0 in
    let l = k mod Array.length check_widths in
    let j, tc = send s (check_line (Gen.relabel (Gen.rng seed (1000 + k)) unions.(l))) in
    (* the same findings as the width's first check, none of them a
       budget finding *)
    judge
      (ok j
      &&
      match (finding_codes j, expected_codes.(l)) with
      | Some c, None ->
          expected_codes.(l) <- Some c;
          no_budget_findings c
      | Some c, Some e -> c = e
      | None, _ -> false);
    if trace && timed_phase then Option.iter (Common.record "server.elapsed_all") (num [ "elapsed_ms" ] j);
    if timed_phase then begin
      add updates tu;
      List.iter (add counts) tcs;
      add refreshes tr;
      add checks tc
    end
  in
  (* untimed warm-up rounds: one cycle of writes, every read, every
     check width twice.  The server's peak resident set is read after
     them, so it covers the same work however many rounds the timed
     phase completes *)
  enabled := trace;
  for k = 0 to cycle - 1 do
    round ~timed_phase:false k
  done;
  let rss_mb = vm_hwm_mb (string_of_int s.pid) in
  attempted := 0;
  failed := 0;
  List.iter judge first_ok;
  Common.reset_trace ();
  timed_from := List.length !sent;
  let t0 = now_ns () in
  let k = ref cycle in
  (* a traced run replays its stream afterwards: stream half as long *)
  let seconds = if trace then seconds /. 2. else seconds in
  let setups = setup_samples ~n:4 ~seconds in
  while phase_ms t0 < seconds *. 1000. do
    round ~timed_phase:true !k;
    if !k mod 5 = 0 then reference_tick ();
    setup_tick setups t0 setup_sample;
    incr k
  done;
  let wall_s = phase_s t0 in
  let setup_s = (setup0 /. 1000.) :: setup_finish setups setup_sample in
  stop s;
  (try Sys.remove facts with Sys_error _ -> ());
  (* after the stream: every last served count against a one-shot count
     on the mirrored database *)
  let mirrored = Gen.facts_text { g with Gen.edges = Gen.edges_of mirror } in
  let db_end = match Parse.database_result mirrored with Ok (d, _) -> d | Error e -> failwith (Ucqc_error.to_string e) in
  let oracle = List.map (fun q -> Common.count q db_end) queries in
  List.iteri (fun i o -> judge (o <> None && last.(i) = o)) oracle;
  if not trace then
    Common.end_to_end ~setup_s ~rss_mb ~attempted:!attempted ~failed:!failed ~wall_s ~counts ~checks ~updates
      ~refreshes
  else begin
    (* replay the kept server's whole request stream in-process; only
       the timed-phase requests are traced ops *)
    let service = Common.noted_sum "server.elapsed_all" in
    let lines = List.rev !sent in
    let r = Replay.create facts_text in
    List.iteri
      (fun i line ->
        if i < !timed_from then ignore (Replay.request r line : bool * int option)
        else begin
          let ok, _ = with_op i (fun () -> Replay.request r line) in
          incr Common.traced_ops;
          judge ok
        end)
      lines;
    Cache.iter r.Replay.cache (fun e ->
        match e.Cache.maint with
        | Some st -> if Delta.degraded st <> None then Common.record "delta.degraded_states" 1.
        | None -> ());
    List.iter2
      (fun q o -> judge (Replay.count r q = o))
      queries oracle;
    Common.record "relational.tuples" (float_of_int (Structure.num_tuples (Delta.structure r.Replay.ddb)));
    Common.untraced_ms := service;
    { attempted = !attempted; failed = !failed; metrics = Common.per_layer_metrics () }
  end
