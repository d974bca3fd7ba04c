(** Stress harness: a heavy randomised cross-validation sweep over every
    counting engine, the reduction parsimony identity, and the treewidth
    machinery.  Not part of `dune runtest` (it takes minutes); run with
    [dune exec tools/fuzz.exe] before releases.  Exits non-zero when any
    mismatch is found, so CI can gate on it.

    [FUZZ_SCALE] scales every iteration count (e.g. [FUZZ_SCALE=0.05] for
    a quick CI smoke run, default 1).  [UCQC_JOBS > 1] additionally
    cross-checks every parallelisable engine on a domain pool of that
    size against its sequential result; a malformed [UCQC_JOBS] is a
    usage error (exit 64).

    Telemetry runs in stack-only mode ([record = false]): spans cost a
    push/pop but buffer nothing over the multi-minute run, and every
    mismatch or crash report carries the active span stack, so a failure
    names the sweep it came from. *)
let () =
  let scale =
    match Sys.getenv_opt "FUZZ_SCALE" with
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> f
        | _ ->
            Printf.eprintf "fuzz: ignoring malformed FUZZ_SCALE %S\n" s;
            1.0)
    | None -> 1.0
  in
  let iters n = max 1 (int_of_float (float_of_int n *. scale)) in
  let pool =
    match Pool.jobs_of_env_result () with
    | Error msg ->
        Printf.eprintf "fuzz: %s\n" msg;
        exit 64
    | Ok jobs when jobs > 1 ->
        Printf.printf "fuzz: cross-checking parallel engines with %d jobs\n"
          jobs;
        Some (Pool.create ~jobs ())
    | Ok _ -> None
  in
  Telemetry.enable ~record:false ();
  let sg = Generators.graph_signature in
  let failures = ref 0 in
  let report fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        let stack = Telemetry.current_stack () in
        Printf.printf "%s%s\n" msg
          (if stack = [] then ""
           else
             Printf.sprintf "  [spans: %s]"
               (String.concat " > " (List.rev stack))))
      fmt
  in
  let section name f = Telemetry.with_span name f in
  let run () =
    (* CQ engines *)
    section "fuzz.cq-engines" (fun () ->
        for seed = 0 to iters 1500 do
          let q = Qgen.random_cq ~seed ~max_vars:4 ~max_atoms:5 sg in
          let db = Generators.random_digraph ~seed:(seed * 7 + 1) 5 12 in
          let naive = Counting.count ~strategy:Counting.Naive q db in
          (* every strategy that applies must agree with the oracle *)
          List.iter
            (fun (name, strategy) ->
              match Counting.count ~strategy q db with
              | c -> if c <> naive then report "%s mismatch seed %d" name seed
              | exception Counting.Unsupported _ -> ())
            Counting.
              [ ("AUTO", Auto); ("YANNAKAKIS", Yannakakis); ("WEIGHTED", Weighted);
                ("VARELIM", Varelim) ];
          if Bigint.to_int_opt (Counting.count_big q db) <> Some naive then
            report "BIG mismatch seed %d" seed;
          (* the answer table, and on acyclic quantifier-free terms the
             join tree's enumeration and sampler, hold as many answers *)
          if (Elim.answers q db).Elim.rows <> naive then
            report "ANSWERS mismatch seed %d" seed;
          if Cq.is_quantifier_free q && Cq.is_acyclic q then begin
            if List.length (Enumerate.to_list (Enumerate.prepare q db)) <> naive then
              report "ENUMERATE mismatch seed %d" seed;
            if Sampler.cardinality (Sampler.make q db) <> naive then
              report "SAMPLER mismatch seed %d" seed
          end
        done);
    (* UCQ counting *)
    section "fuzz.ucq-counting" (fun () ->
        for seed = 0 to iters 400 do
          let psi =
            Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 sg
          in
          let db = Generators.random_digraph ~seed:(seed * 13 + 5) 4 9 in
          let naive = Ucq.count_naive psi db in
          if Ucq.count_inclusion_exclusion psi db <> naive then
            report "UCQ IE mismatch seed %d" seed;
          if Ucq.count_via_expansion psi db <> naive then
            report "UCQ EXP mismatch seed %d" seed;
          match pool with
          | None -> ()
          | Some _ ->
              if Ucq.count_naive ?pool psi db <> naive then
                report "UCQ PAR-NAIVE mismatch seed %d" seed;
              if Ucq.count_inclusion_exclusion ?pool psi db <> naive then
                report "UCQ PAR-IE mismatch seed %d" seed;
              if Ucq.count_via_expansion ?pool psi db <> naive then
                report "UCQ PAR-EXP mismatch seed %d" seed
        done);
    (* reduction parsimony, larger random formulas *)
    section "fuzz.parsimony" (fun () ->
        for seed = 0 to iters 150 do
          let f = Cnf.random_3cnf ~seed 4 (1 + (seed mod 6)) in
          if not (Sat_complex.euler_equals_count_sat f) then
            report "PARSIMONY FAIL seed %d" seed
        done);
    (* treewidth: the exact decomposition is valid and witnesses its
       width, on random graphs *)
    section "fuzz.treewidth" (fun () ->
        for seed = 0 to iters 300 do
          let st = Random.State.make [| seed |] in
          let n = 3 + Random.State.int st 7 in
          let g = Graph.make n in
          for _ = 1 to n * 2 do
            Graph.add_edge g (Random.State.int st n) (Random.State.int st n)
          done;
          let w, dec = Treewidth.exact g in
          if (not (Treedec.validate g dec)) || Treedec.width dec <> w then
            report "EXACT TD FAIL seed %d" seed;
          if pool <> None && Treewidth.treewidth ?pool g <> w then
            report "PAR TW mismatch seed %d" seed
        done);
    (* parallel Karp-Luby: a fixed (seed, jobs) pair must be reproducible *)
    (match pool with
    | None -> ()
    | Some _ ->
        section "fuzz.parallel-kl" (fun () ->
            for seed = 0 to iters 50 do
              let psi =
                Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:3 ~max_atoms:2
                  sg
              in
              let db = Generators.random_digraph ~seed:(seed * 11 + 7) 5 12 in
              let est () =
                Karp_luby.estimate ~seed ?pool ~samples:300 psi db
              in
              if est () <> est () then report "PAR KL NONDET seed %d" seed
            done));
    (* analyzer totality: the crash corpus and random bytes through
       Analysis.check — it must never raise, its reports must be
       deterministic, and every span must lie inside the input text *)
    section "fuzz.analyzer" (fun () ->
        let check_text name text =
          match try Ok (Analysis.check ~path:name text) with e -> Error e with
          | Error e ->
              report "ANALYZER RAISED %s: %s" name (Printexc.to_string e)
          | Ok r ->
              if Analysis.check ~path:name text <> r then
                report "ANALYZER NONDET %s" name;
              let lines =
                Array.of_list (String.split_on_char '\n' text)
              in
              let nlines = Array.length lines in
              let line_len i = String.length lines.(i - 1) in
              List.iter
                (fun (d : Diagnostic.t) ->
                  match d.Diagnostic.span with
                  | None -> ()
                  | Some s ->
                      let inside line col =
                        line >= 1 && line <= nlines && col >= 1
                        && col <= line_len line + 1
                      in
                      let ordered =
                        s.Diagnostic.end_line > s.Diagnostic.line
                        || (s.Diagnostic.end_line = s.Diagnostic.line
                            && s.Diagnostic.end_col >= s.Diagnostic.col)
                      in
                      if
                        not
                          (inside s.Diagnostic.line s.Diagnostic.col
                          && inside s.Diagnostic.end_line s.Diagnostic.end_col
                          && ordered)
                      then
                        report "ANALYZER SPAN OOB %s: %s" name
                          (Diagnostic.to_string d))
                r.Analysis.diagnostics
        in
        (* the parser crash corpus (also exercised by the frontend tests) *)
        let dir = Filename.concat "test" "crash_corpus" in
        if Sys.file_exists dir && Sys.is_directory dir then
          Array.iter
            (fun f ->
              let path = Filename.concat dir f in
              let ic = open_in_bin path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              check_text f text)
            (Sys.readdir dir)
        else Printf.printf "fuzz: analyzer corpus %s not found, skipping\n" dir;
        (* random grammar-adjacent bytes, with occasional raw garbage *)
        let alphabet = "(),;:-#ExyzR01 \n\t" in
        for seed = 0 to iters 2000 do
          let st = Random.State.make [| seed; 77 |] in
          let len = Random.State.int st 80 in
          let buf =
            Bytes.init len (fun _ ->
                if Random.State.int st 8 = 0 then
                  Char.chr (Random.State.int st 256)
                else alphabet.[Random.State.int st (String.length alphabet)])
          in
          check_text (Printf.sprintf "rand-%d" seed) (Bytes.to_string buf)
        done);
    (* budget determinism: the same step budget must exhaust at the same
       point twice, and a generous budget must not change any result *)
    section "fuzz.budget-determinism" (fun () ->
        for seed = 0 to iters 200 do
          let psi =
            Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 sg
          in
          let db = Generators.random_digraph ~seed:(seed * 17 + 3) 4 9 in
          let run_once n =
            let b = Budget.of_steps n in
            Budget.run b ~phase:"fuzz" (fun () ->
                Ucq.count_via_expansion ~budget:b psi db)
          in
          let n = 1 + (seed mod 50) in
          if run_once n <> run_once n then report "BUDGET NONDET seed %d" seed;
          match run_once max_int with
          | Ok c when c = Ucq.count_naive psi db -> ()
          | _ -> report "BUDGET CHANGES RESULT seed %d" seed
        done);
    (* cover optimizer: total, deterministic, never raises, and the
       rewrite is count-preserving on every database and every engine —
       the qcheck suite holds the same equivalence, the fuzzer drives
       far more seeds plus the crash corpus through parse → optimize *)
    section "fuzz.optimize" (fun () ->
        let check_total name psi =
          match try Ok (Optimize.run psi) with e -> Error e with
          | Error e ->
              report "OPTIMIZE RAISED %s: %s" name (Printexc.to_string e)
          | Ok r ->
              if Optimize.run psi <> r then report "OPTIMIZE NONDET %s" name;
              if Ucq.length r.Optimize.optimized < 1 then
                report "OPTIMIZE EMPTY UNION %s" name;
              if
                List.length r.Optimize.kept
                <> Ucq.length r.Optimize.optimized
              then report "OPTIMIZE KEPT/LENGTH MISMATCH %s" name
        in
        let check_text name text =
          match Parse.ucq_result text with
          | Error _ | (exception _) -> () (* parser totality is fuzzed above *)
          | Ok (psi, _) -> check_total name psi
        in
        let dir = Filename.concat "test" "crash_corpus" in
        if Sys.file_exists dir && Sys.is_directory dir then
          Array.iter
            (fun f ->
              let path = Filename.concat dir f in
              let ic = open_in_bin path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              check_text f text)
            (Sys.readdir dir)
        else Printf.printf "fuzz: optimize corpus %s not found, skipping\n" dir;
        for seed = 0 to iters 400 do
          let psi =
            Qgen.random_ucq ~seed ~max_disjuncts:4 ~max_vars:4 ~max_atoms:3 sg
          in
          check_total (Printf.sprintf "seed-%d" seed) psi;
          let r = Optimize.run psi in
          let db = Generators.random_digraph ~seed:(seed * 19 + 11) 4 9 in
          let naive = Ucq.count_naive psi db in
          if Ucq.count_naive r.Optimize.optimized db <> naive then
            report "OPTIMIZE CHANGES NAIVE COUNT seed %d" seed;
          if Ucq.count_inclusion_exclusion r.Optimize.optimized db <> naive
          then report "OPTIMIZE CHANGES IE COUNT seed %d" seed;
          if Ucq.count_via_expansion r.Optimize.optimized db <> naive then
            report "OPTIMIZE CHANGES EXP COUNT seed %d" seed;
          match pool with
          | None -> ()
          | Some _ ->
              if Ucq.count_via_expansion ?pool r.Optimize.optimized db <> naive
              then report "OPTIMIZE CHANGES PAR-EXP COUNT seed %d" seed
        done);
    (* the Lemma 26 expansion walk against the subset-by-subset
       reference: the same terms in the same order, the same budget
       steps — on random unions and on Lemma 51 and K_t^k unions with
       their disjuncts in seeded random order *)
    section "fuzz.expansion" (fun () ->
        let agree name psi =
          let metered (f : ?budget:Budget.t -> Ucq.t -> Ucq.expansion_term list) =
            let b = Budget.unlimited () in
            let terms = f ~budget:b psi in
            (terms, Budget.steps_done b)
          in
          let walk, steps = metered Ucq.expansion in
          let reference, reference_steps = metered Ucq.expansion_by_subsets in
          if not (Ucq.terms_equal walk reference) then
            report "EXPANSION WALK MISMATCH %s" name;
          if steps <> reference_steps then
            report "EXPANSION STEPS MISMATCH %s (%d vs %d)" name steps
              reference_steps
        in
        for seed = 0 to iters 400 do
          agree (Printf.sprintf "seed %d" seed)
            (Qgen.random_ucq ~seed ~max_disjuncts:(1 + (seed mod 6)) ~max_vars:4
               ~max_atoms:3 sg)
        done;
        let families =
          List.filter_map
            (fun (n, clauses) ->
              match Pipeline.ucq_of_cnf (Cnf.make n clauses) with
              | Pipeline.Query { psi; _ } -> Some psi
              | Pipeline.Resolved _ -> None)
            [
              (2, [ [ 1; 2 ]; [ -1; 2 ] ]);
              (2, [ [ 1; 2 ]; [ -1; -2 ] ]);
              (2, [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ]);
            ]
          @ [
              fst (Paper_examples.psi1 ());
              fst (Paper_examples.psi2 ());
              fst (Counterexamples.lemma59 3);
              Counterexamples.lemma60 3;
            ]
        in
        for seed = 0 to iters 40 do
          let psi = List.nth families (seed mod List.length families) in
          let st = Random.State.make [| seed |] in
          let shuffled =
            Ucq.make
              (List.map snd
                 (List.sort compare
                    (List.map
                       (fun q -> (Random.State.bits st, q))
                       (Ucq.disjuncts psi))))
          in
          agree (Printf.sprintf "family seed %d" seed) shuffled
        done);
    (* live-update states: random unions that Tier.select maintains
       (tier A or B) under random single-tuple update streams; after
       every change, the maintained count against a naive recount and
       the state's terms against the Lemma 26 support, one per class *)
    section "fuzz.maintained" (fun () ->
        let sg = Signature.make [ Signature.symbol "E" 2; Signature.symbol "R" 1; Signature.symbol "T" 3 ] in
        let n = 4 in
        for seed = 0 to iters 300 do
          let psi = Qgen.random_ucq ~seed ~max_disjuncts:(1 + (seed mod 6)) ~max_vars:4 ~max_atoms:3 sg in
          if (Tier.select psi).Tier.tier <> Tier.C then begin
            let d = Delta.open_db (Structure.make sg (List.init n Fun.id) []) in
            let st = Delta.prepare psi d in
            let support = List.length (Ucq.support psi) in
            let rng = Random.State.make [| seed |] in
            for step = 1 to 25 do
              let s = List.nth sg (Random.State.int rng (List.length sg)) in
              let tuple = List.init s.Signature.arity (fun _ -> Random.State.int rng n) in
              let op = if Random.State.bool rng then `Insert else `Delete in
              match Delta.apply d { Delta.op; fact = { Delta.rel = s.Signature.name; tuple } } with
              | Error e -> report "MAINTAINED UPDATE REJECTED seed %d: %s" seed (Ucqc_error.to_string e)
              | Ok r when r.Delta.changed -> (
                  Delta.apply_state st d r;
                  if List.length (Delta.terms st) <> support then
                    report "MAINTAINED TERMS seed %d step %d: %d, support %d" seed step
                      (List.length (Delta.terms st)) support;
                  match Delta.maintained_count st d with
                  | Some (got, _) ->
                      let want = Ucq.count_naive psi (Delta.structure d) in
                      if got <> want then
                        report "MAINTAINED COUNT MISMATCH seed %d step %d: %d vs %d" seed step got want
                  | None ->
                      report "MAINTAINED STATE LOST seed %d step %d: %s" seed step
                        (Option.value ~default:"no reason" (Delta.degraded st)))
              | Ok _ -> ()
            done
          end
        done);
    (* serve-mode wire protocol: the crash corpus and random bytes
       through Protocol.parse_request — it must never raise, must be
       deterministic, and every response it leads to must render as one
       newline-terminated line that parses back as JSON *)
    section "fuzz.wire-protocol" (fun () ->
        let check_rendered name (resp : Protocol.response) =
          let line = Protocol.to_string resp in
          let n = String.length line in
          if n = 0 || line.[n - 1] <> '\n' then
            report "PROTOCOL FRAME NOT NL-TERMINATED %s" name
          else if String.contains (String.sub line 0 (n - 1)) '\n' then
            report "PROTOCOL FRAME MULTILINE %s" name
          else
            match Trace_json.parse line with
            | exception e ->
                report "PROTOCOL FRAME UNPARSEABLE %s: %s" name
                  (Printexc.to_string e)
            | v -> (
                match
                  (Trace_json.member "status" v, Trace_json.member "code" v)
                with
                | Some (Trace_json.Str _), Some (Trace_json.Num _) -> ()
                | _ -> report "PROTOCOL FRAME MISSING status/code %s" name)
        in
        let check_frame name line =
          match try Ok (Protocol.parse_request line) with e -> Error e with
          | Error e ->
              report "PROTOCOL RAISED %s: %s" name (Printexc.to_string e)
          | Ok r ->
              if Protocol.parse_request line <> r then
                report "PROTOCOL NONDET %s" name;
              let resp =
                match r with
                | Ok (req : Protocol.request) ->
                    Protocol.make_response ?id:req.Protocol.id Protocol.Ok_ []
                | Error e -> Protocol.of_req_error e
              in
              check_rendered name resp
        in
        (* engine errors must render as well-formed frames too *)
        check_rendered "ucqc-internal"
          (Protocol.of_ucqc_error (Ucqc_error.Internal "boom\n\"quoted\""));
        check_rendered "ucqc-unsupported"
          (Protocol.of_ucqc_error ~id:(Trace_json.Num 3.5)
             (Ucqc_error.Unsupported "no"));
        (* the parser crash corpus doubles as hostile request bodies *)
        let dir = Filename.concat "test" "crash_corpus" in
        if Sys.file_exists dir && Sys.is_directory dir then
          Array.iter
            (fun f ->
              let path = Filename.concat dir f in
              let ic = open_in_bin path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              check_frame f text;
              (* ... and embedded as the query of an otherwise-valid op *)
              check_frame (f ^ "-as-query")
                (Trace_json.to_string
                   (Trace_json.Obj
                      [
                        ("op", Trace_json.Str "count");
                        ("query", Trace_json.Str text);
                        ("id", Trace_json.Str f);
                      ])))
            (Sys.readdir dir)
        else Printf.printf "fuzz: protocol corpus %s not found, skipping\n" dir;
        (* random JSON-adjacent bytes, with occasional raw garbage *)
        let alphabet = "{}[]:,\"\\optquerycundismax_1520.-e \n\t" in
        for seed = 0 to iters 2000 do
          let st = Random.State.make [| seed; 911 |] in
          let len = Random.State.int st 120 in
          let buf =
            Bytes.init len (fun _ ->
                if Random.State.int st 8 = 0 then
                  Char.chr (Random.State.int st 256)
                else alphabet.[Random.State.int st (String.length alphabet)])
          in
          check_frame (Printf.sprintf "rand-%d" seed) (Bytes.to_string buf)
        done;
        (* the framer must be chunking-invariant: feeding a byte stream
           in arbitrary pieces yields the same frames as one big feed,
           including oversized-frame discards and the EOF tail *)
        let drain max_frame_bytes chunks =
          let fr = Framer.create ~max_frame_bytes () in
          let out = ref [] in
          List.iter
            (fun c ->
              let b = Bytes.of_string c in
              out := List.rev_append (Framer.feed fr b ~off:0 ~len:(Bytes.length b)) !out;
              if Framer.pending fr < 0 then report "FRAMER NEGATIVE PENDING")
            chunks;
          (match Framer.eof fr with Some f -> out := f :: !out | None -> ());
          if Framer.eof fr <> None then report "FRAMER EOF NOT IDEMPOTENT";
          List.rev !out
        in
        for seed = 0 to iters 800 do
          let st = Random.State.make [| seed; 912 |] in
          let len = Random.State.int st 200 in
          let payload =
            String.init len (fun _ ->
                match Random.State.int st 6 with
                | 0 -> '\n'
                | 1 -> '\r'
                | _ -> Char.chr (32 + Random.State.int st 95))
          in
          let limit = 1 + Random.State.int st 24 in
          let whole =
            match try Ok (drain limit [ payload ]) with e -> Error e with
            | Error e ->
                report "FRAMER RAISED seed %d: %s" seed (Printexc.to_string e);
                []
            | Ok frames -> frames
          in
          (* random re-chunking of the same payload *)
          let rec split acc off =
            if off >= String.length payload then List.rev acc
            else
              let n =
                min (String.length payload - off) (1 + Random.State.int st 9)
              in
              split (String.sub payload off n :: acc) (off + n)
          in
          let chunked = drain limit (split [] 0) in
          if chunked <> whole then report "FRAMER CHUNKING MISMATCH seed %d" seed;
          (* every complete frame respects the size bound and carries no
             terminator bytes *)
          List.iter
            (function
              | Framer.Frame s ->
                  if String.length s > limit then
                    report "FRAMER OVERLONG FRAME seed %d" seed;
                  if String.contains s '\n' then
                    report "FRAMER EMBEDDED NEWLINE seed %d" seed
              | Framer.Oversized n ->
                  if n <> limit then report "FRAMER BAD OVERSIZED TAG seed %d" seed)
            whole
        done)
  in
  (try run ()
   with e ->
     (* crash report: the active span stack names the sweep that died *)
     Printf.eprintf "fuzz: CRASH %s  [spans: %s]\n" (Printexc.to_string e)
       (String.concat " > " (List.rev (Telemetry.current_stack ())));
     raise e);
  Printf.printf "fuzz done: %d failures\n" !failures;
  if !failures > 0 then exit 1
