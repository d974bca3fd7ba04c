(** The [ucqc] command-line tool.

    Subcommands:
    - [count]      count answers to a UCQ in a database
    - [approx]     Karp-Luby approximate counting (Section 1.2)
    - [check]      static analysis / lint of query files (SARIF, JSON)
    - [optimize]   count-preserving cover rewrite of a query file
    - [meta]       decide linear-time countability (Theorem 5)
    - [classify]   structural measures for the Theorems 1/2/3 criteria
    - [wl-dim]     Weisfeiler–Leman dimension (Theorems 7/8/58)
    - [enumerate]  constant-delay enumeration of an acyclic CQ's answers
    - [euler]      reduced Euler characteristic of a facet-encoded complex
    - [pipeline]   the Lemma 51 SAT-hardness pipeline on a DIMACS file
    - [treewidth]  treewidth of the Gaifman graph of a database

    Query files use the {!Parse} surface syntax, e.g.
    [(x, y) :- E(x, z), E(z, y) ; E(x, y)].

    Resource budgets: [--max-steps] (deterministic) and [--timeout]
    (wall-clock) bound the exponential engines.  On exhaustion the tool
    degrades to a tagged approximate result and exits with code 2; with
    [--no-fallback] it fails with code 124 instead.  Malformed input is
    reported as a structured error on stderr with exit code 65; internal
    invariant failures exit with 70; exact successes with 0. *)

open Cmdliner

let read_file (path : string) : string =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* ------------------------------------------------------------------ *)
(* Error rendering and the top-level engine boundary                   *)
(* ------------------------------------------------------------------ *)

let fail_err (e : Ucqc_error.t) : int =
  Printf.eprintf "ucqc: %s\n" (Ucqc_error.to_string e);
  Ucqc_error.exit_code e

(** [guarded f] is the outermost boundary of every subcommand: [f] returns
    an exit code; any structured error — and any stray library escape —
    is rendered on stderr and mapped to its exit code. *)
let guarded (f : unit -> int) : int =
  match Runner.guard f with
  | Ok code -> code
  | Error e -> fail_err e
  | exception Sys_error msg -> fail_err (Ucqc_error.Unsupported msg)

let parse_ucq_file (path : string) : Ucq.t * Parse.query_env =
  match Parse.ucq_result (read_file path) with
  | Ok v -> v
  | Error e -> raise (Ucqc_error.Error e)

let parse_cq_file (path : string) : Cq.t * Parse.query_env =
  match Parse.cq_result (read_file path) with
  | Ok v -> v
  | Error e -> raise (Ucqc_error.Error e)

let parse_db_file (path : string) : Structure.t * Parse.db_env =
  match Parse.database_result (read_file path) with
  | Ok v -> v
  | Error e -> raise (Ucqc_error.Error e)

(* ------------------------------------------------------------------ *)
(* Shared flags                                                       *)
(* ------------------------------------------------------------------ *)

let query_arg =
  let doc = "Query file (surface syntax: '(x, y) :- E(x, z), E(z, y) ; ...')." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY" ~doc)

let max_steps_arg =
  let doc =
    "Bound the engines to $(docv) deterministic steps; exceeding the bound \
     degrades to an approximate result (exit 2) or, with --no-fallback, \
     fails with exit 124."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Wall-clock deadline in seconds (fractions allowed)." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let no_fallback_arg =
  let doc =
    "Disable graceful degradation: exhausting the budget exits with 124 \
     and a structured error instead of an approximate result."
  in
  Arg.(value & flag & info [ "no-fallback" ] ~doc)

(* --optimize is the default for count: the rewrite is count-preserving
   by construction, so opting out is the exceptional path *)
let optimize_arg =
  let on =
    Arg.info [ "optimize" ]
      ~doc:
        "Apply the count-preserving cover optimizer before executing: \
         drop subsumed and duplicate disjuncts, minimize each survivor \
         to its #core.  The count is unchanged by construction; the \
         2^l engines see fewer disjuncts.  This is the default."
  in
  let off =
    Arg.info [ "no-optimize" ]
      ~doc:"Execute the query exactly as written, skipping the optimizer."
  in
  Arg.(value & vflag true [ (true, on); (false, off) ])

(* strict jobs parsing: 0, negatives and garbage are usage errors (exit
   64 through cmdliner's [`Parse]), not silent fallbacks to 1.  The env
   var [UCQC_JOBS] flows through the same converter. *)
let jobs_conv : int Arg.conv =
  let parse s =
    match Pool.validate_jobs s with
    | Ok n -> Ok n
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Worker domains for the parallel engines.  The default ($(docv) = 1) \
     runs every engine sequentially, bit-for-bit identical to the \
     single-threaded behaviour; higher values parallelise the \
     inclusion-exclusion terms, Karp-Luby sampling chunks, naive \
     assignment sweeps and treewidth root branches across OCaml domains \
     with deterministic (index-order) reduction.  Subcommands without a \
     parallel engine accept and ignore the flag.  Must be a positive \
     integer; anything else is a usage error."
  in
  let env = Cmd.Env.info "UCQC_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt jobs_conv 1 & info [ "jobs"; "j" ] ~docv:"N" ~env ~doc)

let pool_of (jobs : int) : Pool.t = Pool.create ~jobs ()

let budget_of max_steps timeout = Budget.make ?max_steps ?timeout ()

let exhaustion_note (e : Budget.exhaustion) (a : Runner.abandoned)
    (degraded_to : string) : unit =
  Printf.eprintf
    "ucqc: budget exhausted in phase %s after %d steps; abandoned attempt \
     consumed %d steps in %.3f s; degraded to %s\n"
    e.Budget.phase e.Budget.steps_done a.Runner.steps a.Runner.elapsed_s
    degraded_to

(* ------------------------------------------------------------------ *)
(* Observability flags                                                *)
(* ------------------------------------------------------------------ *)

type obs = { trace : string option; metrics : string option; stats : bool }

let obs_term : obs Term.t =
  let trace_arg =
    let doc =
      "Write a Chrome-trace / Perfetto JSON file of the run's spans to \
       $(docv) (open it at ui.perfetto.dev or chrome://tracing)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc = "Write counters, gauges and span aggregates as JSON to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print an end-of-run per-phase summary table on stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  Term.(
    const (fun trace metrics stats -> { trace; metrics; stats })
    $ trace_arg $ metrics_arg $ stats_arg)

(* Export files are written to a sibling temp file and renamed into
   place: a crash (or a signal racing the flush) leaves either the old
   file or the new one, never a truncated half-export — these files are
   read by dashboards and CI while the process may still be dying. *)
let write_file_with (path : string) (f : out_channel -> unit) : unit =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  match
    f oc;
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(** [flush_obs obs flushed] writes the requested exports exactly once
    ([flushed] makes it idempotent): the shared tail of the normal exit
    path, the signal path, and the server drain path. *)
let flush_obs (obs : obs) (flushed : bool Atomic.t) : unit =
  if not (Atomic.exchange flushed true) then begin
    Option.iter
      (fun path -> write_file_with path Telemetry.export_chrome_trace)
      obs.trace;
    Option.iter
      (fun path -> write_file_with path Telemetry.export_metrics)
      obs.metrics;
    if obs.stats then Telemetry.print_summary stderr
  end

let obs_wanted (obs : obs) : bool =
  obs.trace <> None || obs.metrics <> None || obs.stats

(** [with_obs obs name f] enables telemetry when any of [--trace],
    [--metrics], [--stats] was given, runs [f] under a root span
    [ucqc.<name>], and exports on the way out — also on error paths, so a
    budget-exhausted or degraded run still leaves its trace behind.
    Ctrl-C and SIGTERM flush too, then exit with the conventional
    128+signal code (130/143): an interrupted run keeps its partial
    trace. *)
let with_obs (obs : obs) (name : string) (f : unit -> int) : int =
  if not (obs_wanted obs) then f ()
  else begin
    Telemetry.enable ();
    let flushed = Atomic.make false in
    (* [exit] does not unwind [Fun.protect], so the handler must flush
       itself; [flushed] keeps the two paths from exporting twice *)
    let on_signal code =
      Sys.Signal_handle
        (fun _ ->
          flush_obs obs flushed;
          exit code)
    in
    let prev_int =
      try Some (Sys.signal Sys.sigint (on_signal 130)) with _ -> None
    in
    let prev_term =
      try Some (Sys.signal Sys.sigterm (on_signal 143)) with _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        (try Option.iter (Sys.set_signal Sys.sigint) prev_int with _ -> ());
        (try Option.iter (Sys.set_signal Sys.sigterm) prev_term with _ -> ());
        flush_obs obs flushed;
        Telemetry.disable ())
      (fun () -> Telemetry.with_span ("ucqc." ^ name) f)
  end

(* ------------------------------------------------------------------ *)
(* Static pre-flight (--lint)                                         *)
(* ------------------------------------------------------------------ *)

let lint_arg =
  let doc =
    "Run the static analyzer ('ucqc check') on the query before executing \
     and print its findings on stderr.  Informational only: the exit code \
     is unaffected (genuine errors surface through normal parsing)."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

(** The [--lint] pre-flight: analyze the query file under the analyzer's
    own default budget (never the run's execution budget) and report on
    stderr. *)
let lint_preflight (lint : bool) (path : string) : unit =
  if lint then
    let report = Runner.preflight ~path (read_file path) in
    List.iter
      (fun d -> Printf.eprintf "ucqc: %s\n" (Diagnostic.to_string ~path d))
      report.Analysis.diagnostics

(* ------------------------------------------------------------------ *)
(* count                                                              *)
(* ------------------------------------------------------------------ *)

let method_enum =
  Arg.enum
    [
      ("expansion", Runner.Expansion);
      ("ie", Runner.Inclusion_exclusion);
      ("naive", Runner.Naive);
    ]

let count_cmd =
  let db_arg =
    let doc = "Database file (facts: 'E(1, 2). E(2, 3).')." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DB" ~doc)
  in
  let method_arg =
    let doc =
      "Counting method: 'expansion' (CQ expansion, Lemma 26), 'ie' \
       (inclusion-exclusion), or 'naive' (enumeration; exponential)."
    in
    Arg.(value & opt method_enum Runner.Expansion & info [ "method" ] ~doc)
  in
  let seed_arg =
    let doc = "Random seed for the Karp-Luby fallback." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let run qfile dbfile via seed optimize max_steps timeout no_fallback jobs
      obs lint =
    guarded (fun () ->
        with_obs obs "count" @@ fun () ->
        let pool = pool_of jobs in
        lint_preflight lint qfile;
        let psi, _ = parse_ucq_file qfile in
        let db, _ = parse_db_file dbfile in
        let budget = budget_of max_steps timeout in
        match
          (* the optimizer also unlocks predictor-driven selection: the
             shrunken query is what the calibrated plan cost is fed *)
          Runner.count ~via ~fallback:(not no_fallback) ~optimize
            ~select:optimize ~seed ~pool ~budget psi db
        with
        | Ok (Runner.Exact n) ->
            Printf.printf "%d\n" n;
            Runner.exit_exact
        | Ok (Runner.Approximate { value; epsilon; delta; exhausted; abandoned })
          ->
            exhaustion_note exhausted abandoned
              (Printf.sprintf "Karp-Luby estimate (epsilon=%g, delta=%g)"
                 epsilon delta);
            Printf.printf "%.2f\n" value;
            Runner.exit_degraded
        | Error e -> fail_err e)
  in
  let doc = "Count answers to a union of conjunctive queries." in
  Cmd.v (Cmd.info "count" ~doc)
    Term.(
      const run $ query_arg $ db_arg $ method_arg $ seed_arg $ optimize_arg
      $ max_steps_arg $ timeout_arg $ no_fallback_arg $ jobs_arg $ obs_term
      $ lint_arg)

(* ------------------------------------------------------------------ *)
(* optimize                                                           *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let format_arg =
    let doc =
      "Output format: 'human' (the optimized query on stdout, the \
       rewrite report on stderr) or 'json' (the full structured report)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("human", `Human); ("json", `Json) ]) `Human
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let run qfile format max_steps timeout jobs obs =
    guarded (fun () ->
        with_obs obs "optimize" @@ fun () ->
        ignore (pool_of jobs : Pool.t);
        let psi, env = parse_ucq_file qfile in
        let budget =
          match (max_steps, timeout) with
          | None, None -> None
          | _ -> Some (budget_of max_steps timeout)
        in
        let report = Optimize.run ?budget psi in
        (match format with
        | `Human ->
            (* stdout is the rewritten query alone, so the output parses
               back as a query file; the report rides on stderr *)
            print_endline (Pretty.ucq ~env report.Optimize.optimized);
            Printf.eprintf "ucqc: %s\n"
              (String.concat "\nucqc: "
                 (String.split_on_char '\n' (Optimize.describe report)))
        | `Json ->
            print_endline
              (Trace_json.to_string (Optimize.report_to_json ~env report)));
        0)
  in
  let doc =
    "Apply the count-preserving cover optimizer to a query file and \
     print the rewritten query: subsumed and duplicate disjuncts are \
     dropped (each drop justified by a verified homomorphism fixing the \
     free variables), and every surviving disjunct is minimized to its \
     #core.  The rewritten query has the same count as the original on \
     every database."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ query_arg $ format_arg $ max_steps_arg $ timeout_arg
      $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* check                                                              *)
(* ------------------------------------------------------------------ *)

type check_format = Human | Json | Sarif_format

(* check-only --optimize: analysis stays as-written by default, the flag
   opts into the post-rewrite view (satellite of the optimizer pass) *)
let optimize_check_arg =
  let doc =
    "Also classify the query $(b,after) the count-preserving optimizer: \
     when the rewrite changes the update-maintenance tier, a UCQ405 \
     finding reports the post-rewrite tier alongside the as-written one."
  in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let check_cmd =
  let files_arg =
    let doc = "Query files to analyze (surface syntax)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"QUERY" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: 'human' (one finding per line), 'json' (structured \
       reports), or 'sarif' (SARIF 2.1.0, one run covering every file)."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [ ("human", Human); ("json", Json); ("sarif", Sarif_format) ])
          Human
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  (* a deny spec is validated at parse time: usage errors (exit 64), not
     runtime failures *)
  let deny_conv : Diagnostic.deny Arg.conv =
    let parse s =
      match Diagnostic.deny_of_string s with
      | Ok d -> Ok d
      | Error msg -> Error (`Msg msg)
    in
    let print ppf (d : Diagnostic.deny) =
      Format.pp_print_string ppf
        (match d with
        | Diagnostic.Code c -> c
        | Diagnostic.At_least s -> Diagnostic.severity_to_string s)
    in
    Arg.conv ~docv:"SPEC" (parse, print)
  in
  let deny_arg =
    let doc =
      "Fail (exit 1) when a finding matches $(docv): a rule code (e.g. \
       'UCQ104') or a severity ('warning' denies warnings and errors). \
       Error-severity findings are always denied.  Repeatable."
    in
    Arg.(value & opt_all deny_conv [] & info [ "deny" ] ~docv:"SPEC" ~doc)
  in
  let tw_threshold_arg =
    let doc = "Contract treewidth above which UCQ201 fires." in
    Arg.(value & opt int 2 & info [ "tw-threshold" ] ~docv:"W" ~doc)
  in
  let ie_threshold_arg =
    let doc = "Disjunct count at which UCQ203 (2^l blowup) fires." in
    Arg.(value & opt int 8 & info [ "ie-threshold" ] ~docv:"L" ~doc)
  in
  let run files format denies tw_threshold ie_threshold optimize max_steps
      timeout jobs obs =
    guarded (fun () ->
        with_obs obs "check" @@ fun () ->
        ignore (pool_of jobs : Pool.t);
        let reports =
          List.map
            (fun path ->
              (* a fresh budget per file: one pathological query must not
                 starve the analysis of the files after it *)
              let budget =
                match (max_steps, timeout) with
                | None, None -> None
                | _ -> Some (budget_of max_steps timeout)
              in
              Analysis.check ?budget ~tw_threshold ~ie_threshold ~path
                (read_file path))
            files
        in
        (* under --optimize, report where the rewrite changes the
           maintenance tier (UCQ405) *)
        let reports =
          if not optimize then reports
          else
            List.map2
              (fun path r ->
                match Parse.ucq_result (read_file path) with
                | Ok (psi, _) -> Optimize.with_tier_change r psi
                | Error _ -> r)
              files reports
        in
        (match format with
        | Human ->
            List.iter
              (fun r -> print_endline (Analysis.report_to_human r))
              reports
        | Json ->
            print_endline
              (Trace_json.to_string
                 (Trace_json.Arr (List.map Analysis.report_to_json reports)))
        | Sarif_format ->
            print_endline
              (Sarif.to_string
                 (Sarif.of_reports ~tool_version:Buildid.version reports)));
        let denied =
          List.concat_map (Analysis.denied_diagnostics denies) reports
        in
        if denied = [] then 0
        else begin
          Printf.eprintf "ucqc: check failed: %d denied finding%s\n"
            (List.length denied)
            (if List.length denied = 1 then "" else "s");
          if format <> Human then
            (* the findings went to stdout in machine form; repeat the
               denied ones on stderr for the human reading the CI log *)
            List.iter
              (fun d -> Printf.eprintf "ucqc: %s\n" (Diagnostic.to_string d))
              denied;
          1
        end)
  in
  let doc =
    "Statically analyze query files: structural lints, \
     complexity-theoretic findings (contract treewidth, free-connexity, \
     WL-dimension, inclusion-exclusion blowup) and a predicted execution \
     plan, as structured diagnostics with stable UCQnnn codes.  Exits 0 \
     when no finding is denied, 1 when one is ('--deny'), 64 on usage \
     errors."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ files_arg $ format_arg $ deny_arg $ tw_threshold_arg
      $ ie_threshold_arg $ optimize_check_arg $ max_steps_arg $ timeout_arg
      $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* approx                                                             *)
(* ------------------------------------------------------------------ *)

let approx_cmd =
  let db_arg =
    let doc = "Database file." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DB" ~doc)
  in
  let samples_arg =
    let doc = "Sample budget for the Karp-Luby estimator." in
    Arg.(value & opt int 10_000 & info [ "samples" ] ~doc)
  in
  let seed_arg =
    let doc = "Random seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let run qfile dbfile samples seed max_steps timeout jobs obs =
    guarded (fun () ->
        with_obs obs "approx" @@ fun () ->
        let psi, _ = parse_ucq_file qfile in
        let db, _ = parse_db_file dbfile in
        let budget = budget_of max_steps timeout in
        let pool = pool_of jobs in
        match
          Budget.run budget ~phase:"approx" (fun () ->
              Karp_luby.estimate ~seed ~budget ~pool ~samples psi db)
        with
        | Ok est ->
            Printf.printf "estimate: %.2f (samples %d, space %d, hits %d)\n"
              est.Karp_luby.value est.Karp_luby.samples est.Karp_luby.space
              est.Karp_luby.hits;
            if est.Karp_luby.dropped > 0 then
              Printf.eprintf
                "ucqc: %d of %d draws failed and were excluded from the \
                 estimate\n"
                est.Karp_luby.dropped est.Karp_luby.samples;
            Runner.exit_exact
        | Error exhausted ->
            fail_err (Ucqc_error.of_exhaustion exhausted))
  in
  let doc =
    "Approximate the answer count with the Karp-Luby estimator (Section \
     1.2) — no exponential CQ expansion involved."
  in
  Cmd.v (Cmd.info "approx" ~doc)
    Term.(
      const run $ query_arg $ db_arg $ samples_arg $ seed_arg $ max_steps_arg
      $ timeout_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* meta                                                               *)
(* ------------------------------------------------------------------ *)

let meta_cmd =
  let run qfile max_steps timeout jobs obs lint =
    guarded (fun () ->
        with_obs obs "meta" @@ fun () ->
        ignore (pool_of jobs : Pool.t);
        lint_preflight lint qfile;
        let psi, env = parse_ucq_file qfile in
        let budget = budget_of max_steps timeout in
        match Runner.decide_meta ~budget psi with
        | Error e -> fail_err e
        | Ok d ->
            Printf.printf "linear-time countable: %b\n" d.Meta.linear_time;
            Printf.printf "expansion support (%d #minimal classes):\n"
              (List.length d.Meta.support);
            List.iter
              (fun (q, c) ->
                Printf.printf "  %+d  x  %s   [%s]\n" c
                  (Pretty.cq ~env q)
                  (if Cq.is_acyclic q then "acyclic" else "CYCLIC"))
              d.Meta.support;
            Runner.exit_exact)
  in
  let doc =
    "Decide whether counting answers is possible in linear time (META, \
     Theorem 5; quantifier-free unions only)."
  in
  Cmd.v (Cmd.info "meta" ~doc)
    Term.(
      const run $ query_arg $ max_steps_arg $ timeout_arg $ jobs_arg
      $ obs_term $ lint_arg)

(* ------------------------------------------------------------------ *)
(* classify                                                           *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let gamma_arg =
    let doc = "Skip the exponential Gamma(C) measures." in
    Arg.(value & flag & info [ "no-gamma" ] ~doc)
  in
  let run qfile no_gamma jobs obs lint =
    guarded (fun () ->
        with_obs obs "classify" @@ fun () ->
        let pool = pool_of jobs in
        lint_preflight lint qfile;
        let psi, _ = parse_ucq_file qfile in
        let r = Classify.analyze ~with_gamma:(not no_gamma) ~pool psi in
        Printf.printf "disjuncts:               %d\n" r.Classify.num_disjuncts;
        Printf.printf "quantifier-free:         %b\n" r.Classify.quantifier_free;
        Printf.printf "union of self-join-free: %b\n"
          r.Classify.union_of_self_join_free;
        Printf.printf "quantified variables:    %d\n" r.Classify.num_quantified;
        Printf.printf "tw(/\\Psi):               %d\n" r.Classify.combined_tw;
        Printf.printf "tw(contract(/\\Psi)):     %d\n"
          r.Classify.combined_contract_tw;
        if not no_gamma then begin
          Printf.printf "max tw over Gamma:       %d\n" r.Classify.gamma_max_tw;
          Printf.printf "max ctw over Gamma:      %d\n"
            r.Classify.gamma_max_contract_tw
        end;
        let sel = Tier.select psi in
        Printf.printf "maintenance tier:        %s (%s; %s)\n"
          (Tier.to_string sel.Tier.tier)
          (Tier.describe sel.Tier.tier)
          sel.Tier.reason;
        Runner.exit_exact)
  in
  let doc = "Report the treewidth measures behind Theorems 1/2/3." in
  Cmd.v (Cmd.info "classify" ~doc)
    Term.(const run $ query_arg $ gamma_arg $ jobs_arg $ obs_term $ lint_arg)

(* ------------------------------------------------------------------ *)
(* wl-dim                                                             *)
(* ------------------------------------------------------------------ *)

let wl_dim_cmd =
  let approx_arg =
    let doc = "Use the polynomial-per-term approximation (Theorem 7)." in
    Arg.(value & flag & info [ "approx" ] ~doc)
  in
  let run qfile approx max_steps timeout no_fallback jobs obs =
    guarded (fun () ->
        with_obs obs "wl-dim" @@ fun () ->
        let psi, _ = parse_ucq_file qfile in
        let pool = pool_of jobs in
        if approx then begin
          (* explicitly requested bounds: not a degraded result *)
          let lo, hi = Wl_dimension.approximate psi in
          Printf.printf "dim_WL in [%d, %d]\n" lo hi;
          Runner.exit_exact
        end
        else begin
          let budget = budget_of max_steps timeout in
          match
            Runner.wl_dimension ~fallback:(not no_fallback) ~pool ~budget psi
          with
          | Ok (Runner.Exact_dim k) ->
              Printf.printf "dim_WL = %d\n" k;
              Runner.exit_exact
          | Ok (Runner.Bounds { lower; upper; exhausted; abandoned }) ->
              exhaustion_note exhausted abandoned
                "polynomial bound pair (Theorem 7)";
              Printf.printf "dim_WL in [%d, %d]\n" lower upper;
              Runner.exit_degraded
          | Error e -> fail_err e
        end)
  in
  let doc =
    "Compute the Weisfeiler-Leman dimension of a quantifier-free UCQ on \
     labelled graphs (Theorems 7/8/58)."
  in
  Cmd.v (Cmd.info "wl-dim" ~doc)
    Term.(
      const run $ query_arg $ approx_arg $ max_steps_arg $ timeout_arg
      $ no_fallback_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* euler                                                              *)
(* ------------------------------------------------------------------ *)

let euler_cmd =
  let file_arg =
    let doc = "Complex file: one facet per line, elements separated by spaces or commas." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"COMPLEX" ~doc)
  in
  let run path jobs obs =
    ignore (pool_of jobs);
    guarded (fun () ->
        with_obs obs "euler" @@ fun () ->
        let facets =
          read_file path |> String.split_on_char '\n'
          |> List.filter_map (fun line ->
                 let line = String.trim line in
                 if line = "" || line.[0] = '#' then None
                 else
                   Some
                     (String.split_on_char ' '
                        (String.map (fun c -> if c = ',' then ' ' else c) line)
                     |> List.filter (( <> ) "")
                     |> List.map int_of_string))
        in
        let ground = List.sort_uniq compare (List.concat facets) in
        let c = Scomplex.make ground facets in
        Printf.printf "ground set: %d elements, %d facets\n"
          (List.length (Scomplex.ground c))
          (List.length (Scomplex.facets c));
        Printf.printf "irreducible: %b\n" (Scomplex.is_irreducible c);
        Printf.printf "reduced Euler characteristic: %d\n" (Scomplex.euler c);
        Runner.exit_exact)
  in
  let doc = "Reduced Euler characteristic of a facet-encoded complex." in
  Cmd.v (Cmd.info "euler" ~doc)
    Term.(const run $ file_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let pipeline_cmd =
  let file_arg =
    let doc = "DIMACS CNF file (keep it tiny: the analysis is exponential)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF" ~doc)
  in
  let t_arg =
    let doc = "Clique parameter t of the K_t^k construction." in
    Arg.(value & opt int 3 & info [ "t" ] ~doc)
  in
  let run path t jobs obs =
    guarded (fun () ->
        with_obs obs "pipeline" @@ fun () ->
        ignore (pool_of jobs : Pool.t);
        let f = Cnf.parse_dimacs (read_file path) in
        (match Pipeline.ucq_of_cnf ~t f with
        | Pipeline.Resolved sat ->
            Printf.printf "resolved during preprocessing: satisfiable = %b\n"
              sat
        | Pipeline.Query { psi; ktk; complex } ->
            Printf.printf "power complex: |U| = %d, |Omega| = %d\n"
              (List.length complex.Power_complex.universe)
              (List.length complex.Power_complex.ground);
            Printf.printf "UCQ: %d CQs over K_%d^%d\n" (Ucq.length psi)
              ktk.Ktk.t_ ktk.Ktk.k;
            Printf.printf "c_Psi(K_t^k) = %d\n"
              (Ucq.coefficient psi (Ucq.combined_all psi));
            let d = Meta.decide psi in
            Printf.printf "META linear-time: %b  =>  formula %s\n"
              d.Meta.linear_time
              (if d.Meta.linear_time then "UNSATISFIABLE" else "SATISFIABLE"));
        Runner.exit_exact)
  in
  let doc = "Run the Lemma 51 SAT-hardness pipeline on a DIMACS file." in
  Cmd.v (Cmd.info "pipeline" ~doc)
    Term.(const run $ file_arg $ t_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* enumerate                                                          *)
(* ------------------------------------------------------------------ *)

let enumerate_cmd =
  let db_arg =
    let doc = "Database file." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DB" ~doc)
  in
  let limit_arg =
    let doc = "Print at most this many answers (0 = all)." in
    Arg.(value & opt int 20 & info [ "limit" ] ~doc)
  in
  let run qfile dbfile limit jobs obs =
    ignore (pool_of jobs);
    guarded (fun () ->
        with_obs obs "enumerate" @@ fun () ->
        let q, env = parse_cq_file qfile in
        let db, _ = parse_db_file dbfile in
        let e = Enumerate.prepare q db in
        let seq = Enumerate.answers e in
        let seq = if limit > 0 then Seq.take limit seq else seq in
        let names = List.map (Pretty.var_name env) (Cq.free q) in
        Printf.printf "(%s)\n" (String.concat ", " names);
        Seq.iter
          (fun a ->
            Printf.printf "(%s)\n"
              (String.concat ", " (List.map string_of_int a)))
          seq;
        Runner.exit_exact)
  in
  let doc =
    "Enumerate the answers of an acyclic quantifier-free CQ with constant \
     delay (Section 1.1)."
  in
  Cmd.v (Cmd.info "enumerate" ~doc)
    Term.(const run $ query_arg $ db_arg $ limit_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* treewidth                                                          *)
(* ------------------------------------------------------------------ *)

let treewidth_cmd =
  let file_arg =
    let doc = "Database file (its Gaifman graph is decomposed)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DB" ~doc)
  in
  let exact_arg =
    let doc = "Force the exact (exponential) algorithm regardless of size." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run path force_exact max_steps timeout no_fallback jobs obs =
    guarded (fun () ->
        with_obs obs "treewidth" @@ fun () ->
        let d, _ = parse_db_file path in
        let g, _ = Structure.gaifman d in
        if force_exact || Graph.num_vertices g <= 20 then begin
          let budget = budget_of max_steps timeout in
          let pool = pool_of jobs in
          match
            Runner.treewidth ~fallback:(not no_fallback) ~pool ~budget g
          with
          | Ok (Runner.Exact_width w) ->
              Printf.printf "treewidth = %d (exact)\n" w;
              Runner.exit_exact
          | Ok (Runner.Heuristic { lower; upper; exhausted; abandoned }) ->
              exhaustion_note exhausted abandoned "heuristic treewidth bounds";
              Printf.printf "treewidth in [%d, %d] (heuristic)\n" lower upper;
              Runner.exit_degraded
          | Error e -> fail_err e
        end
        else begin
          (* size-gated heuristic: requested behaviour, not degradation *)
          let ub, _ = Treewidth.heuristic g in
          Printf.printf
            "treewidth in [%d, %d] (heuristic; use --exact to force)\n"
            (Treewidth.lower_bound g) ub;
          Runner.exit_exact
        end)
  in
  let doc = "Treewidth of the Gaifman graph of a database." in
  Cmd.v (Cmd.info "treewidth" ~doc)
    Term.(
      const run $ file_arg $ exact_arg $ max_steps_arg $ timeout_arg
      $ no_fallback_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* watch                                                              *)
(* ------------------------------------------------------------------ *)

let watch_cmd =
  let files_arg =
    let doc =
      "Query files followed by the database file: the last $(docv) is the \
       database, every earlier one a query to keep counted."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let input_arg =
    let doc = "Read delta lines from $(docv) instead of stdin." in
    Arg.(value & opt (some file) None & info [ "input" ] ~docv:"FILE" ~doc)
  in
  let final_db_arg =
    let doc =
      "After the stream ends, write the final database in .facts syntax to \
       $(docv) — a one-shot 'ucqc count' on it must agree with the last \
       streamed counts."
    in
    Arg.(
      value & opt (some string) None & info [ "final-db" ] ~docv:"FILE" ~doc)
  in
  let run files input final_db max_steps timeout no_fallback jobs obs =
    guarded (fun () ->
        with_obs obs "watch" @@ fun () ->
        let qfiles, dbfile =
          match List.rev files with
          | db :: (_ :: _ as qs) -> (List.rev qs, db)
          | _ ->
              raise
                (Ucqc_error.Error
                   (Ucqc_error.Unsupported
                      "watch needs at least one query file and a database \
                       file"))
        in
        let db0, env = parse_db_file dbfile in
        let s =
          Session.create ~env ~optimize:false
            ~capacity:(List.length qfiles) ~pool:(pool_of jobs) db0
        in
        let budget () = budget_of max_steps timeout in
        (* registered eagerly, so the initial counts are maintained *)
        let queries =
          List.map
            (fun p ->
              match Session.prepare s (read_file p) with
              | Cache.Invalid e -> raise (Ucqc_error.Error e)
              | Cache.Hit e | Cache.Interned e | Cache.Miss e ->
                  (p, e, Session.register s ~budget e))
            qfiles
        in
        let any_rejected = ref false and any_degraded = ref false in
        let num i = Trace_json.Num (float_of_int i) in
        (* one count per query.  [null] means the budget ran out: the
           count is unavailable this epoch but the stream keeps going
           (degraded, exit 2) — unless --no-fallback made that a hard
           124. *)
        let counts_json () : Trace_json.t =
          Trace_json.Arr
            (List.map
               (fun (path, e, st) ->
                 let o = Session.count s ~fallback:false ~budget e in
                 let count, source =
                   match o.Session.result with
                   | Ok (Runner.Exact n) ->
                       ( num n,
                         match o.Session.source with
                         | Session.Maintained -> "maintained"
                         | Session.Memoized -> "memoized"
                         | Session.Computed -> "recomputed" )
                   | Error e when no_fallback -> raise (Ucqc_error.Error e)
                   (* an estimate is unreachable without fallback *)
                   | result ->
                       if Result.is_error result then any_degraded := true;
                       (Trace_json.Null, "unavailable")
                 in
                 Trace_json.Obj
                   ([
                      ("query", Trace_json.Str path);
                      ("count", count);
                      ("source", Trace_json.Str source);
                      ( "tier",
                        Trace_json.Str
                          (Tier.to_string (Delta.effective_tier st)) );
                    ]
                   @
                   match Delta.degraded st with
                   | None -> []
                   | Some reason ->
                       any_degraded := true;
                       [ ("degraded", Trace_json.Str reason) ]))
               queries)
        in
        let emit (fields : (string * Trace_json.t) list) : unit =
          print_endline (Trace_json.to_string (Trace_json.Obj fields));
          flush stdout
        in
        let emit_rejected lineno text (e : Ucqc_error.t) : unit =
          any_rejected := true;
          emit
            [
              ("line", num lineno);
              ("status", Trace_json.Str "rejected");
              ("input", Trace_json.Str text);
              ("error", Trace_json.Str (Ucqc_error.to_string e));
            ]
        in
        (* the epoch-0 snapshot: initial counts and each query's selected
           tier with the classifier's reason *)
        emit
          [
            ("line", num 0);
            ("status", Trace_json.Str "initial");
            ("epoch", num (Delta.epoch (Session.db s)));
            ( "tiers",
              Trace_json.Arr
                (List.map
                   (fun (path, _, st) ->
                     let sel = Delta.selection st in
                     Trace_json.Obj
                       [
                         ("query", Trace_json.Str path);
                         ("tier", Trace_json.Str (Tier.to_string sel.Tier.tier));
                         ("reason", Trace_json.Str sel.Tier.reason);
                       ])
                   queries) );
            ("counts", counts_json ());
          ];
        let ic = match input with Some p -> open_in p | None -> stdin in
        Fun.protect
          ~finally:(fun () -> if input <> None then close_in_noerr ic)
          (fun () ->
            let lineno = ref 0 in
            (try
               while true do
                 let text = input_line ic in
                 incr lineno;
                 let lineno = !lineno in
                 match Delta_parse.line ~lineno text with
                 | Ok Delta_parse.Blank -> ()
                 | Error e -> emit_rejected lineno text e
                 | Ok (Delta_parse.Deltas specs) -> (
                     (* an NDJSON 'apply' batch is atomic: one bad delta
                        rejects all of it *)
                     match
                       Session.apply s ~budget (List.map Result.ok specs)
                     with
                     | Error e -> emit_rejected lineno text e
                     | Ok b ->
                         emit
                           [
                             ("line", num lineno);
                             ("status", Trace_json.Str "ok");
                             ("applied", num b.Session.applied);
                             ("noop", num b.Session.noop);
                             ("epoch", num b.Session.epoch);
                             ("counts", counts_json ());
                           ])
               done
             with End_of_file -> ());
            Option.iter
              (fun path ->
                write_file_with path (fun oc ->
                    output_string oc
                      (Delta.render_facts (Delta.structure (Session.db s)))))
              final_db;
            if !any_rejected then Ucqc_error.exit_code (Ucqc_error.Unsupported "")
            else if !any_degraded then Runner.exit_degraded
            else Runner.exit_exact))
  in
  let doc =
    "Watch a stream of fact deltas ('+E(1,2)' / '-E(1,2)', or the NDJSON \
     forms) against a set of queries, emitting updated counts after every \
     change.  Counts are maintained incrementally where the theory \
     allows: tier A (q-hierarchical dynamic counting, O(1) per update), \
     tier B (delta evaluation through the changed tuple), tier C (lazy \
     recompute, memoized per epoch).  Rejected deltas are reported and \
     skipped (final exit 65); budget exhaustion degrades (exit 2) unless \
     --no-fallback makes it fatal (124)."
  in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(
      const run $ files_arg $ input_arg $ final_db_arg $ max_steps_arg
      $ timeout_arg $ no_fallback_arg $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let hostport_conv : (string * int) Arg.conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ -> Error (`Msg "expected HOST:PORT"))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv ~docv:"HOST:PORT" (parse, print)

let serve_cmd =
  let db_arg =
    let doc = "Database file, loaded once and shared by every request." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DB" ~doc)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on TCP port $(docv) (see --host)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Bind address for --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Admission-queue bound: requests beyond $(docv) outstanding are shed \
       with an 'overloaded' response and a retry hint."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let max_frame_arg =
    let doc = "Reject request frames larger than $(docv) bytes." in
    Arg.(
      value & opt int (1 lsl 20) & info [ "max-frame-bytes" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc = "Close connections idle for $(docv) seconds." in
    Arg.(value & opt float 300. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let request_timeout_arg =
    let doc =
      "Per-request wall-clock cap in seconds (also the default when a \
       request asks for none); 0 disables the cap."
    in
    Arg.(
      value & opt float 30. & info [ "request-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_steps_cap_arg =
    let doc =
      "Per-request deterministic step cap; a request's own max_steps is \
       clamped to it."
    in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let cache_size_arg =
    let doc = "Prepared-query cache entries (0 disables the cache)." in
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let drain_deadline_arg =
    let doc =
      "Graceful-drain allowance on shutdown: past $(docv) seconds the \
       backlog is answered 'shutting_down' and the in-flight request is \
       cancelled."
    in
    Arg.(
      value & opt float 5. & info [ "drain-deadline" ] ~docv:"SECONDS" ~doc)
  in
  let max_connections_arg =
    let doc = "Concurrent client connections; excess is shed at accept." in
    Arg.(value & opt int 128 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let metrics_addr_arg =
    let doc =
      "Serve the observability HTTP plane (GET /metrics in Prometheus text \
       exposition, /healthz, /readyz) on $(docv).  Port 0 lets the kernel \
       pick; the bound address is printed on stderr.  Scrapes never touch \
       the evaluator thread."
    in
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "metrics-addr" ] ~docv:"HOST:PORT" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per evaluated request (request id, op, status, \
       latency, queue wait) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let slow_query_log_arg =
    let doc =
      "Append one JSON line to $(docv) whenever a query's observed step \
       count exceeds --slow-factor times the static plan's cost \
       prediction: the plan-drift log."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-query-log" ] ~docv:"FILE" ~doc)
  in
  let slow_factor_arg =
    let doc = "Drift threshold for --slow-query-log (observed / predicted)." in
    Arg.(value & opt float 8. & info [ "slow-factor" ] ~docv:"K" ~doc)
  in
  let no_optimize_arg =
    let doc =
      "Disable the count-preserving cover optimizer: prepared queries \
       are evaluated and maintained exactly as written.  By default each \
       query is optimized once, at prepare time, and the rewrite is \
       cached with the entry."
    in
    Arg.(value & flag & info [ "no-optimize" ] ~doc)
  in
  let run dbfile socket port host queue_depth max_frame_bytes idle_timeout_s
      request_timeout max_steps_cap cache_capacity drain_deadline_s
      max_connections metrics_addr access_log slow_query_log slow_factor
      no_optimize jobs obs =
    guarded (fun () ->
        let listen =
          match (socket, port) with
          | Some path, None -> Server.Unix_socket path
          | None, Some p -> Server.Tcp { host; port = p }
          | Some _, Some _ ->
              raise
                (Ucqc_error.Error
                   (Ucqc_error.Unsupported
                      "--socket and --port are mutually exclusive"))
          | None, None ->
              raise
                (Ucqc_error.Error
                   (Ucqc_error.Unsupported
                      "serve needs a listen address: --socket PATH or --port \
                       PORT"))
        in
        let db, db_env = parse_db_file dbfile in
        let cfg =
          {
            Server.listen;
            jobs;
            queue_depth;
            max_frame_bytes;
            idle_timeout_s;
            request_timeout_s =
              (if request_timeout <= 0. then None else Some request_timeout);
            max_steps_cap;
            cache_capacity;
            drain_deadline_s;
            max_connections;
            metrics_addr;
            access_log;
            slow_query_log;
            slow_factor;
            optimize = not no_optimize;
          }
        in
        (* serve manages its own telemetry lifecycle instead of [with_obs]:
           there is no root span (requests are the roots), and the flush
           must happen after the drain has joined every thread *)
        let wanted = obs_wanted obs in
        if wanted then Telemetry.enable ();
        let t = Server.start ~env:db_env cfg ~db in
        Server.install_signal_stop t;
        Printf.eprintf "ucqc: serving %s (jobs %d)\n%!"
          (match listen with
          | Server.Unix_socket p -> Printf.sprintf "unix:%s" p
          | Server.Tcp { host; port } -> Printf.sprintf "%s:%d" host port)
          jobs;
        (match (metrics_addr, Server.metrics_port t) with
        | Some (mhost, _), Some mport ->
            (* obs_check and operators parse this line for the actual
               port, so --metrics-addr HOST:0 is usable in scripts *)
            Printf.eprintf "ucqc: metrics on http://%s:%d/metrics\n%!" mhost
              mport
        | _ -> ());
        Server.wait_until_stop_requested t;
        let discarded = Server.stop t in
        if discarded > 0 then
          Printf.eprintf
            "ucqc: drain deadline exceeded; %d queued request%s answered \
             shutting_down\n"
            discarded
            (if discarded = 1 then "" else "s");
        if wanted then begin
          flush_obs obs (Atomic.make false);
          Telemetry.disable ()
        end;
        (* a signal-driven drain is the intended way to stop the server:
           it exits 0, unlike the one-shot commands' 130/143 *)
        ignore (Server.last_signal t);
        0)
  in
  let doc =
    "Serve count/classify/check requests over a Unix or TCP socket \
     (newline-delimited JSON).  The database is loaded once; queries are \
     prepared once and cached; per-request budgets, admission control \
     with load shedding, and a graceful SIGINT/SIGTERM drain keep the \
     process healthy under faults and overload."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ db_arg $ socket_arg $ port_arg $ host_arg $ queue_depth_arg
      $ max_frame_arg $ idle_timeout_arg $ request_timeout_arg
      $ max_steps_cap_arg $ cache_size_arg $ drain_deadline_arg
      $ max_connections_arg $ metrics_addr_arg $ access_log_arg
      $ slow_query_log_arg $ slow_factor_arg $ no_optimize_arg $ jobs_arg
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* top                                                                *)
(* ------------------------------------------------------------------ *)

(* A one-request HTTP client sized for a localhost ops port: connect,
   one GET, read to EOF (the gateway answers with Connection: close). *)
let http_get ~(host : string) ~(port : int) (target : string) :
    (string, string) result =
  let addr =
    try Unix.inet_addr_of_string host
    with _ -> (
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> Unix.inet_addr_loopback
      | exception _ -> Unix.inet_addr_loopback)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
    Unix.connect fd (Unix.ADDR_INET (addr, port))
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))
  | () -> (
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
          target host
      in
      match
        let pos = ref 0 in
        while !pos < String.length req do
          pos :=
            !pos
            + Unix.write_substring fd req !pos (String.length req - !pos)
        done;
        let buf = Bytes.create 8192 in
        let acc = Buffer.create 8192 in
        let rec drain () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes acc buf 0 n;
              drain ()
        in
        drain ();
        Buffer.contents acc
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "read: %s" (Unix.error_message e))
      | raw -> (
          let len = String.length raw in
          let rec head_end i =
            if i + 4 > len then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
            else head_end (i + 1)
          in
          match head_end 0 with
          | None -> Error "malformed HTTP response"
          | Some b ->
              let status_line =
                match String.index_opt raw '\r' with
                | Some i -> String.sub raw 0 i
                | None -> raw
              in
              if
                String.length status_line >= 12
                && String.sub status_line 9 3 = "200"
              then Ok (String.sub raw b (len - b))
              else Error status_line))

let top_cmd =
  let addr_arg =
    let doc = "The server's --metrics-addr (HOST:PORT)." in
    Arg.(
      required
      & pos 0 (some hostport_conv) None
      & info [] ~docv:"HOST:PORT" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2. & info [ "interval"; "n" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc = "Scrape once, print one snapshot, exit." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let ops =
    [ "count"; "classify"; "check"; "insert"; "delete"; "apply"; "ping"; "stats" ]
  in
  let render_top ~(host : string) ~(port : int)
      ~(prev : (float * Prometheus.sample list) option) (now_t : float)
      (samples : Prometheus.sample list) : string =
    let b = Buffer.create 2048 in
    let v ?labels name = Prometheus.find ?labels samples name in
    let gf ?labels name = Option.value (v ?labels name) ~default:0. in
    let build =
      List.find_opt
        (fun s -> s.Prometheus.sname = "ucqc_build_info")
        samples
    in
    let label k =
      match build with
      | Some s ->
          Option.value
            (List.assoc_opt k s.Prometheus.slabels)
            ~default:"unknown"
      | None -> "unknown"
    in
    let uptime = gf "ucqc_uptime_seconds" in
    Buffer.add_string b
      (Printf.sprintf "ucqc top — %s:%d — v%s (%s) — up %dh%02dm%02ds%s\n"
         host port (label "version")
         (let c = label "commit" in
          if String.length c > 12 then String.sub c 0 12 else c)
         (int_of_float uptime / 3600)
         (int_of_float uptime / 60 mod 60)
         (int_of_float uptime mod 60)
         (if gf "ucqc_draining" > 0. then "  [DRAINING]" else ""));
    Buffer.add_string b
      (Printf.sprintf
         "conns %d   queue %d (ewma %.1f ms)   pool %d/%d idle   cache %d   \
          slow %d\n\n"
         (int_of_float (gf "ucqc_connections_active"))
         (int_of_float (gf "ucqc_queue_depth"))
         (gf "ucqc_queue_service_ewma_ms")
         (int_of_float (gf "ucqc_pool_domains_idle"))
         (int_of_float (gf "ucqc_pool_domains_spawned"))
         (int_of_float (gf "ucqc_cache_entries"))
         (int_of_float (gf "ucqc_serve_slow_queries_total")));
    Buffer.add_string b
      (Printf.sprintf "%-10s %10s %8s %9s %9s %9s\n" "op" "total" "req/s"
         "p50(ms)" "p95(ms)" "p99(ms)");
    let quant op q =
      match
        v
          ~labels:[ ("op", op); ("quantile", q); ("window", "60s") ]
          "ucqc_rolling_latency_ms"
      with
      | Some x -> Printf.sprintf "%9.2f" x
      | None -> Printf.sprintf "%9s" "-"
    in
    let counter_of smps op =
      Prometheus.find smps ("ucqc_serve_requests_" ^ op ^ "_total")
    in
    let row op (total : float option) =
      let rate =
        match (prev, total) with
        | Some (pt, psamples), Some now_total -> (
            match counter_of psamples op with
            | Some was when now_t > pt ->
                Printf.sprintf "%8.1f" ((now_total -. was) /. (now_t -. pt))
            | _ -> Printf.sprintf "%8s" "-")
        | _ -> Printf.sprintf "%8s" "-"
      in
      Buffer.add_string b
        (Printf.sprintf "%-10s %10.0f %s %s %s %s\n" op
           (Option.value total ~default:0.)
           rate (quant op "0.5") (quant op "0.95") (quant op "0.99"))
    in
    let totals = List.map (fun op -> counter_of samples op) ops in
    let all_total =
      List.fold_left
        (fun acc t -> acc +. Option.value t ~default:0.)
        0. totals
    in
    (* the "all" rate needs an "all" counter in both scrapes: synthesize
       it from the per-op sums the same way in prev and now *)
    let all_rate =
      match prev with
      | Some (pt, psamples) when now_t > pt ->
          let was =
            List.fold_left
              (fun acc op ->
                acc +. Option.value (counter_of psamples op) ~default:0.)
              0. ops
          in
          Printf.sprintf "%8.1f" ((all_total -. was) /. (now_t -. pt))
      | _ -> Printf.sprintf "%8s" "-"
    in
    Buffer.add_string b
      (Printf.sprintf "%-10s %10.0f %s %s %s %s\n" "all" all_total all_rate
         (quant "all" "0.5") (quant "all" "0.95") (quant "all" "0.99"));
    List.iter2 (fun op total -> row op total) ops totals;
    Buffer.contents b
  in
  let run (host, port) interval once =
    let tty = Unix.isatty Unix.stdout in
    let rec loop (prev : (float * Prometheus.sample list) option) : int =
      let now_t = Unix.gettimeofday () in
      match
        match http_get ~host ~port "/metrics" with
        | Error e -> Error e
        | Ok body -> Prometheus.parse body
      with
      | Error msg ->
          Printf.eprintf "ucqc: top: %s\n%!" msg;
          if once then 74
          else begin
            Thread.delay (Float.max 0.1 interval);
            loop prev
          end
      | Ok samples ->
          if tty && not once then print_string "\027[H\027[2J";
          print_string (render_top ~host ~port ~prev now_t samples);
          flush stdout;
          if once then 0
          else begin
            Thread.delay (Float.max 0.1 interval);
            loop (Some (now_t, samples))
          end
    in
    loop None
  in
  let doc =
    "Live dashboard for a running server: polls the --metrics-addr \
     endpoint and renders request rates, rolling latency quantiles \
     (p50/p95/p99 over the last 60 s), queue and pool state, and the \
     slow-query count.  Ctrl-C exits."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ addr_arg $ interval_arg $ once_arg)

let () =
  let doc = "counting answers to unions of conjunctive queries (PODS 2024)" in
  let info = Cmd.info "ucqc" ~version:Buildid.version ~doc in
  (* join the resident pool's parked worker domains on exit
     (best-effort: the signal paths may fire at any point, and workers
     borrowed by an interrupted run are simply left to the process
     teardown) *)
  at_exit (fun () -> try Pool.shutdown_all () with _ -> ());
  (* cmdliner's default usage-error code is 124, which would collide with
     our budget-exhausted code; report usage errors as sysexits EX_USAGE
     (64) and uncaught exceptions as EX_SOFTWARE (70). *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
          [
            count_cmd;
            approx_cmd;
            check_cmd;
            optimize_cmd;
            meta_cmd;
            classify_cmd;
            wl_dim_cmd;
            euler_cmd;
            pipeline_cmd;
            enumerate_cmd;
            treewidth_cmd;
            watch_cmd;
            serve_cmd;
            top_cmd;
          ])
     with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 64
    | Error `Exn -> 70)
