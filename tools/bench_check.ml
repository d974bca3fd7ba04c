(** CI gate over the bench harness's JSON artefacts.  Reads each file
    named on the command line (default [BENCH_parallel.json]) and
    dispatches on its shape: a file with a [workloads] array gets the
    parallel bars, a file with [kind = "optimize"] gets the optimizer
    bars, a file with [kind = "expansion"] the expansion bars, a file
    with [kind = "engine"] the engine bars, a file with
    [kind = "delta"] the tier-B fold bars.

    Parallel bars (BENCH_parallel.json — the parallel hot path must pay
    for itself):

    - every run of every workload is [reproducible] and [consistent]
      (these hold on any machine — they are determinism bars, not
      speedup bars);
    - when the file says [parallel_comparison_valid] (produced on ≥ 2
      hardware threads): on the E3 inclusion–exclusion workload, jobs=2
      must beat jobs=1 wall-clock (speedup > 1.0) and the aggregate
      [pool.worker] span time of the jobs=2 run must stay within 1.5×
      its wall time (workers busy on work, not on spawn/join overhead).

    On a single-core producer the speedup section prints a NOTICE and is
    skipped — a 1-core "comparison" measures contention and failing on
    it would be noise, which is exactly the misleading-output bug this
    gate exists to prevent.

    Optimizer bars (BENCH_optimize.json — the count-preserving rewrite
    must pay for itself on the redundant-union workload): the optimized
    and unoptimized counts must be equal bit-for-bit, the rewrite must
    strictly shrink the disjunct and IE-subset counts without growing
    the Lemma 26 expansion support,
    and end-to-end optimize+count wall time must not lose to the
    unoptimized count (10% tolerance; skipped with a NOTICE when the
    unoptimized run is under 1 ms — below the wall-clock noise floor).

    Expansion bars (BENCH_expansion.json — the Lemma 26 walk by class
    transitions against the subset-by-subset reference, all counts
    deterministic): for every union the two term lists are equal, the
    budget steps of both equal the subset count [2^ℓ − 1], classes and
    support size equal the reference's, and from ℓ = 8 on the walk
    computes fewer #cores than there are subsets.

    Engine bars (BENCH_engine.json — the per-term elimination engine on
    the count_skewed_graph database, against [bench/engine_baseline.json],
    recorded with the engines it replaced): the same terms in the same
    order, each with the baseline's count and budget steps, and at most
    a quarter of the baseline's allocated words.

    Tier-B fold bars (BENCH_delta.json — the terms of serve_live_mix's
    maintained queries folded through hub and low-degree writes, all
    counts deterministic): every maintained count equals the recount
    over the database after the write, no fold is stopped by its term's
    allowance (the guard recount), and every fold meters fewer steps
    than its term's full count.

    Exits 1 on any violation, 0 otherwise. *)

let fail_count = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr fail_count;
      Printf.eprintf "bench_check: FAIL %s\n" s)
    fmt

let mem_exn (k : string) (v : Trace_json.t) : Trace_json.t =
  match Trace_json.member k v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing key %S" k)

let num_exn (k : string) (v : Trace_json.t) : float =
  match mem_exn k v with
  | Trace_json.Num f -> f
  | _ -> failwith (Printf.sprintf "key %S is not a number" k)

let bool_exn (k : string) (v : Trace_json.t) : bool =
  match mem_exn k v with
  | Trace_json.Bool b -> b
  | _ -> failwith (Printf.sprintf "key %S is not a bool" k)

let str_exn (k : string) (v : Trace_json.t) : string =
  match mem_exn k v with
  | Trace_json.Str s -> s
  | _ -> failwith (Printf.sprintf "key %S is not a string" k)

let arr_exn (k : string) (v : Trace_json.t) : Trace_json.t list =
  match mem_exn k v with
  | Trace_json.Arr l -> l
  | _ -> failwith (Printf.sprintf "key %S is not an array" k)

(* aggregate [pool.worker] total_ms out of a run's phase breakdown *)
let worker_total_ms (run : Trace_json.t) : float option =
  match Trace_json.member "phases" run with
  | Some (Trace_json.Arr phases) ->
      List.fold_left
        (fun acc p ->
          match Trace_json.member "span" p with
          | Some (Trace_json.Str "pool.worker") -> (
              match Trace_json.member "total_ms" p with
              | Some (Trace_json.Num ms) ->
                  Some (Option.value acc ~default:0. +. ms)
              | _ -> acc)
          | _ -> acc)
        None phases
  | _ -> None

let check_optimize (path : string) (j : Trace_json.t) : unit =
  let int k = int_of_float (num_exn k j) in
  if not (bool_exn "counts_equal" j) then
    fail "%s: optimized count %d differs from unoptimized %d" path
      (int "count_optimized") (int "count_unoptimized")
  else
    Printf.printf "bench_check: %s counts agree (%d)\n" path
      (int "count_optimized");
  if not (bool_exn "changed" j) then
    fail "%s: the optimizer did not rewrite the redundant union" path;
  let shrink what before after =
    if after >= before then
      fail "%s: %s did not shrink (%d -> %d)" path what before after
    else
      Printf.printf "bench_check: %s %s shrank %d -> %d\n" path what before
        after
  in
  shrink "disjuncts" (int "disjuncts_before") (int "disjuncts_after");
  shrink "IE subsets" (int "subsets_before") (int "subsets_after");
  (* the Lemma 26 support of equivalent queries is the same set of
     classes — the optimizer's win is reaching it without enumerating
     2^l subsets — so the bar here is non-increase, not strict shrink *)
  let sb = int "support_before" and sa = int "support_after" in
  if sa > sb then
    fail "%s: expansion support grew (%d -> %d)" path sb sa
  else
    Printf.printf "bench_check: %s expansion support %d -> %d\n" path sb sa;
  let wall_un = num_exn "wall_unoptimized_s" j in
  let wall_opt = num_exn "wall_optimized_s" j in
  if wall_un < 0.001 then
    Printf.printf
      "bench_check: NOTICE %s unoptimized run is %.6f s — below the 1 ms \
       wall-clock noise floor; the not-slower bar is skipped, the count \
       and shrink bars still hold.\n"
      path wall_un
  else if wall_opt > 1.1 *. wall_un then
    fail
      "%s: optimize+count %.6f s is slower than the unoptimized count \
       %.6f s (beyond 10%% tolerance)"
      path wall_opt wall_un
  else
    Printf.printf
      "bench_check: %s optimize+count %.6f s vs unoptimized %.6f s \
       (speedup %.2fx)\n"
      path wall_opt wall_un
      (wall_un /. wall_opt)

let check_expansion (path : string) (j : Trace_json.t) : unit =
  List.iter
    (fun u ->
      let name = str_exn "name" u in
      let int k v = int_of_float (num_exn k v) in
      let l = int "l" u and subsets = int "subsets" u in
      let walk = mem_exn "walk" u and reference = mem_exn "reference" u in
      if not (bool_exn "equal" u) then
        fail "%s: %s: the walk's terms differ from the reference's" path name;
      List.iter
        (fun (side, v) ->
          if int "steps" v <> subsets then
            fail "%s: %s: %s ticked %d steps for %d subsets" path name side
              (int "steps" v) subsets)
        [ ("walk", walk); ("reference", reference) ];
      List.iter
        (fun k ->
          if int k walk <> int k reference then
            fail "%s: %s: %s %d differs from the reference's %d" path name k
              (int k walk) (int k reference))
        [ "classes"; "support" ];
      if l >= 8 && int "cores" walk >= subsets then
        fail "%s: %s: the walk computed %d #cores for %d subsets" path name
          (int "cores" walk) subsets;
      Printf.printf
        "bench_check: %s %s l=%d: %d #cores for %d subsets, %d classes, \
         support %d\n"
        path name l (int "cores" walk) subsets (int "classes" walk)
        (int "support" walk))
    (arr_exn "unions" j)

let engine_baseline = "bench/engine_baseline.json"

let check_engine (path : string) (j : Trace_json.t) : unit =
  let base = arr_exn "terms" (Trace_json.parse_file engine_baseline) in
  let terms = arr_exn "terms" j in
  if List.length terms <> List.length base then
    fail "%s: %d terms, the baseline has %d" path (List.length terms) (List.length base)
  else
    List.iter2
      (fun t b ->
        let name = str_exn "shape" t ^ " / " ^ str_exn "term" t in
        if str_exn "term" t <> str_exn "term" b then
          fail "%s: term %s is %s in the baseline" path name (str_exn "term" b);
        List.iter
          (fun k ->
            if num_exn k t <> num_exn k b then
              fail "%s: %s: %s %.0f differs from the baseline's %.0f" path name k (num_exn k t)
                (num_exn k b))
          [ "count"; "steps" ];
        let words = num_exn "words" t and bound = num_exn "words" b /. 4. in
        if words > bound then
          fail "%s: %s: %.0f words allocated, above a quarter of the baseline's (%.0f)" path name
            words bound
        else
          Printf.printf "bench_check: %s %s: %.0f words (baseline %.0f, %.1fx fewer)\n" path name
            words (num_exn "words" b) (num_exn "words" b /. words))
      terms base

let check_delta (path : string) (j : Trace_json.t) : unit =
  List.iter
    (fun t ->
      let int k v = int_of_float (num_exn k v) in
      let term = str_exn "term" t and full = int "full_steps" t in
      List.iter
        (fun w ->
          let name = Printf.sprintf "%s / %s" term (str_exn "write" w) in
          if int "count" w <> int "recount" w then
            fail "%s: %s: maintained count %d, recount %d" path name (int "count" w) (int "recount" w);
          if bool_exn "guard" w then fail "%s: %s: the fold passed its allowance and was recounted" path name;
          if int "fold_steps" w >= full then
            fail "%s: %s: the fold metered %d steps, the full count %d" path name (int "fold_steps" w) full
          else
            Printf.printf "bench_check: %s %s: fold %d steps, full count %d\n" path name (int "fold_steps" w)
              full)
        (arr_exn "writes" t))
    (arr_exn "terms" j)

let check_parallel (path : string) (j : Trace_json.t) : unit =
  let workloads = arr_exn "workloads" j in
  (* determinism bars: hold regardless of core count *)
  List.iter
    (fun w ->
      let name = str_exn "name" w in
      List.iter
        (fun run ->
          let jobs = int_of_float (num_exn "jobs" run) in
          if not (bool_exn "reproducible" run) then
            fail "%s jobs=%d is not reproducible" name jobs;
          if not (bool_exn "consistent" run) then
            fail "%s jobs=%d is not consistent with jobs=1" name jobs)
        (arr_exn "runs" w))
    workloads;
  (* speedup bar: only meaningful when the producer had ≥ 2 cores *)
  if not (bool_exn "parallel_comparison_valid" j) then
    Printf.printf
      "bench_check: NOTICE %s was produced on a single-core machine \
       (cores_available=%d); the jobs=2 > jobs=1 speedup bar is skipped — \
       the determinism bars still hold.\n"
      path
      (int_of_float (num_exn "cores_available" j))
  else begin
    match
      List.find_opt
        (fun w -> str_exn "name" w = "E3_psi1_inclusion_exclusion")
        workloads
    with
    | None -> fail "E3_psi1_inclusion_exclusion workload missing"
    | Some w -> (
        let runs = arr_exn "runs" w in
        let find_jobs n =
          List.find_opt
            (fun r -> int_of_float (num_exn "jobs" r) = n)
            runs
        in
        match (find_jobs 1, find_jobs 2) with
        | Some _, Some r2 ->
            let speedup = num_exn "speedup_vs_1" r2 in
            let wall_ms = 1000. *. num_exn "wall_s" r2 in
            if speedup <= 1.0 then
              fail "E3 jobs=2 speedup %.3f <= 1.0 — parallelism is a net loss"
                speedup
            else
              Printf.printf "bench_check: E3 jobs=2 speedup %.3f > 1.0\n"
                speedup;
            (match worker_total_ms r2 with
            | Some total ->
                if total > 1.5 *. wall_ms then
                  fail
                    "E3 jobs=2 pool.worker total %.1f ms exceeds 1.5x wall \
                     (%.1f ms) — workers burn time off the critical path"
                    total wall_ms
                else
                  Printf.printf
                    "bench_check: E3 jobs=2 pool.worker total %.1f ms within \
                     1.5x wall (%.1f ms)\n"
                    total wall_ms
            | None -> fail "E3 jobs=2 run has no pool.worker phase")
        | _ -> fail "E3 runs for jobs=1 and jobs=2 missing")
  end

let () =
  let paths =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "BENCH_parallel.json" ]
    | l -> l
  in
  List.iter
    (fun path ->
      let j =
        try Trace_json.parse_file path
        with e ->
          Printf.eprintf "bench_check: cannot read %s: %s\n" path
            (Printexc.to_string e);
          exit 1
      in
      match Trace_json.member "kind" j with
      | Some (Trace_json.Str "optimize") -> check_optimize path j
      | Some (Trace_json.Str "expansion") -> check_expansion path j
      | Some (Trace_json.Str "engine") -> check_engine path j
      | Some (Trace_json.Str "delta") -> check_delta path j
      | _ -> check_parallel path j)
    paths;
  if !fail_count > 0 then begin
    Printf.eprintf "bench_check: %d violation(s)\n" !fail_count;
    exit 1
  end;
  print_endline "bench_check: all bars hold"
