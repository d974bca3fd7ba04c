(* One workload in one process:
     harness.exe WORKLOAD --seed N --seconds S --trace 0|1 --ucqc PATH --workdir DIR
   prints each metric by name with unit and sample count, then the
   one-line JSON result.  run.py builds this and drives it.
     harness.exe parse-sample --facts FILE
   is one set-up sample of count_skewed_graph, which runs it. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let ucqc = ref "" and workdir = ref "." and facts = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Int (fun t -> trace := t = 1), "0|1 traced run (per-layer metrics)");
      ("--ucqc", Arg.Set_string ucqc, "PATH the ucqc CLI (serve_live_mix)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch files and the server socket");
      ("--facts", Arg.Set_string facts, "FILE the database a parse-sample parses");
    ]
    (fun w -> workload := w)
    "harness.exe WORKLOAD [options]";
  if !workload = "parse-sample" then begin
    W_count.print_parse_time !facts;
    exit 0
  end;
  let seed = !seed and seconds = !seconds and trace = !trace in
  let outcome =
    match !workload with
    | "count_skewed_graph" -> W_count.run ~seed ~seconds ~trace ~workdir:!workdir
    | "check_wide_unions" -> W_check.run ~seed ~seconds ~trace
    | "serve_live_mix" -> W_serve.run ~seed ~seconds ~trace ~ucqc:!ucqc ~workdir:!workdir
    | w ->
        prerr_endline ("harness: unknown workload " ^ w);
        exit 64
  in
  if trace then
    Brt.write_spans (Filename.concat !workdir (Printf.sprintf "spans-%s-%d.jsonl" !workload seed));
  Brt.print_result outcome
