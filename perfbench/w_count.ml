(* count_skewed_graph: one-shot exact counts against a loaded skewed
   database.  Chosen because almost all of each count is per-term
   evaluation in the db engines (Yannakakis, weighted and projecting
   variable elimination), while expansion, optimization and planning
   are trivial at two disjuncts or fewer; the power-law skew exposes
   the join blow-up that uniform data hides.  Writes go to the unary R,
   which only the star reads, in a cycle of inserts, deletes and moves
   that holds R's size, and every write is followed by a one-shot
   recount of the one query it changes. *)

open Brt

let nodes = 5000
let edges = 17000

let star = "(x, y, z) :- R(x), E(x, y), E(x, z)"

(* Round-robin order; the class mix of every population is fixed. *)
let shapes =
  [
    "(x, y, z) :- E(x, y), E(y, z)" (* acyclic, quantifier-free: Yannakakis *);
    "(x, y, z) :- E(x, y), E(y, z), E(z, x)" (* cyclic, quantifier-free: weighted *);
    "(x, z) :- E(x, y), E(y, z)" (* quantified: variable elimination *);
    star (* q-hierarchical R-E star *);
    "(x, y) :- E(x, y) ; E(x, z), E(z, y)" (* union with a cyclic combined query *);
  ]

type state = {
  mutable db : Structure.t;
  in_r : bool array;
  mutable r_size : int;
  out_deg : int array;
  mutable star_count : int;  (** closed form: sum over R of out-degree squared *)
  mutable writes : int;
  pick : Random.State.t;
}

(* One effective write to R in the insert/delete/move cycle: absent
   nodes are added, present ones removed, and the mirror keeps the
   star's closed form.  Returns the nodes added and removed. *)
let write (st : state) : int list * int list =
  let rec node present =
    let v = Random.State.int st.pick nodes in
    if st.in_r.(v) = present then v else node present
  in
  let added, removed =
    match Gen.write_kind st.writes with
    | Gen.Insert -> ([ node false ], [])
    | Gen.Delete -> ([], [ node true ])
    | Gen.Move -> ([ node false ], [ node true ])
  in
  let tuples = List.map (fun v -> [ v ]) in
  with_span "relational.mutate" (fun () ->
      let db = if removed = [] then st.db else Structure.remove_tuples st.db "R" (tuples removed) in
      st.db <- (if added = [] then db else Structure.add_tuples db "R" (tuples added)));
  let flip present v =
    let d = st.out_deg.(v) * st.out_deg.(v) in
    st.in_r.(v) <- present;
    st.r_size <- (if present then st.r_size + 1 else st.r_size - 1);
    st.star_count <- (if present then st.star_count + d else st.star_count - d)
  in
  List.iter (flip true) added;
  List.iter (flip false) removed;
  st.writes <- st.writes + 1;
  (added, removed)

(* A write is correct when R holds as many tuples as the mirror, the
   added nodes among them and the removed ones not. *)
let written (st : state) ((added, removed) : int list * int list) : bool =
  let r = Structure.relation st.db "R" in
  List.length r = st.r_size
  && List.for_all (fun v -> List.mem [ v ] r) added
  && not (List.exists (fun v -> List.mem [ v ] r) removed)

(* One set-up sample, run as [harness.exe parse-sample --facts FILE]:
   read the facts file, then print the time of parsing it into a
   [Structure], in nanoseconds. *)
let print_parse_time (path : string) : unit =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let t0 = now_ns () in
  (match Parse.database_result text with Ok _ -> () | Error e -> failwith (Ucqc_error.to_string e));
  print_endline (Int64.to_string (Int64.sub (now_ns ()) t0))

(* A set-up sample in a fresh harness process, in milliseconds.  It
   parses as a fresh [ucqc count] process does: into a heap that holds
   nothing else and no memory an earlier parse freed.  Repeated in one
   process, a parse that reused freed memory ran about a third faster
   than one that did not, and the mix of the two changed from run to
   run. *)
let parse_sample (facts : string) : float =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "parse-sample"; "--facts"; facts |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Int64.to_float (Int64.of_string (String.trim out)) /. 1e6
  | _ -> failwith "parse sample: the child process failed"

let run ~(seed : int) ~(seconds : float) ~(trace : bool) ~(workdir : string) : outcome =
  let g = Gen.digraph ~seed ~n:nodes ~m:edges in
  let text = Gen.facts_text g in
  (* set-up: parsing the whole database, timed fifteen times in fresh
     processes spread over the run (see [parse_sample]); the structure
     the workload uses is parsed here, untimed *)
  let facts = Filename.concat workdir (Printf.sprintf "count-%d.facts" (Unix.getpid ())) in
  Out_channel.with_open_bin facts (fun oc -> output_string oc text);
  let setups = setup_samples ~n:15 ~seconds in
  let parse () =
    match Parse.database_result text with
    | Ok (db, _) -> db
    | Error e -> failwith (Ucqc_error.to_string e)
  in
  let db = parse () in
  let out_deg = Array.make nodes 0 and in_r = Array.make nodes false in
  List.iter (fun (u, _) -> out_deg.(u) <- out_deg.(u) + 1) g.Gen.edges;
  List.iter (fun v -> in_r.(v) <- true) g.Gen.r;
  let star_count = List.fold_left (fun acc v -> acc + (out_deg.(v) * out_deg.(v))) 0 g.Gen.r in
  let st = { db; in_r; r_size = List.length g.Gen.r; out_deg; star_count; writes = 0; pick = Gen.rng seed 4 } in
  (* oracle, outside the timed phase and in a child process, so its
     joins never enter the peak resident set: inclusion-exclusion with
     every term forced through projecting variable elimination; the
     star's oracle is its closed form, kept current by the mirror *)
  let others = List.filter (fun q -> q != star) shapes in
  let ie =
    in_child (fun () ->
        List.map (fun q -> Ucq.count_inclusion_exclusion ~strategy:Counting.Varelim (fst (Parse.ucq q)) db) others)
  in
  let oracle = List.map (fun q -> if q == star then None else Some (List.assoc q (List.combine others ie))) shapes in
  let expected o = match o with Some n -> n | None -> st.star_count in
  let reports = List.map (fun q -> fst (Common.check_pipeline q)) shapes in
  let attempted = ref 0 and failed = ref 0 in
  let judge ok = incr attempted; if not ok then incr failed in
  let counts = samples () and checks = samples () and updates = samples () and refreshes = samples () in
  let count_op q o = Common.count_op ~trace ~judge q st.db (expected o) in
  let round ~timed_phase =
    List.iter2
      (fun q (o, report) ->
        (* write, then the one-shot recount of the query it changes *)
        let w, tu = Common.write_op ~trace (fun () -> write st) in
        judge (written st w);
        let tr = count_op star None in
        let tc = Common.check_op ~trace ~judge q report in
        let tq = count_op q o in
        if timed_phase then begin
          add updates tu;
          add refreshes (tu +. tr);
          add checks tc;
          add counts tq
        end)
      shapes (List.combine oracle reports)
  in
  (* untimed warm-up round, then a compacted heap.  The peak resident
     set is read here: set-up plus one pass over every op, the same work
     however many rounds the timed phase completes (the allocator's
     resident set creeps up slowly with every further one) *)
  round ~timed_phase:false;
  let rss_mb = vm_hwm_mb "self" in
  attempted := 0;
  failed := 0;
  Common.reset_trace ();
  settle ();
  let t0 = now_ns () in
  while phase_ms t0 < seconds *. 1000. do
    round ~timed_phase:true;
    reference_tick ();
    setup_tick setups t0 (fun () -> parse_sample facts)
  done;
  let wall_s = phase_s t0 in
  let setup_s = setup_finish setups (fun () -> parse_sample facts) in
  Sys.remove facts;
  if trace then begin
    enabled := true;
    Common.record "relational.tuples" (float_of_int (Structure.num_tuples st.db));
    List.iter (fun s -> Common.record "frontend.parse_db_ms" (s *. 1000.)) setup_s;
    { attempted = !attempted; failed = !failed; metrics = Common.per_layer_metrics () }
  end
  else
    Common.end_to_end
      ~setup_s ~rss_mb ~attempted:!attempted ~failed:!failed ~wall_s ~counts ~checks
      ~updates ~refreshes
