(* check_wide_unions: the static pipeline over a fixed corpus of wide
   unions.  Chosen as the mirror image of count_skewed_graph: the 2^l
   layers (analysis rules, the expansion inside Plan.predict, Tier.select,
   the optimizer, #cores through cq and hom, treewidth) do all the work
   and the database engines none.  This is the paper's meta-complexity
   side, and every new served query pays for it.  The same unions are
   also counted over a tiny database after a write to it, so counts
   here are the query-bound extreme: the expansion, not the data,
   sets their cost. *)

open Brt

let tiny_nodes = 16
let tiny_edges = 40
let widths = [ 8; 9; 10; 11; 12 ]

type item = {
  text : string;
  atoms : (string * string) list list option;
      (** the first spelling of each synthetic width from 9 on: counted
          as well *)
}

(* Fifteen queries in a fixed order: two spellings of each synthetic
   width, three Lemma 51 unions and the paper's Psi_1 and Psi_2; four
   of them are also counted.  The spellings are the same for every
   seed, which only relabels variables.  Populations of 15 equally
   weighted classes keep the 50th and 90th percentiles of checks inside
   a class, never on the boundary between two.  The counted unions of
   l = 9 to 12 cost about the same on the small database, so the
   percentiles of counts lie in their merged times, and the 50th at its
   middle.  Counting the l = 8 union too, at about a third of their
   cost, would put it at the 38th percentile of their merged times,
   where it follows the share of the machine's fast moments (the same
   count on the same database takes 15 to 23 ms within a run). *)
let corpus (seed : int) : item list =
  List.concat_map
    (fun l ->
      List.init 2 (fun i ->
          let text, atoms = Gen.wide_union ~seed l i in
          { text; atoms = (if i = 0 && l > 8 then Some atoms else None) }))
    widths
  @ List.map (fun text -> { text; atoms = None }) (Gen.lemma51_unions ~seed @ Gen.paper_unions ~seed)

(* The answer oracle for a synthetic union: backtracking search for
   the homomorphisms of each disjunct into the mirrored edge set, the
   (x, y) projections collected in a set. *)
let union_count (adj : bool array array) (ds : (string * string) list list) : int =
  let n = Array.length adj in
  let ans = Array.make_matrix n n false in
  let all = List.init n Fun.id in
  let rec go env = function
    | [] -> ans.(List.assoc "x" env).(List.assoc "y" env) <- true
    | (s, t) :: rest ->
        let cands v = match List.assoc_opt v env with Some a -> [ a ] | None -> all in
        List.iter
          (fun a ->
            let env = if List.mem_assoc s env then env else (s, a) :: env in
            List.iter
              (fun b -> if adj.(a).(b) then go (if List.mem_assoc t env then env else (t, b) :: env) rest)
              (cands t))
          (cands s)
  in
  List.iter (go []) ds;
  Array.fold_left (fun acc row -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row) 0 ans

let run ~(seed : int) ~(seconds : float) ~(trace : bool) : outcome =
  let g = Gen.digraph ~seed ~n:tiny_nodes ~m:tiny_edges in
  let g = { g with Gen.r = [] } in
  let facts = Gen.facts_text g in
  (* set-up: build the corpus (including the Lemma 51 reductions), load
     the small database and take the first report of every query, which
     becomes its expected answer; from a collected heap.  This set-up is
     the first sample; two more are taken during the timed phase (see
     [setup_samples]) *)
  let setup () =
    let items = corpus seed in
    match Parse.database_result facts with
    | Ok (db, _) -> (items, db, List.map (fun it -> fst (Common.check_pipeline it.text)) items)
    | Error e -> failwith (Ucqc_error.to_string e)
  in
  let setup_sample () =
    fresh_heap ();
    snd (timed setup)
  in
  fresh_heap ();
  let (items, db0, reports), setup0 = timed setup in
  let db = ref db0 in
  let mirror = Gen.mirror_of g.Gen.edges in
  let adj = Array.make_matrix tiny_nodes tiny_nodes false in
  List.iter (fun (u, v) -> adj.(u).(v) <- true) g.Gen.edges;
  let pick = Gen.rng seed 5 in
  (* one write moves an edge: delete a present one, insert an absent
     one, a single class of writes.  Every second write moves the last
     one back, so the database is always the generated one or one edge
     off it, and its shape cannot drift however many writes a run makes *)
  let undo = ref None in
  let write () =
    let ((u, v) as gone), ((u', v') as added) =
      match !undo with
      | Some (gone, added) ->
          undo := None;
          (added, gone)
      | None ->
          let gone = Gen.present mirror pick in
          let rec absent () =
            let e = (Random.State.int pick tiny_nodes, Random.State.int pick tiny_nodes) in
            if fst e = snd e || Gen.mem mirror e then absent () else e
          in
          let added = absent () in
          undo := Some (gone, added);
          (gone, added)
    in
    with_span "relational.mutate" (fun () ->
        db := Structure.add_tuples (Structure.remove_tuples !db "E" [ [ u; v ] ]) "E" [ [ u'; v' ] ]);
    Gen.delete mirror gone;
    Gen.insert mirror added;
    adj.(u).(v) <- false;
    adj.(u').(v') <- true;
    (gone, added)
  in
  (* a move is correct when E holds as many tuples as the mirror, the
     added edge among them and the removed one not *)
  let written ((u, v), (u', v')) =
    let e = Structure.relation !db "E" in
    List.length e = mirror.Gen.len && List.mem [ u'; v' ] e && not (List.mem [ u; v ] e)
  in
  let attempted = ref 0 and failed = ref 0 in
  let judge ok = incr attempted; if not ok then incr failed in
  let counts = samples () and checks = samples () and updates = samples () and refreshes = samples () in
  let check_op text report =
    let t = Common.check_op ~trace ~judge text report in
    (* in a traced run, probes outside the op split the analyzer's time
       between the 2^l expansion and its other rules *)
    (if trace then
       match Parse.ucq_result text with
       | Ok (psi, _) ->
           Common.record "analysis.plan_predict_ms" (snd (timed (fun () -> ignore (Plan.predict psi : Plan.t))));
           Common.record "ucq.expansion_ms"
             (snd (timed (fun () -> ignore (Ucq.expansion psi : Ucq.expansion_term list))))
       | Error _ -> ());
    t
  in
  let pass ~timed_phase =
    List.iter2
      (fun it report ->
        let tc = check_op it.text report in
        if timed_phase then add checks tc;
        match it.atoms with
        | None -> ()
        | Some ds ->
            (* four times per pass, so a run holds several hundred
               counts *)
            for _ = 1 to 4 do
              let w, tu = Common.write_op ~trace write in
              judge (written w);
              let tq = Common.count_op ~trace ~judge it.text !db (union_count adj ds) in
              if timed_phase then begin
                add updates tu;
                add counts tq;
                add refreshes (tu +. tq)
              end
            done)
      items reports
  in
  (* untimed warm-up pass, then a compacted heap.  The peak resident
     set is read here: set-up plus one pass over every op, the same work
     however many passes the timed phase completes (the allocator's
     resident set creeps up slowly with every further one) *)
  pass ~timed_phase:false;
  let rss_mb = vm_hwm_mb "self" in
  attempted := 0;
  failed := 0;
  Common.reset_trace ();
  settle ();
  let t0 = now_ns () in
  let setups = setup_samples ~n:2 ~seconds in
  while phase_ms t0 < seconds *. 1000. do
    pass ~timed_phase:true;
    reference_tick ();
    setup_tick setups t0 setup_sample
  done;
  let wall_s = phase_s t0 in
  let setup_s = (setup0 /. 1000.) :: setup_finish setups setup_sample in
  if trace then begin
    enabled := true;
    Common.record "relational.tuples" (float_of_int (Structure.num_tuples !db));
    Common.record "frontend.parse_db_ms" (snd (timed (fun () -> Parse.database_result facts)));
    { attempted = !attempted; failed = !failed; metrics = Common.per_layer_metrics () }
  end
  else
    Common.end_to_end
      ~setup_s
      ~rss_mb ~attempted:!attempted ~failed:!failed ~wall_s ~counts ~checks
      ~updates ~refreshes
