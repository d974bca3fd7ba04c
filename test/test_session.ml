(** Tests for the live-update session behind [ucqc watch] and [ucqc
    serve]: the one-budget-per-change fold policy, one entry and one
    state for two spellings of a query, the plan costs a rewrite
    records, and a qcheck oracle that drives
    an eagerly registering (watch-style) and a lazily registering
    (serve-style) session through random batches, valid and invalid,
    against from-scratch recounts. *)

let unlimited () = Budget.unlimited ()
let pool = Pool.create ~jobs:1 ()

let open_session ?(optimize = false) (db : Structure.t) : Session.t =
  Session.create ~optimize ~capacity:16 ~pool db

let entry (s : Session.t) (text : string) : Cache.entry =
  match Session.prepare s text with
  | Cache.Hit e | Cache.Interned e | Cache.Miss e -> e
  | Cache.Invalid e -> Alcotest.fail (Ucqc_error.to_string e)

let register s e = Session.register s ~budget:unlimited e
let delta text = Delta_parse.delta_string text

let golden_db () =
  match
    Parse.database_result
      "universe { 0, 1, 2, 3, 4, 5 }\n\
       E(0, 1). E(1, 2). E(2, 0). E(2, 3). E(3, 4). E(4, 2).\n"
  with
  | Ok (db, _) -> db
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)

let walk2 = "(x, y) :- E(x, z), E(z, y)"
let walk3 = "(x, y) :- E(x, z), E(z, w), E(w, y)"

(* ------------------------------------------------------------------ *)
(* Fold budgets                                                       *)
(* ------------------------------------------------------------------ *)

(* Apply [+E(1, 4)] to a session holding [queries] (tier B), each fold
   under [budget]; the states afterwards. *)
let fold_once ~(budget : unit -> Budget.t) (queries : string list) =
  let s = open_session (golden_db ()) in
  let states = List.map (fun q -> register s (entry s q)) queries in
  (match Session.apply s ~budget [ delta "+E(1, 4)" ] with
  | Ok b -> Alcotest.(check int) "one change" 1 b.Session.applied
  | Error e -> Alcotest.fail (Ucqc_error.to_string e));
  states

(* the steps one change costs to fold into [q]'s state *)
let fold_cost (q : string) : int =
  let b = Budget.unlimited () in
  ignore (fold_once ~budget:(fun () -> b) [ q ] : Delta.state list);
  Budget.steps_done b

let test_fold_budget_per_change () =
  let c2 = fold_cost walk2 and c3 = fold_cost walk3 in
  (* at least the costlier fold, less than both together *)
  let limit = max c2 c3 + 1 in
  Alcotest.(check bool) "below both folds together" true (limit < c2 + c3);
  let budget () = Budget.of_steps limit in
  List.iter
    (fun q ->
      match fold_once ~budget [ q ] with
      | [ st ] ->
          Alcotest.(check (option string)) "alone, the fold fits" None
            (Delta.degraded st)
      | _ -> Alcotest.fail "one state")
    [ walk2; walk3 ];
  (* one budget for the change, shared by both folds: whichever state
     the cache visits second runs out and degrades *)
  let degraded =
    List.filter
      (fun st -> Delta.degraded st <> None)
      (fold_once ~budget [ walk2; walk3 ])
  in
  Alcotest.(check int) "exactly one state degrades" 1 (List.length degraded);
  List.iter
    (fun st ->
      Alcotest.(check bool) "to tier C" true (Delta.effective_tier st = Tier.C))
    degraded

(* ------------------------------------------------------------------ *)
(* Spellings share one entry                                          *)
(* ------------------------------------------------------------------ *)

let test_spellings_share_state () =
  (* as in [ucqc watch] with two files holding one triangle *)
  let s = open_session (golden_db ()) in
  let e1 = entry s "(x, y, z) :- E(x, y), E(y, z), E(z, x)" in
  let e2 = entry s "(a, b, c) :- E(a, b), E(b, c), E(c, a)  # the same" in
  Alcotest.(check bool) "one entry" true (e1 == e2);
  Alcotest.(check bool) "one state" true (register s e1 == register s e2);
  let source e =
    (Session.count s ~fallback:false ~budget:unlimited e).Session.source
  in
  Alcotest.(check bool) "the first copy recounts" true
    (source e1 = Session.Computed);
  Alcotest.(check bool) "the second copy reads the memo" true
    (source e2 = Session.Memoized)

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)
(* ------------------------------------------------------------------ *)

let random_db rng (sg : Signature.t) (n : int) : Structure.t =
  Structure.make sg
    (List.init n Fun.id)
    (List.map
       (fun (sym : Signature.symbol) ->
         ( sym.Signature.name,
           List.sort_uniq compare
             (List.init (Random.State.int rng 6) (fun _ ->
                  List.init sym.Signature.arity (fun _ ->
                      Random.State.int rng n))) ))
       sg)

(* a valid delta over [sg], as watch and serve read it *)
let random_delta rng (sg : Signature.t) (n : int) : string =
  let sym = List.nth sg (Random.State.int rng (List.length sg)) in
  Printf.sprintf "%c%s(%s)"
    (if Random.State.bool rng then '+' else '-')
    sym.Signature.name
    (String.concat ", "
       (List.init sym.Signature.arity (fun _ ->
            string_of_int (Random.State.int rng n))))

(* unknown relation, arity clash, element outside the universe, unknown
   constant, unparsable *)
let invalid_deltas = [ "+Zz(1)"; "+E(1)"; "-E(9, 1)"; "+E(nope, 1)"; "+E(1," ]

let random_batch rng sg n : string list =
  let valid =
    List.init (1 + Random.State.int rng 3) (fun _ -> random_delta rng sg n)
  in
  if Random.State.int rng 3 > 0 then valid
  else
    let bad = List.nth invalid_deltas (Random.State.int rng 5) in
    let k = Random.State.int rng (List.length valid + 1) in
    List.filteri (fun i _ -> i < k) valid
    @ (bad :: List.filteri (fun i _ -> i >= k) valid)

let exact (o : Session.outcome) : int =
  match o.Session.result with
  | Ok (Runner.Exact n) -> n
  | _ -> Alcotest.fail "an unlimited count must be exact"

let oracle_run (seed : int) : bool =
  let rng = Random.State.make [| seed |] in
  let sg, fixed =
    if Random.State.bool rng then
      (Test_delta.sg_e, [ Test_delta.tier_b_q; Test_delta.tier_c_q ])
    else (Test_delta.sg_rs, [ Test_delta.tier_a_q ])
  in
  let texts =
    List.map (fun q -> Pretty.ucq (Ucq.make [ q ])) fixed
    @ List.init 2 (fun i ->
          Pretty.ucq
            (Qgen.random_ucq ~seed:((seed * 3) + i) ~max_disjuncts:3
               ~max_vars:4 ~max_atoms:3 sg))
  in
  let n = 4 in
  let db = random_db rng sg n in
  (* watch-style: registered up front, as written; serve-style: states
     built by the first count, of the rewritten query *)
  let eager = open_session db and lazy_ = open_session ~optimize:true db in
  let eager_entries = List.map (entry eager) texts in
  let states = List.map (register eager) eager_entries in
  let lazy_entries = List.map (entry lazy_) texts in
  let counted = ref [] in
  let check_counts () : int list =
    List.mapi
      (fun i (e, (st, le)) ->
        let truth =
          match
            Runner.count ~budget:(Budget.unlimited ()) e.Cache.ucq
              (Delta.structure (Session.db eager))
          with
          | Ok (Runner.Exact n) -> n
          | _ -> Alcotest.fail "oracle count must be exact"
        in
        let oe = Session.count eager ~budget:unlimited e in
        let ol = Session.count lazy_ ~budget:unlimited le in
        let q = List.nth texts i in
        Alcotest.(check int) (q ^ ", eager") truth (exact oe);
        Alcotest.(check int) (q ^ ", lazy") truth (exact ol);
        let live =
          Delta.degraded st = None
          && (Delta.selection st).Tier.tier <> Tier.C
        in
        if live then
          Alcotest.(check bool) "a live eager A/B state is maintained" true
            (oe.Session.source = Session.Maintained);
        (* two texts may intern to one entry: its first count is the
           first text's *)
        if not (List.memq le !counted) then
          Alcotest.(check bool) "a lazy entry's first count is computed" true
            (ol.Session.source = Session.Computed);
        counted := le :: !counted;
        truth)
      (List.combine eager_entries (List.combine states lazy_entries))
  in
  let counts = ref (check_counts ()) in
  for _ = 1 to 5 do
    let batch =
      List.mapi
        (fun i d -> Delta_parse.delta_string ~lineno:(i + 1) d)
        (random_batch rng sg n)
    in
    let epoch0 = Delta.epoch (Session.db eager) in
    let re = Session.apply eager ~budget:unlimited batch in
    let rl = Session.apply lazy_ ~budget:unlimited batch in
    (match (re, rl) with
    | Ok a, Ok b -> Alcotest.(check bool) "same receipt" true (a = b)
    | Error a, Error b ->
        Alcotest.(check string) "same rejection" (Ucqc_error.to_string a)
          (Ucqc_error.to_string b)
    | _ -> Alcotest.fail "the sessions disagree on a batch");
    let after = check_counts () in
    (match re with
    | Error _ ->
        Alcotest.(check int) "a rejected batch keeps the epoch" epoch0
          (Delta.epoch (Session.db eager));
        Alcotest.(check (list int)) "a rejected batch keeps every count"
          !counts after
    | Ok _ -> ());
    counts := after
  done;
  true

(* ------------------------------------------------------------------ *)
(* Rewrite profiling                                                  *)
(* ------------------------------------------------------------------ *)

(* The optimized query's plan cost seeds [plan_cost] whether telemetry
   is on or off; with it on, the predicted-cost gauge reads the
   original's cost minus the optimized query's. *)
let test_rewrite_cost_gauge () =
  let db = golden_db () in
  let cost q =
    Plan.try_cost ~db_elems:(Structure.universe_size db)
      ~db_tuples:(Structure.num_tuples db) q
  in
  let rewrite () =
    let s = open_session ~optimize:true db in
    let e = entry s "(x, y) :- E(x, y) ; E(x, y), E(y, z) ; E(x, z), E(z, y)" in
    let r = Session.optimized s e in
    Alcotest.(check bool) "rewritten" true r.Optimize.changed;
    Alcotest.(check (option (float 0.))) "plan_cost is the optimized query's"
      (cost r.Optimize.optimized) (Session.plan_cost s e);
    r
  in
  ignore (rewrite () : Optimize.report);
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let r = rewrite () in
      match (cost r.Optimize.original, cost r.Optimize.optimized) with
      | Some before, Some after ->
          Alcotest.(check bool) "the rewrite changes the cost" true (before <> after);
          Alcotest.(check (option (float 0.))) "gauge" (Some (before -. after))
            (List.assoc_opt "session.optimize.predicted_cost_delta"
               (Telemetry.gauges_snapshot ()))
      | _ -> Alcotest.fail "both queries are predicted")

let qcheck_oracle =
  QCheck.Test.make ~name:"eager and lazy sessions match recounts" ~count:25
    (QCheck.int_range 0 10_000) oracle_run

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "one fold budget per change" `Quick
          test_fold_budget_per_change;
        Alcotest.test_case "spellings share one state" `Quick
          test_spellings_share_state;
        Alcotest.test_case "rewrite cost gauge" `Quick test_rewrite_cost_gauge;
        QCheck_alcotest.to_alcotest qcheck_oracle;
      ] );
  ]
