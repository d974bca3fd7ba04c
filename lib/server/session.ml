(** The live-update session.  See the interface. *)

type t = {
  ddb : Delta.db;
  cache : Cache.t;
  pool : Pool.t;
  optimize : bool;
  retain : bool;  (* capacity > 0: entries, so states, outlive a call *)
  db_elems : int;
  db_tuples : int;  (* load-time figures, the plan baseline *)
}

let counter name = Telemetry.counter ("session." ^ name)
let c_rewritten = counter "optimize.queries_rewritten"
let c_disjuncts = counter "optimize.disjuncts_removed"
let c_atoms = counter "optimize.atoms_removed"
let c_applied = counter "updates.applied"
let c_noop = counter "updates.noop"
let c_rejected = counter "updates.rejected"
let c_maintained = counter "counts.maintained"
let c_memoized = counter "counts.memoized"
let c_computed = counter "counts.computed"

(* plan cost of the most recent rewrite's original minus its optimized
   query (positive = cheaper) *)
let g_cost_delta = Telemetry.gauge "session.optimize.predicted_cost_delta"

(* a prediction that cannot finish within this cap is "no prediction" *)
let plan_predict_cap = 200_000

let create ?env ~optimize ~capacity ~pool (db : Structure.t) : t =
  {
    ddb = Delta.open_db ?env db;
    cache = Cache.create ~capacity ();
    pool;
    optimize;
    retain = capacity > 0;
    db_elems = Structure.universe_size db;
    db_tuples = Structure.num_tuples db;
  }

let db (s : t) = s.ddb
let cache (s : t) = s.cache
let pool (s : t) = s.pool

let try_cost (s : t) (q : Ucq.t) : float option =
  Telemetry.with_span "session.plan" (fun () ->
      Plan.try_cost ~max_steps:plan_predict_cap ~db_elems:s.db_elems
        ~db_tuples:s.db_tuples q)

(* a rewrite is profiled here, and its optimized-query cost seeds the
   [plan_cost] memo *)
let optimized (s : t) (e : Cache.entry) : Optimize.report =
  match e.Cache.optimized with
  | Some r -> r
  | None ->
      let r =
        if not s.optimize then Optimize.identity e.Cache.ucq
        else
          Telemetry.with_span "session.optimize" (fun () ->
              Optimize.run e.Cache.ucq)
      in
      if r.Optimize.changed then begin
        Telemetry.incr c_rewritten;
        Telemetry.add c_disjuncts (Optimize.disjuncts_removed r);
        Telemetry.add c_atoms (Optimize.atoms_removed r);
        let after = try_cost s r.Optimize.optimized in
        e.Cache.plan_cost <- Some after;
        (* the original's plan feeds only the gauge, which drops the
           value when telemetry is off *)
        if Telemetry.enabled () then
          match (try_cost s r.Optimize.original, after) with
          | Some before, Some after ->
              Telemetry.set_gauge g_cost_delta (before -. after)
          | _ -> ()
      end;
      e.Cache.optimized <- Some r;
      r

let plan_cost (s : t) (e : Cache.entry) : float option =
  match e.Cache.plan_cost with
  | Some memo -> memo
  | None ->
      let memo = try_cost s (optimized s e).Optimize.optimized in
      e.Cache.plan_cost <- Some memo;
      memo

let prepare (s : t) (text : string) : Cache.outcome =
  let o = Cache.lookup s.cache text in
  (match o with
  | Cache.Hit e | Cache.Interned e | Cache.Miss e ->
      ignore (optimized s e : Optimize.report)
  | Cache.Invalid _ -> ());
  o

let register (s : t) ~(budget : unit -> Budget.t) (e : Cache.entry) :
    Delta.state =
  match e.Cache.maint with
  | Some st -> st
  | None ->
      let q = (optimized s e).Optimize.optimized in
      let budget = budget () in
      let st =
        Telemetry.with_span "session.register" (fun () ->
            Delta.prepare ~budget q s.ddb)
      in
      e.Cache.maint <- Some st;
      st

type source = Maintained | Memoized | Computed

type outcome = {
  result : (Runner.count_outcome, Ucqc_error.t) result;
  source : source;
  tier : Tier.t option;
  epoch : int;
  steps : int;
}

let count (s : t) ?via ?fallback ?seed ~(budget : unit -> Budget.t)
    (e : Cache.entry) : outcome =
  (* a state this call builds does not answer it: an entry's first count
     is a real recount, whose steps feed the server's drift tracking *)
  let built_now = s.retain && e.Cache.maint = None in
  let st = if s.retain then Some (register s ~budget e) else e.Cache.maint in
  let tier = Option.map Delta.effective_tier st and epoch = Delta.epoch s.ddb in
  let answered =
    if built_now then None
    else Option.bind st (fun st -> Delta.maintained_count st s.ddb)
  in
  let read n source c =
    Telemetry.incr c;
    { result = Ok (Runner.Exact n); source; tier; epoch; steps = 0 }
  in
  match answered with
  | Some (n, Delta.Maintained) -> read n Maintained c_maintained
  | Some (n, Delta.Memoized) -> read n Memoized c_memoized
  | None ->
      Telemetry.incr c_computed;
      let budget = budget () in
      let result =
        Telemetry.with_span "session.count" ~budget (fun () ->
            Runner.count ?via ?fallback ?seed ~pool:s.pool ~budget
              (optimized s e).Optimize.optimized (Delta.structure s.ddb))
      in
      (match (result, st) with
      | Ok (Runner.Exact n), Some st -> Delta.memoize st s.ddb n
      | _ -> ());
      let steps = Budget.steps_done budget in
      { result; source = Computed; tier; epoch; steps }

type batch = { applied : int; noop : int; epoch : int }

let apply (s : t) ~(budget : unit -> Budget.t)
    (deltas : (Delta_parse.spec, Ucqc_error.t) result list) :
    (batch, Ucqc_error.t) result =
  (* the universe and signature are fixed, so an update resolved against
     the pre-batch database stays valid through the batch *)
  let resolved =
    List.fold_left
      (fun acc d ->
        Result.bind acc (fun us ->
            Result.bind d (fun spec ->
                Result.map (fun u -> u :: us) (Delta.resolve s.ddb spec))))
      (Ok []) deltas
  in
  match resolved with
  | Error e ->
      Telemetry.incr c_rejected;
      Error e
  | Ok rev_updates ->
      let applied = ref 0 and noop = ref 0 in
      List.iter
        (fun u ->
          match Delta.apply s.ddb u with
          | Ok r when r.Delta.changed ->
              incr applied;
              Telemetry.incr c_applied;
              let budget = budget () in
              Cache.iter s.cache (fun e ->
                  Option.iter
                    (fun st -> Delta.apply_state ~budget st s.ddb r)
                    e.Cache.maint)
          | Ok _ ->
              incr noop;
              Telemetry.incr c_noop
          (* unreachable: resolved above, and the session has one writer *)
          | Error e -> raise (Ucqc_error.Error e))
        (List.rev rev_updates);
      Ok { applied = !applied; noop = !noop; epoch = Delta.epoch s.ddb }
