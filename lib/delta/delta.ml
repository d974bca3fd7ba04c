(** Tiered incremental counting (see the interface for the model).

    Tier B is the interesting case.  For a support term [q] with free
    set [X] and an update [±R(t)], every answer gained or lost has a
    homomorphism mapping some [R]-atom onto [t].  So each occurrence
    [R(v1..vk)] in [q] whose variables bind consistently to [t] gives one
    projecting {!Elim.answers} call restricted to that binding, over the
    side of the update that holds [t]; its answers over [X] are
    candidates, deduplicated into one flat table.  One projecting
    {!Elim.count} restricted to that table, over the other side, counts
    the candidates that were already (insert) or are still (delete)
    answers; the rest shift the count.  Quantified and quantifier-free
    terms take the same path: on the latter the answers are the
    homomorphisms.

    A restricted call copies each atom's relation keeping only the rows
    that agree with the binding (or the candidates) on their shared
    variables, so it joins neighbourhood-sized factors, not whole
    relations.  Its cost is the changed tuple's neighbourhood, which on
    dense data can exceed a recount: every term therefore folds under an
    {e allowance}, the steps its last full count charged plus the tuples
    that count read.  A fold that meters past it stops, and that term
    alone is recounted; Lemma 26's terms are independent, so the others
    keep their folds. *)

type fact = { rel : string; tuple : int list }
type update = { op : [ `Insert | `Delete ]; fact : fact }

(* ------------------------------------------------------------------ *)
(* The database session                                               *)
(* ------------------------------------------------------------------ *)

type db = {
  constants : (string * int) list;
  uset : Intset.t;
  mutable current : Structure.t;
  mutable sepoch : int;
  mutable ntuples : int;  (** [Structure.num_tuples current] *)
}

let open_db ?(env : Parse.db_env option) (s : Structure.t) : db =
  {
    constants = (match env with Some e -> e.Parse.constants | None -> []);
    uset = Structure.universe_set s;
    current = s;
    sepoch = 0;
    ntuples = Structure.num_tuples s;
  }

let structure (d : db) : Structure.t = d.current
let epoch (d : db) : int = d.sepoch
let num_tuples (d : db) : int = d.ntuples

let validate (d : db) (u : update) : (unit, Ucqc_error.t) result =
  let sg = Structure.signature d.current in
  match Signature.find_opt sg u.fact.rel with
  | None ->
      Error
        (Ucqc_error.Unsupported
           (Printf.sprintf
              "unknown relation %s: the database signature is fixed at load \
               time"
              u.fact.rel))
  | Some sym ->
      let got = List.length u.fact.tuple in
      if got <> sym.Signature.arity then
        Error
          (Ucqc_error.Arity_mismatch
             { rel = u.fact.rel; expected = sym.Signature.arity; got })
      else (
        match
          List.find_opt
            (fun v -> not (Intset.mem v d.uset))
            u.fact.tuple
        with
        | Some v ->
            Error
              (Ucqc_error.Unsupported
                 (Printf.sprintf
                    "element %d is not in the universe, which is fixed at \
                     load time (declare spare elements with 'universe { .. \
                     }')"
                    v))
        | None -> Ok ())

let resolve (d : db) (spec : Delta_parse.spec) : (update, Ucqc_error.t) result
    =
  let exception Bad of Ucqc_error.t in
  match
    List.map
      (function
        | Delta_parse.Int k -> k
        | Delta_parse.Sym s -> (
            match List.assoc_opt s d.constants with
            | Some k -> k
            | None ->
                raise
                  (Bad
                     (Ucqc_error.Unsupported
                        (Printf.sprintf
                           "unknown constant %s: the universe is fixed at \
                            load time"
                           s)))))
      spec.Delta_parse.args
  with
  | exception Bad e -> Error e
  | tuple -> (
      let u =
        {
          op =
            (match spec.Delta_parse.sign with
            | Delta_parse.Insert -> `Insert
            | Delta_parse.Delete -> `Delete);
          fact = { rel = spec.Delta_parse.rel; tuple };
        }
      in
      match validate d u with Ok () -> Ok u | Error e -> Error e)

type applied = {
  upd : update;
  changed : bool;
  epoch : int;
  before : Structure.t;
  after : Structure.t;
}

let apply (d : db) (u : update) : (applied, Ucqc_error.t) result =
  match validate d u with
  | Error e -> Error e
  | Ok () ->
      let before = d.current in
      let present = List.mem u.fact.tuple (Structure.relation before u.fact.rel) in
      let changed =
        match u.op with `Insert -> not present | `Delete -> present
      in
      let after =
        if not changed then before
        else
          match u.op with
          | `Insert -> Structure.add_tuples before u.fact.rel [ u.fact.tuple ]
          | `Delete -> Structure.remove_tuples before u.fact.rel [ u.fact.tuple ]
      in
      if changed then begin
        d.current <- after;
        d.sepoch <- d.sepoch + 1;
        d.ntuples <- (d.ntuples + match u.op with `Insert -> 1 | `Delete -> -1)
      end;
      Ok { upd = u; changed; epoch = d.sepoch; before; after }

(* ------------------------------------------------------------------ *)
(* Bound-query evaluation (tier B)                                    *)
(* ------------------------------------------------------------------ *)

(** The binding of an occurrence's variables to the changed tuple's
    values, as a one-row restriction, or [None] when a repeated variable
    would need two values. *)
let binding (args : int list) (tuple : int list) : Elim.table option =
  let exception Inconsistent in
  match
    List.fold_left2
      (fun acc v c ->
        match List.assoc_opt v acc with
        | Some c' when c' <> c -> raise Inconsistent
        | Some _ -> acc
        | None -> (v, c) :: acc)
      [] args tuple
  with
  | exception Inconsistent -> None
  | pairs ->
      Some
        {
          Elim.cols = Array.of_list (List.rev_map fst pairs);
          rows = 1;
          data = Array.of_list (List.rev_map snd pairs);
        }

(* ------------------------------------------------------------------ *)
(* Per-query states                                                   *)
(* ------------------------------------------------------------------ *)

(** A tier-B term's fold state. *)
type fold = {
  spread : int;  (** [|U|^k] for the [k] isolated free variables dropped *)
  occs : (string * int list list) list;  (** relation -> occurrence args *)
  mutable n : int;  (** maintained [ans(tq -> D)] *)
  mutable full_steps : int;  (** steps the last full count charged *)
  mutable reads : int;  (** tuples the last full count read *)
  mutable fold_steps : int;  (** steps the last fold metered *)
  mutable recounts : int;  (** folds the guard replaced by a recount *)
}

(** How a term is kept current: by {!Dynamic} on tier A, by folds on
    tier B. *)
type maintainer = Dyn of Dynamic.t | Fold of fold

(** One support term of Lemma 26: a #core class with a non-zero
    coefficient. *)
type term = {
  coef : int;  (** [c_Ψ] of the class *)
  tq : Cq.t;  (** the class #core; on tier B, isolated variables dropped *)
  by : maintainer;
}

type impl =
  | Live of term list  (** the selected tier A or B *)
  | TC

type state = {
  spsi : Ucq.t;
  sel : Tier.selection;
  mutable impl : impl;
  mutable at_epoch : int;  (** epoch the tier-A/B state is synced to *)
  mutable memo : (int * int) option;  (** (epoch, exact count) *)
  mutable degraded_reason : string option;
}

let query (st : state) : Ucq.t = st.spsi
let selection (st : state) : Tier.selection = st.sel

let effective_tier (st : state) : Tier.t =
  match st.impl with Live _ -> st.sel.Tier.tier | TC -> Tier.C

let degraded (st : state) : string option = st.degraded_reason

let degrade (st : state) (reason : string) : unit =
  st.impl <- TC;
  st.degraded_reason <- Some reason

let recounts_c = Telemetry.counter "delta.fold.recounts"

(** A full count of [tq] over [d], which also sets the fold's allowance:
    the steps the count charged plus the tuples it read (the engine
    charges joins, not reads, so a quantifier-free term's count charges
    no step). *)
let full_count ?(budget : Budget.t option) (tq : Cq.t) (f : fold) (d : Structure.t) : unit =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  let before = Budget.steps_done b in
  f.n <- Counting.count ~strategy:Counting.Varelim ~budget:b tq d;
  f.full_steps <- Budget.steps_done b - before;
  f.reads <-
    List.fold_left (fun acc (name, ts) -> acc + (List.length ts * List.length (Structure.relation d name))) 0 f.occs

(** The support term [c·q0] over the current database: a {!Dynamic}
    instance on tier A; on tier B, [q0] without its isolated variables
    and a full count charged to [budget]. *)
let prepare_term ?(budget : Budget.t option) (tier : Tier.t) (d : db)
    ({ Ucq.representative = q0; coefficient = coef } : Ucq.expansion_term) : term =
  match tier with
  | Tier.A -> { coef; tq = q0; by = Dyn (Dynamic.create_exn q0 d.current) }
  | Tier.B | Tier.C ->
      let fold spread occs = { spread; occs; n = 0; full_steps = 0; reads = 0; fold_steps = 0; recounts = 0 } in
      let us = Structure.universe_size d.current in
      let tq, f =
        if us = 0 then
          (* no update can touch an empty universe: the count is frozen *)
          (q0, fold 1 [])
        else begin
          let q1 = Cq.drop_isolated_quantified q0 in
          let iso = Cq.isolated_variables q1 in
          (* after dropping isolated quantified variables, every isolated
             variable is free: each ranges over the whole universe *)
          let qcov =
            Cq.make
              (Structure.delete_elements (Cq.structure q1) iso)
              (List.filter (fun v -> not (List.mem v iso)) (Cq.free q1))
          in
          ( qcov,
            fold
              (Combinat.power_int us (List.length iso))
              (List.filter (fun (_, ts) -> ts <> []) (Structure.relations (Cq.structure qcov))) )
        end
      in
      full_count ?budget tq f d.current;
      { coef; tq; by = Fold f }

(** The change in [tq]'s count that [r] makes, through the given
    occurrences of the changed relation.  Every answer gained (lost) has
    a homomorphism mapping one of them onto the changed tuple, so each
    occurrence that binds consistently gives one restricted projecting
    call over the side holding the tuple; its answers are candidates.
    One projecting count restricted to the candidates, over the other
    side, finds those already (still) answers there. *)
let fold_delta (budget : Budget.t) (tq : Cq.t) (r : applied) (occurrences : int list list) : int =
  let holding, other =
    match r.upd.op with `Insert -> (r.after, r.before) | `Delete -> (r.before, r.after)
  in
  let found =
    List.filter_map
      (fun args ->
        Option.map
          (fun b -> Elim.answers ~budget ~restrict:b tq holding)
          (binding args r.upd.fact.tuple))
      occurrences
  in
  let cands = Elim.union (Array.of_list (Cq.free tq)) found in
  if cands.Elim.rows = 0 then 0
  else cands.Elim.rows - Elim.count ~budget ~restrict:cands Elim.Projecting tq other

(** Fold one accepted change into one tier-B term, under the term's
    allowance: a fold that meters past it stops, and the term alone is
    recounted over the after-database.  The fold keeps the caller's
    deadline and cancellation, and the steps either way are charged to
    the caller's budget, whose exhaustion escapes. *)
let apply_fold ?(budget : Budget.t option) (tq : Cq.t) (f : fold) (r : applied) : unit =
  match List.assoc_opt r.upd.fact.rel f.occs with
  | None -> f.fold_steps <- 0
  | Some occurrences ->
      (* the fold may meter its allowance, or the caller's remaining
         steps if fewer; [Budget.within b k] lets k - 1 ticks pass *)
      let caller = match budget with Some b -> b | None -> Budget.unlimited () in
      let fb = Budget.within caller (f.full_steps + f.reads + 1) in
      let delta = try Some (fold_delta fb tq r occurrences) with Budget.Exhausted _ -> None in
      f.fold_steps <- Budget.steps_done fb;
      Budget.ticks_opt budget f.fold_steps;
      Budget.check_opt budget;
      (match delta with
      | Some d -> f.n <- (match r.upd.op with `Insert -> f.n + d | `Delete -> f.n - d)
      | None ->
          Telemetry.incr recounts_c;
          f.recounts <- f.recounts + 1;
          full_count ?budget tq f r.after)

let prepare ?(budget : Budget.t option) (psi : Ucq.t) (d : db) : state =
  let sel = Tier.select psi in
  let st =
    {
      spsi = psi;
      sel;
      impl = TC;
      at_epoch = d.sepoch;
      memo = None;
      degraded_reason = None;
    }
  in
  (match sel.Tier.tier with
  | _ when not (List.for_all (fun a -> Structure.covered_by a d.current) (Ucq.disjunct_structures psi)) ->
      (* a recompute counts it as the one-shot path does; nothing to
         maintain *)
      st.degraded_reason <- Some "database signature does not cover the query"
  | Tier.C -> ()
  | tier -> (
      (* the support is at most 63 masks under the tier gate: uncharged *)
      match List.map (prepare_term ?budget tier d) (Ucq.support psi) with
      | terms -> st.impl <- Live terms
      | exception Budget.Exhausted _ -> st.degraded_reason <- Some "budget exhausted while preparing"
      | exception e -> st.degraded_reason <- Some (Printexc.to_string e)));
  st

let apply_state ?(budget : Budget.t option) (st : state) (_d : db)
    (r : applied) : unit =
  st.memo <- None;
  if not r.changed then ()
  else if st.at_epoch <> r.epoch - 1 then (
    match st.impl with
    | TC -> st.at_epoch <- r.epoch
    | Live _ ->
        degrade st
          (Printf.sprintf "missed updates: state at epoch %d, change is %d"
             st.at_epoch r.epoch))
  else begin
    (match st.impl with
    | TC -> ()
    | Live terms -> (
        let { rel; tuple } = r.upd.fact in
        let apply t =
          match (t.by, r.upd.op) with
          | Dyn dyn, `Insert -> Dynamic.insert dyn rel tuple
          | Dyn dyn, `Delete -> Dynamic.delete dyn rel tuple
          | Fold f, _ -> apply_fold ?budget t.tq f r
        in
        try List.iter apply terms with
        | Budget.Exhausted _ ->
            degrade st "budget exhausted during delta evaluation"
        | e -> degrade st (Printexc.to_string e)));
    st.at_epoch <- r.epoch
  end

type source = Maintained | Memoized

let maintained_count (st : state) (d : db) : (int * source) option =
  match st.memo with
  | Some (e, n) when e = d.sepoch -> Some (n, Memoized)
  | _ -> (
      if st.at_epoch <> d.sepoch then None
      else
        match st.impl with
        | Live terms ->
            let value t = match t.by with Dyn dyn -> Dynamic.count dyn | Fold f -> f.n * f.spread in
            Some (List.fold_left (fun acc t -> acc + (t.coef * value t)) 0 terms, Maintained)
        | TC -> None)

let memoize (st : state) (d : db) (n : int) : unit =
  st.memo <- Some (d.sepoch, n)

type term_info = {
  term : Cq.t;
  coefficient : int;
  count : int;
  full_steps : int;
  fold_steps : int;
  recounts : int;
}

let terms (st : state) : term_info list =
  match st.impl with
  | Live terms ->
      List.map
        (fun t ->
          let count, full_steps, fold_steps, recounts =
            match t.by with
            | Dyn dyn -> (Dynamic.count dyn, 0, 0, 0)
            | Fold f -> (f.n, f.full_steps, f.fold_steps, f.recounts)
          in
          { term = t.tq; coefficient = t.coef; count; full_steps; fold_steps; recounts })
        terms
  | TC -> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let render_facts (s : Structure.t) : string =
  let buf = Buffer.create 1024 in
  (match Structure.universe s with
  | [] -> ()
  | us ->
      Buffer.add_string buf "universe { ";
      Buffer.add_string buf (String.concat ", " (List.map string_of_int us));
      Buffer.add_string buf " }\n");
  List.iter
    (fun (name, ts) ->
      List.iter
        (fun tup ->
          Buffer.add_string buf name;
          Buffer.add_char buf '(';
          Buffer.add_string buf
            (String.concat ", " (List.map string_of_int tup));
          Buffer.add_string buf ").\n")
        ts)
    (Structure.relations s);
  Buffer.contents buf
