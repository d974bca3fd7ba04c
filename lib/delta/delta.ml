(** Tiered incremental counting (see the interface for the model).

    Tier B is the interesting case.  For a combined query [q] with free
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

type bterm = {
  tsign : int;
  tq : Cq.t;  (** normalized combined query: isolated variables dropped *)
  iso_exp : int;  (** dropped isolated free variables *)
  occs : (string * int list list) list;  (** relation -> occurrence args *)
  mutable n : int;  (** maintained [ans(tq -> D)] *)
  mutable full_steps : int;  (** steps the last full count charged *)
  mutable reads : int;  (** tuples the last full count read *)
  mutable fold_steps : int;  (** steps the last fold metered *)
  mutable recounts : int;  (** folds the guard replaced by a recount *)
}

type bstate = { us : int; terms : bterm list }

type impl =
  | TA of Dynamic_ucq.t
  | TB of bstate
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
  match st.impl with TA _ -> Tier.A | TB _ -> Tier.B | TC -> Tier.C

let degraded (st : state) : string option = st.degraded_reason

let degrade (st : state) (reason : string) : unit =
  st.impl <- TC;
  st.degraded_reason <- Some reason

let recounts_c = Telemetry.counter "delta.fold.recounts"

(** A full count of [t]'s query over [d], which also sets the term's
    allowance: the steps the count charged plus the tuples it read (the
    engine charges joins, not reads, so a quantifier-free term's count
    charges no step). *)
let full_count ?(budget : Budget.t option) (t : bterm) (d : Structure.t) : unit =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  let before = Budget.steps_done b in
  t.n <- Counting.count ~strategy:Counting.Varelim ~budget:b t.tq d;
  t.full_steps <- Budget.steps_done b - before;
  t.reads <-
    List.fold_left
      (fun acc (name, ts) -> acc + (List.length ts * List.length (Structure.relation d name)))
      0
      (Structure.relations (Cq.structure t.tq))

(** One tier-B term over the current database. *)
let prepare_bterm ?(budget : Budget.t option) (d : db) (sign : int) (q0 : Cq.t)
    : bterm =
  let term tq iso_exp occs =
    { tsign = sign; tq; iso_exp; occs; n = 0; full_steps = 0; reads = 0; fold_steps = 0; recounts = 0 }
  in
  let t =
    if Structure.universe_size d.current = 0 then
      (* no update can touch an empty universe: the count is frozen *)
      term q0 0 []
    else begin
      let q1 = Cq.drop_isolated_quantified q0 in
      let iso = Cq.isolated_variables q1 in
      (* after dropping isolated quantified variables, every isolated
         variable is free: each ranges over the whole universe *)
      let a1 = Cq.structure q1 in
      let qcov =
        Cq.make
          (Structure.delete_elements a1 iso)
          (List.filter (fun v -> not (List.mem v iso)) (Cq.free q1))
      in
      term qcov (List.length iso)
        (List.filter (fun (_, ts) -> ts <> []) (Structure.relations (Cq.structure qcov)))
    end
  in
  full_count ?budget t d.current;
  t

let bstate_count (b : bstate) : int =
  List.fold_left
    (fun acc t ->
      acc + (t.tsign * t.n * Combinat.power_int b.us t.iso_exp))
    0 b.terms

(** The change in [t]'s count that [r] makes, through the given
    occurrences of the changed relation.  Every answer gained (lost) has
    a homomorphism mapping one of them onto the changed tuple, so each
    occurrence that binds consistently gives one restricted projecting
    call over the side holding the tuple; its answers are candidates.
    One projecting count restricted to the candidates, over the other
    side, finds those already (still) answers there. *)
let fold_delta (budget : Budget.t) (t : bterm) (r : applied) (occurrences : int list list) : int =
  let holding, other =
    match r.upd.op with `Insert -> (r.after, r.before) | `Delete -> (r.before, r.after)
  in
  let found =
    List.filter_map
      (fun args ->
        Option.map
          (fun b -> Elim.answers ~budget ~restrict:b t.tq holding)
          (binding args r.upd.fact.tuple))
      occurrences
  in
  let cands = Elim.union (Array.of_list (Cq.free t.tq)) found in
  if cands.Elim.rows = 0 then 0
  else cands.Elim.rows - Elim.count ~budget ~restrict:cands Elim.Projecting t.tq other

(** Fold one accepted change into one term, under the term's allowance:
    a fold that meters past it stops, and the term alone is recounted
    over the after-database.  The fold keeps the caller's deadline and
    cancellation, and the steps either way are charged to the caller's
    budget, whose exhaustion escapes. *)
let apply_bterm ?(budget : Budget.t option) (t : bterm) (r : applied) : unit =
  match List.assoc_opt r.upd.fact.rel t.occs with
  | None -> t.fold_steps <- 0
  | Some occurrences ->
      (* the fold may meter its allowance, or the caller's remaining
         steps if fewer; [Budget.within b k] lets k - 1 ticks pass *)
      let caller = match budget with Some b -> b | None -> Budget.unlimited () in
      let fb = Budget.within caller (t.full_steps + t.reads + 1) in
      let delta = try Some (fold_delta fb t r occurrences) with Budget.Exhausted _ -> None in
      t.fold_steps <- Budget.steps_done fb;
      Budget.ticks_opt budget t.fold_steps;
      Budget.check_opt budget;
      (match delta with
      | Some d -> t.n <- (match r.upd.op with `Insert -> t.n + d | `Delete -> t.n - d)
      | None ->
          Telemetry.incr recounts_c;
          t.recounts <- t.recounts + 1;
          full_count ?budget t r.after)

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
  let covered =
    Signature.subset
      (List.fold_left
         (fun acc a -> Signature.union acc (Structure.signature a))
         (Signature.make [])
         (Ucq.disjunct_structures psi))
      (Structure.signature d.current)
  in
  (match sel.Tier.tier with
  | _ when not covered ->
      (* a recompute fails identically to the one-shot path; nothing to
         maintain *)
      st.degraded_reason <-
        Some "database signature does not cover the query"
  | Tier.A -> (
      match Dynamic_ucq.create psi d.current with
      | Ok dyn -> st.impl <- TA dyn
      | Error e -> st.degraded_reason <- Some (Ucqc_error.to_string e))
  | Tier.B -> (
      let subsets = Combinat.nonempty_subsets (Ucq.length psi) in
      match
        List.map
          (fun j ->
            let sign = if List.length j mod 2 = 1 then 1 else -1 in
            prepare_bterm ?budget d sign (Ucq.combined psi j))
          subsets
      with
      | terms ->
          st.impl <- TB { us = Structure.universe_size d.current; terms }
      | exception Budget.Exhausted _ ->
          st.degraded_reason <- Some "budget exhausted while preparing"
      | exception e ->
          st.degraded_reason <- Some (Printexc.to_string e))
  | Tier.C -> ());
  st

let apply_state ?(budget : Budget.t option) (st : state) (_d : db)
    (r : applied) : unit =
  st.memo <- None;
  if not r.changed then ()
  else if st.at_epoch <> r.epoch - 1 then (
    match st.impl with
    | TC -> st.at_epoch <- r.epoch
    | TA _ | TB _ ->
        degrade st
          (Printf.sprintf "missed updates: state at epoch %d, change is %d"
             st.at_epoch r.epoch))
  else begin
    (match st.impl with
    | TC -> ()
    | TA dyn -> (
        match r.upd.op with
        | `Insert -> Dynamic_ucq.insert dyn r.upd.fact.rel r.upd.fact.tuple
        | `Delete -> Dynamic_ucq.delete dyn r.upd.fact.rel r.upd.fact.tuple)
    | TB b -> (
        try List.iter (fun t -> apply_bterm ?budget t r) b.terms with
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
        | TA dyn -> Some (Dynamic_ucq.count dyn, Maintained)
        | TB b -> Some (bstate_count b, Maintained)
        | TC -> None)

let memoize (st : state) (d : db) (n : int) : unit =
  st.memo <- Some (d.sepoch, n)

type term_info = { term : Cq.t; count : int; full_steps : int; fold_steps : int; recounts : int }

let terms (st : state) : term_info list =
  match st.impl with
  | TB b ->
      List.map
        (fun t ->
          { term = t.tq; count = t.n; full_steps = t.full_steps; fold_steps = t.fold_steps; recounts = t.recounts })
        b.terms
  | TA _ | TC -> []

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
