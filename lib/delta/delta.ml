(** Tiered incremental counting (see the interface for the model).

    Tier B is the interesting case.  For a combined query [q] with free
    set [X] and an update [±R(t)], every answer gained or lost must
    have a homomorphism mapping some [R]-atom to [t].  So for each
    occurrence [R(v1..vk)] in [q] we bind [vi := ti] and materialise
    the bound answers as {e candidates}; a candidate only counts if it
    was not already satisfied before the insert (resp. is no longer
    satisfied after the delete), which one all-variables-bound boolean
    evaluation per candidate decides.

    Bindings are compiled by {e specialization} ({!specialize}): each
    atom mentioning a bound variable is replaced by a residual atom
    over its unbound positions whose extension is the matching tuples
    of the database — an eager semi-join.  This matters: the earlier
    encoding (conjoin fresh unary atoms [__b(v)] with singleton
    relations) left the full relations in the quantified variables'
    join buckets, so every per-candidate check re-joined whole
    relations and a tier-B update could cost {e more} than a fresh
    recompute.  After specialization the {!Varelim} engine only ever
    sees neighbourhood-sized relations, and the cheap
    {!Structure.extend} constructor attaches them without re-validating
    the database, so the work per update is proportional to the changed
    tuple's neighbourhood, not to the database or answer count. *)

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

(* A fresh residual-symbol prefix clashing with nothing in either
   signature; computed once per state. *)
let fresh_prefix (sigs : Signature.t list) : string =
  let clashes p =
    List.exists
      (List.exists (fun (s : Signature.symbol) ->
           String.length s.Signature.name >= String.length p
           && String.sub s.Signature.name 0 (String.length p) = p))
      sigs
  in
  let p = ref "__b" in
  while clashes !p do
    p := "_" ^ !p
  done;
  !p

(** [specialize prefix q bindings d] partially evaluates [q] under
    [bindings]: every atom mentioning a bound variable is replaced by a
    residual atom over its unbound positions, whose extension is the
    matching tuples of [d] projected accordingly — an eager semi-join
    that restricts the relations {e before} variable elimination joins
    them.  Fully-bound atoms are checked against [d] and dropped;
    [None] means one of them had no matching tuple, i.e. the bound
    query is unsatisfiable.  On [Some (q', d')], [q'] ranges over the
    surviving (unbound) variables only — its free set is [free q]
    minus the bound variables — and [d'] extends [d] with the residual
    relations via {!Structure.extend}, so nothing of [d] itself is
    re-validated. *)
let specialize (prefix : string) (q : Cq.t) (bindings : (int * int) list)
    (d : Structure.t) : (Cq.t * Structure.t) option =
  let bound v = List.assoc_opt v bindings in
  let counter = ref 0 in
  let syms = ref [] in
  let rels = ref [] in
  let exception Unsat in
  let specialize_atom (name : string) (args : int list) :
      (string * int list) option =
    if List.for_all (fun v -> bound v = None) args then Some (name, args)
    else begin
      let matches tup =
        List.for_all2
          (fun v c -> match bound v with Some b -> b = c | None -> true)
          args tup
      in
      let matching = List.filter matches (Structure.relation d name) in
      let residual_args = List.filter (fun v -> bound v = None) args in
      if residual_args = [] then
        if matching = [] then raise Unsat else None (* satisfied: drop *)
      else begin
        let fname = prefix ^ string_of_int !counter in
        incr counter;
        let residual tup =
          List.filter_map
            (fun (v, c) -> if bound v = None then Some c else None)
            (List.combine args tup)
        in
        syms := Signature.symbol fname (List.length residual_args) :: !syms;
        rels := (fname, List.map residual matching) :: !rels;
        Some (fname, residual_args)
      end
    end
  in
  match
    List.concat_map
      (fun (name, ts) -> List.filter_map (specialize_atom name) ts)
      (Structure.relations (Cq.structure q))
  with
  | exception Unsat -> None
  | atoms ->
      let free = List.filter (fun v -> bound v = None) (Cq.free q) in
      let vars = Listx.sort_uniq_ints (free @ List.concat_map snd atoms) in
      let by_name =
        List.fold_left
          (fun acc (name, args) ->
            match List.assoc_opt name acc with
            | Some argss ->
                (name, args :: argss) :: List.remove_assoc name acc
            | None -> (name, [ args ]) :: acc)
          [] atoms
      in
      let qsig =
        Signature.make
          (List.map
             (fun (name, argss) ->
               Signature.symbol name (List.length (List.hd argss)))
             by_name)
      in
      let qa = Structure.make qsig vars by_name in
      let d' = if !syms = [] then d else Structure.extend d !syms !rels in
      Some (Cq.make qa free, d')

(** The consistent binding of an occurrence's variables to the changed
    tuple's values, or [None] when a repeated variable would need two
    values. *)
let binding_of (args : int list) (tuple : int list) : (int * int) list option
    =
  let exception Inconsistent in
  try
    Some
      (List.fold_left2
         (fun acc v c ->
           match List.assoc_opt v acc with
           | Some c' when c' <> c -> raise Inconsistent
           | Some _ -> acc
           | None -> (v, c) :: acc)
         [] args tuple)
  with Inconsistent -> None

(* ------------------------------------------------------------------ *)
(* Per-query states                                                   *)
(* ------------------------------------------------------------------ *)

type bterm = {
  tsign : int;
  tq : Cq.t;  (** normalized combined query: isolated variables dropped *)
  iso_exp : int;  (** dropped isolated free variables *)
  occs : (string * int list list) list;  (** relation -> occurrence args *)
  mutable n : int;  (** maintained [ans(tq -> D)] *)
}

type bstate = { prefix : string; us : int; terms : bterm list }

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

(** One tier-B term over the current database. *)
let prepare_bterm ?(budget : Budget.t option) (d : db) (sign : int) (q0 : Cq.t)
    : bterm =
  let us = Structure.universe_size d.current in
  if us = 0 then
    (* no update can touch an empty universe: the count is frozen *)
    let n = Counting.count ~strategy:Counting.Varelim ?budget q0 d.current in
    { tsign = sign; tq = q0; iso_exp = 0; occs = []; n }
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
    let occs =
      List.filter
        (fun (_, ts) -> ts <> [])
        (Structure.relations (Cq.structure qcov))
    in
    {
      tsign = sign;
      tq = qcov;
      iso_exp = List.length iso;
      occs;
      n = Counting.count ~strategy:Counting.Varelim ?budget qcov d.current;
    }
  end

let bstate_count (b : bstate) : int =
  List.fold_left
    (fun acc t ->
      acc + (t.tsign * t.n * Combinat.power_int b.us t.iso_exp))
    0 b.terms

(** Delta-evaluate one accepted change into one term. *)
let apply_bterm ?(budget : Budget.t option) (b : bstate) (t : bterm)
    (r : applied) : unit =
  match List.assoc_opt r.upd.fact.rel t.occs with
  | None -> ()
  | Some occurrences ->
      let d_cand, d_check =
        match r.upd.op with
        | `Insert -> (r.after, r.before)
        | `Delete -> (r.before, r.after)
      in
      let xs = Cq.free t.tq in
      let cands : (int list, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun args ->
          match binding_of args r.upd.fact.tuple with
          | None -> ()
          | Some bindings -> (
              match specialize b.prefix t.tq bindings d_cand with
              | None -> () (* bound query unsatisfiable: no candidates *)
              | Some (qb, db_) ->
                  let rel, uncovered =
                    Varelim.answer_relation ?budget qb db_
                  in
                  if uncovered <> 0 then
                    raise
                      (Ucqc_error.Error
                         (Ucqc_error.Internal
                            "delta: bound query left a free variable \
                             uncovered"));
                  (* answers cover the unbound free variables; bound ones
                     come from the binding itself *)
                  List.iter
                    (fun tuple ->
                      let env = List.combine rel.Relation.vars tuple in
                      let cand =
                        List.map
                          (fun x ->
                            match List.assoc_opt x bindings with
                            | Some c -> c
                            | None -> List.assoc x env)
                          xs
                      in
                      Hashtbl.replace cands cand ())
                    rel.Relation.tuples))
        occurrences;
      let delta =
        Hashtbl.fold
          (fun a () acc ->
            let satisfied =
              match
                specialize b.prefix t.tq (List.combine xs a) d_check
              with
              | None -> false
              | Some (qb, db_) ->
                  Counting.count ~strategy:Counting.Varelim ?budget qb db_ > 0
            in
            if satisfied then acc else acc + 1)
          cands 0
      in
      t.n <-
        (match r.upd.op with
        | `Insert -> t.n + delta
        | `Delete -> t.n - delta)

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
      let prefix =
        fresh_prefix
          (Structure.signature d.current
          :: List.map Structure.signature (Ucq.disjunct_structures psi))
      in
      match
        List.map
          (fun j ->
            let sign = if List.length j mod 2 = 1 then 1 else -1 in
            prepare_bterm ?budget d sign (Ucq.combined psi j))
          subsets
      with
      | terms ->
          st.impl <-
            TB { prefix; us = Structure.universe_size d.current; terms }
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
        try List.iter (fun t -> apply_bterm ?budget b t r) b.terms with
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
