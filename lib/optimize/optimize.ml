(** The count-preserving UCQ cover optimizer.  See the interface for the
    soundness argument; the implementation notes here cover the partial-
    knowledge subtlety.

    The containment matrix [hom.(i).(j)] holds a {e witness}
    homomorphism [A_i → A_j] fixing the free variables pointwise when
    one is known ([ans_j ⊆ ans_i]), and [None] when none is known —
    which, under a budget, conflates "searched and absent" with "search
    exhausted".  A drop rule that compares [hom.(i).(j)] against
    [hom.(j).(i)] symmetrically (as the analyzer's UCQ104/UCQ106
    reporting does) is unsound on such a partial matrix: a mutual-
    equivalence class whose reverse searches all exhausted could be
    dropped entirely.  The greedy sequential cover below never does
    that: processing [j] in order, [Ψ_j] is dropped only when

    - an already-{e kept} disjunct [k] subsumes it ([hom.(k).(j)]
      known), or
    - a strictly later disjunct [l > j] one-way subsumes it
      ([hom.(l).(j)] known, [hom.(j).(l)] unknown).

    Every drop is justified by a true containment into a disjunct that
    is either kept or justified by a strictly later one, so the chains
    terminate at a kept disjunct and the union of kept answer sets is
    unchanged.  On a complete matrix this drops exactly the disjuncts
    the analyzer warns about. *)

type rewrite =
  | Drop_subsumed of { index : int; by : int; map : (int * int) list }
  | Drop_duplicate of { index : int; by : int; map : (int * int) list }
  | Minimize of {
      index : int;
      atoms_before : int;
      atoms_after : int;
      vars_before : int;
      vars_after : int;
    }

type report = {
  original : Ucq.t;
  optimized : Ucq.t;
  rewrites : rewrite list;
  kept : int list;
  changed : bool;
  complete : bool;
}

let default_max_steps = 200_000

(* [Cq.sharp_core] is unbudgeted and exponential in the universe size;
   query-sized disjuncts pass easily, adversarial input is skipped. *)
let core_gate = 12

let c_runs = Telemetry.counter "optimize.runs"
let c_disjuncts_removed = Telemetry.counter "optimize.disjuncts_removed"
let c_atoms_removed = Telemetry.counter "optimize.atoms_removed"
let c_witness_verified = Telemetry.counter "optimize.witness_verified"

let identity (psi : Ucq.t) : report =
  {
    original = psi;
    optimized = psi;
    rewrites = [];
    kept = List.init (Ucq.length psi) Fun.id;
    changed = false;
    complete = false;
  }

let run ?(budget : Budget.t option) ?(hints : Diagnostic.t list = [])
    (psi : Ucq.t) : report =
  Telemetry.incr c_runs;
  let budget =
    match budget with
    | Some b -> b
    | None -> Budget.of_steps default_max_steps
  in
  try
    let ds = Array.of_list (Ucq.disjunct_structures psi) in
    let n = Array.length ds in
    let fixed = List.map (fun v -> (v, v)) (Ucq.free psi) in
    let complete = ref true in
    (* hom.(i).(j): a known homomorphism A_i -> A_j fixing X *)
    let hom = Array.make_matrix n n None in
    (* Seed from analyzer witnesses: O(tuples) re-verification replaces
       a fresh exponential search.  Unverifiable hints are ignored. *)
    List.iter
      (fun (d : Diagnostic.t) ->
        match d.Diagnostic.witness with
        | Some (Diagnostic.Hom_witness { source = i; target = j; map })
          when i >= 0 && i < n && j >= 0 && j < n && i <> j
               && hom.(i).(j) = None ->
            if Hom.verify ~fixed ds.(i) ds.(j) map then begin
              hom.(i).(j) <- Some map;
              Telemetry.incr c_witness_verified
            end
        | _ -> ())
      hints;
    (* Fill the remaining pairs by budgeted search; exhaustion leaves
       them unknown and the report incomplete. *)
    (try
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if i <> j && hom.(i).(j) = None then
             Hom.iter_homs ~budget ~fixed ds.(i) ds.(j) (fun h ->
                 hom.(i).(j) <- Some h;
                 false)
         done
       done
     with Budget.Exhausted _ -> complete := false);
    (* Greedy sequential cover (see the module comment). *)
    let kept = ref [] (* ascending via final reversal *) in
    let drops = ref [] in
    for j = 0 to n - 1 do
      match List.find_opt (fun k -> hom.(k).(j) <> None) (List.rev !kept) with
      | Some k ->
          let map = Option.get hom.(k).(j) in
          drops :=
            (if hom.(j).(k) <> None then
               Drop_duplicate { index = j; by = k; map }
             else Drop_subsumed { index = j; by = k; map })
            :: !drops
      | None -> (
          let rec later l =
            if l >= n then None
            else if hom.(l).(j) <> None && hom.(j).(l) = None then Some l
            else later (l + 1)
          in
          match later (j + 1) with
          | Some l ->
              drops :=
                Drop_subsumed { index = j; by = l; map = Option.get hom.(l).(j) }
                :: !drops
          | None -> kept := j :: !kept)
    done;
    let kept = List.rev !kept in
    (* Minimize each survivor to its #core; the retraction fixes the
       free variables pointwise, so the disjunct's answer set is
       unchanged (Definition 19 / Observation 17). *)
    let mins = ref [] in
    let minimized =
      List.map
        (fun j ->
          let q = Ucq.disjunct psi j in
          let a = Cq.structure q in
          if Structure.universe_size a > core_gate then begin
            complete := false;
            q
          end
          else
            let core = Cq.sharp_core q in
            let ca = Cq.structure core in
            let atoms_before = Structure.num_tuples a
            and atoms_after = Structure.num_tuples ca
            and vars_before = Structure.universe_size a
            and vars_after = Structure.universe_size ca in
            if atoms_after < atoms_before || vars_after < vars_before then begin
              mins :=
                Minimize
                  { index = j; atoms_before; atoms_after; vars_before;
                    vars_after }
                :: !mins;
              core
            end
            else q)
        kept
    in
    let rewrites = List.rev !drops @ List.rev !mins in
    let report =
      if rewrites = [] then
        { original = psi; optimized = psi; rewrites = []; kept;
          changed = false; complete = !complete }
      else
        { original = psi; optimized = Ucq.make minimized; rewrites; kept;
          changed = true; complete = !complete }
    in
    Telemetry.add c_disjuncts_removed (n - List.length kept);
    Telemetry.add c_atoms_removed
      (max 0 (Ucq.num_atoms psi - Ucq.num_atoms report.optimized));
    report
  with _ ->
    (* total by contract: any escape degrades to the identity rewrite *)
    identity psi

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let disjuncts_removed (r : report) : int =
  Ucq.length r.original - Ucq.length r.optimized

let atoms_removed (r : report) : int =
  Ucq.num_atoms r.original - Ucq.num_atoms r.optimized

let subsets (l : int) : int = if l < 62 then (1 lsl l) - 1 else max_int

let expansion_subsets (r : report) : int * int =
  (subsets (Ucq.length r.original), subsets (Ucq.length r.optimized))

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let describe_rewrite : rewrite -> string = function
  | Drop_subsumed { index; by; _ } ->
      Printf.sprintf
        "drop disjunct %d: subsumed by disjunct %d (verified homomorphism \
         fixing the free variables)"
        (index + 1) (by + 1)
  | Drop_duplicate { index; by; _ } ->
      Printf.sprintf
        "drop disjunct %d: homomorphically equivalent to disjunct %d"
        (index + 1) (by + 1)
  | Minimize { index; atoms_before; atoms_after; vars_before; vars_after } ->
      Printf.sprintf
        "minimize disjunct %d to its #core: %d -> %d atoms, %d -> %d \
         variables"
        (index + 1) atoms_before atoms_after vars_before vars_after

let describe (r : report) : string =
  let sb, sa = expansion_subsets r in
  let header =
    if not r.changed then
      Printf.sprintf "no rewrite applies (%d disjuncts, %d atoms)%s"
        (Ucq.length r.original)
        (Ucq.num_atoms r.original)
        (if r.complete then "" else " [analysis incomplete: budget]")
    else
      Printf.sprintf
        "rewrote %d -> %d disjuncts, %d -> %d atoms, %d -> %d IE subsets%s"
        (Ucq.length r.original)
        (Ucq.length r.optimized)
        (Ucq.num_atoms r.original)
        (Ucq.num_atoms r.optimized)
        sb sa
        (if r.complete then "" else " [analysis incomplete: budget]")
  in
  String.concat "\n" (header :: List.map describe_rewrite r.rewrites)

let diagnostics ?(env : Parse.query_env option)
    ?(span : Diagnostic.span option) (r : report) : Diagnostic.t list =
  let of_rewrite = function
    | Drop_subsumed { index; by; map } ->
        Diagnostic.make ?span
          ~witness:
            (Diagnostic.Hom_witness { source = by; target = index; map })
          "UCQ401"
          "dropped disjunct %d: subsumed by disjunct %d (verified witness \
           homomorphism)"
          (index + 1) (by + 1)
    | Drop_duplicate { index; by; map } ->
        Diagnostic.make ?span
          ~witness:
            (Diagnostic.Hom_witness { source = by; target = index; map })
          "UCQ402"
          "dropped disjunct %d: homomorphically equivalent to disjunct %d"
          (index + 1) (by + 1)
    | Minimize { index; atoms_before; atoms_after; vars_before; vars_after }
      ->
        Diagnostic.make ?span "UCQ403"
          "minimized disjunct %d to its #core: %d -> %d atoms, %d -> %d \
           variables"
          (index + 1) atoms_before atoms_after vars_before vars_after
  in
  let ds = List.map of_rewrite r.rewrites in
  if not r.changed then ds
  else
    let fix =
      Option.map
        (fun at ->
          {
            Diagnostic.description =
              "apply the count-preserving rewrite (cover + #core \
               minimization)";
            replacements =
              [ { Diagnostic.at; text = Pretty.ucq ?env r.optimized } ];
          })
        span
    in
    ds
    @ [
        Diagnostic.make ?span ?fix "UCQ404"
          "query rewritten: %d -> %d disjuncts, %d -> %d atoms \
           (count-preserving; answer set unchanged)"
          (Ucq.length r.original)
          (Ucq.length r.optimized)
          (Ucq.num_atoms r.original)
          (Ucq.num_atoms r.optimized);
      ]

let rewrite_to_json (rw : rewrite) : Trace_json.t =
  let num i = Trace_json.Num (float_of_int i) in
  match rw with
  | Drop_subsumed { index; by; _ } ->
      Trace_json.Obj
        [
          ("kind", Trace_json.Str "drop_subsumed");
          ("index", num index);
          ("by", num by);
        ]
  | Drop_duplicate { index; by; _ } ->
      Trace_json.Obj
        [
          ("kind", Trace_json.Str "drop_duplicate");
          ("index", num index);
          ("by", num by);
        ]
  | Minimize { index; atoms_before; atoms_after; vars_before; vars_after } ->
      Trace_json.Obj
        [
          ("kind", Trace_json.Str "minimize");
          ("index", num index);
          ("atomsBefore", num atoms_before);
          ("atomsAfter", num atoms_after);
          ("varsBefore", num vars_before);
          ("varsAfter", num vars_after);
        ]

let report_to_json ?(env : Parse.query_env option) (r : report) :
    Trace_json.t =
  let num i = Trace_json.Num (float_of_int i) in
  let sb, sa = expansion_subsets r in
  Trace_json.Obj
    [
      ("original", Trace_json.Str (Pretty.ucq ?env r.original));
      ("optimized", Trace_json.Str (Pretty.ucq ?env r.optimized));
      ("changed", Trace_json.Bool r.changed);
      ("complete", Trace_json.Bool r.complete);
      ("disjunctsBefore", num (Ucq.length r.original));
      ("disjunctsAfter", num (Ucq.length r.optimized));
      ("atomsBefore", num (Ucq.num_atoms r.original));
      ("atomsAfter", num (Ucq.num_atoms r.optimized));
      ("subsetsBefore", num sb);
      ("subsetsAfter", num sa);
      ("kept", Trace_json.Arr (List.map num r.kept));
      ("rewrites", Trace_json.Arr (List.map rewrite_to_json r.rewrites));
    ]

let with_tier_change (r : Analysis.report) (psi : Ucq.t) : Analysis.report =
  match r.Analysis.update_tier with
  | None -> r
  | Some sel ->
      let orep = run psi in
      let sel' = Tier.select orep.optimized in
      if orep.changed && sel'.Tier.tier <> sel.Tier.tier then
        let d =
          Diagnostic.make "UCQ405"
            "maintenance tier changes under --optimize: tier %s as written, \
             tier %s after the count-preserving rewrite (%s)"
            (Tier.to_string sel.Tier.tier)
            (Tier.to_string sel'.Tier.tier)
            sel'.Tier.reason
        in
        {
          r with
          Analysis.diagnostics =
            List.sort Diagnostic.compare (d :: r.Analysis.diagnostics);
        }
      else r
