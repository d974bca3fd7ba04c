(** Static cost prediction: which algorithm {!Runner.count} would select
    for a query, and what it would cost.

    The expansion phase is predicted {e exactly}: step budgets are
    deterministic, and {!predict} runs the very same
    [Ucq.expansion ~budget] code path {!Runner.count} does (via
    [Expansion], its default), metering the tick count.  Only the
    per-term counting phase — whose cost depends on the database — is
    estimated, from acyclicity and treewidth bounds of each support
    term. *)

(** Profile of one surviving expansion term (#equivalence class with
    non-zero coefficient). *)
type term_info = {
  coefficient : int;
  atoms : int;  (** tuples of the representative's structure *)
  vars : int;  (** universe size of the representative *)
  acyclic : bool;
  quantifier_free : bool;
  free_connex : bool;
  tw_lower : int;  (** Gaifman treewidth lower bound ([-1]: no vertices) *)
  tw_upper : int;  (** Gaifman treewidth upper bound *)
  tw_exact : bool;  (** the bounds coincide by an exact computation *)
}

type t = {
  disjuncts : int;  (** ℓ *)
  subsets : int;  (** [2^ℓ - 1] inclusion–exclusion terms *)
  expansion_steps : int;
      (** exact deterministic tick count of [Ucq.expansion] *)
  support : term_info list;  (** non-zero-coefficient classes *)
  support_terms : Ucq.expansion_term list;
      (** the same classes' representatives and coefficients, in the
          same order: what a count evaluates *)
  dropped : int;  (** zero-coefficient classes (computed, then skipped) *)
  max_tw_upper : int;  (** [max] over support of [tw_upper] ([-1] if empty) *)
  all_acyclic : bool;  (** every support term acyclic *)
}

(* Exact treewidth is exponential; only sharpen the heuristic bounds on
   query-sized graphs. *)
let exact_tw_gate = 10

let term_info ?budget (t : Ucq.expansion_term) : term_info =
  let s = Cq.structure t.Ucq.representative in
  let g, _ = Structure.gaifman s in
  let n = Graph.num_vertices g in
  let tw_lower, tw_upper, tw_exact =
    if n = 0 then (-1, -1, true)
    else
      let lo = Treewidth.lower_bound g in
      let hi, _ = Treewidth.heuristic g in
      if lo = hi then (lo, hi, true)
      else if n <= exact_tw_gate then
        let w = Treewidth.treewidth ?budget g in
        (w, w, true)
      else (lo, hi, false)
  in
  {
    coefficient = t.Ucq.coefficient;
    atoms = Structure.num_tuples s;
    vars = Structure.universe_size s;
    acyclic = Cq.is_acyclic t.Ucq.representative;
    quantifier_free = Cq.is_quantifier_free t.Ucq.representative;
    free_connex = Cq.is_free_connex t.Ucq.representative;
    tw_lower;
    tw_upper;
    tw_exact;
  }

(** [predict ?budget psi] profiles the expansion.  The expansion is
    metered on a private step budget (so [expansion_steps] is exact even
    when the caller's budget is unlimited); the consumed steps are then
    charged to [?budget], whose remaining allowance also caps the run.
    @raise Budget.Exhausted when [?budget] cannot pay for the
    expansion. *)
let predict ?(budget : Budget.t option) (psi : Ucq.t) : t =
  let allowance =
    match budget with
    | None -> max_int
    | Some b -> (
        match Budget.remaining_steps b with None -> max_int | Some r -> r)
  in
  let meter = Budget.of_steps allowance in
  Budget.set_phase meter "plan.expansion";
  let terms =
    match Budget.run meter ~phase:"plan.expansion" (fun () ->
            Ucq.expansion ~budget:meter psi)
    with
    | Ok terms ->
        Budget.ticks_opt budget (Budget.steps_done meter);
        terms
    | Error e ->
        Budget.ticks_opt budget (Budget.steps_done meter);
        raise (Budget.Exhausted e)
  in
  let expansion_steps = Budget.steps_done meter in
  let support_terms, dropped =
    List.partition (fun t -> t.Ucq.coefficient <> 0) terms
  in
  let support = List.map (term_info ?budget) support_terms in
  let disjuncts = Ucq.length psi in
  {
    disjuncts;
    subsets = (if disjuncts < 62 then (1 lsl disjuncts) - 1 else max_int);
    expansion_steps;
    support;
    support_terms;
    dropped = List.length dropped;
    max_tw_upper = List.fold_left (fun m t -> max m t.tw_upper) (-1) support;
    all_acyclic = List.for_all (fun t -> t.acyclic) support;
  }

(* ------------------------------------------------------------------ *)
(* Database-dependent cost estimation                                 *)
(* ------------------------------------------------------------------ *)

(* The model mirrors the Counting.Auto dispatch and its actual tick
   sites, calibrated by tools/plan_eval.exe against Runner.count on the
   Qgen corpus (EXPERIMENTS.md, E16): acyclic quantifier-free terms go
   to the linear-time join-tree counter, which only re-checks limits on
   entry (so ~1 tick for the per-term dispatch); everything else runs a
   variable elimination that ticks [1 + rows] per eliminated variable,
   with intermediate rows bounded by both the join of two input
   relations and the [n^(tw+1)] bag bound. *)

(** [term_cost ~db_elems ~db_tuples info] estimates the budget ticks of
    counting one support term on a database with [db_elems] elements and
    [db_tuples] tuples. *)
let term_cost ~(db_elems : int) ~(db_tuples : int) (info : term_info) : float =
  if info.acyclic && info.quantifier_free then 1.0
  else
    let n = float_of_int (max 2 db_elems) in
    let m = float_of_int (max 1 db_tuples) in
    let width = float_of_int (max 1 (info.tw_upper + 1)) in
    let rows = Float.min (m *. n) (n ** width) in
    float_of_int (info.vars + 1) *. (1.0 +. rows)

(** [rep_cost ~db_elems ~db_tuples q] is {!term_cost} for a bare
    representative: the hook the Runner hands to the pool so expansion
    terms are bin-packed largest-first by the calibrated estimate
    (EXPERIMENTS.md, E16) instead of a syntactic proxy. *)
let rep_cost ~(db_elems : int) ~(db_tuples : int) (q : Cq.t) : float =
  term_cost ~db_elems ~db_tuples
    (term_info { Ucq.representative = q; Ucq.coefficient = 1 })

(** [cost ~db_elems ~db_tuples plan] estimates the total ticks of
    [Runner.count ~via:Expansion]: the exact expansion cost plus the
    estimated per-term counting cost. *)
let cost ~(db_elems : int) ~(db_tuples : int) (plan : t) : float =
  List.fold_left
    (fun acc info -> acc +. term_cost ~db_elems ~db_tuples info)
    (float_of_int plan.expansion_steps)
    plan.support

(** [try_cost ?max_steps ~db_elems ~db_tuples psi] is {!predict}
    followed by {!cost}, with the profiling itself capped at [max_steps]
    ticks: [None] when the query is too large to profile within the cap
    — the caller (the server's drift tracker) treats that as "no
    prediction" rather than burning evaluator time on the predictor. *)
let try_cost ?(max_steps = 200_000) ~(db_elems : int) ~(db_tuples : int)
    (psi : Ucq.t) : float option =
  match predict ~budget:(Budget.of_steps max_steps) psi with
  | plan -> Some (cost ~db_elems ~db_tuples plan)
  | exception Budget.Exhausted _ -> None

type outcome = Exact | Fallback

let outcome_to_string = function
  | Exact -> "exact count via expansion"
  | Fallback -> "budget exhaustion, degrading to Karp-Luby estimate"

(** [predicted_outcome ?max_steps ~db_elems ~db_tuples plan] predicts
    whether [Runner.count] completes exactly under a [max_steps] budget
    or degrades to the Karp–Luby estimate.  Two certain cases anchor the
    prediction: no step limit always completes, and a limit at or below
    the (exactly known) expansion cost always exhausts. *)
let predicted_outcome ?(max_steps : int option) ~(db_elems : int)
    ~(db_tuples : int) (plan : t) : outcome =
  match max_steps with
  | None -> Exact
  | Some m ->
      if plan.expansion_steps >= m then Fallback
      else if cost ~db_elems ~db_tuples plan <= float_of_int m then Exact
      else Fallback

(** [describe plan] is the one-line [UCQ301] report body: selected
    algorithm, support profile, and asymptotic cost. *)
let describe (plan : t) : string =
  let terms = List.length plan.support in
  let shape =
    if terms = 0 then "empty support: the count is identically 0"
    else if plan.all_acyclic then
      Printf.sprintf "all %d acyclic, per-term cost O(|D| log |D|)" terms
    else
      Printf.sprintf "%d term%s, max treewidth bound %d, per-term cost O(n^%d)"
        terms
        (if terms = 1 then "" else "s")
        plan.max_tw_upper (plan.max_tw_upper + 1)
  in
  Printf.sprintf
    "count --via expansion: %d disjunct%s -> %d subset%s -> %d support \
     class%s (%d dropped); expansion costs %d steps; %s"
    plan.disjuncts
    (if plan.disjuncts = 1 then "" else "s")
    plan.subsets
    (if plan.subsets = 1 then "" else "s")
    (List.length plan.support)
    (if terms = 1 then "" else "es")
    plan.dropped plan.expansion_steps shape

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let term_to_json (i : term_info) : Trace_json.t =
  Trace_json.Obj
    [
      ("coefficient", Trace_json.Num (float_of_int i.coefficient));
      ("atoms", Trace_json.Num (float_of_int i.atoms));
      ("vars", Trace_json.Num (float_of_int i.vars));
      ("acyclic", Trace_json.Bool i.acyclic);
      ("quantifierFree", Trace_json.Bool i.quantifier_free);
      ("freeConnex", Trace_json.Bool i.free_connex);
      ("twLower", Trace_json.Num (float_of_int i.tw_lower));
      ("twUpper", Trace_json.Num (float_of_int i.tw_upper));
      ("twExact", Trace_json.Bool i.tw_exact);
    ]

let to_json (p : t) : Trace_json.t =
  Trace_json.Obj
    [
      ("disjuncts", Trace_json.Num (float_of_int p.disjuncts));
      ("subsets", Trace_json.Num (float_of_int p.subsets));
      ("expansionSteps", Trace_json.Num (float_of_int p.expansion_steps));
      ("support", Trace_json.Arr (List.map term_to_json p.support));
      ("dropped", Trace_json.Num (float_of_int p.dropped));
      ("maxTwUpper", Trace_json.Num (float_of_int p.max_tw_upper));
      ("allAcyclic", Trace_json.Bool p.all_acyclic);
      ("description", Trace_json.Str (describe p));
    ]
