(** The count-preserving UCQ cover optimizer (ROADMAP item 3).

    {!run} rewrites a union [Ψ = Ψ_1 ∨ … ∨ Ψ_ℓ] into an
    answer-equivalent union with fewer disjuncts and smaller disjuncts:

    - {b Cover computation} — a disjunct [Ψ_j] is dropped when a kept
      disjunct [Ψ_k] admits a homomorphism [A_k → A_j] fixing the free
      variables pointwise: every answer of [Ψ_j] is then an answer of
      [Ψ_k] (the UCQ104/UCQ106 analysis facts, promoted to rewrites).
      Shrinking ℓ attacks the [2^ℓ] inclusion–exclusion/expansion blowup
      directly, and collapses the #equivalence classes of expansion
      terms the Lemma 26 coefficient path would otherwise cancel at
      [2^ℓ] cost.
    - {b Per-disjunct minimization} — each survivor is replaced by its
      #core ({!Cq.sharp_core}, Definition 19): the retraction fixes the
      free variables pointwise, so the answer {e set} of the disjunct is
      unchanged.

    Soundness under partial knowledge: the homomorphism facts are
    gathered under a budget, so the matrix may have false negatives
    (exhausted searches).  The cover is therefore computed by a greedy
    sequential rule — drop [Ψ_j] only when a {e kept} earlier disjunct
    subsumes it, or a strictly later disjunct one-way subsumes it —
    whose justification chains always terminate at a kept disjunct.
    Missing facts can only make the optimizer keep more disjuncts,
    never drop a wrong one.

    {!run} is total and deterministic: it never raises, and for a fixed
    query, budget, and hint list it returns the identical report. *)

type rewrite =
  | Drop_subsumed of { index : int; by : int; map : (int * int) list }
      (** disjunct [index] dropped: [map] is a verified homomorphism
          [A_by → A_index] fixing the free variables (ans_index ⊆
          ans_by), with no known reverse homomorphism *)
  | Drop_duplicate of { index : int; by : int; map : (int * int) list }
      (** like {!Drop_subsumed} but homomorphically equivalent: a
          reverse homomorphism [A_index → A_by] is also known *)
  | Minimize of {
      index : int;
      atoms_before : int;
      atoms_after : int;
      vars_before : int;
      vars_after : int;
    }  (** disjunct [index] replaced by its strictly smaller #core *)

type report = {
  original : Ucq.t;
  optimized : Ucq.t;  (** physically [original] when [not changed] *)
  rewrites : rewrite list;
      (** drops in disjunct order, then minimizations in disjunct
          order; indices refer to the {e original} disjunct positions *)
  kept : int list;  (** original indices of the surviving disjuncts *)
  changed : bool;
  complete : bool;
      (** [false] when the budget exhausted a containment search or the
          #core gate skipped a large disjunct — some rewrites may have
          been missed (never wrongly applied) *)
}

(** The private step allowance when {!run} is called without a budget —
    optimization must terminate on adversarial input regardless. *)
val default_max_steps : int

(** Universe-size gate above which {!Cq.sharp_core} (unbudgeted,
    exponential) is not attempted. *)
val core_gate : int

(** [run ?budget ?hints psi] computes the cover and minimizes the
    survivors.  [hints] are analyzer diagnostics whose
    {!Diagnostic.witness} homomorphisms are re-verified in O(tuples) via
    {!Hom.verify} and seed the containment matrix, skipping those
    searches.  Never raises; any internal failure degrades to the
    identity report with [complete = false]. *)
val run : ?budget:Budget.t -> ?hints:Diagnostic.t list -> Ucq.t -> report

(** [identity psi] is the no-op report ([changed = false],
    [complete = false]). *)
val identity : Ucq.t -> report

val disjuncts_removed : report -> int

(** [atoms_removed r] is [num_atoms original - num_atoms optimized]. *)
val atoms_removed : report -> int

(** [expansion_subsets r] is the [2^ℓ - 1] inclusion–exclusion subset
    count before and after (clamped to [max_int] for ℓ ≥ 62). *)
val expansion_subsets : report -> int * int

val describe_rewrite : rewrite -> string

(** [describe r] is the multi-line human rewrite report of
    [ucqc optimize]. *)
val describe : report -> string

(** [diagnostics ?env ?span r] renders the applied rewrites as UCQ40x
    diagnostics: [UCQ401]/[UCQ402] per dropped disjunct (carrying the
    witness homomorphism), [UCQ403] per minimized disjunct, and — when
    the query changed — one [UCQ404] carrying the machine-applicable
    whole-query {!Diagnostic.fix} (present when [span] locates the
    original text). *)
val diagnostics :
  ?env:Parse.query_env ->
  ?span:Diagnostic.span ->
  report ->
  Diagnostic.t list

val rewrite_to_json : rewrite -> Trace_json.t

(** [report_to_json ?env r] is the [--format json] payload of
    [ucqc optimize]. *)
val report_to_json : ?env:Parse.query_env -> report -> Trace_json.t

(** [with_tier_change r psi] is the [check --optimize] step: when the
    rewrite of [psi] changes its update-maintenance tier from the one
    [r] reports (UCQ207's [update_tier]), [r] gains a UCQ405 finding
    naming both tiers; otherwise [r] is returned unchanged. *)
val with_tier_change : Analysis.report -> Ucq.t -> Analysis.report
