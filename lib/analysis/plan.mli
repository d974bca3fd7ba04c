(** Static cost prediction: which algorithm {!Runner.count} would select
    and what it would cost.

    The expansion phase — the [2^ℓ · poly(|Ψ|)] preprocessing shared by
    {!Runner.count}'s default [Expansion] method — is predicted
    {e exactly}: step budgets are deterministic and {!predict} meters the
    same code path.  The per-term counting phase depends on the database
    and is estimated from acyclicity and treewidth bounds
    (calibrated in EXPERIMENTS.md, E16). *)

(** Profile of one surviving expansion term (#equivalence class with
    non-zero coefficient [c_Ψ]). *)
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

(** [predict ?budget psi] profiles the expansion, metering its exact
    deterministic step cost on a private budget; the consumed steps are
    charged to [?budget], whose remaining allowance also caps the run.
    The plan keeps the support it profiled ([support_terms]), so a
    count can evaluate it without expanding again.
    @raise Budget.Exhausted when [?budget] cannot pay for the
    expansion. *)
val predict : ?budget:Budget.t -> Ucq.t -> t

(** [term_cost ~db_elems ~db_tuples info] estimates the budget ticks of
    counting one support term on a database with [db_elems] elements and
    [db_tuples] tuples. *)
val term_cost : db_elems:int -> db_tuples:int -> term_info -> float

(** [rep_cost ~db_elems ~db_tuples q] is {!term_cost} for a bare
    expansion representative (its profile is computed on the spot) — the
    scheduling hook the Runner passes to
    [Ucq.count_terms ~term_cost] so the pool bin-packs terms
    largest-first by the calibrated estimate. *)
val rep_cost : db_elems:int -> db_tuples:int -> Cq.t -> float

(** [cost ~db_elems ~db_tuples plan] estimates the total ticks of
    [Runner.count ~via:Expansion]: exact expansion cost plus estimated
    per-term counting cost. *)
val cost : db_elems:int -> db_tuples:int -> t -> float

(** [try_cost ?max_steps ~db_elems ~db_tuples psi] is {!predict}
    followed by {!cost}, with the profiling capped at [max_steps]
    (default 200k) ticks on a private budget.  [None] when the cap is
    hit — the query is too large to profile cheaply, so callers on a
    latency path (the server's drift tracker) skip the prediction
    instead of paying for it.  Never raises {!Budget.Exhausted}. *)
val try_cost :
  ?max_steps:int ->
  db_elems:int ->
  db_tuples:int ->
  Ucq.t ->
  float option

(** What {!Runner.count} is predicted to do under a given budget. *)
type outcome = Exact | Fallback

val outcome_to_string : outcome -> string

(** [predicted_outcome ?max_steps ~db_elems ~db_tuples plan] predicts
    whether [Runner.count] completes exactly under a [max_steps] step
    budget ([None]: unlimited) or degrades to the Karp–Luby estimate.
    Anchored by two certain cases: no limit always completes; a limit at
    or below the exactly-known expansion cost always exhausts. *)
val predicted_outcome :
  ?max_steps:int -> db_elems:int -> db_tuples:int -> t -> outcome

(** [describe plan] is the one-line [UCQ301] report body. *)
val describe : t -> string

val to_json : t -> Trace_json.t
