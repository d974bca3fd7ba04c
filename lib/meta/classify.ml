(** Structural analysis of UCQs for the fixed-parameter-tractability
    classifications of Theorems 1, 2 and 3.

    The theorems classify *classes* of UCQs by whether certain treewidth
    measures are bounded.  For a single UCQ we report all the relevant
    measures; for a parameterised family we report them along the
    parameter, exposing the (un)boundedness trend the theorems are about:

    - [combined_tw]: treewidth of [∧(Ψ)] — the Theorem 2/3 criterion;
    - [combined_contract_tw]: treewidth of [contract(∧(Ψ))] — the second
      Theorem 3 criterion;
    - [gamma_max_tw] and [gamma_max_contract_tw]: maxima over the #minimal
      support of the CQ expansion — the (unwieldy) Theorem 1 criterion
      [Γ(C)];
    - the side conditions (I)–(III) of Theorem 3 that the family can be
      checked against. *)

type report = {
  combined_tw : int;
  combined_contract_tw : int;
  gamma_max_tw : int;
  gamma_max_contract_tw : int;
  quantifier_free : bool;
  union_of_self_join_free : bool;
  num_quantified : int;
  num_disjuncts : int;
}

(** [analyze ?with_gamma psi] computes the report; the Γ measures require
    the [2^ℓ] expansion and can be disabled for large unions (they are then
    reported as [-1]). *)
let analyze ?(with_gamma = true) ?(pool : Pool.t option) (psi : Ucq.t) :
    report =
  let combined = Ucq.combined_all psi in
  let gamma_max_tw, gamma_max_contract_tw =
    if with_gamma then
      List.fold_left
        (fun (tw, ctw) (t : Ucq.expansion_term) ->
          ( max tw (Cq.treewidth ?pool t.representative),
            max ctw (Cq.contract_treewidth t.representative) ))
        (-1, -1) (Ucq.support psi)
    else (-1, -1)
  in
  {
    combined_tw = Cq.treewidth ?pool combined;
    combined_contract_tw = Cq.contract_treewidth combined;
    gamma_max_tw;
    gamma_max_contract_tw;
    quantifier_free = Ucq.is_quantifier_free psi;
    union_of_self_join_free = Ucq.is_union_of_self_join_free psi;
    num_quantified = Ucq.num_quantified psi;
    num_disjuncts = Ucq.length psi;
  }

(** Verdict for a *family* of UCQs sampled at increasing parameters, in the
    spirit of Theorems 2/3 (the family is assumed closed under deletions —
    callers assert this from the construction): FPT when the combined
    measures stay bounded along the samples; W[1]-hard evidence when they
    grow (given the side conditions); [Inconclusive] when growth is present
    but a side condition fails, in which case only the Theorem 1 criterion
    (the Γ measures) applies. *)
type verdict = Fpt | W1_hard | Inconclusive

type family_report = { samples : (int * report) list; verdict : verdict }

(** [analyze_family ?with_gamma family params] samples [family] at each
    parameter and derives the verdict.  "Growth" is read off the samples:
    the last combined measure strictly exceeding the first. *)
let analyze_family ?(with_gamma = true) (family : int -> Ucq.t)
    (params : int list) : family_report =
  let samples = List.map (fun p -> (p, analyze ~with_gamma (family p))) params in
  let reports = List.map snd samples in
  let first = List.hd reports and last = List.hd (List.rev reports) in
  let combined_growing =
    last.combined_tw > first.combined_tw
    || last.combined_contract_tw > first.combined_contract_tw
  in
  let all_quantifier_free = List.for_all (fun r -> r.quantifier_free) reports in
  let quantified_bounded = last.num_quantified <= first.num_quantified in
  let verdict =
    if not combined_growing then Fpt
    else if all_quantifier_free then
      (* Theorem 2: for deletion-closed quantifier-free classes, growth of
         tw(∧C) alone gives W[1]-hardness — no side conditions needed *)
      W1_hard
    else if
      (* Theorem 3: (II) bounded quantified variables (approximated by
         comparing first and last sample) and (III) self-join-freeness;
         (I) holds by construction for the families we ship *)
      List.for_all (fun r -> r.union_of_self_join_free) reports
      && quantified_bounded
    then W1_hard
    else Inconclusive
  in
  { samples; verdict }

(* ------------------------------------------------------------------ *)
(* Single conjunctive queries (Theorem 21, Chen–Mengel)               *)
(* ------------------------------------------------------------------ *)

(** Structural profile of a single conjunctive query, the data on which the
    Chen–Mengel classification (Theorem 21) and the linear-time criterion
    (Theorems 4/37) operate: everything is computed on the #core. *)
type cq_report = {
  core_tw : int; (** treewidth of the #core *)
  core_contract_tw : int; (** treewidth of the #core's contract *)
  core_acyclic : bool;
  core_quantifier_free : bool;
  was_minimal : bool; (** the input was already #minimal *)
}

(** [analyze_cq q] computes the profile.  Reading it through Theorem 21:
    a class of CQs is polynomial-time countable iff both [core_tw] and
    [core_contract_tw] stay bounded along the class; through Theorem 4: a
    single quantifier-free CQ is linear-time countable iff it is acyclic
    (its own #core, quantifier-free CQs being #minimal). *)
let analyze_cq (q : Cq.t) : cq_report =
  let was_minimal = Cq.is_sharp_minimal q in
  let core = if was_minimal then q else Cq.sharp_core q in
  {
    core_tw = Cq.treewidth core;
    core_contract_tw = Cq.contract_treewidth core;
    core_acyclic = Cq.is_acyclic core;
    core_quantifier_free = Cq.is_quantifier_free core;
    was_minimal;
  }
