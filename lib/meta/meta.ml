(** The META decision algorithm (Lemma 38 / Theorem 5) and the hereditary
    treewidth of a UCQ (Definition 57).

    META asks: can the answers to a given union of quantifier-free
    conjunctive queries be counted in time linear in the database?
    Assuming SETH or the Triangle Conjecture, the answer is yes iff every
    #minimal conjunctive query surviving in the CQ expansion with a
    non-zero coefficient is acyclic (Theorem 37 + complexity monotonicity,
    Corollary 29).  The algorithm below computes the expansion in
    [2^ℓ · poly(|Ψ|)] time and checks acyclicity of each support term —
    the paper's hardness results (Lemmas 51–53) show this exponential
    dependence on [ℓ] is essentially optimal. *)

type decision = {
  linear_time : bool;
      (** [true] iff counting answers to [Ψ] is linear-time possible
          (conditionally on SETH / the Triangle Conjecture) *)
  support : (Cq.t * int) list;
      (** the support of [c_Ψ]: #minimal representatives and their
          non-zero coefficients *)
  offending : Cq.t list;
      (** the cyclic support terms witnessing non-linearity (empty iff
          [linear_time]) *)
}

(** [decide ?budget psi] runs the META algorithm.
    @raise Invalid_argument if [psi] has quantified variables (META is
    defined for quantifier-free inputs; with quantifiers the meta problem
    is NP-hard even for single CQs, see Section 1.1). *)
let decide ?(budget : Budget.t option) (psi : Ucq.t) : decision =
  if not (Ucq.is_quantifier_free psi) then
    invalid_arg "Meta.decide: input must be quantifier-free";
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (Ucq.length psi)) ])
    "meta.decide"
  @@ fun () ->
  let support =
    List.map
      (fun (t : Ucq.expansion_term) -> (t.representative, t.coefficient))
      (Ucq.support ?budget psi)
  in
  let offending =
    List.filter_map
      (fun (q, _) -> if Cq.is_acyclic q then None else Some q)
      support
  in
  { linear_time = offending = []; support; offending }

(** [hereditary_treewidth ?budget psi] is [hdtw(Ψ)] (Definition 57): the
    maximum treewidth over the support of [c_Ψ]. *)
let hereditary_treewidth ?(budget : Budget.t option) ?(pool : Pool.t option)
    (psi : Ucq.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (Ucq.length psi)) ])
    "meta.hdtw"
  @@ fun () ->
  List.fold_left
    (fun acc (t : Ucq.expansion_term) ->
      if t.coefficient = 0 then acc
      else max acc (Cq.treewidth ?budget ?pool t.representative))
    (-1)
    (Ucq.expansion ?budget psi)

(** [support_treewidth_bounds terms] is the polynomial-per-term variant
    of {!hereditary_treewidth} used by the approximation algorithm of
    Theorem 7, over an already computed expansion: instead of exact
    treewidth it computes, for each term with non-zero coefficient, the
    minor-min-width lower bound and the min-fill/min-degree heuristic
    upper bound, returning the maxima [(lo, hi)] with
    [lo ≤ hdtw(Ψ) ≤ hi].  (The paper invokes the Feige–Hajiaghayi–Lee
    [O(sqrt(log k))]-approximation here; our heuristic pair plays that
    role and its gap is reported by the benchmarks.) *)
let support_treewidth_bounds (terms : Ucq.expansion_term list) : int * int =
  List.fold_left
    (fun (lo, hi) (t : Ucq.expansion_term) ->
      if t.coefficient = 0 then (lo, hi)
      else begin
        let g, _ = Structure.gaifman (Cq.structure t.representative) in
        let lb = Treewidth.lower_bound g in
        let ub, _ = Treewidth.heuristic g in
        (max lo lb, max hi ub)
      end)
    (-1, -1) terms

(** [hereditary_treewidth_bounds ?budget psi] is
    {!support_treewidth_bounds} over the expansion of [psi]. *)
let hereditary_treewidth_bounds ?(budget : Budget.t option) (psi : Ucq.t) :
    int * int =
  support_treewidth_bounds (Ucq.expansion ?budget psi)

(** Outcome of the gap problem META[c, d] (Definition 54), decided through
    hereditary treewidth: support terms of treewidth ≤ c are countable in
    [O(|D|^c)] (combine Lemma 26 with the [n^{tw+1}] dynamic program; for
    [c = 1], acyclicity gives the exact linear-time criterion), while a
    support term of treewidth > d is (conditionally) a witness that
    [O(|D|^d)] is impossible. *)
type gap_outcome = Within_c | Beyond_d | Between

(** [gap ?budget ~c ~d psi] classifies [psi] for META[c, d] ([1 ≤ c ≤ d]). *)
let gap ?(budget : Budget.t option) ?(pool : Pool.t option) ~(c : int)
    ~(d : int) (psi : Ucq.t) : gap_outcome =
  if c < 1 || d < c then invalid_arg "Meta.gap";
  if not (Ucq.is_quantifier_free psi) then
    invalid_arg "Meta.gap: input must be quantifier-free";
  if c = 1 then begin
    if (decide ?budget psi).linear_time then Within_c
    else begin
      let h = hereditary_treewidth ?budget ?pool psi in
      if h > d then Beyond_d else Between
    end
  end
  else begin
    let h = hereditary_treewidth ?budget ?pool psi in
    if h <= c then Within_c else if h > d then Beyond_d else Between
  end
