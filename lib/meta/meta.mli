(** The META decision procedure (Lemma 38 / Theorem 5), hereditary
    treewidth (Definition 57), and the gap problem META[c,d]
    (Definition 54). *)

type decision = {
  linear_time : bool;
      (** counting answers is linear-time possible, conditionally on SETH /
          the Triangle Conjecture *)
  support : (Cq.t * int) list;
      (** the non-vanishing #minimal classes of the CQ expansion *)
  offending : Cq.t list;
      (** the cyclic support terms (empty iff [linear_time]) *)
}

(** [decide ?budget psi] runs META in [2^ℓ · poly(|Ψ|)] time.
    @raise Invalid_argument on inputs with quantified variables (META is
    defined for quantifier-free unions; with quantifiers the meta problem
    is NP-hard already for single CQs).
    @raise Budget.Exhausted when the resource budget runs out. *)
val decide : ?budget:Budget.t -> Ucq.t -> decision

(** [hereditary_treewidth ?budget psi] is [hdtw(Ψ)] (Definition 57): the
    maximum treewidth over the support of [c_Ψ].
    @raise Budget.Exhausted when the resource budget runs out. *)
val hereditary_treewidth : ?budget:Budget.t -> ?pool:Pool.t -> Ucq.t -> int

(** [support_treewidth_bounds terms] is the Theorem 7 bound pair
    [(lo, hi)] over the non-zero terms of an already computed expansion
    (the polynomial per-term heuristics only; nothing is budgeted). *)
val support_treewidth_bounds : Ucq.expansion_term list -> int * int

(** [hereditary_treewidth_bounds ?budget psi] is the polynomial-per-term
    approximation pair [(lo, hi)] with [lo ≤ hdtw(Ψ) ≤ hi] (the Theorem 7
    regime).  Only the expansion is budgeted; the per-term heuristics are
    polynomial. *)
val hereditary_treewidth_bounds : ?budget:Budget.t -> Ucq.t -> int * int

type gap_outcome = Within_c | Beyond_d | Between

(** [gap ?budget ~c ~d psi] classifies for META[c, d] (Definition 54),
    [1 ≤ c ≤ d], through acyclicity (c = 1) and hereditary treewidth. *)
val gap :
  ?budget:Budget.t -> ?pool:Pool.t -> c:int -> d:int -> Ucq.t -> gap_outcome
