(** Unions of conjunctive queries (Section 2.3): shared free variables,
    combined queries [∧(Ψ|J)] (Definition 23), the CQ expansion and
    coefficient function [c_Ψ] (Definition 25, Lemma 26), and the counting
    algorithms built on them. *)

type t

(** [make cqs] builds a union from CQs with identical free-variable sets
    and signatures; quantified variables are renamed apart so that
    [U(A_i) ∩ U(A_j) = X].
    @raise Invalid_argument on the empty list or mismatched disjuncts. *)
val make : Cq.t list -> t

(** [of_structures structures free] wraps structures sharing the free
    set. *)
val of_structures : Structure.t list -> int list -> t

val length : t -> int
val free : t -> int list
val disjunct_structures : t -> Structure.t list

(** [num_atoms psi] is the total atom count over all disjuncts. *)
val num_atoms : t -> int

(** [disjunct psi i] is [Ψ_i]. *)
val disjunct : t -> int -> Cq.t

val disjuncts : t -> Cq.t list

(** [size psi] is [|Ψ| = Σ_i |Ψ_i|]. *)
val size : t -> int

val arity : t -> int
val is_quantifier_free : t -> bool

(** [num_quantified psi] is [Σ_i |U(A_i) \ X|]. *)
val num_quantified : t -> int

(** [restrict psi j] is [Ψ|_J].
    @raise Invalid_argument on the empty index set. *)
val restrict : t -> int list -> t

(** [combined psi j] is [∧(Ψ|_J)] (Definition 23). *)
val combined : t -> int list -> Cq.t

(** [combined_all psi] is [∧(Ψ)]. *)
val combined_all : t -> Cq.t

(** [deletion_closure psi] lists every [Ψ|_J], [∅ ≠ J ⊆ [ℓ]]. *)
val deletion_closure : t -> t list

val is_union_of_acyclic : t -> bool

(** Condition (III) of Theorem 3. *)
val is_union_of_self_join_free : t -> bool

(** {2 Counting answers} *)

(** [count_naive ?budget ?pool psi d] enumerates assignments lazily —
    the reference oracle.  Every budgeted counter in this module raises
    {!Budget.Exhausted} from its hot loop when the budget runs out; catch
    it only at an engine boundary.  A parallel [?pool] splits the
    assignment index space across domains; [jobs = 1] (or no pool) keeps
    the sequential behaviour bit-for-bit. *)
val count_naive : ?budget:Budget.t -> ?pool:Pool.t -> t -> Structure.t -> int

(** [count_inclusion_exclusion ?strategy ?budget ?pool psi d] evaluates
    [Σ_(∅≠J) (-1)^(|J|+1) ans(∧(Ψ|J) → D)] (proof of Lemma 26).  Each
    signed term is an independent per-CQ count fanned out on the pool;
    the sum is reduced in bitmask order for every job count. *)
val count_inclusion_exclusion :
  ?strategy:Counting.strategy ->
  ?budget:Budget.t ->
  ?pool:Pool.t ->
  t ->
  Structure.t ->
  int

(** {2 The CQ expansion (Definition 25, Lemma 26)} *)

(** One #equivalence class: a #minimal representative (the class #core)
    with its coefficient [c_Ψ]. *)
type expansion_term = { representative : Cq.t; coefficient : int }

(** [expansion ?budget psi] groups the combined queries of all nonempty
    [J] by #equivalence and sums the signs; zero-coefficient classes are
    retained, in order of first appearance in bitmask order.  The walk
    ticks the budget once per index set but computes a #core only per
    new (class, disjunct) transition: hom-equivalence fixing [X]
    pointwise is a congruence for [∧], so the class of [∧(Ψ|J)] follows
    from the class of [J] without its highest index.  The result equals
    {!expansion_by_subsets} element for element.
    @raise Invalid_argument for 62 or more disjuncts. *)
val expansion : ?budget:Budget.t -> t -> expansion_term list

(** [expansion_by_subsets ?budget psi] is the reference for
    {!expansion}: one #core per nonempty index set ([2^ℓ − 1] of them),
    grouped by a linear scan.  The test oracle only.
    @raise Invalid_argument for 62 or more disjuncts. *)
val expansion_by_subsets : ?budget:Budget.t -> t -> expansion_term list

(** [terms_equal a b]: the same terms in the same order, with
    syntactically equal ({!Cq.equal}) representatives. *)
val terms_equal : expansion_term list -> expansion_term list -> bool

(** [support ?budget psi] is the expansion restricted to non-zero
    coefficients. *)
val support : ?budget:Budget.t -> t -> expansion_term list

(** [coefficient psi q] is [c_Ψ(A, X)] for the class of [q]. *)
val coefficient : t -> Cq.t -> int

(** [count_terms ?strategy ?budget ?pool ?term_cost terms d] evaluates
    the Lemma 26 linear combination [Σ c · ans(A → D)] over [terms] (a
    support, as returned by {!support} or held by a plan), one pool task
    per term with non-zero coefficient.  [term_cost] ranks terms for the
    pool's largest-first placement (default: a syntactic size proxy); it
    never affects the result, only the schedule. *)
val count_terms :
  ?strategy:Counting.strategy ->
  ?budget:Budget.t ->
  ?pool:Pool.t ->
  ?term_cost:(Cq.t -> float) ->
  expansion_term list ->
  Structure.t ->
  int

(** [count_via_expansion ?strategy ?budget ?pool ?term_cost psi d] is
    {!count_terms} over the expansion of [psi]. *)
val count_via_expansion :
  ?strategy:Counting.strategy ->
  ?budget:Budget.t ->
  ?pool:Pool.t ->
  ?term_cost:(Cq.t -> float) ->
  t ->
  Structure.t ->
  int

(** Exact arbitrary-precision variants (oracles for Theorem 28). *)
val count_via_expansion_big : t -> Structure.t -> Bigint.t

val count_inclusion_exclusion_big : t -> Structure.t -> Bigint.t

(** [is_exhaustively_q_hierarchical psi] checks the dynamic-counting
    criterion of [12] (Section 1.2): every [∧(Ψ|J)] q-hierarchical.
    Exponential in [ℓ]. *)
val is_exhaustively_q_hierarchical : t -> bool

val pp : Format.formatter -> t -> unit
