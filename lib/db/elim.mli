(** One variable-elimination engine for every per-term count: the
    relations a term names are copied once per call into flat [int]
    arrays, and variables are eliminated one at a time by a hash join
    fused with a hash group-by, which counts joined rows without
    building them (DESIGN.md §15). *)

(** The elimination order, which also fixes the budget charged. *)
type order =
  | Projecting
      (** quantified variables first, each projected away (an answer
          counts once, however many witnesses it has): next the one in
          the fewest factors, first in [Cq.quantified] on ties; then the
          free variables are summed out *)
  | Summing
      (** every variable summed out (a homomorphism count: valid on
          quantifier-free terms only): next the one whose factors hold
          the fewest rows, lowest variable on ties *)
  | Acyclic
      (** GYO order on quantifier-free terms: a variable private to one
          factor is summed out of it, a factor inside another is
          multiplied into it; linear in [|D|] on an acyclic term
          (Theorems 4/37) *)

(** [count ?budget order q d] is [ans((A, X) → D)] under [order] (for
    [Summing] and [Acyclic], [hom(A → D)], which equals it on
    quantifier-free terms).  [Projecting] charges [1 + |join|] steps per
    quantified variable, [Summing] per variable, [|join|] being the
    number of rows the join of the factors mentioning the variable has;
    [Acyclic] and the free phase of [Projecting] charge nothing.
    @raise Budget.Exhausted when the budget runs out. *)
val count : ?budget:Budget.t -> order -> Cq.t -> Structure.t -> int
