(** One variable-elimination engine for every per-term count: the
    relations a term names are copied once per call into flat [int]
    arrays, and variables are eliminated one at a time by a hash join
    fused with a hash group-by, which counts joined rows without
    building them (DESIGN.md §15). *)

(** A flat relation over some of a term's variables: [rows] distinct
    rows over the variables [cols], row-major in [data] (which may run
    past [rows * Array.length cols]). *)
type table = { cols : int array; rows : int; data : int array }

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

(** [count ?budget ?restrict order q d] is [ans((A, X) → D)] under
    [order] (for [Summing] and [Acyclic], [hom(A → D)], which equals it
    on quantifier-free terms).  [Projecting] charges [1 + |join|] steps
    per quantified variable, [Summing] per variable, [|join|] being the
    number of rows the join of the factors mentioning the variable has;
    [Acyclic] and the free phase of [Projecting] charge nothing.

    With [restrict], the assignments counted are those that agree with
    one of its rows on its variables: each atom keeps only the rows that
    agree with it on their shared variables, and it joins the
    elimination as one more factor, leading every join it enters; the
    factors after it follow in a connected order, each sharing a
    variable with those before it where one can.  An atom left with no
    row (a fully bound atom that does not hold) makes the count 0 before
    any elimination.  A restricted join charges 1 plus each joined row
    and each missed probe (a partial row no row of the next factor
    extends), one at a time as it finds them, so a budget stops it
    part-way, and its charge bounds its probes up to the number of
    factors joined.
    @raise Budget.Exhausted when the budget runs out.
    @raise Invalid_argument when [restrict] names a variable twice or
    one the term does not have. *)
val count : ?budget:Budget.t -> ?restrict:table -> order -> Cq.t -> Structure.t -> int

(** [answers ?budget ?restrict q d] is the answer set [Ans((A, X) → D)]
    (restricted as in {!count}) as a table over [Cq.free q], in that
    order, built by the [Projecting] order: the quantified variables are
    projected away, charged as in {!count}, then the factors left are
    joined in a connected order, charged as a restricted join.
    @raise Budget.Exhausted when the budget runs out. *)
val answers : ?budget:Budget.t -> ?restrict:table -> Cq.t -> Structure.t -> table

(** [union cols ts] is the distinct rows of the tables [ts], all over
    [cols].
    @raise Invalid_argument when a table has other columns. *)
val union : int array -> table list -> table
