(** One variable-elimination engine for every per-term count: the
    relations a term names are copied once per call into flat [int]
    arrays, and variables are eliminated one at a time by a hash join
    fused with a hash group-by, which counts joined rows without
    building them (DESIGN.md §15).  The same copies give a term's
    answers as a flat table, and the reduced join tree that enumeration
    and sampling walk. *)

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

(** [mem t] indexes the rows of [t] once and tests a row over [t.cols]
    against them; the test is read-only, so domains may share it. *)
val mem : table -> int array -> bool

(** {1 The reduced join tree}

    The answers of an acyclic quantifier-free term, for enumeration and
    sampling (Carmeli–Kröll; Arenas et al.): one node per atom over the
    factor {!count} copies, parents before children.  A row is {e live}
    when every child of its node has a live row agreeing with it;
    liveness does not read the counts.  Each node buckets its live rows
    by the variables it shares with its parent (the root's all fall in
    one bucket), so every live row of a bucket extends to an answer. *)

type node = {
  vars : int array;  (** the atom's distinct variables, as positions in [Cq.free] *)
  data : int array;  (** its rows over [vars], row-major *)
  find : int array -> int;
      (** the bucket an assignment (indexed by variable) selects on the
          variables shared with the parent, or [-1] when it has no live row *)
  start : int array;
  live : int array;
      (** bucket [b]'s live rows are [live.(start.(b)) .. live.(start.(b + 1) - 1)] *)
  acc : int array;
      (** per place [p] in [live], the running sum over its bucket, up
          to [live.(p)], of each row's {e count}: the assignments of its
          subtree's variables that extend it (native ints: past 2{^62}
          they wrap).  A bucket's last place holds its total. *)
}

type tree = {
  nodes : node array;
  free : int array;  (** the term's variables, sorted: [Cq.free] *)
  spread : int array;  (** the variables in no atom, each ranging over [universe] *)
  universe : int array;
  total : int;  (** the number of answers (wraps past 2{^62}) *)
}

(** [tree q d] is the reduced join tree of [q] over [d], built without
    charge, or [None] when [q] is quantified or cyclic. *)
val tree : Cq.t -> Structure.t -> tree option
