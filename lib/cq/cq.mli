(** Conjunctive queries as pairs [(A, X)] of a relational structure and a
    free-variable set (Section 2.2, following [28]): the central query
    object of the paper, with its structural measures (acyclicity,
    contracts, #cores) and the q-hierarchicality test of Section 1.2. *)

type t

(** [make structure free] validates [free ⊆ U(structure)] (the free set is
    kept sorted). *)
val make : Structure.t -> int list -> t

(** [of_structure a] is the quantifier-free query (all variables free). *)
val of_structure : Structure.t -> t

val structure : t -> Structure.t
val free : t -> int list

(** [quantified q] is [U(A) \ X]. *)
val quantified : t -> int list

val is_quantifier_free : t -> bool

(** [size q] is [|(A, X)| = |A| + |X|]. *)
val size : t -> int

val arity : t -> int
val equal : t -> t -> bool

(** [isomorphic q1 q2] is Definition 15 isomorphism (the witness maps
    [X] onto [X'] setwise). *)
val isomorphic : t -> t -> bool

(** [isomorphic_pointwise q1 q2] is isomorphism fixing every free
    variable (the identity on [X]); on quantifier-free queries it is
    equality. *)
val isomorphic_pointwise : t -> t -> bool

(** [is_self_join_free q]: every relation of [A] has at most one tuple. *)
val is_self_join_free : t -> bool

(** [is_acyclic q] is alpha-acyclicity of the atom hypergraph. *)
val is_acyclic : t -> bool

val isolated_variables : t -> int list

(** [drop_isolated_quantified q] removes isolated quantified variables
    (answer-preserving; the Lemma 34 normalisation). *)
val drop_isolated_quantified : t -> t

(** [treewidth ?budget q] is the treewidth of the Gaifman graph of [A].
    @raise Budget.Exhausted when the budget runs out mid-search. *)
val treewidth : ?budget:Budget.t -> ?pool:Pool.t -> t -> int

(** [is_free_connex q] decides free-connexity (footnote 2 of the paper):
    acyclic, and still acyclic after adding the free set as a hyperedge. *)
val is_free_connex : t -> bool

(** [contract q] is the contract of Definition 20, over densely re-indexed
    free variables (with the index → variable mapping). *)
val contract : t -> Graph.t * int array

val contract_treewidth : t -> int

(** [degree_of_freedom q y] is the number of free variables adjacent to the
    quantified variable [y] (proof of Lemma 35). *)
val degree_of_freedom : t -> int -> int

(** [is_sharp_minimal q] is #minimality via Observation 17 (3): every
    endomorphism of [A] fixing [X] pointwise is surjective. *)
val is_sharp_minimal : t -> bool

(** [sharp_core q] is the #core (Definition 19), unique up to isomorphism
    by Lemma 18. *)
val sharp_core : t -> t

(** [sharp_equivalent q1 q2] is #equivalence (Definition 16), decided
    through #cores and isomorphism. *)
val sharp_equivalent : t -> t -> bool

(** [is_semantically_acyclic q] is acyclicity of the #core (footnote 3 of
    the paper). *)
val is_semantically_acyclic : t -> bool

(** [is_hierarchical q]: any two variables have comparable or disjoint atom
    sets. *)
val is_hierarchical : t -> bool

(** [is_q_hierarchical q] is the Berkholz–Keppeler–Schweikardt criterion
    for constant-time dynamic counting (Section 1.2); the paper's example
    [E(a,b) ∧ E(b,c) ∧ E(c,d)] is acyclic but fails it. *)
val is_q_hierarchical : t -> bool

val pp : Format.formatter -> t -> unit
