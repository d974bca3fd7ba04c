(** Relational structures (databases) over integer universes
    (Section 2.2).  Immutable; universes and relations are kept sorted and
    duplicate-free. *)

type tuple = int list

type t

(** [make signature universe relations] validates arities and universe
    membership; symbols missing from [relations] get the empty relation. *)
val make : Signature.t -> int list -> (string * tuple list) list -> t

(** [empty signature] has an empty universe. *)
val empty : Signature.t -> t

val universe : t -> int list
val universe_set : t -> Intset.t
val universe_size : t -> int
val signature : t -> Signature.t

(** [relation a name] is the (sorted) tuple list of [name].
    @raise Invalid_argument for unknown symbols. *)
val relation : t -> string -> tuple list

val relations : t -> (string * tuple list) list

(** [covered_by a d]: every symbol with a tuple in [a] is a symbol of [d]
    with the same arity.  A query [a] that fails it has no answer in
    [d]; symbols of [a]'s signature that no atom uses are not read. *)
val covered_by : t -> t -> bool

(** [size a] is the encoding size [|A| = |τ| + |U(A)| + Σ_R |R^A|·arity(R)]
    (Section 2.2). *)
val size : t -> int

val num_tuples : t -> int
val equal : t -> t -> bool
val compare_t : t -> t -> int

(** [add_tuples a name tuples] extends a relation (and the universe). *)
val add_tuples : t -> string -> tuple list -> t

(** [remove_tuples a name tuples] removes the listed tuples from a
    relation (absent tuples are ignored; the universe is unchanged, so
    isolated elements keep contributing to counts).
    @raise Invalid_argument for unknown symbols. *)
val remove_tuples : t -> string -> tuple list -> t

(** [union a b] is the structure union [A ∪ B] (Section 2.2); the
    underlying operation of the combined queries [∧(Ψ|J)]. *)
val union : t -> t -> t

(** @raise Invalid_argument on the empty list. *)
val union_all : t list -> t

(** [induced a elems] is the induced substructure. *)
val induced : t -> int list -> t

(** [is_substructure a b]: [U(A) ⊆ U(B)] and [R^A ⊆ R^B] pointwise. *)
val is_substructure : t -> t -> bool

(** [rename a f] applies an injective element renaming.
    @raise Invalid_argument if not injective on the universe. *)
val rename : t -> (int -> int) -> t

(** [delete_elements a elems] drops elements and every tuple mentioning
    them. *)
val delete_elements : t -> int list -> t

(** [isolated_elements a] lists elements occurring in no tuple. *)
val isolated_elements : t -> int list

(** [gaifman a] is the Gaifman graph over dense indices, with the
    dense-index → element mapping. *)
val gaifman : t -> Graph.t * int array

(** [treewidth ?budget a] is the treewidth of the Gaifman graph (exact).
    @raise Budget.Exhausted when the budget runs out mid-search. *)
val treewidth : ?budget:Budget.t -> ?pool:Pool.t -> t -> int

(** [tensor a b] is the tensor product [A ⊗ B] of Theorem 28, with the
    pair-encoding function. *)
val tensor : t -> t -> t * (int -> int -> int)

val pp_tuple : Format.formatter -> tuple -> unit
val pp : Format.formatter -> t -> unit
