(** Linear-time counting of homomorphisms of acyclic quantifier-free
    conjunctive queries — the counting variant of Yannakakis' join-tree
    algorithm (upper bound of Theorems 4/37). *)

(** [atom_hypergraph a] is the hypergraph of atom scopes. *)
val atom_hypergraph : Structure.t -> Hypergraph.t

(** [is_acyclic_structure a] is alpha-acyclicity of the atom hypergraph —
    the paper's notion of acyclicity for queries. *)
val is_acyclic_structure : Structure.t -> bool

(** [count_big a d] is [hom(A → D)] in exact arbitrary precision, or
    [None] when [a] is cyclic: the oracle behind [Counting.count_big]. *)
val count_big : Structure.t -> Structure.t -> Bigint.t option
