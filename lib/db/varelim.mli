(** Evaluation of conjunctive queries with existential quantification by
    variable elimination: counting answers means counting distinct
    projections of the homomorphism set onto the free variables. *)

(** [count_big q d] is [ans((A, X) → D)] in exact arbitrary precision
    over the materialised answer relation — the oracle the counting
    engine ({!Elim}) is tested against. *)
val count_big : Cq.t -> Structure.t -> Bigint.t

(** [answers q d] materialises the full answer set over the sorted free
    variables (tests and small examples). *)
val answers : Cq.t -> Structure.t -> int list list
