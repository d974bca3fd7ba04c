(** Counting homomorphisms in [|U(D)|^(tw+1)] time by dynamic programming
    over a tree decomposition — the tractable side of Theorem 21 for
    quantifier-free queries, in exact arithmetic. *)

(** [count_big a d] is [hom(A → D)] in exact arbitrary precision: the
    count behind the tensor products of Theorem 28, and an oracle for
    the engine of [lib/db].
    @raise Invalid_argument if the decomposition cannot cover an atom. *)
val count_big : Structure.t -> Structure.t -> Bigint.t
