(** Exact answer counts by variable elimination over materialised
    relations, independent of {!Elim}. *)

(** [count_big q d] is [ans((A, X) → D)] in exact arbitrary precision
    over the materialised answer relation — the oracle the counting
    engine ({!Elim}) is tested against. *)
val count_big : Cq.t -> Structure.t -> Bigint.t
