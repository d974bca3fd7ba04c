(** Uniform sampling from the answer set of a conjunctive query: from
    {!Elim}'s reduced join tree for acyclic quantifier-free queries, from
    the materialised answer table otherwise.  The engine behind
    {!Karp_luby}. *)

type t =
  | Tree of Elim.tree  (** an acyclic quantifier-free query *)
  | Table of Elim.table  (** any other: its answers over [Cq.free] *)

(** [make q d] builds a sampler for [Ans(q → D)], without charge. *)
val make : Cq.t -> Structure.t -> t

(** [cardinality s] is the exact answer count. *)
val cardinality : t -> int

(** [weighted_choice st entries] draws from a non-empty positive-weight
    list, proportionally to the weights (which may sum past 2{^30}). *)
val weighted_choice : Random.State.t -> ('a * int) list -> 'a

(** [draw st s] is a uniformly random answer (sorted free variable →
    value), or [None] when the answer set is empty. *)
val draw : Random.State.t -> t -> (int * int) list option
