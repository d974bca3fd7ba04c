(** Counting answers to a single conjunctive query: strategy dispatch.
    [Yannakakis], [Weighted] and [Varelim] are the orders of the one
    elimination engine {!Elim}. *)

type strategy =
  | Auto
      (** quantifier-free: [Yannakakis] if acyclic, else [Weighted];
          quantified: [Varelim] *)
  | Naive  (** enumerate assignments of the free variables (oracle) *)
  | Yannakakis  (** GYO order, linear-time; acyclic quantifier-free only *)
  | Weighted  (** sum-product elimination; quantifier-free only *)
  | Varelim  (** existential projection of the quantified variables; any query *)

exception Unsupported of string

(** [count ?strategy ?budget ?pool q d] is [ans((A, X) → D)].  [Naive]
    enumerates assignments lazily and sweeps index ranges on a parallel
    [?pool]; [jobs = 1] (or no pool) is the bit-for-bit sequential path.
    @raise Unsupported when a forced strategy does not apply to [q].
    @raise Budget.Exhausted when the supplied budget runs out. *)
val count :
  ?strategy:strategy -> ?budget:Budget.t -> ?pool:Pool.t -> Cq.t -> Structure.t -> int

(** [count_big q d] is the exact arbitrary-precision variant with [Auto]
    dispatch. *)
val count_big : Cq.t -> Structure.t -> Bigint.t
