(** Commutative semirings for parametric counting.

    The dynamic program of {!Treedec_count} only adds and multiplies
    partial counts, so it is written once over an abstract semiring: the
    [Int] instance is the word-RAM path (the machine model of Section 2),
    the [Big] instance (over {!Bigint.t}) serves the complexity-monotonicity
    solver of Theorem 28, whose tensor-product counts overflow native
    integers, and the exact oracles ({!Jointree_count} runs on [Big]). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val mul : t -> t -> t
  val is_zero : t -> bool

  (** [of_int n] embeds a small non-negative native integer. *)
  val of_int : int -> t

  (** [pow b e] is [b^e] for [e >= 0] (used for isolated variables). *)
  val pow : t -> int -> t
end

module Int : S with type t = int = struct
  type t = int

  let zero = 0
  let one = 1
  let add = ( + )
  let mul = ( * )
  let is_zero n = n = 0
  let of_int n = n

  let pow b e =
    let rec go acc b e =
      if e = 0 then acc
      else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
      else go acc (b * b) (e asr 1)
    in
    if e < 0 then invalid_arg "Semiring.Int.pow" else go 1 b e
end

module Big : S with type t = Bigint.t = struct
  type t = Bigint.t

  let zero = Bigint.zero
  let one = Bigint.one
  let add = Bigint.add
  let mul = Bigint.mul
  let is_zero = Bigint.is_zero
  let of_int = Bigint.of_int
  let pow = Bigint.pow
end
