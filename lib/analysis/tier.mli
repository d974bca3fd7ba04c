(** Update-maintenance tier selection for the live-update subsystem.

    When the database changes one tuple at a time ([ucqc watch], the
    server's [insert]/[delete]/[apply] ops), each prepared query is
    maintained by one of three strategies, picked from the same
    classification the lint rules already run:

    - {b Tier A} — the query is exhaustively q-hierarchical (Section
      1.2, Berkholz–Keppeler–Schweikardt): one [Dynamic] instance per
      Lemma 26 support term answers every update in O(1) data
      complexity.
    - {b Tier B} — every combined query [∧(Ψ|J)] is alpha-acyclic: a
      per-update delta evaluation through the variable-elimination path
      of [lib/db], restricted to homomorphisms through the changed
      tuple, maintains exact counts without full recomputation.
    - {b Tier C} — everything else: the count is recomputed lazily
      (dirty flag + budget) on the next read.

    The exhaustive checks behind tiers A and B are exponential in the
    number of disjuncts, so selection is gated exactly like the
    [UCQ207] lint: beyond {!max_disjuncts} the query goes straight to
    tier C. *)

type t = A | B | C

val to_string : t -> string

(** [of_string s] accepts ["A" | "B" | "C"] (case-insensitive). *)
val of_string : string -> t option

(** [describe t] is a short human description of the maintenance
    strategy ("O(1) dynamic counting", …). *)
val describe : t -> string

(** A selected tier with the one-line reason the classifier chose it. *)
type selection = { tier : t; reason : string }

(** Disjunct-count gate above which the exponential criteria are not
    evaluated (mirrors the [UCQ207] lint gate). *)
val max_disjuncts : int

(** [select psi] classifies [psi].  Pure and total; exponential in the
    number of disjuncts below the {!max_disjuncts} gate. *)
val select : Ucq.t -> selection
