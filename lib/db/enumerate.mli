(** Constant-delay enumeration of the answers of acyclic quantifier-free
    conjunctive queries (Bagan–Durand–Grandjean; Section 1.1's enumeration
    context): linear-time preprocessing builds {!Elim}'s reduced join
    tree, then the walk's delay between answers is independent of the
    database. *)

type t

(** [prepare q d] runs the linear preprocessing.
    @raise Counting.Unsupported unless [q] is acyclic and
    quantifier-free. *)
val prepare : Cq.t -> Structure.t -> t

(** [answers t] lazily enumerates the answers over the sorted free
    variables.  Each traversal from its head walks afresh; a suffix is
    ephemeral. *)
val answers : t -> int list Seq.t

(** [to_list t] materialises and sorts the enumeration (tests). *)
val to_list : t -> int list list
