(** The tiered incremental-counting engine behind the live-update
    session ([Session] in [lib/server]) of [ucqc watch] and [ucqc serve].

    A {!db} is a mutable single-writer database session: the universe
    and signature are fixed at load time (the dynamic setting of
    Section 1.2), tuples change one at a time through {!apply}, and a
    monotonically increasing {b epoch} stamps every accepted change.

    Each registered query is a {!state} maintained on one of three
    tiers (selected by {!Tier.select} from [lib/analysis]).  A tier-A
    or tier-B state keeps one term per class of {!Ucq.support}: the
    Lemma 26 sum [Σ c_Ψ(A, X)·ans((A, X) → D)] over the #cores with a
    non-zero coefficient.

    - {b A} — each term is a {!Dynamic} instance: O(1) per update.
    - {b B} — each term's count is kept by delta evaluation: an update
      [±R(t)] folds into it with a few restricted calls of the
      elimination engine ({!Elim}): one projecting call per occurrence
      of [R], with the occurrence's variables bound to [t], gathers the
      candidate answers through [t]; one projecting count restricted to
      the candidates, over the other side of the update, finds those not
      gained (insert) or not lost (delete).  Each fold runs under its
      term's allowance (what its last full count charged and read); a
      fold that passes it stops, and that term is recounted instead
      (the [delta.fold.recounts] counter).
    - {b C} — nothing is maintained; counts are recomputed lazily by
      the caller and memoized per epoch via {!memoize}.

    Tier-A/B states degrade to tier-C behaviour (permanently, with a
    recorded reason) instead of ever reporting a wrong count: budget
    exhaustion or any escape during delta application marks the state,
    and {!maintained_count} stops answering. *)

(** {1 Updates} *)

type fact = { rel : string; tuple : int list }
type update = { op : [ `Insert | `Delete ]; fact : fact }

(** {1 The database session} *)

type db

(** [open_db ?env s] starts a session over the loaded database [s];
    [env] carries the constant-interning environment of
    {!Parse.database_result} so deltas may use the same identifier
    constants as the [.facts] file.  The epoch starts at 0. *)
val open_db : ?env:Parse.db_env -> Structure.t -> db

val structure : db -> Structure.t
val epoch : db -> int

(** [num_tuples d] is [Structure.num_tuples (structure d)], kept current
    by {!apply} in O(1). *)
val num_tuples : db -> int

(** [resolve d spec] interns a parsed delta against the session:
    identifier constants resolve through the load-time environment,
    the relation must exist in the (fixed) signature with the right
    arity, and every element must lie in the (fixed) universe. *)
val resolve : db -> Delta_parse.spec -> (update, Ucqc_error.t) result

(** [validate d u] runs the {!resolve}-level checks on an already
    interned update (relation, arity, universe) without applying it. *)
val validate : db -> update -> (unit, Ucqc_error.t) result

(** The receipt of one accepted update: [changed] is false for no-op
    updates (inserting a present tuple, deleting an absent one), which
    do {e not} advance the epoch. *)
type applied = {
  upd : update;
  changed : bool;
  epoch : int;  (** session epoch after the update *)
  before : Structure.t;
  after : Structure.t;
}

(** [apply d u] validates and applies one update. *)
val apply : db -> update -> (applied, Ucqc_error.t) result

(** {1 Per-query maintained states} *)

type state

(** [prepare ?budget psi d] classifies [psi] and builds its maintained
    state over the session's current database; [budget] is charged the
    tier-B terms' full counts.  Total: tier-A/B construction failures
    (an atom over a symbol the database lacks, budget exhaustion) fall
    back to an un-maintained state rather than erroring — a later
    recompute counts the query as the one-shot path does. *)
val prepare : ?budget:Budget.t -> Ucq.t -> db -> state

val query : state -> Ucq.t

(** The tier the classifier selected, with its reason. *)
val selection : state -> Tier.selection

(** [effective_tier st] is the tier the state currently operates at —
    the selected tier, or [C] after degradation. *)
val effective_tier : state -> Tier.t

(** [degraded st] is the degradation reason, if the tier-A/B state has
    been abandoned. *)
val degraded : state -> string option

(** [apply_state ?budget st d receipt] folds one accepted change into
    the maintained state.  Must be called once, in order, for every
    {!applied} with [changed = true]; a state that misses an epoch
    degrades rather than answer stale counts.  [budget] bounds the whole
    fold, guard recounts included, and its deadline and cancellation
    stop a fold part-way; running out of it degrades the state.  Never
    raises. *)
val apply_state : ?budget:Budget.t -> state -> db -> applied -> unit

(** Where a served count came from. *)
type source =
  | Maintained  (** read off the live tier-A/B state *)
  | Memoized  (** an exact recompute recorded at this epoch *)

(** [maintained_count st d] is the current count if the state can
    answer without recomputation: a live tier-A/B state synced to the
    session epoch, or a valid epoch-tagged memo.  [None] means the
    caller must recompute (and should then {!memoize}). *)
val maintained_count : state -> db -> (int * source) option

(** [memoize st d n] records an {e exact} recomputed count for the
    current epoch (approximate/degraded results must not be
    memoized). *)
val memoize : state -> db -> int -> unit

(** {1 Inspection} *)

(** One maintained support term: the #core of its class (on tier B
    with its isolated variables dropped), its coefficient, its
    maintained count, the steps its last full count charged, the steps
    the last change's fold metered (0 when the change did not touch
    it), and how many folds the guard has replaced by a recount.  A
    tier-A term reports zero steps and recounts. *)
type term_info = {
  term : Cq.t;
  coefficient : int;
  count : int;
  full_steps : int;
  fold_steps : int;
  recounts : int;
}

(** [terms st] is a live tier-A or tier-B state's terms, one per class
    of {!Ucq.support}; [[]] on tier C. *)
val terms : state -> term_info list

(** {1 Rendering} *)

(** [render_facts s] renders a structure in the [.facts] syntax
    ([universe { ... }] plus one fact per line) such that
    [Parse.database_result] reads back an equal structure — the bridge
    the consistency harness uses to compare a mutated session against
    a one-shot count.  Caveat: the facts syntax cannot declare a
    relation with no tuples, so symbols whose relation is empty are
    absent from the re-parsed signature. *)
val render_facts : Structure.t -> string
