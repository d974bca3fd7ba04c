(** The prepared-query cache behind [ucqc serve].

    Parsing, static analysis, plan prediction and classification are
    deterministic functions of the query text, so a long-running server
    pays them once.  Entries are keyed two ways:

    - a {e text front-map} from the exact request bytes to its entry —
      a repeat of the same text skips even the parse;
    - an {e intern key} — the canonical {!Pretty.ucq} rendering of the
      interned {!Ucq.t} — so two texts that intern to the same UCQ
      (whitespace, comments, variable names) share one entry and its
      memoized artifacts.

    Capacity is enforced LRU over {e entries} (interned queries); a
    bounded number of text aliases rides along with each entry, so
    memory stays flat no matter how many distinct spellings arrive.
    Negative results (texts that fail to parse) are cached too, in their
    own equally-bounded table — a malformed query hammered in a loop
    must not cost a re-parse per hit.

    Only a lookup that misses the text front-map parses, under the span
    [session.parse]: a repeated text's trace has none.  Not thread-safe
    by design: only the thread that owns the {!Session} touches the
    cache (the same single-writer discipline that keeps the telemetry
    buffers race-free). *)

type entry = {
  ucq : Ucq.t;
  env : Parse.query_env;
  intern_key : string;  (** canonical rendering, the sharing key *)
  primary_text : string;  (** the spelling that created the entry *)
  mutable analysis : Analysis.report option;
      (** lint + plan report of [primary_text], memoized on demand *)
  mutable classify : Classify.report option;  (** memoized on demand *)
  mutable plan_cost : float option option;
      (** memoized {!Plan.try_cost} for drift tracking: [None] =
          not computed yet, [Some None] = prediction capped out.
          Predicted against the {e optimized} query when the optimizer
          is on — the query the evaluator actually runs *)
  mutable optimized : Optimize.report option;
      (** the count-preserving rewrite, computed once at prepare time;
          [identity] when optimization is disabled *)
  mutable maint : Delta.state option;
      (** the tiered incremental-counting state, built by
          {!Session.register} (eagerly under watch, at the first
          [count] under serve).  The analysis artifacts above
          are epoch-independent; count memos live inside the state,
          keyed by the database epoch *)
  mutable hits : int;  (** lookups served from this entry *)
}

(** Result of a lookup: where the prepared artifacts came from. *)
type outcome =
  | Hit of entry  (** exact text seen before: no parse *)
  | Interned of entry
      (** new spelling of a known UCQ: parsed, artifacts shared *)
  | Miss of entry  (** first sighting: freshly prepared *)
  | Invalid of Ucqc_error.t  (** parse/intern failure (possibly cached) *)

val outcome_label : outcome -> string
(** ["hit" | "interned" | "miss" | "invalid"] — the [cache] field of a
    response. *)

type t

(** [create ~capacity ()] holds at most [capacity] prepared entries and
    as many cached failures ([capacity = 0] disables caching). *)
val create : capacity:int -> unit -> t

(** [lookup t text] answers a known text without parsing ({!Hit}, or
    a cached {!Invalid}); otherwise it parses and records the result.
    With [capacity = 0] nothing is stored.  Never raises. *)
val lookup : t -> string -> outcome

(** [iter t f] applies [f] to every prepared entry (evaluator thread
    only) — how an accepted update reaches every maintained state. *)
val iter : t -> (entry -> unit) -> unit

(** Current number of prepared entries / cached invalid texts. *)
val entries : t -> int

val invalids : t -> int
