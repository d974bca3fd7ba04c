(** One live-update session: the pipeline under both [ucqc watch] and
    [ucqc serve] (DESIGN.md §12).  It owns the {!Delta.db} (the database
    and its epoch), the prepared-query {!Cache}, the domain pool and the
    optimize policy.  Callers render its typed outcomes; budgets come
    from the caller's [unit -> Budget.t], called once per state build,
    per recount and per applied change.  Counters and spans are the
    [session.*] family.  One thread owns a session (watch's main loop,
    the server's evaluator). *)

type t

(** [create ?env ~optimize ~capacity ~pool db] opens a session over
    [db]; [env] resolves identifier constants in deltas.  With
    [capacity = 0] entries are throwaway and {!count} builds no state. *)
val create :
  ?env:Parse.db_env ->
  optimize:bool ->
  capacity:int ->
  pool:Pool.t ->
  Structure.t ->
  t

val db : t -> Delta.db
val cache : t -> Cache.t
val pool : t -> Pool.t

(** [prepare s text] is one {!Cache.lookup}; its entry carries its
    rewrite ({!optimized}).  Never raises. *)
val prepare : t -> string -> Cache.outcome

(** The entry's count-preserving rewrite (the identity when the session
    does not optimize): one {!Optimize.run} per interned query, the
    query every count and state of the entry uses. *)
val optimized : t -> Cache.entry -> Optimize.report

(** The memoized {!Plan.try_cost} of the optimized query on the
    load-time database ([None]: the predictor capped out). *)
val plan_cost : t -> Cache.entry -> float option

(** [register s ~budget e] is the entry's maintained state, built now
    if it has none. *)
val register : t -> budget:(unit -> Budget.t) -> Cache.entry -> Delta.state

type source = Maintained | Memoized | Computed

type outcome = {
  result : (Runner.count_outcome, Ucqc_error.t) result;
  source : source;
  tier : Tier.t option;  (** effective tier of the entry's state, if any *)
  epoch : int;
  steps : int;  (** budget steps of the recount; 0 without one *)
}

(** [count s ?via ?fallback ?seed ~budget e]: a state built {e before}
    the call answers if it can; otherwise {!Runner.count} runs on the
    optimized query and only an exact result is memoized.  A retained
    entry without a state gets one first, and that count is
    [Computed]. *)
val count :
  t ->
  ?via:Runner.count_method ->
  ?fallback:bool ->
  ?seed:int ->
  budget:(unit -> Budget.t) ->
  Cache.entry ->
  outcome

type batch = { applied : int; noop : int; epoch : int }

(** [apply s ~budget deltas] resolves the whole batch first: the first
    failure in order (a parse failure rides in place) rejects it
    untouched.  Then each update applies in order, and each change folds
    into every maintained state under one budget; a fold that runs out
    degrades its state to tier C. *)
val apply :
  t ->
  budget:(unit -> Budget.t) ->
  (Delta_parse.spec, Ucqc_error.t) result list ->
  (batch, Ucqc_error.t) result
