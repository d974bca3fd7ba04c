(** Resource budgets for the solvers.

    Every algorithm the paper states has worst-case exponential blowup by
    design — exact treewidth branch and bound, the [2^ℓ] CQ expansion,
    inclusion-exclusion over disjunct subsets, naive enumeration — so a
    long-running service cannot call them unguarded.  A {!t} carries a
    step allowance, an optional wall-clock deadline, and a cooperative
    cancellation flag; engines call {!tick} (or {!ticks}) from their hot
    loops and the budget raises the dedicated {!Exhausted} signal, which
    must be caught only at engine boundaries ({!run} is that boundary).

    Step budgets are fully deterministic: the same input and the same
    [of_steps n] budget always exhaust at the same point, which is what
    the fault-injection tests rely on (no sleeps, no wall-clock).

    Budgets are domain-safe: every counter is an {!Atomic.t}, so one
    budget can be shared by all workers of a {!Pool}.  Accounting stays
    exact — at most [max_steps] ticks ever return normally — and
    concurrent ticking can overshoot the recorded [steps_done] by at most
    the number of domains (far below the 256-tick deadline-probe stride).
    Under a shared budget the {e exhaustion point} is scheduling-dependent
    when more than one domain runs; single-domain runs keep the
    deterministic contract bit-for-bit. *)

type t

(** What was being computed when the budget ran out. *)
type exhaustion = { phase : string; steps_done : int }

(** Raised by {!tick}/{!check} on an exhausted or cancelled budget.  Catch
    it only at an engine boundary (see {!run}); library code must let it
    propagate so the caller can degrade gracefully. *)
exception Exhausted of exhaustion

(** [unlimited ()] never exhausts (but can still be {!cancel}led). *)
val unlimited : unit -> t

(** [of_steps n] exhausts after [n] ticks — the deterministic
    fault-injection budget used by the tests. *)
val of_steps : int -> t

(** [of_timeout seconds] exhausts [seconds] of wall-clock time from now. *)
val of_timeout : float -> t

(** [make ?max_steps ?timeout ()] combines both limits (whichever trips
    first). *)
val make : ?max_steps:int -> ?timeout:float -> unit -> t

(** [within b n] meters one part of [b]'s work on its own count: it
    exhausts after [n] ticks or [b]'s remaining steps, whichever are
    fewer, at [b]'s deadline, or once [b] is cancelled.  Its ticks are
    not charged to [b]; the caller charges what {!steps_done} reports. *)
val within : t -> int -> t

val is_limited : t -> bool
val steps_done : t -> int

(** [remaining_steps b] is [None] when the step allowance is unlimited. *)
val remaining_steps : t -> int option

val phase : t -> string
val set_phase : t -> string -> unit

(** [cancel b] trips the cooperative cancellation flag: the next
    {!tick}/{!check} raises {!Exhausted}. *)
val cancel : t -> unit

val is_cancelled : t -> bool

(** [tick b] consumes one step.
    @raise Exhausted when the budget is spent, past its deadline, or
    cancelled. *)
val tick : t -> unit

(** [ticks b n] consumes [n] steps at once (cost-proportional accounting
    for engines that materialise [n]-row intermediates). *)
val ticks : t -> int -> unit

(** [check b] re-checks limits without consuming a step. *)
val check : t -> unit

(** Optional-budget conveniences for engines threading [?budget]. *)
val tick_opt : t option -> unit

val ticks_opt : t option -> int -> unit
val check_opt : t option -> unit

(** [with_phase b phase f] runs [f] with the phase label swapped in,
    restoring the previous label afterwards (also on exceptions). *)
val with_phase : t -> string -> (unit -> 'a) -> 'a

(** [run b ~phase f] is the engine boundary: runs [f] under [phase] and
    converts an {!Exhausted} escape into [Error].  Other exceptions
    propagate. *)
val run : t -> phase:string -> (unit -> 'a) -> ('a, exhaustion) result

(** [run_opt budget ~phase f] is {!run} when a budget is present and
    [Ok (f ())] otherwise. *)
val run_opt :
  t option -> phase:string -> (unit -> 'a) -> ('a, exhaustion) result
