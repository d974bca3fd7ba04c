(** Resource budgets: a step counter, a wall-clock deadline, and a
    cooperative cancellation flag shared by every engine hot loop.  See the
    interface for the contract; the implementation keeps {!tick} cheap —
    one atomic decrement and two flag tests on the common path — because it
    sits inside branch-and-bound and enumeration inner loops.

    All counters are {!Atomic.t} so a single budget can be shared by every
    domain of a {!Pool}: concurrent ticks never lose steps, and the total
    number of ticks that return normally never exceeds [max_steps].
    Concurrent domains that have already passed their [steps_done]
    increment when the limit trips can overshoot the recorded [steps_done]
    by at most the number of domains — far below the [clock_stride]
    coarsening the deadline probe already accepts. *)

type exhaustion = { phase : string; steps_done : int }

exception Exhausted of exhaustion

type t = {
  steps_left : int Atomic.t; (* [max_int] means unlimited *)
  step_limited : bool;
  steps_done : int Atomic.t;
  deadline : float option; (* absolute, [Unix.gettimeofday] *)
  clock_probe : int Atomic.t; (* ticks until the next deadline check *)
  cancelled : bool Atomic.t;
  phase : string Atomic.t;
}

(* Checking the clock on every tick would dominate tight loops; probe it
   every [clock_stride] ticks instead.  Deadlines are inherently
   non-deterministic, so the coarsening is harmless — deterministic tests
   use step budgets. *)
let clock_stride = 256

let make ?max_steps ?timeout () : t =
  let steps_left =
    match max_steps with
    | None -> max_int
    | Some n -> if n < 0 then invalid_arg "Budget.make: negative step budget" else n
  in
  {
    steps_left = Atomic.make steps_left;
    step_limited = max_steps <> None;
    steps_done = Atomic.make 0;
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout;
    clock_probe = Atomic.make clock_stride;
    cancelled = Atomic.make false;
    phase = Atomic.make "start";
  }

let unlimited () : t = make ()
let of_steps (n : int) : t = make ~max_steps:n ()
let of_timeout (seconds : float) : t = make ~timeout:seconds ()
let is_limited (b : t) : bool = b.step_limited || b.deadline <> None
let steps_done (b : t) : int = Atomic.get b.steps_done

let remaining_steps (b : t) : int option =
  if b.step_limited then Some (Atomic.get b.steps_left) else None

(* Shares [b]'s deadline and its cancellation flag, not its counters. *)
let within (b : t) (n : int) : t =
  let n = match remaining_steps b with Some left -> min n left | None -> n in
  {
    steps_left = Atomic.make (max 0 n);
    step_limited = true;
    steps_done = Atomic.make 0;
    deadline = b.deadline;
    clock_probe = Atomic.make clock_stride;
    cancelled = b.cancelled;
    phase = Atomic.make (Atomic.get b.phase);
  }

let phase (b : t) : string = Atomic.get b.phase
let set_phase (b : t) (p : string) : unit = Atomic.set b.phase p
let cancel (b : t) : unit = Atomic.set b.cancelled true
let is_cancelled (b : t) : bool = Atomic.get b.cancelled

let exhaust (b : t) : 'a =
  raise
    (Exhausted { phase = Atomic.get b.phase; steps_done = Atomic.get b.steps_done })

let past_deadline (b : t) : bool =
  match b.deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () > d

let check (b : t) : unit =
  if Atomic.get b.cancelled || Atomic.get b.steps_left <= 0 || past_deadline b
  then exhaust b

let tick (b : t) : unit =
  Atomic.incr b.steps_done;
  if Atomic.get b.cancelled then exhaust b;
  if b.step_limited then begin
    (* fetch-and-add makes the allowance exact under concurrency: exactly
       [max_steps] ticks observe a positive pre-decrement value and return
       normally, no matter how many domains share the budget *)
    let before = Atomic.fetch_and_add b.steps_left (-1) in
    if before <= 1 then exhaust b
  end;
  if b.deadline <> None then begin
    let probe = Atomic.fetch_and_add b.clock_probe (-1) in
    if probe <= 1 then begin
      Atomic.set b.clock_probe clock_stride;
      if past_deadline b then exhaust b
    end
  end

let ticks (b : t) (n : int) : unit =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add b.steps_done (n - 1));
    if b.step_limited then ignore (Atomic.fetch_and_add b.steps_left (-(n - 1)));
    tick b
  end

let tick_opt = function None -> () | Some b -> tick b
let ticks_opt o n = match o with None -> () | Some b -> ticks b n
let check_opt = function None -> () | Some b -> check b

let with_phase (b : t) (p : string) (f : unit -> 'a) : 'a =
  let saved = Atomic.get b.phase in
  Atomic.set b.phase p;
  Fun.protect ~finally:(fun () -> Atomic.set b.phase saved) f

let run (b : t) ~(phase : string) (f : unit -> 'a) : ('a, exhaustion) result =
  Atomic.set b.phase phase;
  match f () with v -> Ok v | exception Exhausted e -> Error e

let run_opt (o : t option) ~(phase : string) (f : unit -> 'a) :
    ('a, exhaustion) result =
  match o with
  | None -> Ok (f ())
  | Some b -> run b ~phase f
