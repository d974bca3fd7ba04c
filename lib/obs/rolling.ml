(** Lock-free rolling-window histograms.  See the interface for the
    contract and the concurrency caveats. *)

(* One slot holds the counts for one window period.  [period] names the
   period the counts belong to; observers CAS it forward when the slot
   rotates and the winner zeroes the buckets. *)
type slot = { period : int Atomic.t; counts : int Atomic.t array }

type t = { slot_s : float; nslots : int; slots : slot array }

let create ?(window_s = 60.) ?(slots = 6) () : t =
  let slots = max 1 slots in
  let window_s = if window_s <= 0. then 60. else window_s in
  {
    slot_s = window_s /. float_of_int slots;
    (* one spare slot so the slot being overwritten for the next period
       is never also counted as the oldest live one *)
    nslots = slots + 1;
    slots =
      Array.init (slots + 1) (fun _ ->
          {
            period = Atomic.make (-1);
            counts = Array.init Telemetry.buckets (fun _ -> Atomic.make 0);
          });
  }

let period_of (t : t) (now : float) : int = int_of_float (now /. t.slot_s)

let slot_for (t : t) (pi : int) : slot = t.slots.(pi mod t.nslots)

let observe ?now (t : t) (v : float) : unit =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let pi = period_of t now in
  let s = slot_for t pi in
  let cur = Atomic.get s.period in
  if cur <> pi then
    (* rotation: exactly one racer wins the CAS and zeroes; observations
       landing between the CAS and the zeroing can be lost — accepted *)
    if Atomic.compare_and_set s.period cur pi then
      Array.iter (fun c -> Atomic.set c 0) s.counts;
  Atomic.incr s.counts.(Telemetry.bucket_of v)

let live_fold ?now (t : t) (f : 'a -> slot -> 'a) (init : 'a) : 'a =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let pi = period_of t now in
  (* live = current partial period plus the nslots - 2 full ones before
     it; anything older has slid out of the window *)
  let oldest = pi - (t.nslots - 2) in
  Array.fold_left
    (fun acc s ->
      let p = Atomic.get s.period in
      if p >= oldest && p <= pi then f acc s else acc)
    init t.slots

let snapshot ?now (t : t) : int array =
  let out = Array.make Telemetry.buckets 0 in
  live_fold ?now t
    (fun () s ->
      Array.iteri (fun i c -> out.(i) <- out.(i) + Atomic.get c) s.counts)
    ();
  out

let count ?now (t : t) : int =
  live_fold ?now t
    (fun acc s -> Array.fold_left (fun a c -> a + Atomic.get c) acc s.counts)
    0

let quantile ?now (t : t) (p : float) : float =
  Telemetry.quantile_of_counts (snapshot ?now t) p
