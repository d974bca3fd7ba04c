(** Structured tracing + metrics.  See the interface for the contract.

    Recording path: one atomic flag read gates everything; per-domain
    event buffers live in domain-local storage and are registered in a
    mutex-protected global list at first use, so recording itself never
    takes a lock.  Timestamps come from the monotonic clock bechamel
    ships (CLOCK_MONOTONIC, nanoseconds, [@@noalloc]). *)

type attr = S of string | I of int | F of float | B of bool

type event =
  | Begin of {
      name : string;
      ts : int64;
      attrs : (string * attr) list;
      steps : int; (* Budget.steps_done at open, 0 without a budget *)
    }
  | End of { name : string; ts : int64; steps : int }
  | Mark of { name : string; ts : int64; attrs : (string * attr) list }

type dstate = {
  tid : int;
  mutable events : event list; (* newest first; reversed at export *)
  mutable stack : string list; (* open span names, innermost first *)
}

(* ------------------------------------------------------------------ *)
(* Global state                                                       *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let record_flag = Atomic.make true
let epoch = Atomic.make 0L (* monotonic ns at [enable] — trace time zero *)
let registry : dstate list ref = ref []
let registry_lock = Mutex.create ()

let dkey : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { tid = (Domain.self () :> int); events = []; stack = [] } in
      Mutex.protect registry_lock (fun () -> registry := s :: !registry);
      s)

let now () : int64 = Monotonic_clock.now ()
let enabled () = Atomic.get enabled_flag

let enable ?(record = true) () =
  Atomic.set record_flag record;
  Atomic.set epoch (now ());
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let force_attrs = function None -> [] | Some f -> f ()

let with_span ?attrs ?(budget : Budget.t option) (name : string)
    (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let s = Domain.DLS.get dkey in
    let record = Atomic.get record_flag in
    let steps_at () =
      match budget with None -> 0 | Some b -> Budget.steps_done b
    in
    if record then
      s.events <-
        Begin { name; ts = now (); attrs = force_attrs attrs; steps = steps_at () }
        :: s.events;
    s.stack <- name :: s.stack;
    Fun.protect
      ~finally:(fun () ->
        (match s.stack with _ :: tl -> s.stack <- tl | [] -> ());
        if record then
          s.events <- End { name; ts = now (); steps = steps_at () } :: s.events)
      f
  end

let event ?attrs (name : string) : unit =
  if Atomic.get enabled_flag && Atomic.get record_flag then begin
    let s = Domain.DLS.get dkey in
    s.events <- Mark { name; ts = now (); attrs = force_attrs attrs } :: s.events
  end

let current_stack () : string list =
  if not (Atomic.get enabled_flag) then []
  else (Domain.DLS.get dkey).stack

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; cell : int Atomic.t }
type gauge = { gname : string; gcell : float Atomic.t }

type histogram = {
  hname : string;
  buckets : int Atomic.t array; (* [buckets] base-2 log buckets *)
  hcount : int Atomic.t;
  hsum_micro : int Atomic.t; (* sum scaled by 1e6, fetch-and-add friendly *)
}

(* The log₂ bucket layout of every histogram: bucket b covers
   [2^(b-32), 2^(b-31)), the bucket of the binary exponent. *)
let buckets = 64

let bucket_of (v : float) : int =
  if v <= 0. || Float.is_nan v then 0
  else begin
    let _, e = Float.frexp v in
    max 0 (min (buckets - 1) (e + 31))
  end

let bucket_upper (b : int) : float = Float.ldexp 1. (b - 31)

let quantile_of_counts (counts : int array) (p : float) : float =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int total))) in
    let n = Array.length counts in
    let rec go i cum =
      if i >= n then bucket_upper (n - 1)
      else begin
        let cum = cum + counts.(i) in
        if cum >= rank then bucket_upper i else go (i + 1) cum
      end
    in
    go 0 0
  end

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let metrics_lock = Mutex.create ()

let intern (tbl : (string, 'a) Hashtbl.t) (name : string) (make : unit -> 'a) :
    'a =
  Mutex.protect metrics_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add tbl name v;
          v)

let counter (name : string) : counter =
  intern counters name (fun () -> { cname = name; cell = Atomic.make 0 })

let add (c : counter) (n : int) : unit =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

let incr (c : counter) : unit = add c 1
let counter_value (c : counter) : int = Atomic.get c.cell

let gauge (name : string) : gauge =
  intern gauges name (fun () -> { gname = name; gcell = Atomic.make 0. })

let set_gauge (g : gauge) (v : float) : unit =
  if Atomic.get enabled_flag then Atomic.set g.gcell v

let histogram (name : string) : histogram =
  intern histograms name (fun () ->
      {
        hname = name;
        buckets = Array.init buckets (fun _ -> Atomic.make 0);
        hcount = Atomic.make 0;
        hsum_micro = Atomic.make 0;
      })

let observe (h : histogram) (v : float) : unit =
  if Atomic.get enabled_flag then begin
    Atomic.incr h.buckets.(bucket_of v);
    Atomic.incr h.hcount;
    ignore (Atomic.fetch_and_add h.hsum_micro (int_of_float (v *. 1e6)))
  end

(* ------------------------------------------------------------------ *)
(* Metric snapshots                                                   *)
(* ------------------------------------------------------------------ *)

type histogram_snapshot = {
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
}

(* Buckets and count are read one atomic at a time, so a snapshot taken
   while observers are running can be off by the in-flight observation —
   fine for monitoring, which is the only caller. *)
let histogram_snapshot (h : histogram) : histogram_snapshot =
  {
    hs_counts = Array.map Atomic.get h.buckets;
    hs_count = Atomic.get h.hcount;
    hs_sum = float_of_int (Atomic.get h.hsum_micro) /. 1e6;
  }

let sorted_bindings (tbl : (string, 'a) Hashtbl.t) : (string * 'a) list =
  Mutex.protect metrics_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let counters_snapshot () : (string * int) list =
  List.map (fun (name, c) -> (name, Atomic.get c.cell)) (sorted_bindings counters)

let gauges_snapshot () : (string * float) list =
  List.map (fun (name, g) -> (name, Atomic.get g.gcell)) (sorted_bindings gauges)

let histograms_snapshot () : (string * histogram_snapshot) list =
  List.map
    (fun (name, h) -> (name, histogram_snapshot h))
    (sorted_bindings histograms)

(* ------------------------------------------------------------------ *)
(* Reset                                                              *)
(* ------------------------------------------------------------------ *)

let reset () : unit =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun s ->
          s.events <- [];
          s.stack <- [])
        !registry);
  Mutex.protect metrics_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0.) gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.hcount 0;
          Atomic.set h.hsum_micro 0)
        histograms);
  Atomic.set epoch (now ())

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)
(* ------------------------------------------------------------------ *)

(* Snapshot of the per-domain buffers in recording order, taken under
   the registry lock.  Sound only after parallel regions have joined:
   live foreign domains could still be appending, but the pool joins its
   workers before any exporter runs. *)
let snapshot () : (int * event list) list =
  Mutex.protect registry_lock (fun () ->
      List.map (fun s -> (s.tid, List.rev s.events)) !registry)

type span_stat = { sname : string; calls : int; total_ns : int64; steps : int }

(* Walk one domain's events with an open-span stack, firing [on_close]
   for each completed (begin, end) pair.  Buffers are per-domain and
   [with_span] always closes what it opens, so the stack discipline
   holds by construction; stray events are skipped defensively. *)
let fold_spans (events : event list)
    ~(on_close : name:string -> ts0:int64 -> ts1:int64 -> dsteps:int -> unit) :
    unit =
  let stack = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Begin { name; ts; steps; _ } -> stack := (name, ts, steps) :: !stack
      | End { name; ts; steps } -> (
          match !stack with
          | (bname, ts0, steps0) :: tl when bname = name ->
              stack := tl;
              on_close ~name ~ts0 ~ts1:ts ~dsteps:(steps - steps0)
          | _ -> ())
      | Mark _ -> ())
    events

let span_stats () : span_stat list =
  let tbl : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, events) ->
      fold_spans events ~on_close:(fun ~name ~ts0 ~ts1 ~dsteps ->
          let cell =
            match Hashtbl.find_opt tbl name with
            | Some r -> r
            | None ->
                let r =
                  ref { sname = name; calls = 0; total_ns = 0L; steps = 0 }
                in
                Hashtbl.add tbl name r;
                r
          in
          cell :=
            {
              !cell with
              calls = !cell.calls + 1;
              total_ns = Int64.add !cell.total_ns (Int64.sub ts1 ts0);
              steps = !cell.steps + dsteps;
            }))
    (snapshot ());
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare b.total_ns a.total_ns)

let event_ts = function
  | Begin { ts; _ } | End { ts; _ } | Mark { ts; _ } -> ts

let wall_window () : (int64 * int64) option =
  List.fold_left
    (fun acc (_, events) ->
      List.fold_left
        (fun acc ev ->
          let ts = event_ts ev in
          match acc with
          | None -> Some (ts, ts)
          | Some (lo, hi) -> Some (min lo ts, max hi ts))
        acc events)
    None (snapshot ())

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                       *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float (f : float) : string =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan f then 0. else f)
  else Printf.sprintf "%.6g" f

let attr_json = function
  | S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | I i -> string_of_int i
  | F f -> json_float f
  | B b -> if b then "true" else "false"

let args_json (attrs : (string * attr) list) : string =
  String.concat ", "
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (attr_json v))
       attrs)

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

(* microseconds since [enable], the unit Chrome traces expect *)
let us_of (ts : int64) : float =
  Int64.to_float (Int64.sub ts (Atomic.get epoch)) /. 1e3

let export_chrome_trace (oc : out_channel) : unit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  let domains = snapshot () in
  List.iter
    (fun (tid, events) ->
      if events <> [] then
        emit
          (Printf.sprintf
             "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
              %d, \"args\": {\"name\": \"domain-%d\"}}"
             tid tid))
    domains;
  List.iter
    (fun (tid, events) ->
      (* per-span step deltas need the matching Begin: track open spans *)
      let stack = ref [] in
      List.iter
        (fun ev ->
          match ev with
          | Begin { name; ts; attrs; steps } ->
              stack := steps :: !stack;
              emit
                (Printf.sprintf
                   "{\"name\": \"%s\", \"cat\": \"ucqc\", \"ph\": \"B\", \
                    \"pid\": 1, \"tid\": %d, \"ts\": %.3f%s}"
                   (json_escape name) tid (us_of ts)
                   (if attrs = [] then ""
                    else Printf.sprintf ", \"args\": {%s}" (args_json attrs)))
          | End { name; ts; steps } ->
              let dsteps =
                match !stack with
                | s0 :: tl ->
                    stack := tl;
                    steps - s0
                | [] -> 0
              in
              emit
                (Printf.sprintf
                   "{\"name\": \"%s\", \"ph\": \"E\", \"pid\": 1, \"tid\": \
                    %d, \"ts\": %.3f, \"args\": {\"steps\": %d}}"
                   (json_escape name) tid (us_of ts) dsteps)
          | Mark { name; ts; attrs } ->
              emit
                (Printf.sprintf
                   "{\"name\": \"%s\", \"cat\": \"ucqc\", \"ph\": \"i\", \
                    \"s\": \"g\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f%s}"
                   (json_escape name) tid (us_of ts)
                   (if attrs = [] then ""
                    else Printf.sprintf ", \"args\": {%s}" (args_json attrs))))
        events)
    domains;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  output_string oc (Buffer.contents buf)

let export_metrics (oc : out_channel) : unit =
  let buf = Buffer.create 1024 in
  let snapshot_tbl tbl =
    Mutex.protect metrics_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b))
  in
  Buffer.add_string buf "{\n  \"counters\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (name, c) ->
            Printf.sprintf "\"%s\": %d" (json_escape name) (Atomic.get c.cell))
          (snapshot_tbl counters)));
  Buffer.add_string buf "},\n  \"gauges\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (name, g) ->
            Printf.sprintf "\"%s\": %s" (json_escape name)
              (json_float (Atomic.get g.gcell)))
          (snapshot_tbl gauges)));
  Buffer.add_string buf "},\n  \"histograms\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (name, h) ->
            let buckets =
              Array.to_list h.buckets
              |> List.mapi (fun i b -> (i, Atomic.get b))
              |> List.filter (fun (_, n) -> n > 0)
              |> List.map (fun (i, n) -> Printf.sprintf "[%d, %d]" (i - 32) n)
            in
            Printf.sprintf
              "\"%s\": {\"count\": %d, \"sum\": %s, \"log2_buckets\": [%s]}"
              (json_escape name) (Atomic.get h.hcount)
              (json_float (float_of_int (Atomic.get h.hsum_micro) /. 1e6))
              (String.concat ", " buckets))
          (snapshot_tbl histograms)));
  Buffer.add_string buf "},\n  \"spans\": [";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun st ->
            Printf.sprintf
              "{\"name\": \"%s\", \"calls\": %d, \"wall_ms\": %.3f, \
               \"steps\": %d}"
              (json_escape st.sname) st.calls
              (Int64.to_float st.total_ns /. 1e6)
              st.steps)
          (span_stats ())));
  Buffer.add_string buf "]\n}\n";
  output_string oc (Buffer.contents buf)

(* Coverage: the fraction of the observed wall window inside a top-level
   span of some domain (nesting depth 0 spans only, per domain, summed).
   The acceptance bar — spans covering >= 95% of wall time — is about
   attribution, so only root spans count; children subdivide them. *)
let toplevel_covered_ns () : int64 =
  List.fold_left
    (fun acc (_, events) ->
      let depth = ref 0 in
      let open_ts = ref 0L in
      List.fold_left
        (fun acc ev ->
          match ev with
          | Begin { ts; _ } ->
              if !depth = 0 then open_ts := ts;
              Stdlib.incr depth;
              acc
          | End { ts; _ } ->
              Stdlib.decr depth;
              if !depth = 0 then Int64.add acc (Int64.sub ts !open_ts)
              else if !depth < 0 then (
                depth := 0;
                acc)
              else acc
          | Mark _ -> acc)
        acc events)
    0L (snapshot ())

let print_summary (oc : out_channel) : unit =
  match wall_window () with
  | None -> Printf.fprintf oc "telemetry: no spans recorded\n"
  | Some (lo, hi) ->
      let window_ns = Int64.to_float (Int64.sub hi lo) in
      let covered = Int64.to_float (toplevel_covered_ns ()) in
      let coverage =
        if window_ns <= 0. then 100. else 100. *. covered /. window_ns
      in
      let stats = span_stats () in
      Printf.fprintf oc
        "telemetry: wall %.3f ms, %d span names, top-level span coverage \
         %.1f%%\n"
        (window_ns /. 1e6) (List.length stats) coverage;
      Printf.fprintf oc "  %-38s %9s %12s %12s\n" "span" "calls" "total ms"
        "steps";
      List.iter
        (fun st ->
          Printf.fprintf oc "  %-38s %9d %12.3f %12d\n" st.sname st.calls
            (Int64.to_float st.total_ns /. 1e6)
            st.steps)
        stats;
      let nonzero =
        Mutex.protect metrics_lock (fun () ->
            Hashtbl.fold
              (fun name c acc ->
                let v = Atomic.get c.cell in
                if v <> 0 then (name, v) :: acc else acc)
              counters [])
        |> List.sort compare
      in
      if nonzero <> [] then begin
        Printf.fprintf oc "  %-38s %9s\n" "counter" "value";
        List.iter
          (fun (name, v) -> Printf.fprintf oc "  %-38s %9d\n" name v)
          nonzero
      end
