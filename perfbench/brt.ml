(* Timing, sample statistics, spans and result printing shared by the
   three workloads. *)

let now_ns () : int64 = Monotonic_clock.now ()
let ms_between (t0 : int64) (t1 : int64) : float = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since (t0 : int64) : float = ms_between t0 (now_ns ())

(* [timed f] is [f ()] with its wall time in milliseconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile (xs : float list) (q : float) : float =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* A sample population: one op class mix fixed by the workload. *)
type samples = { mutable xs : float list; mutable n : int }

let samples () = { xs = []; n = 0 }

let add (s : samples) (x : float) =
  s.xs <- x :: s.xs;
  s.n <- s.n + 1

(* ------------------------------------------------------------------ *)
(* Process metrics                                                    *)
(* ------------------------------------------------------------------ *)

(* [vm_hwm_mb pid] is the peak resident set (VmHWM) of a process. *)
let vm_hwm_mb (pid : string) : float =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      loop ())

(* [in_child f] is [f ()] computed in a forked child and sent back
   over a pipe, so harness-only work (an answer oracle) never raises the
   peak resident set of the process being measured. *)
let in_child (f : unit -> int list) : int list =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let oc = Unix.out_channel_of_descr wr in
          output_string oc (String.concat " " (List.map string_of_int (f ())));
          close_out oc;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let text = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> List.map int_of_string (String.split_on_char ' ' text)
      | _ -> failwith "in_child: the child process failed")

(* Untimed warm-up, then a compacted heap, before every timed phase. *)
let settle () = Gc.compact ()

(* An untimed full collection before every in-process op, so each op
   starts from the heap a fresh [ucqc count] or [ucqc check] process
   would have (what is loaded, and no garbage) and never pays for the
   garbage of the op before it. *)
let fresh_heap () = Gc.full_major ()

(* ------------------------------------------------------------------ *)
(* Work set aside in the timed phase                                  *)
(* ------------------------------------------------------------------ *)

(* Time spent inside the timed phase on work that is no op (machine
   reference ticks and set-up samples): left out of the phase's length
   and of the wall time rates divide by. *)
let aside_ms = ref 0.

let aside (f : unit -> 'a) : 'a =
  let r, t = timed f in
  aside_ms := !aside_ms +. t;
  r

(* Milliseconds since [t0] spent on the workload's ops. *)
let phase_ms (t0 : int64) : float = ms_since t0 -. !aside_ms
let phase_s (t0 : int64) : float = phase_ms t0 /. 1000.

(* A fixed piece of work, sorting a copy of one 20000-element array,
   timed between rounds throughout the timed phase.  It enters no metric:
   it is printed beside them, so that repeat mode can tell a change in
   the machine's speed from a change in the program's. *)
let reference_input = Array.init 20_000 (fun i -> i * 7919 mod 20_011)
let reference_ms : float list ref = ref []

let reference_tick () =
  let (), t = timed (fun () -> Array.sort compare (Array.copy reference_input)) in
  reference_ms := t :: !reference_ms;
  aside_ms := !aside_ms +. t

(* Set-up is timed several times a run and the median counts.  The
   machine's speed changes by up to a quarter from one second to the
   next, so samples taken back to back meet one or two speeds, while an
   op's median averages over the whole run.  The samples are therefore
   spread over the timed phase: sample [k] of [n] is due once
   [(k + 1) / (n + 1)] of the phase has passed, and taking it is time
   set aside. *)
type setup_samples = { n : int; phase : float; mutable ms : float list }

let setup_samples ~(n : int) ~(seconds : float) : setup_samples = { n; phase = seconds *. 1000.; ms = [] }

(* [setup_tick s t0 f] takes the next sample if it is due; [f ()] is
   the sample's set-up time in milliseconds. *)
let setup_tick (s : setup_samples) (t0 : int64) (f : unit -> float) : unit =
  let k = List.length s.ms in
  if k < s.n && phase_ms t0 >= float_of_int (k + 1) *. s.phase /. float_of_int (s.n + 1) then
    s.ms <- aside f :: s.ms

(* After the phase: any samples not yet taken, then every sample in
   seconds, in the order taken. *)
let setup_finish (s : setup_samples) (f : unit -> float) : float list =
  while List.length s.ms < s.n do
    s.ms <- f () :: s.ms
  done;
  List.rev_map (fun t -> t /. 1000.) s.ms

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

type outcome = { attempted : int; failed : int; metrics : metric list }

(* Human-readable lines first (name, value, unit, sample count), then
   the one-line JSON result, always the last line of output. *)
let print_result (o : outcome) =
  if !reference_ms <> [] then
    Printf.printf "%-36s %16.6f %-10s n=%d\n" "box_reference_ms" (median !reference_ms) "ms"
      (List.length !reference_ms);
  List.iter
    (fun m -> Printf.printf "%-36s %16.6f %-10s n=%d\n" m.name m.value m.unit_ m.n)
    o.metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed (String.concat ", " fields);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                           *)
(* ------------------------------------------------------------------ *)

(* A span is a timed call into one layer's public function, made from
   the benchmark's own code.  Spans stay in memory and are written out
   at exit; a span's self time is its duration minus its children's. *)
type span = {
  id : int;
  mutable name : string;  (** metric stem, e.g. ["db.yannakakis"] *)
  mutable layer : string;
  op : int;  (** op id; [-1] outside ops *)
  parent : int;  (** [-1] for roots *)
  t0 : int64;
  mutable t1 : int64;
  mutable child_ns : int64;
}

let enabled = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let layer_of (name : string) : string =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let with_span (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        layer = layer_of name;
        op = !current_op;
        parent;
        t0 = now_ns ();
        t1 = 0L;
        child_ns = 0L;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now_ns ();
      stack := List.tl !stack;
      (match !stack with
      | p :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.t1 s.t0)
      | [] -> ());
      finished := s :: !finished
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* [with_span_named name_of f] is [with_span] for a call whose span
   name depends on its result (a maintained state's tier). *)
let with_span_named (name_of : 'a -> string) (f : unit -> 'a) : 'a =
  let r = with_span "pending" f in
  (if !enabled then
     match !finished with
     | s :: _ ->
         s.name <- name_of r;
         s.layer <- layer_of s.name
     | [] -> ());
  r

let self_ms (s : span) : float = ms_between 0L (Int64.sub (Int64.sub s.t1 s.t0) s.child_ns)
let dur_ms (s : span) : float = ms_between s.t0 s.t1

(* Allocation inside traced ops only. *)
type gc_mark = { words : float; majors : int }

let gc_mark () : gc_mark =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words; majors = s.Gc.major_collections }

let op_words = ref 0.
let op_majors = ref 0

(* [with_op k f] runs [f] as op [k]: its root span is named ["op"]. *)
let with_op (k : int) (f : unit -> 'a) : 'a =
  current_op := k;
  let g0 = gc_mark () in
  Fun.protect
    ~finally:(fun () ->
      let g1 = gc_mark () in
      op_words := !op_words +. (g1.words -. g0.words);
      op_majors := !op_majors + (g1.majors - g0.majors);
      current_op := -1)
    (fun () -> with_span "op" f)

let write_spans (path : string) =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        s.id s.name s.op s.parent s.t0 s.t1)
    (List.rev !finished);
  close_out oc

(* Per-op self time of spans named [name], medianed over the ops in
   which the span occurs ([0.] when it never occurs). *)
let median_self_per_op (name : string) : float =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name && s.op >= 0 then
        Hashtbl.replace tbl s.op (self_ms s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    !finished;
  let xs = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
  if xs = [] then 0. else median xs

(* Self time summed over every span of one layer inside op roots. *)
let layer_self_ms (layer : string) : float =
  List.fold_left
    (fun acc s -> if s.layer = layer && s.op >= 0 then acc +. self_ms s else acc)
    0. !finished

let ops_ms () : float =
  List.fold_left (fun acc s -> if s.name = "op" then acc +. dur_ms s else acc) 0. !finished

(* Durations of spans named [name]; [~in_ops:false] also takes spans
   made outside ops (a server's set-up). *)
let span_durations ?(in_ops = true) (name : string) : float list =
  List.filter_map
    (fun s -> if s.name = name && ((not in_ops) || s.op >= 0) then Some (dur_ms s) else None)
    !finished

(* The layers whose calls are spanned, in the order metrics are
   reported.  [runtime] (GC and budget accounting) runs inside every
   span, so it is reported by allocation counts, not by a share. *)
let layers = [ "frontend"; "relational"; "analysis"; "optimize"; "ucq"; "db"; "core"; "delta"; "server" ]

(* The trace-level metrics every traced run ends with: layer shares of
   op time, coverage against the untraced op time, and overhead. *)
let trace_summary ~(untraced_ms : float) ~(ops : int) : metric list =
  let total = ops_ms () in
  let share l = if total > 0. then layer_self_ms l /. total else 0. in
  let covered = List.fold_left (fun acc l -> acc +. layer_self_ms l) 0. layers in
  let per_op x = if ops > 0 then x /. float_of_int ops else 0. in
  List.map (fun l -> metric (l ^ ".share") "fraction" (share l)) layers
  @ [
      metric ~n:ops "runtime.alloc_mb_per_op" "MB/op" (per_op (!op_words *. 8. /. 1e6));
      metric ~n:ops "runtime.major_gcs_per_op" "count/op" (per_op (float_of_int !op_majors));
      metric ~n:ops "trace.coverage" "fraction" (if untraced_ms > 0. then covered /. untraced_ms else 0.);
      metric ~n:ops "trace.overhead_ratio" "fraction"
        (if untraced_ms > 0. then (total /. untraced_ms) -. 1. else 0.);
    ]
