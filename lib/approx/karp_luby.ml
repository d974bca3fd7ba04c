(** The Karp–Luby estimator for UCQ answer counts (Section 1.2 of the
    paper: "for approximate counting, unions can generally be handled using
    a standard trick of Karp and Luby").

    Sample space: pairs [(i, a)] with [a ∈ Ans(Ψ_i → D)]; its size
    [Σ_i ans(Ψ_i → D)] is computed exactly per disjunct (each disjunct is a
    single CQ, so the union-specific hardness does not arise).  A sample is
    a {e hit} when [i] is the smallest index whose disjunct contains [a];
    the number of hits in the sample space is exactly [ans(Ψ → D)], so the
    hit frequency times the space size is an unbiased estimator.  With
    [O(ℓ ε⁻² log δ⁻¹)] samples the estimate is an (ε, δ)-approximation —
    in contrast to exact counting, for which unions are genuinely harder
    than CQs (Theorem 5).

    Failed draws (a [None] after every seed rotation) are {e dropped}: they
    count in {!estimate.dropped}, not in the denominator.  Folding them
    into the denominator — as a plain [hits/samples] frequency would —
    silently biases the estimate low, because a dropped draw is not
    evidence of a miss. *)

type estimate = {
  value : float; (** the estimated [ans(Ψ → D)] *)
  samples : int; (** requested draws, including dropped ones *)
  space : int; (** [Σ_i ans(Ψ_i → D)] *)
  hits : int;
  dropped : int; (** draws that failed after every seed rotation *)
}

(** [membership_oracle q d s] builds a fast test for [a ∈ Ans(q → D)]
    beside [q]'s sampler [s]: a join-tree disjunct checks its atoms
    against hashed database relations in O(#atoms) per query; any other
    indexes the answer table its sampler holds, once.  A disjunct
    without answers (one over a symbol [d] lacks among them) reads
    nothing.  The oracle is read-only after construction, so pool
    domains share it freely. *)
let membership_oracle (q : Cq.t) (d : Structure.t) (s : Sampler.t) : (int * int) list -> bool =
  match s with
  | _ when Sampler.cardinality s = 0 -> fun _ -> false
  | Sampler.Table a ->
      let mem = Elim.mem a in
      fun answer -> mem (Array.map (fun v -> List.assoc v answer) a.cols)
  | Sampler.Tree _ ->
      let atoms =
        List.concat_map
          (fun (name, ts) ->
            if ts = [] then []
            else begin
              let set = Hashtbl.create 64 in
              List.iter (fun t -> Hashtbl.replace set t ()) (Structure.relation d name);
              List.map (fun qt -> (qt, set)) ts
            end)
          (Structure.relations (Cq.structure q))
      in
      fun answer ->
        List.for_all
          (fun (qt, set) ->
            Hashtbl.mem set (List.map (fun v -> List.assoc v answer) qt))
          atoms

(* seed-rotation retry bound for degenerate draws *)
let max_rotations = 3

let draws_c = Telemetry.counter "kl.draws"
let hits_c = Telemetry.counter "kl.hits"
let dropped_c = Telemetry.counter "kl.dropped"

(** One sampling loop: [n] draws with primary state [st]; [rotate r] is
    the fresh deterministic state for retry round [r ≥ 1].  Returns
    [(hits, dropped)]. *)
let sample_loop ?(budget : Budget.t option) ~(st : Random.State.t)
    ~(rotate : int -> Random.State.t) ~(weighted : (int * int) list)
    ~(draw : Random.State.t -> int -> (int * int) list option)
    ~(member : int -> (int * int) list -> bool) (n : int) : int * int =
  let hits = ref 0 in
  let dropped = ref 0 in
  for _ = 1 to n do
    Budget.tick_opt budget;
    let i = Sampler.weighted_choice st weighted in
    let rec attempt rotation =
      let state = if rotation = 0 then st else rotate rotation in
      match draw state i with
      | Some answer -> Some answer
      | None -> if rotation >= max_rotations then None else attempt (rotation + 1)
    in
    match attempt 0 with
    | None -> incr dropped
    | Some answer ->
        (* is i the first disjunct containing this answer? *)
        let first = ref true in
        for j = 0 to i - 1 do
          if !first && member j answer then first := false
        done;
        if !first then incr hits
  done;
  (!hits, !dropped)

(** [estimate_with ?seed ?budget ?pool ~samples ~counts ~draw ~member ()]
    is the estimator core over an abstract per-disjunct sampler: [counts]
    are the exact per-disjunct cardinalities, [draw st i] attempts one
    draw from disjunct [i], [member j a] tests [a ∈ Ans(Ψ_j → D)].  The
    public {!estimate} instantiates it with {!Sampler}s; tests instantiate
    it with fault-injecting samplers to exercise the dropped-draw
    accounting. *)
let estimate_with ?(seed = 0xACE) ?(budget : Budget.t option)
    ?(pool : Pool.t option) ~(samples : int) ~(counts : int list)
    ~(draw : Random.State.t -> int -> (int * int) list option)
    ~(member : int -> (int * int) list -> bool) () : estimate =
  let space = Listx.sum counts in
  if space = 0 then { value = 0.; samples = 0; space = 0; hits = 0; dropped = 0 }
  else begin
    Telemetry.with_span ?budget
      ~attrs:(fun () ->
        [ ("samples", Telemetry.I samples); ("space", Telemetry.I space) ])
      "kl.estimate"
    @@ fun () ->
    let weighted =
      List.mapi (fun i c -> (i, c)) counts |> List.filter (fun (_, c) -> c > 0)
    in
    let finish (hits : int) (dropped : int) : estimate =
      (* unbiased denominator: only draws that produced a sample carry
         information about the hit frequency *)
      Telemetry.add draws_c samples;
      Telemetry.add hits_c hits;
      Telemetry.add dropped_c dropped;
      let successes = samples - dropped in
      let value =
        if successes = 0 then 0.
        else
          float_of_int space *. float_of_int hits /. float_of_int successes
      in
      { value; samples; space; hits; dropped }
    in
    if not (Pool.is_parallel pool) then begin
      (* the pre-pool sequential path, bit-for-bit: one state drives
         choice and draws; retries rotate the base seed *)
      let st = Random.State.make [| seed |] in
      let rotate r = Random.State.make [| seed lxor (0x9E3779B9 * r) |] in
      let hits, dropped =
        sample_loop ?budget ~st ~rotate ~weighted ~draw ~member samples
      in
      finish hits dropped
    end
    else begin
      (* chunked: the sample budget splits into one chunk per worker, each
         with a state derived from (seed, chunk) only — a fixed
         (seed, jobs) pair is reproducible under any scheduling *)
      let p = Option.get pool in
      let jobs = Pool.jobs p in
      let run_chunk c =
        let n = (samples * (c + 1) / jobs) - (samples * c / jobs) in
        Telemetry.with_span
          ~attrs:(fun () ->
            [ ("chunk", Telemetry.I c); ("n", Telemetry.I n) ])
          "kl.chunk"
        @@ fun () ->
        let st = Random.State.make [| seed; c; 0x4B4C |] in
        let rotate r = Random.State.make [| seed; c; 0x4B4C; r |] in
        sample_loop ?budget ~st ~rotate ~weighted ~draw ~member n
      in
      let per_chunk = Pool.run p ?budget ~f:run_chunk jobs in
      let hits = Array.fold_left (fun acc (h, _) -> acc + h) 0 per_chunk in
      let dropped = Array.fold_left (fun acc (_, d) -> acc + d) 0 per_chunk in
      finish hits dropped
    end
  end

(** [estimate ?seed ?budget ?pool ~samples psi d] runs the estimator with
    a fixed sample budget.  A resource budget, when given, is ticked once
    per sample, so the sampling loop participates in deadline/step
    enforcement like every other engine.  A degenerate draw (an empty
    sample from a disjunct, which can only arise from a pathological
    sampler state) is retried under a deterministically rotated seed a
    bounded number of times, then dropped from the denominator. *)
let estimate ?(seed = 0xACE) ?(budget : Budget.t option)
    ?(pool : Pool.t option) ~(samples : int) (psi : Ucq.t) (d : Structure.t) :
    estimate =
  let disjuncts = Array.of_list (Ucq.disjuncts psi) in
  let samplers = Array.map (fun q -> Sampler.make q d) disjuncts in
  let counts = Array.to_list (Array.map Sampler.cardinality samplers) in
  (* a draw from disjunct i tests only j < i: the last needs no oracle *)
  let members =
    Array.init (Array.length disjuncts - 1) (fun j -> membership_oracle disjuncts.(j) d samplers.(j))
  in
  estimate_with ~seed ?budget ?pool ~samples ~counts
    ~draw:(fun st i -> Sampler.draw st samplers.(i))
    ~member:(fun j answer -> members.(j) answer)
    ()

(** [fpras ?seed ~epsilon ~delta psi d] chooses the sample budget from the
    accuracy parameters: [⌈ 4 ℓ ln(2/δ) / ε² ⌉] samples give an (ε, δ)
    guarantee (standard Karp–Luby analysis: the hit probability is at least
    [1/ℓ]). *)
let fpras ?(seed = 0xACE) ?(budget : Budget.t option) ?(pool : Pool.t option)
    ~(epsilon : float) ~(delta : float) (psi : Ucq.t) (d : Structure.t) :
    estimate =
  if epsilon <= 0. || delta <= 0. then invalid_arg "Karp_luby.fpras";
  let l = float_of_int (Ucq.length psi) in
  let samples =
    int_of_float (ceil (4. *. l *. log (2. /. delta) /. (epsilon *. epsilon)))
  in
  estimate ~seed ?budget ?pool ~samples psi d
