(** Counting answers to a single conjunctive query: strategy dispatch.

    - [Naive] iterates all assignments of the free variables and tests
      extendability with the backtracking engine — the reference oracle.
    - Every other strategy runs the one elimination engine {!Elim} in
      the order the strategy names: [Yannakakis] its linear-time GYO
      order for acyclic quantifier-free queries (Theorems 4/37),
      [Weighted] sum-product elimination for quantifier-free queries,
      [Varelim] existential projection of the quantified variables
      for any query.
    - [Auto] picks the cheapest sound strategy for the query shape. *)

type strategy = Auto | Naive | Yannakakis | Weighted | Varelim

exception Unsupported of string

(* per-resolved-strategy call counters — counters, not spans: [count] sits
   inside the 2^ℓ subset loops and a per-call span closure would allocate
   even with telemetry off *)
let naive_c = Telemetry.counter "count.naive"
let yannakakis_c = Telemetry.counter "count.yannakakis"
let weighted_c = Telemetry.counter "count.weighted"
let varelim_c = Telemetry.counter "count.varelim"

(** [count ?strategy ?budget ?pool q d] is [ans((A, X) → D)].  The budget
    is threaded into the engines with super-linear worst cases ([Naive]
    assignment enumeration, the variable-elimination joins); the
    linear-time acyclic order only re-checks the limits on entry.
    [Naive] enumerates the [|D|^|X|] assignments lazily (never
    materialising the product) and, given a parallel pool, sweeps index
    ranges of the assignment space on the worker domains.
    @raise Unsupported when a forced strategy does not apply to [q].
    @raise Budget.Exhausted when the budget runs out mid-count. *)
let count ?(strategy = Auto) ?(budget : Budget.t option)
    ?(pool : Pool.t option) (q : Cq.t) (d : Structure.t) : int =
  Budget.check_opt budget;
  let quantifier_free = Cq.is_quantifier_free q in
  let require ok msg = if not ok then raise (Unsupported msg) in
  (* a term naming a relation the database lacks counts 0 in any order *)
  let acyclic () =
    Cq.is_acyclic q
    || not (Structure.covered_by (Cq.structure q) d)
  in
  let elim c order =
    Telemetry.incr c;
    Elim.count ?budget order q d
  in
  match strategy with
  | Naive ->
      Telemetry.incr naive_c;
      let x = Cq.free q in
      let k = List.length x in
      let dom = Structure.universe d in
      let is_answer tup =
        Budget.tick_opt budget;
        Hom.exists ?budget ~fixed:(List.combine x tup) (Cq.structure q) d
      in
      if not (Pool.is_parallel pool) then
        Seq.fold_left
          (fun acc tup -> if is_answer tup then acc + 1 else acc)
          0
          (Combinat.tuples_seq k dom)
      else
        Pool.count_range (Option.get pool) ?budget
          ~total:(Combinat.num_tuples k dom)
          (fun idx -> is_answer (Combinat.tuple_of_index k dom idx))
  | Yannakakis ->
      require quantifier_free "Yannakakis counting requires a quantifier-free query";
      require (acyclic ()) "Yannakakis counting requires an acyclic query";
      elim yannakakis_c Elim.Acyclic
  | Weighted ->
      require quantifier_free "Weighted counting requires a quantifier-free query";
      elim weighted_c Elim.Summing
  | Varelim -> elim varelim_c Elim.Projecting
  | Auto ->
      if not quantifier_free then elim varelim_c Elim.Projecting
      else if acyclic () then elim yannakakis_c Elim.Acyclic
      else elim weighted_c Elim.Summing

(** [count_big q d] is [ans((A, X) → D)] with exact arbitrary-precision
    arithmetic (same automatic dispatch as [count ~strategy:Auto]). *)
let count_big (q : Cq.t) (d : Structure.t) : Bigint.t =
  if Cq.is_quantifier_free q then begin
    match Jointree_count.count_big (Cq.structure q) d with
    | Some c -> c
    | None -> Treedec_count.count_big (Cq.structure q) d
  end
  else Varelim.count_big q d
