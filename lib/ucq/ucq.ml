(** Unions of conjunctive queries (Section 2.3 of the paper).

    A UCQ is a tuple of structures over the same signature together with a
    shared set [X] of free variables present in every universe.  As in the
    paper we maintain the convention that distinct disjuncts share only
    their free variables ([U(A_i) ∩ U(A_j) = X] for [i ≠ j]); {!make}
    renames quantified variables apart to enforce it.

    Disjuncts are stored in an array: the [2^ℓ] subset loops of the
    expansion and inclusion–exclusion counters select disjuncts by index,
    and list indexing would cost O(ℓ) per selection — O(ℓ²) per subset —
    inside an exponential loop. *)

module Intset = Intset

type t = { cqs : Structure.t array; free : int list (* sorted *) }

let length (psi : t) : int = Array.length psi.cqs
let free (psi : t) : int list = psi.free
let disjunct_structures (psi : t) : Structure.t list = Array.to_list psi.cqs

(** [num_atoms psi] is the total atom count Σ_i |atoms(Ψ_i)| — the
    optimizer's shrink metric alongside {!length}. *)
let num_atoms (psi : t) : int =
  Array.fold_left (fun acc a -> acc + Structure.num_tuples a) 0 psi.cqs

(** [disjunct psi i] is the [i]-th CQ of the union ([Ψ_i]). *)
let disjunct (psi : t) (i : int) : Cq.t = Cq.make psi.cqs.(i) psi.free

let disjuncts (psi : t) : Cq.t list =
  Array.to_list (Array.map (fun a -> Cq.make a psi.free) psi.cqs)

(** [make cqs] builds a UCQ from conjunctive queries that must all have the
    same free-variable set and signature; quantified variables are renamed
    apart. *)
let make (cqs : Cq.t list) : t =
  match cqs with
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: rest ->
      let x = Cq.free first in
      List.iter
        (fun q ->
          if Cq.free q <> x then
            invalid_arg "Ucq.make: free variable sets differ";
          if
            not
              (Signature.equal
                 (Structure.signature (Cq.structure q))
                 (Structure.signature (Cq.structure first)))
          then invalid_arg "Ucq.make: signatures differ")
        rest;
      (* Rename quantified variables apart. *)
      let fresh =
        ref
          (1
          + List.fold_left
              (fun acc q ->
                List.fold_left max acc (Structure.universe (Cq.structure q)))
              0 cqs)
      in
      let xset = Intset.of_list x in
      let structures =
        List.map
          (fun q ->
            let a = Cq.structure q in
            let mapping = Hashtbl.create 8 in
            List.iter
              (fun v ->
                if Intset.mem v xset then Hashtbl.add mapping v v
                else begin
                  Hashtbl.add mapping v !fresh;
                  incr fresh
                end)
              (Structure.universe a);
            Structure.rename a (Hashtbl.find mapping))
          cqs
      in
      { cqs = Array.of_list structures; free = x }

(** [of_structures structures free] builds a UCQ directly (used by the
    reduction pipeline, whose structures are already renamed apart: their
    quantified parts are empty). *)
let of_structures (structures : Structure.t list) (free : int list) : t =
  make (List.map (fun a -> Cq.make a free) structures)

(** [size psi] is [|Ψ| = Σ_i |Ψ_i|]. *)
let size (psi : t) : int =
  Array.fold_left
    (fun acc a -> acc + Structure.size a + List.length psi.free)
    0 psi.cqs

(** [arity psi] is the maximum relation arity. *)
let arity (psi : t) : int =
  Array.fold_left
    (fun acc a -> max acc (Signature.arity (Structure.signature a)))
    0 psi.cqs

let is_quantifier_free (psi : t) : bool =
  Array.for_all (fun a -> Structure.universe a = psi.free) psi.cqs

(** [num_quantified psi] is the total number of existentially quantified
    variables, [Σ_i |U(A_i) \ X|]. *)
let num_quantified (psi : t) : int =
  Array.fold_left
    (fun acc a -> acc + (Structure.universe_size a - List.length psi.free))
    0 psi.cqs

(** [restrict psi j] is the sub-union [Ψ|_J] for a list [j] of disjunct
    indices. *)
let restrict (psi : t) (j : int list) : t =
  let j = Listx.sort_uniq_ints j in
  if j = [] then invalid_arg "Ucq.restrict: empty index set";
  { cqs = Array.of_list (List.map (fun i -> psi.cqs.(i)) j); free = psi.free }

(** [combined psi j] is the combined conjunctive query [∧(Ψ|_J)]
    (Definition 23): the union of the structures of the selected disjuncts
    with the same free variables. *)
let combined (psi : t) (j : int list) : Cq.t =
  let j = Listx.sort_uniq_ints j in
  if j = [] then invalid_arg "Ucq.combined: empty index set";
  let structures = List.map (fun i -> psi.cqs.(i)) j in
  Cq.make (Structure.union_all structures) psi.free

(** [combined_all psi] is [∧(Ψ)]. *)
let combined_all (psi : t) : Cq.t =
  combined psi (List.init (length psi) (fun i -> i))

(** [deletion_closure psi] lists all sub-unions [Ψ|_J] for nonempty
    [J ⊆ [ℓ]] — the closure under deletions of Section 3. *)
let deletion_closure (psi : t) : t list =
  List.map (restrict psi) (Combinat.nonempty_subsets (length psi))

(** [is_union_of_acyclic psi] checks that every disjunct is acyclic. *)
let is_union_of_acyclic (psi : t) : bool =
  List.for_all Cq.is_acyclic (disjuncts psi)

(** [is_union_of_self_join_free psi] checks condition (III) of Theorem 3. *)
let is_union_of_self_join_free (psi : t) : bool =
  List.for_all Cq.is_self_join_free (disjuncts psi)

(* ------------------------------------------------------------------ *)
(* Counting answers                                                   *)
(* ------------------------------------------------------------------ *)

let ie_terms_c = Telemetry.counter "ucq.ie.terms"
let expansion_classes_c = Telemetry.counter "ucq.expansion.classes"

(* bitmask of an index set [J ⊆ [ℓ]], for span attributes *)
let subset_mask (j : int list) : int =
  List.fold_left (fun m i -> m lor (1 lsl i)) 0 j

(* Structural cost proxy for scheduling the per-subset work of
   inclusion–exclusion (combined query construction, homomorphism
   counting): the combined query of [J] has [Σ atoms] atoms over
   [≈ Σ vars] variables, and the counters grow with that product.
   Only relative order matters — the pool bin-packs largest-first — so
   a cheap syntactic proxy is enough and never touches the database. *)
let subset_cost_proxy (psi : t) : int list -> float =
  let atoms = Array.map Structure.num_tuples psi.cqs in
  let vars = Array.map Structure.universe_size psi.cqs in
  fun j ->
    let a = List.fold_left (fun acc i -> acc + atoms.(i)) 0 j in
    let v = List.fold_left (fun acc i -> acc + vars.(i)) 0 j in
    float_of_int (1 + a) *. float_of_int (1 + v)

(* Database-independent default for scheduling expansion terms; callers
   with a database in hand pass the calibrated [Plan.rep_cost] instead.
   Non-acyclic terms go through variable elimination rather than the
   linear join-tree counter, so they get a flat penalty factor. *)
let default_term_cost (q : Cq.t) : float =
  let s = Cq.structure q in
  let base =
    float_of_int (1 + Structure.num_tuples s)
    *. float_of_int (1 + Structure.universe_size s)
  in
  if Cq.is_acyclic q then base else base *. 8.

(** [count_naive ?budget ?pool psi d] iterates all assignments [X → U(D)]
    and keeps those that are an answer of some disjunct — the reference
    oracle.  The budget is ticked once per assignment and threaded into
    the homomorphism search.  Assignments are enumerated lazily (never
    materialising the [|D|^|X|] product); with a parallel pool the index
    space is split into ranges swept by the worker domains. *)
let count_naive ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t)
    (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () ->
      [
        ("l", Telemetry.I (length psi));
        ("free", Telemetry.I (List.length psi.free));
        ("dom", Telemetry.I (Structure.universe_size d));
      ])
    "ucq.naive"
  @@ fun () ->
  let x = psi.free in
  let k = List.length x in
  let dom = Structure.universe d in
  let cqs = Array.to_list psi.cqs in
  let is_answer tup =
    Budget.tick_opt budget;
    let fixed = List.combine x tup in
    List.exists (fun a -> Hom.exists ?budget ~fixed a d) cqs
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

(** The nonempty index sets [J ⊆ [ℓ]] in bitmask order — the iteration
    space of the inclusion–exclusion counter. *)
let nonempty_index_sets (psi : t) : int list array =
  Array.of_list (Combinat.nonempty_subsets (length psi))

(** [count_inclusion_exclusion ?strategy ?budget ?pool psi d] computes
    [ans(Ψ → D) = Σ_{∅≠J} (-1)^(|J|+1) · ans(∧(Ψ|_J) → D)]
    (the proof of Lemma 26), counting each combined query with the given
    per-CQ strategy.  The budget is ticked once per index set [J] and
    threaded into each per-CQ count.  Each signed term is an independent
    {!Counting.count} call, so a pool fans the [2^ℓ − 1] terms out across
    domains; the signed sum is reduced in bitmask order regardless of
    scheduling. *)
let count_inclusion_exclusion ?(strategy = Counting.Auto)
    ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t)
    (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.ie"
  @@ fun () ->
  let term j =
    Budget.tick_opt budget;
    Telemetry.incr ie_terms_c;
    Telemetry.with_span
      ~attrs:(fun () -> [ ("subset", Telemetry.I (subset_mask j)) ])
      "ucq.ie.term"
    @@ fun () ->
    let sign = if List.length j mod 2 = 1 then 1 else -1 in
    sign * Counting.count ~strategy ?budget (combined psi j) d
  in
  let costs = if Pool.is_parallel pool then Some (subset_cost_proxy psi) else None in
  Pool.fold_opt pool ?budget ?costs ~f:term ~combine:( + ) ~init:0
    (nonempty_index_sets psi)

(* ------------------------------------------------------------------ *)
(* CQ expansion (Definition 25, Lemma 26)                             *)
(* ------------------------------------------------------------------ *)

(** One #equivalence class of the CQ expansion: a #minimal representative
    (the #core of the combined queries in the class) and its coefficient
    [c_Ψ]. *)
type expansion_term = { representative : Cq.t; coefficient : int }

let expansion_cores_c = Telemetry.counter "ucq.expansion.cores"

(* Index masks are native ints, and [1 lsl 62] is already negative: a
   mask loop over 62 or more disjuncts would wrap and run zero times,
   returning an empty support.  Such unions are refused with the error
   the subset-list iterators raise for them. *)
let check_width (psi : t) : unit =
  if length psi >= 62 then invalid_arg "Combinat.subsets_fold"

(* the members of an index mask, ascending *)
let indices_of_mask (mask : int) : int list =
  let rec go i m acc =
    if m = 0 then List.rev acc
    else go (i + 1) (m lsr 1) (if m land 1 = 1 then i :: acc else acc)
  in
  go 0 mask []

let sign_of_size (n : int) : int = if n mod 2 = 1 then 1 else -1

(* One #core computation of the expansion, counted and traced under the
   index mask it was computed for. *)
let core_at (mask : int) (q : Cq.t) : Cq.t =
  Telemetry.incr expansion_cores_c;
  Telemetry.with_span
    ~attrs:(fun () -> [ ("subset", Telemetry.I mask) ])
    "ucq.expansion.core"
  @@ fun () -> Cq.sharp_core q

(* An isomorphism invariant of a query: relation sizes, and the
   occurrence profiles (relation, position) of its free and of its
   quantified elements.  With [~pointwise:true] the free profiles stay
   in the order of X, which only an isomorphism fixing X pointwise
   preserves; otherwise they are sorted, as under any isomorphism
   mapping X onto X. *)
type class_key = int list * int list list * int list list

let class_key ~(pointwise : bool) (q : Cq.t) : class_key =
  let a = Cq.structure q in
  let occ = Hashtbl.create 16 in
  List.iteri
    (fun r (_, ts) ->
      List.iter
        (List.iteri (fun pos v ->
             let code = (r lsl 8) lor pos in
             Hashtbl.replace occ v
               (code :: Option.value ~default:[] (Hashtbl.find_opt occ v))))
        ts)
    (Structure.relations a);
  let profile v =
    List.sort compare (Option.value ~default:[] (Hashtbl.find_opt occ v))
  in
  let free = List.map profile (Cq.free q) in
  ( List.map (fun (_, ts) -> List.length ts) (Structure.relations a),
    (if pointwise then free else List.sort compare free),
    List.sort compare (List.map profile (Cq.quantified q)) )

(* Growable arrays for the class tables. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec () : 'a vec = { data = [||]; len = 0 }

let push (v : 'a vec) (x : 'a) : unit =
  if v.len = Array.length v.data then
    v.data <- Array.append v.data (Array.make (max 8 v.len) x);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Isomorphism classes of #cores, numbered in order of creation, each
   with its representative and signed count.  A core is compared only
   with the classes in its bucket: the bucket key is an isomorphism
   invariant, so classes in other buckets cannot match. *)
type classes = {
  key : Cq.t -> class_key;
  same : Cq.t -> Cq.t -> bool;
  buckets : (class_key, int list) Hashtbl.t;
  reps : Cq.t vec;
  coeffs : int vec;
}

let classes ~(pointwise : bool) : classes =
  {
    key = class_key ~pointwise;
    same =
      (if pointwise then Cq.isomorphic_pointwise
       else fun a b -> Cq.equal a b || Cq.isomorphic a b);
    buckets = Hashtbl.create 64;
    reps = vec ();
    coeffs = vec ();
  }

(* [find_class cls q] is the class of [q], [None] when it is new. *)
let find_class (cls : classes) (q : Cq.t) : int option * class_key =
  let key = cls.key q in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt cls.buckets key) in
  (List.find_opt (fun c -> cls.same cls.reps.data.(c) q) bucket, key)

(* [new_class cls key rep] opens the next class with coefficient 0. *)
let new_class (cls : classes) (key : class_key) (rep : Cq.t) : int =
  let c = cls.reps.len in
  push cls.reps rep;
  push cls.coeffs 0;
  Hashtbl.replace cls.buckets key
    (c :: Option.value ~default:[] (Hashtbl.find_opt cls.buckets key));
  c

let terms_of (cls : classes) : expansion_term list =
  Telemetry.add expansion_classes_c cls.reps.len;
  List.init cls.reps.len (fun c ->
      { representative = cls.reps.data.(c); coefficient = cls.coeffs.data.(c) })

(** [expansion ?budget psi] computes the CQ expansion of [Ψ]: the
    combined queries [∧(Ψ|_J)] over all nonempty [J], grouped by
    #equivalence, each class with the signed count
    [Σ (-1)^(|J|+1)] of its index sets.  Representatives are #cores, so
    by Lemma 18 grouping by isomorphism of #cores is exactly grouping by
    #equivalence.  Terms with coefficient [0] are retained; use
    {!support} for the non-vanishing part.

    The masks are walked in increasing order, one budget tick each.
    Since [∧] glues renamed-apart disjuncts on [X], hom-equivalence
    fixing [X] pointwise is a congruence for it: the class of
    [∧(Ψ|_J)] is a function of its highest index [i] and the class of
    [∧(Ψ|_(J∖{i}))].  A #core is therefore computed once per new
    (class, [i]) transition — of the representative, which was found at
    a smaller mask and so shares no quantified element with [A_i],
    glued to [A_i] — and every other mask is a table lookup.  A last
    pass coarsens these pointwise classes to the isomorphism classes of
    {!Cq.isomorphic}, which may map [X] onto itself non-trivially, and
    recomputes each class's representative as the #core of its first
    index set: the result equals {!expansion_by_subsets} element for
    element.  Memory grows with the masks walked, never ahead of the
    budget.
    @raise Invalid_argument for 62 or more disjuncts. *)
let expansion ?(budget : Budget.t option) (psi : t) : expansion_term list =
  check_width psi;
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.expansion"
  @@ fun () ->
  let l = length psi in
  let pointwise = classes ~pointwise:true in
  (* per pointwise class: the mask it was found at, the query whose
     #core became its representative, and its successor class under
     each disjunct ([-1]: not computed yet) *)
  let first = vec () and input = vec () and succ = vec () in
  let from_empty = Array.make l (-1) in
  let transition c i mask =
    let row = if c < 0 then from_empty else succ.data.(c) in
    if row.(i) < 0 then begin
      let q =
        if c < 0 then Cq.make psi.cqs.(i) psi.free
        else
          Cq.make
            (Structure.union (Cq.structure pointwise.reps.data.(c)) psi.cqs.(i))
            psi.free
      in
      let core = core_at mask q in
      row.(i) <-
        (match find_class pointwise core with
        | Some c', _ -> c'
        | None, key ->
            push first mask;
            push input q;
            push succ (Array.make l (-1));
            new_class pointwise key core)
    end;
    row.(i)
  in
  (* class lsl 1 lor (|J| mod 2), per mask below 2^(l-1): the masks
     whose class a later mask reads *)
  let table = ref [||] in
  for i = 0 to l - 1 do
    let bit = 1 lsl i in
    let keep = i < l - 1 in
    if keep then table := Array.append !table (Array.make (2 * bit - Array.length !table) 0);
    for rest = 0 to bit - 1 do
      Budget.tick_opt budget;
      let c_rest, odd_rest =
        if rest = 0 then (-1, 0)
        else
          let e = !table.(rest) in
          (e lsr 1, e land 1)
      in
      let c = transition c_rest i (bit lor rest) in
      let odd = 1 - odd_rest in
      if keep then !table.(bit lor rest) <- (c lsl 1) lor odd;
      pointwise.coeffs.data.(c) <-
        pointwise.coeffs.data.(c) + sign_of_size odd
    done
  done;
  (* Coarsen in first-mask order, so classes come out in order of first
     appearance and each representative is the #core of its class's
     first index set.  That #core was computed already when the
     transition glued exactly the first index set's combined query —
     always for singletons, and in quantifier-free unions, whose
     classes hold identical combined queries. *)
  let setwise = classes ~pointwise:false in
  for c = 0 to pointwise.reps.len - 1 do
    let s =
      match find_class setwise pointwise.reps.data.(c) with
      | Some s, _ -> s
      | None, key ->
          let mask = first.data.(c) in
          let q = combined psi (indices_of_mask mask) in
          new_class setwise key
            (if Cq.equal q input.data.(c) then pointwise.reps.data.(c)
             else core_at mask q)
    in
    setwise.coeffs.data.(s) <-
      setwise.coeffs.data.(s) + pointwise.coeffs.data.(c)
  done;
  terms_of setwise

(** [expansion_by_subsets ?budget psi] is the reference for {!expansion}:
    one #core per nonempty index set, grouped by a linear scan of the
    classes found so far.  It computes [2^ℓ − 1] #cores, so it serves as
    the test oracle only.  One budget tick per index set, as in
    {!expansion}.
    @raise Invalid_argument for 62 or more disjuncts. *)
let expansion_by_subsets ?(budget : Budget.t option) (psi : t) :
    expansion_term list =
  check_width psi;
  let classes : (Cq.t * int ref) list ref = ref [] in
  for mask = 1 to (1 lsl length psi) - 1 do
    Budget.tick_opt budget;
    let j = indices_of_mask mask in
    let core = core_at mask (combined psi j) in
    let sign = sign_of_size (List.length j) in
    let rec insert = function
      | [] -> classes := !classes @ [ (core, ref sign) ]
      | (rep, coeff) :: rest ->
          (* syntactic equality is a cheap certificate of isomorphism
             and the common case in quantifier-free expansions *)
          if Cq.equal rep core || Cq.isomorphic rep core then
            coeff := !coeff + sign
          else insert rest
    in
    insert !classes
  done;
  Telemetry.add expansion_classes_c (List.length !classes);
  List.map
    (fun (rep, coeff) -> { representative = rep; coefficient = !coeff })
    !classes

(** [terms_equal a b]: the same terms in the same order, with
    syntactically equal representatives — how {!expansion} is held to
    {!expansion_by_subsets}. *)
let terms_equal (a : expansion_term list) (b : expansion_term list) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.coefficient = y.coefficient
         && Cq.equal x.representative y.representative)
       a b

(** [support ?budget psi] is the expansion restricted to non-zero
    coefficients: the #minimal queries [(A, X)] with [c_Ψ(A, X) ≠ 0]. *)
let support ?(budget : Budget.t option) (psi : t) : expansion_term list =
  List.filter (fun t -> t.coefficient <> 0) (expansion ?budget psi)

(** [coefficient psi q] is [c_Ψ(A, X)] for a conjunctive query [q]
    (Definition 25): the signed number of index sets whose combined query is
    #equivalent to [q]. *)
let coefficient (psi : t) (q : Cq.t) : int =
  let core = Cq.sharp_core q in
  List.fold_left
    (fun acc (term : expansion_term) ->
      if Cq.isomorphic term.representative core then acc + term.coefficient
      else acc)
    0 (expansion psi)

(** [count_terms ?strategy ?budget ?pool ?term_cost terms d] evaluates a
    Lemma 26 linear combination term by term:
    [Σ c · ans((A,X) → D)] over the terms with non-zero coefficient.
    Each term is an independent {!Counting.count} call fanned out on the
    pool; [term_cost] ranks the terms for largest-first placement (the
    Runner passes the calibrated database-aware estimate from the
    analysis layer).  The sum is reduced in list order. *)
let count_terms ?(strategy = Counting.Auto) ?(budget : Budget.t option)
    ?(pool : Pool.t option) ?(term_cost : (Cq.t -> float) option)
    (terms : expansion_term list) (d : Structure.t) : int =
  let terms =
    Array.of_list (List.filter (fun t -> t.coefficient <> 0) terms)
  in
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("terms", Telemetry.I (Array.length terms)) ])
    "ucq.count_terms"
  @@ fun () ->
  let costs =
    if Pool.is_parallel pool then
      let cost = Option.value term_cost ~default:default_term_cost in
      Some (fun (t : expansion_term) -> cost t.representative)
    else None
  in
  Pool.fold_opt pool ?budget ?costs
    ~f:(fun (term : expansion_term) ->
      term.coefficient * Counting.count ~strategy ?budget term.representative d)
    ~combine:( + ) ~init:0 terms

(** [count_via_expansion ?strategy ?budget ?pool ?term_cost psi d] is
    {!count_terms} over the expansion of [psi]. *)
let count_via_expansion ?(strategy = Counting.Auto) ?(budget : Budget.t option)
    ?(pool : Pool.t option) ?(term_cost : (Cq.t -> float) option) (psi : t)
    (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.count_via_expansion"
  @@ fun () ->
  count_terms ~strategy ?budget ?pool ?term_cost (expansion ?budget psi) d

(** [is_exhaustively_q_hierarchical psi] checks the Berkholz–Keppeler–
    Schweikardt criterion for constant-delay dynamic counting of UCQs
    ([12, Theorem 4.5], discussed in Section 1.2): every combined query
    [∧(Ψ|_J)] must be q-hierarchical.  The straightforward algorithm used
    here is exponential in [ℓ]; whether this can be improved is open. *)
let is_exhaustively_q_hierarchical (psi : t) : bool =
  List.for_all
    (fun j -> Cq.is_q_hierarchical (combined psi j))
    (Combinat.nonempty_subsets (length psi))

let pp (fmt : Format.formatter) (psi : t) : unit =
  Format.fprintf fmt "@[<v>UCQ with %d disjuncts, free = {%s}@]" (length psi)
    (String.concat "," (List.map string_of_int psi.free))

(** [count_via_expansion_big psi d] is the exact arbitrary-precision variant
    of {!count_via_expansion}; it is the oracle used by the
    complexity-monotonicity solver (Theorem 28), whose tensor-product
    databases push answer counts beyond native range. *)
let count_via_expansion_big (psi : t) (d : Structure.t) : Bigint.t =
  List.fold_left
    (fun acc (term : expansion_term) ->
      if term.coefficient = 0 then acc
      else
        Bigint.add acc
          (Bigint.mul
             (Bigint.of_int term.coefficient)
             (Counting.count_big term.representative d)))
    Bigint.zero (expansion psi)

(** [count_inclusion_exclusion_big psi d] is the exact arbitrary-precision
    variant of {!count_inclusion_exclusion}. *)
let count_inclusion_exclusion_big (psi : t) (d : Structure.t) : Bigint.t =
  Combinat.subsets_fold
    (fun acc j ->
      match j with
      | [] -> acc
      | _ ->
          let term = Counting.count_big (combined psi j) d in
          if List.length j mod 2 = 1 then Bigint.add acc term
          else Bigint.sub acc term)
    Bigint.zero (length psi)
