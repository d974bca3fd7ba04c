(** Evaluation of conjunctive queries with existential quantification by
    variable elimination (bucket elimination).

    Counting the answers of a query with quantified variables is counting
    the distinct projections of the homomorphism set onto the free
    variables.  This evaluator materialises exactly that projection:
    quantified variables are eliminated one at a time (join the relations
    mentioning the variable, then project it out), then the remaining
    relations — all over free variables — are joined.  The intermediate
    relation sizes are governed by the elimination order; we pick the
    quantified variable occurring in the fewest current relations first. *)

(** [answer_relation q d] is the set of answers [Ans((A, X) → D)] as a
    relation over a subset [V ⊆ X] of covered free variables, paired with
    the number of free variables not covered by any atom (each such
    variable ranges freely over the universe). *)
let answer_relation (q : Cq.t) (d : Structure.t) : Relation.t * int =
  let a = Cq.structure q in
  if not (Signature.subset (Structure.signature a) (Structure.signature d))
  then (Relation.falsity, 0)
  else begin
    let rels =
      ref
        (List.concat_map
           (fun (name, ts) ->
             let td = Structure.relation d name in
             List.map (fun qt -> Relation.of_atom qt td) ts)
           (Structure.relations a))
    in
    let remaining = ref (Cq.quantified q) in
    let domain_nonempty = Structure.universe_size d > 0 in
    let ok = ref true in
    while !remaining <> [] && !ok do
      (* choose the quantified variable in the fewest relations *)
      let occurrences y =
        List.length (List.filter (fun r -> List.mem y r.Relation.vars) !rels)
      in
      let y = Listx.min_by occurrences !remaining in
      remaining := List.filter (fun z -> z <> y) !remaining;
      let with_y, without_y =
        List.partition (fun r -> List.mem y r.Relation.vars) !rels
      in
      match with_y with
      | [] ->
          (* isolated quantified variable: satisfiable iff the domain is
             non-empty *)
          if not domain_nonempty then ok := false
      | _ ->
          let joined = Relation.join_all with_y in
          let projected = Relation.eliminate joined y in
          if Relation.is_empty projected then ok := false;
          rels := projected :: without_y
    done;
    if not !ok then (Relation.falsity, 0)
    else begin
      let answers = Relation.join_all !rels in
      let covered = answers.Relation.vars in
      let missing =
        List.length (List.filter (fun x -> not (List.mem x covered)) (Cq.free q))
      in
      (answers, missing)
    end
  end

(* Over the empty universe no assignment exists unless X = ∅, and the
   empty assignment is an answer iff the query is satisfied. *)
let empty_universe_answer (q : Cq.t) (d : Structure.t) : bool =
  Cq.free q = [] && Hom.exists (Cq.structure q) d

(** [answers q d] enumerates the full answer set over the sorted free
    variables (materialising the cartesian expansion of uncovered
    variables).  Intended for tests and small examples. *)
let answers (q : Cq.t) (d : Structure.t) : int list list =
  let n = Structure.universe_size d in
  if n = 0 then if empty_universe_answer q d then [ [] ] else []
  else begin
    let rel, _ = answer_relation q d in
    let covered = rel.Relation.vars in
    let x = Cq.free q in
    let missing = List.filter (fun v -> not (List.mem v covered)) x in
    let dom = Structure.universe d in
    let expansions = Combinat.tuples (List.length missing) dom in
    List.concat_map
      (fun tup ->
        let env = List.combine covered tup in
        List.map
          (fun ext ->
            let env = env @ List.combine missing ext in
            List.map (fun v -> List.assoc v env) x)
          expansions)
      rel.Relation.tuples
    |> List.sort_uniq compare
  end

(** [count_big q d] is [ans((A, X) → D)] in exact arbitrary precision, by
    materialising the answer relation: the independent oracle for the
    projecting order of {!Elim} (the isolated free-variable factor
    [n^missing] may exceed native range). *)
let count_big (q : Cq.t) (d : Structure.t) : Bigint.t =
  let n = Structure.universe_size d in
  if n = 0 then (if empty_universe_answer q d then Bigint.one else Bigint.zero)
  else begin
    let answers, missing = answer_relation q d in
    Bigint.mul
      (Bigint.of_int (Relation.cardinality answers))
      (Bigint.pow (Bigint.of_int n) missing)
  end
