(** Exact answer counts by variable elimination (bucket elimination)
    over materialised relations, independent of {!Elim}.

    Counting the answers of a query with quantified variables is counting
    the distinct projections of the homomorphism set onto the free
    variables.  This evaluator materialises exactly that projection:
    quantified variables are eliminated one at a time (join the relations
    mentioning the variable, then project it out), then the remaining
    relations — all over free variables — are joined.  The intermediate
    relation sizes are governed by the elimination order; we pick the
    quantified variable occurring in the fewest current relations first. *)

(* A relation over distinct variables: its tuples, distinct, aligned with
   [vars]. *)
type rel = { vars : int list; tuples : int list list }

(* The values of [vs] in a tuple over [vars]. *)
let columns (vars : int list) (vs : int list) : int list -> int list =
  let pos = List.map (fun v -> Listx.index_of v vars) vs in
  fun t ->
    let a = Array.of_list t in
    List.map (fun p -> a.(p)) pos

(* The atom [R(qt)] over the distinct variables of [qt], sorted: the
   tuples of [R] agreeing on repeated variables. *)
let of_atom (qt : int list) (tuples : int list list) : rel =
  let vars = List.sort_uniq compare qt in
  let agrees t = List.for_all2 (fun v x -> List.for_all2 (fun u y -> u <> v || x = y) qt t) qt t in
  let keep = columns qt vars in
  { vars; tuples = List.sort_uniq compare (List.map keep (List.filter agrees tuples)) }

(* The natural join, over [r.vars] then the rest of [s.vars]. *)
let join (r : rel) (s : rel) : rel =
  let shared = List.filter (fun v -> List.mem v r.vars) s.vars in
  let extra = List.filter (fun v -> not (List.mem v r.vars)) s.vars in
  let index = Hashtbl.create (List.length s.tuples) in
  let key_s = columns s.vars shared and rest = columns s.vars extra in
  List.iter (fun t -> Hashtbl.add index (key_s t) (rest t)) s.tuples;
  let key_r = columns r.vars shared in
  { vars = r.vars @ extra;
    tuples = List.concat_map (fun t -> List.map (fun e -> t @ e) (Hashtbl.find_all index (key_r t))) r.tuples }

let join_all : rel list -> rel = List.fold_left join { vars = []; tuples = [ [] ] }

(* The answers of [q] over [d] as a relation over the free variables in
   some atom, or [None] when there are none. *)
let answer_relation (q : Cq.t) (d : Structure.t) : rel option =
  let rels =
    List.concat_map
      (fun (name, ts) -> List.map (fun qt -> of_atom qt (Structure.relation d name)) ts)
      (Structure.relations (Cq.structure q))
  in
  let rec eliminate rels = function
    | [] -> Some (join_all rels)
    | ys ->
        let occurrences y = List.length (List.filter (fun r -> List.mem y r.vars) rels) in
        let y = Listx.min_by occurrences ys in
        let ys = List.filter (( <> ) y) ys in
        match List.partition (fun r -> List.mem y r.vars) rels with
        | [], _ -> eliminate rels ys (* in no atom: the universe is not empty *)
        | with_y, without ->
            let joined = join_all with_y in
            let vars = List.filter (( <> ) y) joined.vars in
            let projected = { vars; tuples = List.sort_uniq compare (List.map (columns joined.vars vars) joined.tuples) } in
            if projected.tuples = [] then None else eliminate (projected :: without) ys
  in
  eliminate rels (Cq.quantified q)

(** [count_big q d] is [ans((A, X) → D)] in exact arbitrary precision, by
    materialising the answer relation: the independent oracle for the
    projecting order of {!Elim} (the isolated free-variable factor
    [n^missing] may exceed native range).  Over the empty universe no
    assignment exists unless [X = ∅], and the empty assignment is an
    answer iff the query is satisfied. *)
let count_big (q : Cq.t) (d : Structure.t) : Bigint.t =
  let n = Structure.universe_size d in
  if n = 0 then (if Cq.free q = [] && Hom.exists (Cq.structure q) d then Bigint.one else Bigint.zero)
  else if not (Structure.covered_by (Cq.structure q) d) then Bigint.zero
  else
    match answer_relation q d with
    | None -> Bigint.zero
    | Some r ->
        let missing = List.filter (fun x -> not (List.mem x r.vars)) (Cq.free q) in
        Bigint.mul (Bigint.of_int (List.length r.tuples)) (Bigint.pow (Bigint.of_int n) (List.length missing))
