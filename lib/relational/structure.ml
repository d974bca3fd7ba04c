(** Relational structures (databases) over integer universes.

    Following Section 2.2 of the paper, a structure consists of a signature,
    a finite universe and one relation (a set of tuples over the universe)
    per relation symbol.  Databases and the structures [A_φ] associated with
    conjunctive queries share this representation.

    Invariants: the universe is a sorted duplicate-free list; each relation
    is a lexicographically sorted duplicate-free list of tuples of the
    symbol's arity over the universe; every signature symbol has an entry
    (possibly empty).  Structures are immutable; all operations are
    functional. *)

module Listx = Listx
module Intset = Intset

type tuple = int list

type t = {
  signature : Signature.t;
  universe : int list; (* sorted, duplicate-free *)
  relations : (string * tuple list) list; (* sorted by name, aligned with signature *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let normalize_tuples (tuples : tuple list) : tuple list =
  List.sort_uniq compare tuples

(** [make signature universe relations] builds a structure, validating that
    every tuple has the right arity and only mentions universe elements.
    Symbols absent from [relations] get the empty relation. *)
let make (signature : Signature.t) (universe : int list)
    (relations : (string * tuple list) list) : t =
  let universe = Listx.sort_uniq_ints universe in
  let uset = Intset.of_list universe in
  List.iter
    (fun (name, _) ->
      if not (Signature.mem signature name) then
        invalid_arg ("Structure.make: symbol not in signature: " ^ name))
    relations;
  let relations =
    List.map
      (fun (s : Signature.symbol) ->
        let tuples =
          List.concat_map
            (fun (name, ts) -> if name = s.name then ts else [])
            relations
        in
        List.iter
          (fun tup ->
            if List.length tup <> s.arity then
              invalid_arg
                (Printf.sprintf "Structure.make: arity mismatch in %s" s.name);
            List.iter
              (fun v ->
                if not (Intset.mem v uset) then
                  invalid_arg
                    (Printf.sprintf
                       "Structure.make: element %d not in universe (%s)" v
                       s.name))
              tup)
          tuples;
        (s.name, normalize_tuples tuples))
      signature
  in
  { signature; universe; relations }

(** [empty signature] is the structure with empty universe and relations. *)
let empty (signature : Signature.t) : t = make signature [] []

let universe (a : t) : int list = a.universe
let universe_set (a : t) : Intset.t = Intset.of_list a.universe
let universe_size (a : t) : int = List.length a.universe
let signature (a : t) : Signature.t = a.signature

(** [relation a name] is the tuple list of symbol [name] (empty when the
    symbol exists but has no tuples).
    @raise Invalid_argument for unknown symbols. *)
let relation (a : t) (name : string) : tuple list =
  match List.assoc_opt name a.relations with
  | Some ts -> ts
  | None -> invalid_arg ("Structure.relation: unknown symbol " ^ name)

let relations (a : t) : (string * tuple list) list = a.relations

(** [covered_by a d]: every symbol with a tuple in [a] is a symbol of [d]
    of the same arity, so [d] holds a relation for every atom of [a]. *)
let covered_by (a : t) (d : t) : bool =
  List.for_all2
    (fun (s : Signature.symbol) (_, ts) ->
      match ts with
      | [] -> true
      | _ -> ( match Signature.find_opt d.signature s.name with Some s' -> s'.arity = s.arity | None -> false))
    a.signature a.relations

(** [size a] is the encoding size |A| = |τ| + |U(A)| + Σ_R |R^A|·arity(R)
    from Section 2.2. *)
let size (a : t) : int =
  Signature.size a.signature
  + List.length a.universe
  + List.fold_left
      (fun acc (name, ts) ->
        acc + (List.length ts * Signature.arity_of a.signature name))
      0 a.relations

(** [num_tuples a] is the total number of tuples across all relations. *)
let num_tuples (a : t) : int =
  List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 a.relations

let equal (a : t) (b : t) : bool =
  Signature.equal a.signature b.signature
  && a.universe = b.universe && a.relations = b.relations

let compare_t (a : t) (b : t) : int = compare a b

(* ------------------------------------------------------------------ *)
(* Algebraic operations                                               *)
(* ------------------------------------------------------------------ *)

(* [merge_uniq xs ys] merges two sorted duplicate-free lists, sharing
   the tail of [xs] past the last element of [ys]. *)
let[@tail_mod_cons] rec merge_uniq (xs : 'a list) (ys : 'a list) : 'a list =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then x :: merge_uniq xs' ys
      else if c > 0 then y :: merge_uniq xs ys'
      else x :: merge_uniq xs' ys'

(** [add_tuples a name tuples] adds tuples to a relation, extending the
    universe with any new elements.  Only the new tuples are validated
    and sorted; they are merged into the one relation, and every other
    relation is reused. *)
let add_tuples (a : t) (name : string) (tuples : tuple list) : t =
  let old = relation a name in
  let arity = Signature.arity_of a.signature name in
  if List.exists (fun t -> List.length t <> arity) tuples then
    invalid_arg (Printf.sprintf "Structure.make: arity mismatch in %s" name);
  let fresh = Listx.diff_sorted (Listx.sort_uniq_ints (List.concat tuples)) a.universe in
  {
    a with
    universe = (if fresh = [] then a.universe else merge_uniq a.universe fresh);
    relations =
      List.map
        (fun (n, ts) -> if n = name then (n, merge_uniq old (normalize_tuples tuples)) else (n, ts))
        a.relations;
  }

(** [remove_tuples a name tuples] removes the listed tuples from a
    relation; absent tuples are ignored and the universe is kept as-is
    (the dynamic setting of Section 1.2 fixes the domain, and isolated
    elements still feed the [|U|^k] factor of isolated free
    variables). *)
let remove_tuples (a : t) (name : string) (tuples : tuple list) : t =
  let keep = List.filter (fun t -> not (List.mem t tuples)) (relation a name) in
  {
    a with
    relations =
      List.map
        (fun (n, ts) -> if n = name then (n, keep) else (n, ts))
        a.relations;
  }

(** [union a b] is the structure union A ∪ B of Section 2.2 (universes and
    relations united; signatures must agree on shared symbols). *)
let union (a : t) (b : t) : t =
  let signature = Signature.union a.signature b.signature in
  let names =
    Listx.sort_uniq compare (List.map fst a.relations @ List.map fst b.relations)
  in
  let rels =
    List.map
      (fun name ->
        let ta = try relation a name with Invalid_argument _ -> [] in
        let tb = try relation b name with Invalid_argument _ -> [] in
        (name, ta @ tb))
      names
  in
  make signature (a.universe @ b.universe) rels

(** [union_all structures] folds {!union} over a non-empty list. *)
let union_all (structures : t list) : t =
  match structures with
  | [] -> invalid_arg "Structure.union_all: empty list"
  | s :: rest -> List.fold_left union s rest

(** [induced a elems] is the substructure induced by the element list:
    universe restricted, each relation intersected with tuples over the
    restricted universe. *)
let induced (a : t) (elems : int list) : t =
  let keep = Intset.of_list elems in
  make a.signature
    (List.filter (fun v -> Intset.mem v keep) a.universe)
    (List.map
       (fun (name, ts) ->
         (name, List.filter (List.for_all (fun v -> Intset.mem v keep)) ts))
       a.relations)

(** [is_substructure a b] checks that A is a substructure of B:
    U(A) ⊆ U(B) and R^A ⊆ R^B for every symbol. *)
let is_substructure (a : t) (b : t) : bool =
  Signature.equal a.signature b.signature
  && Listx.is_subset_sorted a.universe b.universe
  && List.for_all
       (fun (name, ts) ->
         let tb = relation b name in
         List.for_all (fun t -> List.mem t tb) ts)
       a.relations

(** [rename a f] applies an injective element renaming [f] to the universe
    and all tuples.
    @raise Invalid_argument if [f] is not injective on the universe. *)
let rename (a : t) (f : int -> int) : t =
  let new_universe = List.map f a.universe in
  if List.length (Listx.sort_uniq_ints new_universe) <> List.length new_universe
  then invalid_arg "Structure.rename: not injective";
  make a.signature new_universe
    (List.map (fun (name, ts) -> (name, List.map (List.map f) ts)) a.relations)

(** [delete_elements a elems] removes the listed elements from the universe
    along with every tuple mentioning them. *)
let delete_elements (a : t) (elems : int list) : t =
  let drop = Intset.of_list elems in
  induced a (List.filter (fun v -> not (Intset.mem v drop)) a.universe)

(** [isolated_elements a] lists universe elements that occur in no tuple
    ("isolated variables" in Section 2.2 of the paper). *)
let isolated_elements (a : t) : int list =
  let occurring =
    List.fold_left
      (fun acc (_, ts) ->
        List.fold_left
          (fun acc t -> List.fold_left (fun acc v -> Intset.add v acc) acc t)
          acc ts)
      Intset.empty a.relations
  in
  List.filter (fun v -> not (Intset.mem v occurring)) a.universe

(* ------------------------------------------------------------------ *)
(* Gaifman graph                                                      *)
(* ------------------------------------------------------------------ *)

(** [gaifman a] is the Gaifman graph of [a] over densely re-indexed
    vertices, together with the dense-index → element mapping. *)
let gaifman (a : t) : Graph.t * int array =
  let old_of_new = Array.of_list a.universe in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun i v -> Hashtbl.add new_of_old v i) old_of_new;
  let g = Graph.make (Array.length old_of_new) in
  List.iter
    (fun (_, ts) ->
      List.iter
        (fun tup ->
          let idx = List.map (Hashtbl.find new_of_old) tup in
          List.iter
            (fun (x, y) -> if x <> y then Graph.add_edge g x y)
            (Combinat.pairs idx))
        ts)
    a.relations;
  (g, old_of_new)

(** [treewidth a] is the treewidth of the Gaifman graph of [a] (Section 2.2:
    "the treewidth of a structure is the treewidth of its Gaifman graph"). *)
let treewidth ?(budget : Budget.t option) ?(pool : Pool.t option) (a : t) :
    int =
  let g, _ = gaifman a in
  Treewidth.treewidth ?budget ?pool g

(* ------------------------------------------------------------------ *)
(* Tensor product (Theorem 28)                                        *)
(* ------------------------------------------------------------------ *)

(** [tensor a b] is the tensor product A ⊗ B: signature the common part,
    universe the cartesian product U(A) × U(B), and a tuple of pairs in a
    relation iff both projections are tuples of the respective factors.
    Returns the product together with the pair encoding
    [encode : elemA -> elemB -> elemAB]. *)
let tensor (a : t) (b : t) : t * (int -> int -> int) =
  let sg = Signature.inter a.signature b.signature in
  let ua = Array.of_list a.universe and ub = Array.of_list b.universe in
  let ia = Hashtbl.create (Array.length ua) and ib = Hashtbl.create (Array.length ub) in
  Array.iteri (fun i v -> Hashtbl.add ia v i) ua;
  Array.iteri (fun i v -> Hashtbl.add ib v i) ub;
  let q = Array.length ub in
  let encode x y = (Hashtbl.find ia x * q) + Hashtbl.find ib y in
  let universe =
    List.concat_map (fun x -> List.map (fun y -> encode x y) b.universe) a.universe
  in
  let rels =
    List.map
      (fun (s : Signature.symbol) ->
        let ta = relation a s.name and tb = relation b s.name in
        let prods =
          List.concat_map
            (fun tup_a -> List.map (fun tup_b -> List.map2 encode tup_a tup_b) tb)
            ta
        in
        (s.name, prods))
      sg
  in
  (make sg universe rels, encode)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                    *)
(* ------------------------------------------------------------------ *)

let pp_tuple (fmt : Format.formatter) (t : tuple) : unit =
  Format.fprintf fmt "(%s)" (String.concat "," (List.map string_of_int t))

let pp (fmt : Format.formatter) (a : t) : unit =
  Format.fprintf fmt "@[<v>universe = {%s}@,"
    (String.concat "," (List.map string_of_int a.universe));
  List.iter
    (fun (name, ts) ->
      Format.fprintf fmt "%s = {%s}@," name
        (String.concat "; "
           (List.map
              (fun t ->
                "(" ^ String.concat "," (List.map string_of_int t) ^ ")")
              ts)))
    a.relations;
  Format.fprintf fmt "@]"
