(** Conjunctive queries as pairs [(A, X)] of a relational structure and a
    set of free variables (Section 2.2 of the paper, following [28]).

    The universe of [A] is the variable set; [X ⊆ U(A)] are the free
    variables and [U(A) \ X] the existentially quantified ones.  Answers in
    a database [D] are the restrictions to [X] of homomorphisms [A → D]. *)

module Intset = Intset

type t = { structure : Structure.t; free : int list (* sorted *) }

(** [make structure free] validates [free ⊆ U(structure)]. *)
let make (structure : Structure.t) (free : int list) : t =
  let free = Listx.sort_uniq_ints free in
  if not (Listx.is_subset_sorted free (Structure.universe structure)) then
    invalid_arg "Cq.make: free variables not in universe";
  { structure; free }

(** [of_structure a] is the quantifier-free query with all variables free.*)
let of_structure (a : Structure.t) : t =
  { structure = a; free = Structure.universe a }

let structure (q : t) : Structure.t = q.structure
let free (q : t) : int list = q.free

(** [quantified q] is the list of existentially quantified variables. *)
let quantified (q : t) : int list =
  Listx.diff_sorted (Structure.universe q.structure) q.free

let is_quantifier_free (q : t) : bool = quantified q = []

(** [size q] is |(A, X)| = |A| + |X| (Section 2.2). *)
let size (q : t) : int = Structure.size q.structure + List.length q.free

(** [arity q] is the maximum arity of the signature. *)
let arity (q : t) : int = Signature.arity (Structure.signature q.structure)

(** [equal q1 q2] is syntactic equality. *)
let equal (q1 : t) (q2 : t) : bool =
  Structure.equal q1.structure q2.structure && q1.free = q2.free

(** [isomorphic q1 q2] decides isomorphism of conjunctive queries
    (Definition 15: a structure isomorphism [b] with [b(X) = X']). *)
let isomorphic (q1 : t) (q2 : t) : bool =
  Struct_iso.isomorphic ~protected_:[ (q1.free, q2.free) ] q1.structure
    q2.structure

(** [isomorphic_pointwise q1 q2] decides isomorphism fixing every free
    variable: a structure isomorphism that is the identity on [X].  It
    refines {!isomorphic}; on quantifier-free queries it is equality. *)
let isomorphic_pointwise (q1 : t) (q2 : t) : bool =
  q1.free = q2.free
  && (Structure.equal q1.structure q2.structure
     || (not (is_quantifier_free q1))
        && Struct_iso.isomorphic
             ~protected_:(List.map (fun x -> ([ x ], [ x ])) q1.free)
             q1.structure q2.structure)

(** [is_self_join_free q] checks that every relation of [A] contains at most
    one tuple (the structure-level reading of self-join-freeness used in
    Section 2.2). *)
let is_self_join_free (q : t) : bool =
  List.for_all
    (fun (_, ts) -> List.length ts <= 1)
    (Structure.relations q.structure)

(** [is_acyclic q] decides alpha-acyclicity of the atom hypergraph; for
    binary signatures this coincides with the Gaifman graph being a
    forest. *)
let is_acyclic (q : t) : bool = Jointree_count.is_acyclic_structure q.structure

(** [isolated_variables q] lists variables occurring in no atom. *)
let isolated_variables (q : t) : int list =
  Structure.isolated_elements q.structure

(** [drop_isolated_quantified q] removes isolated existentially quantified
    variables — they do not affect the answer set (Lemma 34 uses this
    normalisation). *)
let drop_isolated_quantified (q : t) : t =
  let iso =
    List.filter
      (fun v -> not (List.mem v q.free))
      (isolated_variables q)
  in
  { structure = Structure.delete_elements q.structure iso; free = q.free }

(** [treewidth ?budget ?pool q] is the treewidth of the Gaifman graph of
    [A]. *)
let treewidth ?(budget : Budget.t option) ?(pool : Pool.t option) (q : t) :
    int =
  Structure.treewidth ?budget ?pool q.structure

(** [is_free_connex q] decides free-connexity: the query is acyclic and
    remains acyclic after adding the free-variable set as an extra
    hyperedge (Bagan–Durand–Grandjean).  Footnote 2 of the paper: in the
    quantifier-free case free-connex is equivalent to acyclic, and
    free-connexity is the right criterion for linear-time counting of
    self-join-free queries with quantifiers. *)
let is_free_connex (q : t) : bool =
  is_acyclic q
  &&
  let h = Jointree_count.atom_hypergraph q.structure in
  Hypergraph.is_acyclic
    (Hypergraph.make h.Hypergraph.vertices (q.free :: h.Hypergraph.edges))

(* ------------------------------------------------------------------ *)
(* Contract (Definition 20)                                           *)
(* ------------------------------------------------------------------ *)

(** [contract q] computes the contract of [(A, X)]: start from the Gaifman
    graph induced on [X] and add an edge between [u, v ∈ X] whenever some
    connected component of the quantified part [G[Y]] is adjacent to both.
    The result is a graph over the free variables (densely re-indexed; the
    mapping is returned). *)
let contract (q : t) : Graph.t * int array =
  let g, old_of_new = Structure.gaifman q.structure in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun i v -> Hashtbl.add new_of_old v i) old_of_new;
  let x_dense = List.map (Hashtbl.find new_of_old) q.free in
  let y_dense = List.map (Hashtbl.find new_of_old) (quantified q) in
  (* contract graph over X, densely re-indexed *)
  let x_arr = Array.of_list q.free in
  let xpos = Hashtbl.create (Array.length x_arr) in
  List.iteri (fun i v -> Hashtbl.add xpos v i) (List.map (Hashtbl.find new_of_old) q.free);
  let c = Graph.make (Array.length x_arr) in
  (* edges inside X *)
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v && Graph.has_edge g u v then
            Graph.add_edge c (Hashtbl.find xpos u) (Hashtbl.find xpos v))
        x_dense)
    x_dense;
  (* components of G[Y] *)
  let gy, y_of_new = Graph.induced g y_dense in
  let comps = Graph.components gy in
  List.iter
    (fun comp ->
      let comp_orig = List.map (fun i -> y_of_new.(i)) comp in
      let attached =
        List.filter
          (fun x ->
            List.exists (fun y -> Graph.has_edge g x y) comp_orig)
          x_dense
      in
      List.iter
        (fun (u, v) ->
          Graph.add_edge c (Hashtbl.find xpos u) (Hashtbl.find xpos v))
        (Combinat.pairs attached))
    comps;
  (c, x_arr)

(** [contract_treewidth q] is the treewidth of the contract. *)
let contract_treewidth (q : t) : int =
  let c, _ = contract q in
  Treewidth.treewidth c

(** [degree_of_freedom q y] is the number of free variables adjacent to the
    quantified variable [y] in the Gaifman graph (used in the proof of
    Lemma 35). *)
let degree_of_freedom (q : t) (y : int) : int =
  let g, old_of_new = Structure.gaifman q.structure in
  let new_of_old = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add new_of_old v i) old_of_new;
  match Hashtbl.find_opt new_of_old y with
  | None -> 0
  | Some yi ->
      List.length
        (List.filter
           (fun x ->
             match Hashtbl.find_opt new_of_old x with
             | None -> false
             | Some xi -> Graph.has_edge g yi xi)
           q.free)

(* ------------------------------------------------------------------ *)
(* #Minimality and #cores (Definitions 16/19, Observation 17)         *)
(* ------------------------------------------------------------------ *)

(** [is_sharp_minimal q] decides #minimality via Observation 17 (3): every
    homomorphism from [A] to itself that is the identity on [X] must be
    surjective. *)
let is_sharp_minimal (q : t) : bool =
  Option.is_none
    (Hom.find_non_surjective_endo q.structure ~fixed_pointwise:q.free)

(** [sharp_core q] computes the #core (Definition 19): repeatedly retract
    along a non-surjective endomorphism fixing [X], restricting to the
    induced substructure on the image, until #minimal.  By Lemma 18 the
    result is unique up to isomorphism. *)
let rec sharp_core (q : t) : t =
  match Hom.find_non_surjective_endo q.structure ~fixed_pointwise:q.free with
  | None -> q
  | Some h ->
      let image = List.sort_uniq compare (List.map snd h) in
      sharp_core { structure = Structure.induced q.structure image; free = q.free }

(** [sharp_equivalent q1 q2] decides #equivalence (Definition 16) by
    computing both #cores and testing isomorphism (sound and complete by
    Lemma 18). *)
let sharp_equivalent (q1 : t) (q2 : t) : bool =
  isomorphic (sharp_core q1) (sharp_core q2)

(** [is_semantically_acyclic q] decides semantic acyclicity in the counting
    sense of footnote 3: the #core of the query is acyclic.  (For Boolean
    queries this coincides with classical semantic acyclicity via the
    homomorphic core.) *)
let is_semantically_acyclic (q : t) : bool = is_acyclic (sharp_core q)

(* ------------------------------------------------------------------ *)
(* q-hierarchicality (Related work, Berkholz–Keppeler–Schweikardt)    *)
(* ------------------------------------------------------------------ *)

(** [atoms_of_var q] maps each variable to the set of atom indices it
    occurs in; atoms are indexed across all relations in order. *)
let atoms_of_var (q : t) : (int, Intset.t) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun (_, ts) ->
      List.iter
        (fun tup ->
          List.iter
            (fun v ->
              let s = Option.value ~default:Intset.empty (Hashtbl.find_opt tbl v) in
              Hashtbl.replace tbl v (Intset.add !idx s))
            tup;
          incr idx)
        ts)
    (Structure.relations q.structure);
  tbl

(** [is_hierarchical q] checks that for any two variables the sets of atoms
    containing them are comparable or disjoint. *)
let is_hierarchical (q : t) : bool =
  let tbl = atoms_of_var q in
  let vars = List.filter (Hashtbl.mem tbl) (Structure.universe q.structure) in
  List.for_all
    (fun (x, y) ->
      let ax = Hashtbl.find tbl x and ay = Hashtbl.find tbl y in
      Intset.subset ax ay || Intset.subset ay ax
      || Intset.is_empty (Intset.inter ax ay))
    (Combinat.pairs vars)

(** [is_q_hierarchical q] checks q-hierarchicality ([11, Theorem 1.3]):
    hierarchical, and no free variable [x] with [atoms(x) ⊊ atoms(y)] for a
    quantified variable [y].  The paper's example
    [E(a,b) ∧ E(b,c) ∧ E(c,d)] (all free) is acyclic but not
    q-hierarchical. *)
let is_q_hierarchical (q : t) : bool =
  is_hierarchical q
  &&
  let tbl = atoms_of_var q in
  let quant = quantified q in
  List.for_all
    (fun x ->
      match Hashtbl.find_opt tbl x with
      | None -> true
      | Some ax ->
          List.for_all
            (fun y ->
              match Hashtbl.find_opt tbl y with
              | None -> true
              | Some ay ->
                  not (Intset.subset ax ay && not (Intset.equal ax ay)))
            quant)
    q.free

let pp (fmt : Format.formatter) (q : t) : unit =
  Format.fprintf fmt "@[<v>free = {%s}@,%a@]"
    (String.concat "," (List.map string_of_int q.free))
    Structure.pp q.structure
