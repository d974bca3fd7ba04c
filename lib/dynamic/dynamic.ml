(** Dynamic counting of answers to q-hierarchical conjunctive queries
    under single-tuple updates — the Berkholz–Keppeler–Schweikardt setting
    the paper discusses in Section 1.2: after linear-time preprocessing,
    the answer count of a q-hierarchical CQ can be maintained with
    constant-time (data complexity) updates, and q-hierarchicality is
    exactly the boundary ([11, Theorem 1.3]).

    Construction.  In a hierarchical query the variable occurrence sets
    [atoms(x)] of any two variables are comparable or disjoint, so the
    variables form a forest under (strict) containment; every atom's
    variable set is then exactly {deepest variable} ∪ its ancestors.  Per
    variable [v] we maintain two hash tables:

    - [term(key, a)]: for ancestor values [key] and value [a] of [v], the
      product of the indicators of the atoms assigned to [v] (those whose
      deepest variable is [v]) and of the aggregates of [v]'s children;
    - [c(key) = Σ_a term(key, a)], where a {e quantified} child contributes
      to its parent as the indicator [c > 0] instead of the count
      (q-hierarchicality guarantees quantified variables are never proper
      ancestors of free ones, so the boolean collapse is sound).

    A tuple update fixes the values of one atom's full variable chain, so
    it touches exactly one [(key, a)] entry per atom occurrence and
    propagates along the ancestor path: O(|φ|) table operations per update
    — constant in the data.  The answer count is read off the root
    aggregates in O(#roots). *)

type node = {
  var : int;
  quantified : bool;
  ancestors : int list; (* root-first *)
  mutable children : int list; (* node indices *)
  mutable atoms : (string * int list) list; (* atoms assigned here *)
  term : (int list * int, int) Hashtbl.t;
  c : (int list, int) Hashtbl.t;
}

type t = {
  nodes : node array;
  node_of_var : (int, int) Hashtbl.t;
  roots : int list;
  rels : (string, (int list, unit) Hashtbl.t) Hashtbl.t;
  (* relation name -> atom occurrences (node index, argument variables) *)
  occurrences : (string, (int * int list) list) Hashtbl.t;
  universe_size : int;
  isolated_free : int;
  isolated_quantified : int;
}

exception Not_q_hierarchical

(* ------------------------------------------------------------------ *)
(* Forest construction                                                *)
(* ------------------------------------------------------------------ *)

let build_forest (q : Cq.t) : t =
  if not (Cq.is_q_hierarchical q) then raise Not_q_hierarchical;
  let a = Cq.structure q in
  let free = Cq.free q in
  (* atoms(x): occurrence sets as atom indices *)
  let atom_list =
    List.concat_map
      (fun (name, ts) -> List.map (fun tup -> (name, tup)) ts)
      (Structure.relations a)
  in
  let atoms_of = Hashtbl.create 16 in
  List.iteri
    (fun i (_, tup) ->
      List.iter
        (fun v ->
          let s = Option.value ~default:[] (Hashtbl.find_opt atoms_of v) in
          if not (List.mem i s) then Hashtbl.replace atoms_of v (i :: s))
        tup)
    atom_list;
  let covered =
    List.filter (Hashtbl.mem atoms_of) (Structure.universe a)
  in
  let isolated =
    List.filter (fun v -> not (Hashtbl.mem atoms_of v)) (Structure.universe a)
  in
  let isolated_free = List.length (List.filter (fun v -> List.mem v free) isolated) in
  let isolated_quantified = List.length isolated - isolated_free in
  (* order: larger atom sets first; among equals, free variables first
     (so a free twin becomes the ancestor of a quantified one), then by
     variable id *)
  let weight v =
    ( -List.length (Hashtbl.find atoms_of v),
      (if List.mem v free then 0 else 1),
      v )
  in
  let ordered = List.sort (fun u v -> compare (weight u) (weight v)) covered in
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace position v i) ordered;
  let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
  let ancestors_of v =
    let av = Hashtbl.find atoms_of v in
    List.filter
      (fun u ->
        u <> v
        && subset av (Hashtbl.find atoms_of u)
        && Hashtbl.find position u < Hashtbl.find position v)
      ordered
  in
  let nodes =
    Array.of_list
      (List.map
         (fun v ->
           {
             var = v;
             quantified = not (List.mem v free);
             ancestors = ancestors_of v;
             children = [];
             atoms = [];
             term = Hashtbl.create 64;
             c = Hashtbl.create 64;
           })
         ordered)
  in
  let node_of_var = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace node_of_var n.var i) nodes;
  (* parents and children *)
  let roots = ref [] in
  Array.iteri
    (fun i n ->
      match List.rev n.ancestors with
      | [] -> roots := i :: !roots
      | parent_var :: _ ->
          let p = Hashtbl.find node_of_var parent_var in
          nodes.(p).children <- i :: nodes.(p).children)
    nodes;
  (* assign each atom to its deepest variable, and check the chain
     property: the atom's variables are exactly that node plus its
     ancestors *)
  let occurrences = Hashtbl.create 16 in
  List.iter
    (fun (name, tup) ->
      let vars = List.sort_uniq compare tup in
      let deepest =
        Listx.max_by (fun v -> Hashtbl.find position v) vars
      in
      let d = Hashtbl.find node_of_var deepest in
      let expected =
        List.sort compare (deepest :: nodes.(d).ancestors)
      in
      if List.sort compare vars <> expected then
        (* cannot happen for hierarchical queries; defensive *)
        raise Not_q_hierarchical;
      nodes.(d).atoms <- (name, tup) :: nodes.(d).atoms;
      Hashtbl.replace occurrences name
        ((d, tup) :: Option.value ~default:[] (Hashtbl.find_opt occurrences name)))
    atom_list;
  let rels = Hashtbl.create 8 in
  List.iter
    (fun (s : Signature.symbol) -> Hashtbl.replace rels s.name (Hashtbl.create 256))
    (Structure.signature a);
  {
    nodes;
    node_of_var;
    roots = !roots;
    rels;
    occurrences;
    universe_size = 0;
    isolated_free;
    isolated_quantified;
  }

(* ------------------------------------------------------------------ *)
(* Aggregate maintenance                                              *)
(* ------------------------------------------------------------------ *)

(** Contribution of node [i] to its parent, for a given key. *)
let contribution (st : t) (i : int) (key : int list) : int =
  let n = st.nodes.(i) in
  let v = Option.value ~default:0 (Hashtbl.find_opt n.c key) in
  if n.quantified then if v > 0 then 1 else 0 else v

(** Recompute [term(key, a)] of node [i] from relations and children. *)
let compute_term (st : t) (i : int) (key : int list) (a : int) : int =
  let n = st.nodes.(i) in
  let env = List.combine (n.ancestors @ [ n.var ]) (key @ [ a ]) in
  let atoms_ok =
    List.for_all
      (fun (name, args) ->
        let tup = List.map (fun v -> List.assoc v env) args in
        Hashtbl.mem (Hashtbl.find st.rels name) tup)
      n.atoms
  in
  if not atoms_ok then 0
  else
    List.fold_left
      (fun acc child ->
        if acc = 0 then 0 else acc * contribution st child (key @ [ a ]))
      1 n.children

(** Refresh the entry [(key, a)] of node [i] and propagate any change of
    the node's parent-facing contribution up the ancestor path. *)
let rec refresh (st : t) (i : int) (key : int list) (a : int) : unit =
  let n = st.nodes.(i) in
  let before_contrib = contribution st i key in
  let old_term = Option.value ~default:0 (Hashtbl.find_opt n.term (key, a)) in
  let new_term = compute_term st i key a in
  if new_term <> old_term then begin
    if new_term = 0 then Hashtbl.remove n.term (key, a)
    else Hashtbl.replace n.term (key, a) new_term;
    let old_c = Option.value ~default:0 (Hashtbl.find_opt n.c key) in
    let new_c = old_c + new_term - old_term in
    if new_c = 0 then Hashtbl.remove n.c key else Hashtbl.replace n.c key new_c
  end;
  let after_contrib = contribution st i key in
  if after_contrib <> before_contrib then begin
    match List.rev n.ancestors with
    | [] -> ()
    | parent_var :: _ ->
        (* the parent's entry is determined by splitting our key *)
        let rec split_last = function
          | [ x ] -> ([], x)
          | x :: rest ->
              let init, last = split_last rest in
              (x :: init, last)
          | [] -> assert false
        in
        let parent_key, parent_a = split_last key in
        refresh st (Hashtbl.find st.node_of_var parent_var) parent_key parent_a
  end

(** Apply one tuple change: refresh every atom occurrence of the relation
    whose variable chain is consistent with the tuple. *)
let touch (st : t) (name : string) (tuple : int list) : unit =
  List.iter
    (fun (d, args) ->
      (* bind the atom's variables from the tuple, honouring repetition *)
      let binding = Hashtbl.create 4 in
      let consistent =
        List.for_all2
          (fun qv dv ->
            match Hashtbl.find_opt binding qv with
            | None ->
                Hashtbl.replace binding qv dv;
                true
            | Some dv' -> dv = dv')
          args tuple
      in
      if consistent then begin
        let n = st.nodes.(d) in
        let key = List.map (Hashtbl.find binding) n.ancestors in
        let a = Hashtbl.find binding n.var in
        refresh st d key a
      end)
    (Option.value ~default:[] (Hashtbl.find_opt st.occurrences name))

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

(** [create_exn q d] preprocesses the q-hierarchical query [q] over the
    initial database [d] (whose universe is fixed for the session).
    Exception shim over {!create} for pre-existing callers.
    @raise Not_q_hierarchical when [q] is not q-hierarchical.
    @raise Invalid_argument when [d]'s signature does not cover [q]'s. *)
let create_exn (q : Cq.t) (d : Structure.t) : t =
  if not (Structure.covered_by (Cq.structure q) d) then
    invalid_arg "Dynamic.create: database signature does not cover the query";
  let st = { (build_forest q) with universe_size = Structure.universe_size d } in
  List.iter
    (fun (name, ts) ->
      if Hashtbl.mem st.rels name then
        List.iter
          (fun tup ->
            Hashtbl.replace (Hashtbl.find st.rels name) tup ();
            touch st name tup)
          ts)
    (Structure.relations d);
  st

(** [create q d] is {!create_exn} under the repo-standard result
    convention: structured {!Ucqc_error.t} values instead of bare
    exceptions. *)
let create (q : Cq.t) (d : Structure.t) : (t, Ucqc_error.t) result =
  match create_exn q d with
  | st -> Ok st
  | exception Not_q_hierarchical ->
      Error
        (Ucqc_error.Unsupported
           "dynamic counting requires a q-hierarchical query (Section 1.2)")
  | exception Invalid_argument msg -> Error (Ucqc_error.Unsupported msg)

(** [insert st name tuple] adds a tuple (idempotent). *)
let insert (st : t) (name : string) (tuple : int list) : unit =
  match Hashtbl.find_opt st.rels name with
  | None -> () (* relation not used by the query *)
  | Some set ->
      if not (Hashtbl.mem set tuple) then begin
        Hashtbl.replace set tuple ();
        touch st name tuple
      end

(** [delete st name tuple] removes a tuple (idempotent). *)
let delete (st : t) (name : string) (tuple : int list) : unit =
  match Hashtbl.find_opt st.rels name with
  | None -> ()
  | Some set ->
      if Hashtbl.mem set tuple then begin
        Hashtbl.remove set tuple;
        touch st name tuple
      end

(** [count st] is the current [ans(q → D)], read from the root aggregates
    in time independent of the data. *)
let count (st : t) : int =
  if st.isolated_quantified > 0 && st.universe_size = 0 then 0
  else begin
    let product =
      List.fold_left
        (fun acc r -> if acc = 0 then 0 else acc * contribution st r [])
        1 st.roots
    in
    product * Combinat.power_int st.universe_size st.isolated_free
  end
