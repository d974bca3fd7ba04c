(** Homomorphisms between relational structures (Section 2.2).

    Answers to conjunctive queries are restrictions of homomorphisms, so
    this engine underlies every counting algorithm in the library.  It
    provides backtracking search with unary-consistency pruning (the
    reference oracle, and the tool for #minimality checks of Observation 17)
    and is complemented by the dynamic-programming counters in
    {!Treedec_count} and the database engine. *)

module Intset = Intset

(** Internal search state: the query structure [a] with its universe
    re-indexed densely, per-element candidate lists in [b], and the atoms
    grouped by the query elements they mention. *)
type search = {
  elems : int array; (* dense index -> element of A *)
  idx_of : (int, int) Hashtbl.t; (* element of A -> dense index *)
  candidates : int list array; (* dense index -> possible images *)
  (* atoms as (relation tuples of B, query tuple as dense indices) *)
  atoms : (Structure.tuple list * int list) array;
  atoms_of_elem : int list array; (* dense index -> atom indices *)
}

let prepare (a : Structure.t) (b : Structure.t) : search option =
  if not (Structure.covered_by a b) then None
  else begin
    let elems = Array.of_list (Structure.universe a) in
    let idx_of = Hashtbl.create (Array.length elems) in
    Array.iteri (fun i v -> Hashtbl.add idx_of v i) elems;
    let atoms =
      List.concat_map
        (fun (name, ts) ->
          if ts = [] then []
          else
            let tb = Structure.relation b name in
            List.map (fun t -> (tb, List.map (Hashtbl.find idx_of) t)) ts)
        (Structure.relations a)
    in
    let atoms = Array.of_list atoms in
    let n = Array.length elems in
    let atoms_of_elem = Array.make n [] in
    Array.iteri
      (fun ai (_, qt) ->
        List.iter
          (fun i ->
            if not (List.mem ai atoms_of_elem.(i)) then
              atoms_of_elem.(i) <- ai :: atoms_of_elem.(i))
          qt)
      atoms;
    (* Unary consistency: w is a candidate image of element i only if, for
       every atom mentioning i at position p, some tuple of the relation has
       w at position p. *)
    let universe_b = Structure.universe b in
    let candidates =
      Array.init n (fun i ->
          List.filter
            (fun w ->
              List.for_all
                (fun ai ->
                  let tb, qt = atoms.(ai) in
                  let positions =
                    List.concat
                      (List.mapi (fun p j -> if j = i then [ p ] else []) qt)
                  in
                  List.for_all
                    (fun p -> List.exists (fun tup -> List.nth tup p = w) tb)
                    positions)
                atoms_of_elem.(i))
            universe_b)
    in
    Some { elems; idx_of; candidates; atoms; atoms_of_elem }
  end

(** [iter_homs ?budget ?fixed a b f] calls [f] on every homomorphism from
    [a] to [b] extending the partial assignment [fixed] (pairs (element of
    A, element of B)); [f] receives the total mapping as an association
    list and returns [true] to continue the enumeration or [false] to
    stop.  A budget is ticked once per candidate extension tried. *)
let iter_homs ?(budget : Budget.t option) ?(fixed : (int * int) list = [])
    (a : Structure.t) (b : Structure.t) (f : (int * int) list -> bool) : unit =
  match prepare a b with
  | None -> ()
  | Some s ->
      let n = Array.length s.elems in
      (* assignedness lives apart from the values: any int, negative
         ones included, is an element *)
      let assignment = Array.make n 0 and assigned = Array.make n false in
      let fixed_ok = ref true in
      List.iter
        (fun (v, w) ->
          match Hashtbl.find_opt s.idx_of v with
          | None -> fixed_ok := false
          | Some i ->
              if List.mem w s.candidates.(i) then begin
                assignment.(i) <- w;
                assigned.(i) <- true
              end
              else fixed_ok := false)
        fixed;
      if !fixed_ok then begin
        (* Order the unassigned elements: connected-first (BFS from fixed
           and high-degree elements) to fail early. *)
        let order =
          let fixed_idx =
            List.filteri (fun i _ -> assigned.(i))
              (Array.to_list (Array.init n (fun i -> i)))
          in
          let score i = List.length s.atoms_of_elem.(i) in
          let rest =
            List.filter (fun i -> not assigned.(i))
              (List.sort
                 (fun i j -> compare (score j) (score i))
                 (Array.to_list (Array.init n (fun i -> i))))
          in
          fixed_idx @ rest
        in
        let order = Array.of_list (List.filter (fun i -> not assigned.(i)) order) in
        let m = Array.length order in
        let continue_ = ref true in
        (* check atoms that are fully assigned and involve element i *)
        let consistent i =
          List.for_all
            (fun ai ->
              let tb, qt = s.atoms.(ai) in
              if List.for_all (fun j -> assigned.(j)) qt then
                List.mem (List.map (fun j -> assignment.(j)) qt) tb
              else true)
            s.atoms_of_elem.(i)
        in
        (* Also validate atoms fully determined by [fixed]. *)
        let all_fixed_consistent =
          Array.for_all
            (fun (tb, qt) ->
              if List.for_all (fun j -> assigned.(j)) qt then
                List.mem (List.map (fun j -> assignment.(j)) qt) tb
              else true)
            s.atoms
        in
        let rec go k =
          if !continue_ then begin
            if k = m then begin
              let h =
                Array.to_list
                  (Array.mapi (fun i w -> (s.elems.(i), w)) assignment)
              in
              if not (f h) then continue_ := false
            end
            else begin
              let i = order.(k) in
              List.iter
                (fun w ->
                  if !continue_ then begin
                    Budget.tick_opt budget;
                    assignment.(i) <- w;
                    assigned.(i) <- true;
                    if consistent i then go (k + 1);
                    assigned.(i) <- false
                  end)
                s.candidates.(i)
            end
          end
        in
        if all_fixed_consistent then go 0
      end

(** [exists ?budget ?fixed a b] decides whether a homomorphism extending
    [fixed] exists. *)
let exists ?(budget : Budget.t option) ?(fixed : (int * int) list = [])
    (a : Structure.t) (b : Structure.t) : bool =
  let found = ref false in
  iter_homs ?budget ~fixed a b (fun _ ->
      found := true;
      false);
  !found

(** [count ?budget ?fixed a b] counts homomorphisms extending [fixed] by
    exhaustive backtracking.  This is the reference oracle: correct for
    every input, exponential in |U(A)|. *)
let count ?(budget : Budget.t option) ?(fixed : (int * int) list = [])
    (a : Structure.t) (b : Structure.t) : int =
  let c = ref 0 in
  iter_homs ?budget ~fixed a b (fun _ ->
      incr c;
      true);
  !c

(** [find ?fixed a b] returns some homomorphism extending [fixed], if any.*)
let find ?(fixed : (int * int) list = []) (a : Structure.t) (b : Structure.t) :
    (int * int) list option =
  let res = ref None in
  iter_homs ~fixed a b (fun h ->
      res := Some h;
      false);
  !res

(** [find_non_surjective_endo a ~fixed_pointwise] searches for a
    homomorphism from [a] to itself that is the identity on
    [fixed_pointwise] and is not surjective.  By Observation 17, [(A, X)] is
    #minimal iff no such endomorphism exists. *)
let find_non_surjective_endo (a : Structure.t) ~(fixed_pointwise : int list) :
    (int * int) list option =
  let n = Structure.universe_size a in
  let fixed = List.map (fun x -> (x, x)) fixed_pointwise in
  let res = ref None in
  iter_homs ~fixed a a (fun h ->
      let image = List.sort_uniq compare (List.map snd h) in
      if List.length image < n then begin
        res := Some h;
        false
      end
      else true);
  !res

(** [verify ?fixed a b map] checks — in time linear in [A]'s encoding —
    that [map] is a homomorphism [A → B] extending [fixed]: single-valued,
    total on [U(A)], landing in [U(B)], consistent with [fixed], and
    mapping every tuple of every relation of [A] into the same relation
    of [B].  This is the fast path for witnesses captured by the
    analyzer: re-verification costs O(tuples), never a fresh search. *)
let verify ?(fixed : (int * int) list = []) (a : Structure.t)
    (b : Structure.t) (map : (int * int) list) : bool =
  let img = Hashtbl.create 16 in
  try
    List.iter
      (fun (x, y) ->
        match Hashtbl.find_opt img x with
        | Some y' -> if y' <> y then raise Exit
        | None -> Hashtbl.add img x y)
      map;
    List.iter
      (fun (x, y) -> if Hashtbl.find_opt img x <> Some y then raise Exit)
      fixed;
    let b_univ = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace b_univ v ()) (Structure.universe b);
    let apply x =
      match Hashtbl.find_opt img x with Some y -> y | None -> raise Exit
    in
    List.iter
      (fun x -> if not (Hashtbl.mem b_univ (apply x)) then raise Exit)
      (Structure.universe a);
    List.iter
      (fun (name, tuples) ->
        let btab = Hashtbl.create 64 in
        List.iter
          (fun t -> Hashtbl.replace btab t ())
          (Structure.relation b name);
        List.iter
          (fun t ->
            if not (Hashtbl.mem btab (List.map apply t)) then raise Exit)
          tuples)
      (Structure.relations a);
    true
  with Exit | Not_found | Invalid_argument _ -> false
