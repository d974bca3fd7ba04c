(** Counting homomorphisms by dynamic programming over a tree decomposition.

    This is the classical [n^{tw+1}]-time algorithm behind the tractable
    side of the Chen–Mengel classification (Theorem 21) in the
    quantifier-free case: counting answers to a quantifier-free conjunctive
    query [A] equals counting homomorphisms [A → D], which bounded-treewidth
    queries admit in polynomial time.  Every atom of [A] spans a clique of
    the Gaifman graph, hence lies inside some bag of any tree decomposition
    (the Helly property of subtrees), so each atom can be checked locally at
    one bag. *)

module Intset = Intset

type plan = {
  bags : int list array; (* bag index -> sorted dense element indices *)
  children : int list array;
  parent_itx : int list array; (* bag -> sorted dense indices shared with parent *)
  local_atoms : (string * int list) list array; (* bag -> atoms (name, dense tuple) *)
}  (* rooted at bag 0 *)

(** [make_plan a] computes a tree decomposition of the Gaifman graph of [a]
    (exact for small queries, heuristic otherwise), roots it, and assigns
    every atom to a bag containing all of its elements. *)
let make_plan (a : Structure.t) : plan =
  let g, old_of_new = Structure.gaifman a in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun i v -> Hashtbl.add new_of_old v i) old_of_new;
  let _, dec =
    if Graph.num_vertices g <= 20 then Treewidth.exact g else Treewidth.heuristic g
  in
  let dec =
    if Treedec.num_bags dec = 0 then { Treedec.bags = [| Intset.empty |]; tree = [] }
    else dec
  in
  let b = Treedec.num_bags dec in
  let bags = Array.map (fun s -> Intset.to_list s) dec.Treedec.bags in
  (* Root at 0 and orient. *)
  let adj = Array.make b [] in
  List.iter
    (fun (x, y) ->
      adj.(x) <- y :: adj.(x);
      adj.(y) <- x :: adj.(y))
    dec.Treedec.tree;
  let parent = Array.make b (-1) in
  let children = Array.make b [] in
  let visited = Array.make b false in
  let order = ref [] in
  let queue = Queue.create () in
  Queue.add 0 queue;
  visited.(0) <- true;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    order := x :: !order;
    List.iter
      (fun y ->
        if not visited.(y) then begin
          visited.(y) <- true;
          parent.(y) <- x;
          children.(x) <- y :: children.(x);
          Queue.add y queue
        end)
      adj.(x)
  done;
  let parent_itx =
    Array.init b (fun i ->
        if parent.(i) < 0 then []
        else Listx.inter_sorted bags.(i) bags.(parent.(i)))
  in
  (* Assign each atom to a bag containing all of its elements. *)
  let local_atoms = Array.make b [] in
  List.iter
    (fun (name, ts) ->
      List.iter
        (fun tup ->
          let dense = List.map (Hashtbl.find new_of_old) tup in
          let sorted = Listx.sort_uniq_ints dense in
          let bag =
            let found = ref (-1) in
            Array.iteri
              (fun i bvs ->
                if !found < 0 && Listx.is_subset_sorted sorted bvs then found := i)
              bags;
            !found
          in
          if bag < 0 then
            invalid_arg "Treedec_count: atom not coverable (invalid decomposition)";
          local_atoms.(bag) <- (name, dense) :: local_atoms.(bag))
        ts)
    (Structure.relations a);
  { bags; children; parent_itx; local_atoms }

(** [count_big a d] is [hom(A -> D)] in exact arbitrary precision,
    computed in time roughly [|bags| * |U(D)|^{tw+1}]. *)
let count_big (a : Structure.t) (d : Structure.t) : Bigint.t =
  if not (Structure.covered_by a d) then Bigint.zero
  else if Structure.universe_size a = 0 then Bigint.one
  else begin
    let plan = make_plan a in
    let domain = Array.of_list (Structure.universe d) in
    let nd = Array.length domain in
    if nd = 0 then Bigint.zero
    else begin
      let b = Array.length plan.bags in
      (* memoised relation membership *)
      let rel_tbl = Hashtbl.create 16 in
      List.iter
        (fun (name, ts) ->
          let set = Hashtbl.create (List.length ts) in
          List.iter (fun t -> Hashtbl.replace set t ()) ts;
          Hashtbl.replace rel_tbl name set)
        (Structure.relations d);
      let tuple_in name tup =
        match Hashtbl.find_opt rel_tbl name with
        | None -> false
        | Some set -> Hashtbl.mem set tup
      in
      (* Bottom-up DP; table for bag i maps the value vector of
         [parent_itx.(i)] to the number of consistent subtree extensions. *)
      let tables : (int list, Bigint.t) Hashtbl.t array =
        Array.init b (fun _ -> Hashtbl.create 64)
      in
      let rec process (i : int) : unit =
        List.iter process plan.children.(i);
        let bag = Array.of_list plan.bags.(i) in
        let k = Array.length bag in
        let assignment = Hashtbl.create 8 in
        let child_info =
          List.map
            (fun c ->
              (tables.(c), plan.parent_itx.(c)))
            plan.children.(i)
        in
        let table = tables.(i) in
        (* odometer over domain^k *)
        let counters = Array.make k 0 in
        let finished = ref (k = 0) in
        let step () =
          let j = ref 0 in
          let carrying = ref true in
          while !carrying && !j < k do
            counters.(!j) <- counters.(!j) + 1;
            if counters.(!j) = nd then begin
              counters.(!j) <- 0;
              incr j
            end
            else carrying := false
          done;
          if !carrying then finished := true
        in
        let emit () =
          Array.iteri (fun p e -> Hashtbl.replace assignment e domain.(counters.(p))) bag;
          let local_ok =
            List.for_all
              (fun (name, dense_tup) ->
                tuple_in name (List.map (Hashtbl.find assignment) dense_tup))
              plan.local_atoms.(i)
          in
          if local_ok then begin
            let contribution =
              List.fold_left
                (fun acc (ctable, itx) ->
                  if Bigint.is_zero acc then acc
                  else begin
                    let key = List.map (Hashtbl.find assignment) itx in
                    match Hashtbl.find_opt ctable key with
                    | None -> Bigint.zero
                    | Some c -> Bigint.mul acc c
                  end)
                Bigint.one child_info
            in
            if not (Bigint.is_zero contribution) then begin
              let key = List.map (Hashtbl.find assignment) plan.parent_itx.(i) in
              Hashtbl.replace table key
                (Bigint.add contribution
                   (Option.value ~default:Bigint.zero (Hashtbl.find_opt table key)))
            end
          end
        in
        if k = 0 then begin
          (* empty bag: contributes the product of children at the empty key *)
          let contribution =
            List.fold_left
              (fun acc (ctable, _) ->
                Bigint.mul acc
                  (Option.value ~default:Bigint.zero (Hashtbl.find_opt ctable [])))
              Bigint.one child_info
          in
          Hashtbl.replace table [] contribution
        end
        else begin
          (* iterate all nd^k assignments *)
          let continue_ = ref true in
          while !continue_ do
            emit ();
            step ();
            if !finished then continue_ := false
          done
        end
      in
      process 0;
      Hashtbl.fold (fun _ c acc -> Bigint.add acc c) tables.(0) Bigint.zero
    end
  end
