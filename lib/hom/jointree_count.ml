(** Linear-time counting of homomorphisms of acyclic quantifier-free
    conjunctive queries (upper bound of Theorems 4/37).

    The algorithm is the counting variant of Yannakakis' join-tree
    evaluation: process the join tree of the atom hypergraph bottom-up,
    aggregating for each node a table from (values of the variables shared
    with the parent) to the number of consistent assignments of the
    variables introduced in the subtree.  Every relation of the database is
    scanned a constant number of times and all lookups are hash-based, so
    the running time is linear in [|D|] for a fixed query — matching the
    word-RAM bound the paper cites ([17]). *)

module Intset = Intset

(** [atom_hypergraph a] is the hypergraph whose vertices are the universe of
    [a] and whose edges are the element sets of its atoms. *)
let atom_hypergraph (a : Structure.t) : Hypergraph.t =
  let edges =
    List.concat_map
      (fun (_, ts) -> List.map (fun t -> List.sort_uniq compare t) ts)
      (Structure.relations a)
  in
  Hypergraph.make (Structure.universe a) edges

(** [is_acyclic_structure a] decides alpha-acyclicity of the atom
    hypergraph (the paper's notion of acyclicity for structures/queries). *)
let is_acyclic_structure (a : Structure.t) : bool =
  Hypergraph.is_acyclic (atom_hypergraph a)

(** [count_big a d] is [hom(A -> D)] for an acyclic quantifier-free query
    [a] in exact arbitrary precision, or [None] if [a] is cyclic — the
    independent oracle for the native-integer engine of [lib/db]. *)
let count_big (a : Structure.t) (d : Structure.t) : Bigint.t option =
  if not (Structure.covered_by a d) then Some Bigint.zero
  else begin
    (* List atoms as (vars-of-atom, database tuples restricted to a canonical
       variable order).  An atom R(x, y, x) with repeated variables keeps
       only database tuples with equal first/third components. *)
    let atoms =
      List.concat_map
        (fun (name, ts) ->
          let td = if ts = [] then [] else Structure.relation d name in
          List.map
            (fun qt ->
              let vars = List.sort_uniq compare qt in
              (* For each database tuple, check the repetition pattern and
                 project onto [vars]. *)
              let proj =
                List.filter_map
                  (fun dt ->
                    let binding = Hashtbl.create 4 in
                    let ok =
                      List.for_all2
                        (fun qv dv ->
                          match Hashtbl.find_opt binding qv with
                          | None ->
                              Hashtbl.add binding qv dv;
                              true
                          | Some dv' -> dv = dv')
                        qt dt
                    in
                    if ok then Some (List.map (Hashtbl.find binding) vars)
                    else None)
                  td
              in
              (vars, List.sort_uniq compare proj))
            ts)
        (Structure.relations a)
    in
    let h =
      Hypergraph.make (Structure.universe a) (List.map fst atoms)
    in
    match Hypergraph.join_tree h with
    | None -> None
    | Some jt ->
        let atoms_arr = Array.of_list atoms in
        let m = Array.length atoms_arr in
        let n_db = Structure.universe_size d in
        if m = 0 then
          Some (Bigint.pow (Bigint.of_int n_db) (Structure.universe_size a))
        else begin
          (* Variables covered by no atom are free: multiply by |U(D)| each.*)
          let covered =
            List.fold_left
              (fun acc (vars, _) -> List.fold_left (fun s v -> Intset.add v s) acc vars)
              Intset.empty atoms
          in
          let isolated =
            List.length
              (List.filter
                 (fun v -> not (Intset.mem v covered))
                 (Structure.universe a))
          in
          (* Root the join tree at node 0 and process bottom-up. *)
          let adj = Array.make m [] in
          List.iter
            (fun (x, y) ->
              adj.(x) <- y :: adj.(x);
              adj.(y) <- x :: adj.(y))
            jt.Hypergraph.tree;
          let parent = Array.make m (-1) in
          let children = Array.make m [] in
          let visited = Array.make m false in
          let queue = Queue.create () in
          Queue.add 0 queue;
          visited.(0) <- true;
          let topo = ref [] in
          while not (Queue.is_empty queue) do
            let x = Queue.pop queue in
            topo := x :: !topo;
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
          (* tables.(i) maps shared-with-parent value vectors to counts *)
          let tables : (int list, Bigint.t) Hashtbl.t array =
            Array.init m (fun _ -> Hashtbl.create 64)
          in
          (* process in reverse BFS order (leaves first) *)
          List.iter
            (fun i ->
              let vars_i, tuples_i = atoms_arr.(i) in
              let itx_parent =
                if parent.(i) < 0 then []
                else Listx.inter_sorted vars_i (fst atoms_arr.(parent.(i)))
              in
              let child_info =
                List.map
                  (fun c ->
                    let itx = Listx.inter_sorted (fst atoms_arr.(c)) vars_i in
                    (* positions of itx variables within vars_i *)
                    let pos = List.map (fun v -> Listx.index_of v vars_i) itx in
                    (tables.(c), pos))
                  children.(i)
              in
              let parent_pos =
                List.map (fun v -> Listx.index_of v vars_i) itx_parent
              in
              let table = tables.(i) in
              List.iter
                (fun tup ->
                  let arr = Array.of_list tup in
                  let contribution =
                    List.fold_left
                      (fun acc (ctable, pos) ->
                        if Bigint.is_zero acc then acc
                        else begin
                          let key = List.map (fun p -> arr.(p)) pos in
                          Bigint.mul acc
                            (Option.value ~default:Bigint.zero
                               (Hashtbl.find_opt ctable key))
                        end)
                      Bigint.one child_info
                  in
                  if not (Bigint.is_zero contribution) then begin
                    let key = List.map (fun p -> arr.(p)) parent_pos in
                    Hashtbl.replace table key
                      (Bigint.add contribution
                         (Option.value ~default:Bigint.zero (Hashtbl.find_opt table key)))
                  end)
                tuples_i)
            !topo;
          let root_total =
            Hashtbl.fold (fun _ c acc -> Bigint.add acc c) tables.(0) Bigint.zero
          in
          Some (Bigint.mul root_total (Bigint.pow (Bigint.of_int n_db) isolated))
        end
      end
