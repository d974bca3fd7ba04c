(** Uniform sampling from the answer set of a conjunctive query.

    The Karp–Luby estimator ({!Karp_luby}) needs, per disjunct, (a) the
    exact answer count and (b) uniform samples from the answer set.  For
    acyclic quantifier-free queries both come from {!Elim.tree}, whose
    rows carry the number of extensions into their subtrees: a draw
    takes a root row with probability proportional to its count, then,
    node by node, a live row of the bucket its parent's row selects
    proportionally to its count (Arenas et al.) — an exactly uniform
    sample.  Other query shapes draw from the materialised answer table
    of {!Elim.answers}. *)

type t = Tree of Elim.tree | Table of Elim.table

let make (q : Cq.t) (d : Structure.t) : t =
  match Elim.tree q d with Some t -> Tree t | None -> Table (Elim.answers q d)

let cardinality (s : t) : int = match s with Tree t -> t.total | Table a -> a.rows

(** weighted choice from a non-empty list of (value, weight > 0) *)
let weighted_choice (st : Random.State.t) (entries : ('a * int) list) : 'a =
  let total = Listx.sum (List.map snd entries) in
  let r = Random.State.full_int st total in
  let rec pick acc = function
    | [] -> invalid_arg "weighted_choice"
    | (v, w) :: rest -> if r < acc + w then v else pick (acc + w) rest
  in
  pick 0 entries

let draw (st : Random.State.t) (s : t) : (int * int) list option =
  match s with
  | Table a ->
      if a.rows = 0 then None
      else begin
        let w = Array.length a.cols and r = Random.State.full_int st a.rows in
        Some (List.init w (fun j -> (a.cols.(j), a.data.((r * w) + j))))
      end
  | Tree t ->
      if t.total = 0 then None
      else begin
        let asg = Array.make (Array.length t.free) 0 in
        Array.iter
          (fun (n : Elim.node) ->
            let b = n.find asg in
            let x = Random.State.full_int st n.acc.(n.start.(b + 1) - 1) in
            (* the first place whose running count passes [x] *)
            let rec search lo hi =
              if lo = hi then lo
              else
                let mid = (lo + hi) / 2 in
                if x < n.acc.(mid) then search lo mid else search (mid + 1) hi
            in
            let r = n.live.(search n.start.(b) (n.start.(b + 1) - 1)) and a = Array.length n.vars in
            Array.iteri (fun c v -> asg.(v) <- n.data.((r * a) + c)) n.vars)
          t.nodes;
        Array.iter (fun v -> asg.(v) <- t.universe.(Random.State.full_int st (Array.length t.universe))) t.spread;
        Some (Array.to_list (Array.map2 (fun v x -> (v, x)) t.free asg))
      end
