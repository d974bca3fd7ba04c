(** Constant-delay enumeration of the answers of an acyclic
    quantifier-free conjunctive query (Bagan–Durand–Grandjean; the
    enumeration line of work the paper surveys in Section 1.1).

    Preprocessing builds {!Elim.tree}: flat copies of the atoms, joined
    along a join tree, with every node's live rows bucketed by the
    variables it shares with its parent.  Enumeration is an odometer:
    one digit per node, running over the live rows of the bucket its
    parent's row selects, then one per variable in no atom, running over
    the universe.  Since every live row extends to an answer, advancing
    a digit and resetting the later ones yields the next answer after
    work bounded by the query alone. *)

type t = Elim.tree

let prepare (q : Cq.t) (d : Structure.t) : t =
  if not (Cq.is_quantifier_free q) then
    raise (Counting.Unsupported "Enumerate: query must be quantifier-free");
  match Elim.tree q d with
  | Some t -> t
  | None -> raise (Counting.Unsupported "Enumerate: query must be acyclic")

(* One walk over the answers, as a dispenser: [pos.(j)] is digit [j]'s
   place in its range [.. stop.(j)), and [asg] the assignment the digits
   spell. *)
let walk (t : t) : unit -> int list option =
  let m = Array.length t.nodes in
  let digits = m + Array.length t.spread in
  let pos = Array.make digits 0 and stop = Array.make digits 0 in
  let asg = Array.make (Array.length t.free) 0 in
  let set j =
    if j < m then begin
      let n = t.nodes.(j) in
      let r = n.live.(pos.(j)) and a = Array.length n.vars in
      Array.iteri (fun c v -> asg.(v) <- n.data.((r * a) + c)) n.vars
    end
    else asg.(t.spread.(j - m)) <- t.universe.(pos.(j))
  in
  (* digit [j]'s range, given the digits before it *)
  let range j =
    if j >= m then (0, Array.length t.universe)
    else
      let n = t.nodes.(j) in
      match n.find asg with -1 -> (0, 0) | b -> (n.start.(b), n.start.(b + 1))
  in
  (* digits [j ..] to their first values; false when a range is empty
     (only the root's, or a variable's over the empty universe) *)
  let rec reset j =
    j = digits
    ||
    let lo, hi = range j in
    pos.(j) <- lo;
    stop.(j) <- hi;
    lo < hi && (set j; reset (j + 1))
  in
  let rec advance j =
    j >= 0
    &&
    (pos.(j) <- pos.(j) + 1;
     if pos.(j) < stop.(j) then (set j; reset (j + 1)) else advance (j - 1))
  in
  let started = ref false in
  fun () ->
    let more = if !started then advance (digits - 1) else (started := true; reset 0) in
    if more then Some (Array.to_list asg) else None

let answers (t : t) : int list Seq.t = fun () -> Seq.of_dispenser (walk t) ()

let to_list (t : t) : int list list = List.sort compare (List.of_seq (answers t))
