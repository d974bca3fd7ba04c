(** Update-maintenance tier selection (see the interface).  The checks
    mirror the classification rules the analyzer already runs: tier A is
    the Section 1.2 dynamic-counting criterion, tier B the acyclicity of
    every combined query, and both are gated on the disjunct count
    because they enumerate the [2^l - 1] nonempty subsets. *)

type t = A | B | C

let to_string = function A -> "A" | B -> "B" | C -> "C"

let of_string s =
  match String.lowercase_ascii s with
  | "a" -> Some A
  | "b" -> Some B
  | "c" -> Some C
  | _ -> None

let describe = function
  | A -> "O(1) dynamic counting (Section 1.2)"
  | B -> "per-update delta evaluation over the changed tuple"
  | C -> "lazy budgeted recompute"

type selection = { tier : t; reason : string }

let max_disjuncts = 6

let select (psi : Ucq.t) : selection =
  let l = Ucq.length psi in
  if l > max_disjuncts then
    {
      tier = C;
      reason =
        Printf.sprintf
          "%d disjuncts exceed the %d-disjunct gate for the exponential \
           tier-A/B criteria"
          l max_disjuncts;
    }
  else if Ucq.is_exhaustively_q_hierarchical psi then
    {
      tier = A;
      reason =
        "exhaustively q-hierarchical: every combined query admits \
         constant-time maintenance";
    }
  else
    let combined = List.map (Ucq.combined psi) (Combinat.nonempty_subsets l) in
    match List.find_opt (fun q -> not (Cq.is_acyclic q)) combined with
    | None ->
        {
          tier = B;
          reason =
            "not exhaustively q-hierarchical, but every combined query is \
             acyclic: delta evaluation applies";
        }
    | Some _ ->
        {
          tier = C;
          reason =
            "some combined query is cyclic: no incremental path, counts \
             are recomputed lazily";
        }
