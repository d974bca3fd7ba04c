(* Seeded input generators.  Every input reaches the program as text
   (facts, query syntax, NDJSON requests), exactly as a user would send
   it; the seed is the only source of variation.  Graphs, query shapes
   and query spellings are fixed by construction.  The seed decides node
   labels (every seed gets an isomorphic database with its own facts
   text), variable names (which the parser numbers by position, so every
   seed checks and counts the same parsed queries) and write streams
   (drawn from one fixed class mix). *)

let rng (seed : int) (salt : int) : Random.State.t = Random.State.make [| seed; salt |]

let shuffle (st : Random.State.t) (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Power-law digraph E plus a uniform unary relation R                 *)
(* ------------------------------------------------------------------ *)

type graph = {
  n : int;  (** universe [0 .. n-1] *)
  edges : (int * int) list;
  r : int list;  (** members of R *)
  label : int array;  (** rank to node: the seed's relabeling *)
}

(* Cumulative Zipf weights [1 / (rank + 1)^alpha]. *)
let zipf_cdf (n : int) (alpha : float) : float array =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) alpha);
    c.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let draw (st : Random.State.t) (cdf : float array) : int =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Rank of a given in-rank: the in-hubs are the ranks [n / 16] below
   the out-hubs, so 2-paths through mid ranks blow up joins without one
   node that is both hubs dominating every count. *)
let in_rank ~(n : int) (r : int) : int = (r + (n / 16)) mod n

(* [digraph ~seed ~n ~m]: [m] distinct non-loop edges between ranks,
   sources and targets Zipf-distributed (alpha = 1), and R holding one
   rank in five.  The ranked graph is the same for every seed; the seed
   relabels its nodes, so every seed gets an isomorphic database with
   its own facts text. *)
let digraph ~(seed : int) ~(n : int) ~(m : int) : graph =
  let st = rng 0 1 in
  let cdf = zipf_cdf n 1.0 in
  let seen = Hashtbl.create (2 * m) in
  let edges = ref [] and k = ref 0 in
  while !k < m do
    let u = draw st cdf and v = in_rank ~n (draw st cdf) in
    if u <> v && not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.add seen (u, v) ();
      edges := (u, v) :: !edges;
      incr k
    end
  done;
  let rst = rng 0 2 in
  let r = List.filter (fun _ -> Random.State.int rst 5 = 0) (List.init n Fun.id) in
  let label = Array.of_list (shuffle (rng seed 7) (List.init n Fun.id)) in
  {
    n;
    edges = List.rev_map (fun (u, v) -> (label.(u), label.(v))) !edges;
    r = List.map (fun x -> label.(x)) r;
    label;
  }

let facts_text (g : graph) : string =
  let b = Buffer.create (16 * (List.length g.edges + g.n)) in
  Buffer.add_string b "universe { ";
  for i = 0 to g.n - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Buffer.add_string b (string_of_int i)
  done;
  Buffer.add_string b " }\n";
  List.iter (fun (u, v) -> Printf.bprintf b "E(%d, %d).\n" u v) g.edges;
  List.iter (fun v -> Printf.bprintf b "R(%d).\n" v) g.r;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Wide unions for check_wide_unions                                   *)
(* ------------------------------------------------------------------ *)

(* Disjunct shapes over the free pair (x, y); a, b are quantified.
   Mixed on purpose: acyclic, cyclic and quantified shapes, plus shapes
   that another disjunct subsumes. *)
let shapes =
  [
    ("edge", [ ("x", "y") ]);
    ("back", [ ("y", "x") ]);
    ("hop2", [ ("x", "a"); ("a", "y") ]);
    ("hop3", [ ("x", "a"); ("a", "b"); ("b", "y") ]);
    ("tri", [ ("x", "y"); ("y", "a"); ("a", "x") ]);
    ("cout", [ ("x", "a"); ("y", "a") ]);
    ("cin", [ ("a", "x"); ("a", "y") ]);
    ("sub_edge", [ ("x", "y"); ("x", "a") ]);
    ("sq", [ ("x", "a"); ("a", "y"); ("y", "b"); ("b", "x") ]);
    ("sub_hop2", [ ("x", "a"); ("a", "y"); ("a", "b") ]);
    ("tri2", [ ("x", "a"); ("a", "y"); ("y", "x") ]);
  ]

(* Template l has l disjuncts and carries a subsumed disjunct, so the
   optimizer always has work; from l = 7 on it also repeats hop2 (a
   duplicate up to renaming and atom order). *)
let template (l : int) : string list =
  let base = [ "edge"; "hop2"; "tri"; "cout"; "sub_edge"; "hop3"; "hop2"; "back" ] in
  let extra = [ "cin"; "sq"; "sub_hop2"; "tri2" ] in
  List.filteri (fun i _ -> i < l) (base @ extra)

(* [relabel st text] renames every variable of a query text (an
   identifier not followed by an opening parenthesis) through a seeded
   injective map onto names of one length.  First occurrences keep
   their positions, and the parser numbers variables by head position
   and first occurrence, so every relabeling parses to the same query
   and costs the same to check or count. *)
let relabel (st : Random.State.t) (text : string) : string =
  let is_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_id c = is_start c || (c >= '0' && c <= '9') || c = '\'' in
  let fresh = ref (shuffle st (List.init 1000 Fun.id)) in
  let names = Hashtbl.create 16 in
  let rename v =
    match Hashtbl.find_opt names v with
    | Some w -> w
    | None ->
        let w = Printf.sprintf "v%03d" (List.hd !fresh) in
        fresh := List.tl !fresh;
        Hashtbl.add names v w;
        w
  in
  let n = String.length text in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if is_start text.[!i] then begin
      let j = ref !i in
      while !j < n && is_id text.[!j] do incr j done;
      let k = ref !j in
      while !k < n && text.[!k] = ' ' do incr k done;
      let id = String.sub text !i (!j - !i) in
      Buffer.add_string b (if !k < n && text.[!k] = '(' then id else rename id);
      i := !j
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* [wide_union ~seed l i] is spelling [i] of template [l]: disjunct
   order, atom order, quantified-variable names and orientation drawn
   from a stream of [l] and [i] alone, so every seed checks the same
   spellings; the seed only relabels them.  The atoms come back in the
   unrelabeled spelling (same head, same count), for the harness's own
   answer oracle. *)
let wide_union ~(seed : int) (l : int) (i : int) : string * (string * string) list list =
  let st = rng 0 (100 + (16 * l) + i) in
  let flip = Random.State.bool st in
  let disjunct k shape =
    let name v =
      match v with
      | "x" -> if flip then "y" else "x"
      | "y" -> if flip then "x" else "y"
      | q -> Printf.sprintf "%s%d" q k
    in
    shuffle st (List.map (fun (s, t) -> (name s, name t)) (List.assoc shape shapes))
  in
  let ds = List.mapi disjunct (shuffle st (template l)) in
  let render atoms = String.concat ", " (List.map (fun (s, t) -> Printf.sprintf "E(%s, %s)" s t) atoms) in
  let text = "(x, y) :- " ^ String.concat " ; " (List.map render ds) in
  (relabel (rng seed (100 + (16 * l) + i)) text, ds)

(* Lemma 51 unions from fixed small CNFs (l = 8, 8, 9), rendered with
   their disjuncts in a fixed shuffled order and relabeled by the seed.
   The smallest proper 3-CNF gives l = 10, whose check alone takes
   about 0.9 s: it would halve the samples a run collects. *)
let lemma51_cnfs : (int * int list list) list =
  [ (2, [ [ 1; 2 ]; [ -1; 2 ] ]); (2, [ [ 1; 2 ]; [ -1; -2 ] ]); (2, [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ]) ]

(* [text] split at [:-] and then at each disjunct separator [;]. *)
let split_disjuncts (text : string) : string * string list =
  let i = String.index text '-' in
  let head = String.sub text 0 (i + 1) in
  let body = String.sub text (i + 1) (String.length text - i - 1) in
  (head, List.map String.trim (String.split_on_char ';' body))

let reorder (st : Random.State.t) (text : string) : string =
  let head, ds = split_disjuncts text in
  head ^ " " ^ String.concat " ; " (shuffle st ds)

let lemma51_unions ~(seed : int) : string list =
  List.filter_map
    (fun (k, (n, clauses)) ->
      match Pipeline.ucq_of_cnf (Cnf.make n clauses) with
      | Pipeline.Query { psi; _ } ->
          Some (relabel (rng seed (300 + k)) (reorder (rng 0 (300 + k)) (Pretty.ucq psi)))
      | Pipeline.Resolved _ -> None)
    (List.mapi (fun k c -> (k, c)) lemma51_cnfs)

let paper_unions ~(seed : int) : string list =
  List.mapi
    (fun k f -> relabel (rng seed (400 + k)) (reorder (rng 0 (400 + k)) (Pretty.ucq (fst (f ())))))
    [ Paper_examples.psi1; Paper_examples.psi2 ]

(* ------------------------------------------------------------------ *)
(* Write streams                                                       *)
(* ------------------------------------------------------------------ *)

(* Write [k] of a stream, in cycles of five: insert, delete, insert,
   delete, move (one delete and one insert applied together).  A cycle
   leaves the database's size unchanged, so late writes cost what early
   ones do however many a run makes; and no class holds more than two
   fifths of the writes, so the 50th and 90th percentiles of write
   times lie inside a class, a tenth or more away from its edges. *)
type write = Insert | Delete | Move

let write_kind (k : int) : write = match k mod 5 with 0 | 2 -> Insert | 1 | 3 -> Delete | _ -> Move

(* The client-side copy of E: membership plus an array for uniform
   picks, so every generated write is effective. *)
type mirror = { slot : (int * int, int) Hashtbl.t; mutable arr : (int * int) array; mutable len : int }

let mirror_of (edges : (int * int) list) : mirror =
  let m = { slot = Hashtbl.create 1024; arr = Array.make (List.length edges + 1) (0, 0); len = 0 } in
  List.iter
    (fun e ->
      Hashtbl.replace m.slot e m.len;
      m.arr.(m.len) <- e;
      m.len <- m.len + 1)
    edges;
  m

let mem (m : mirror) (e : int * int) : bool = Hashtbl.mem m.slot e

let insert (m : mirror) (e : int * int) : unit =
  if m.len = Array.length m.arr then m.arr <- Array.append m.arr (Array.make m.len (0, 0));
  Hashtbl.replace m.slot e m.len;
  m.arr.(m.len) <- e;
  m.len <- m.len + 1

let delete (m : mirror) (e : int * int) : unit =
  let i = Hashtbl.find m.slot e in
  let last = m.arr.(m.len - 1) in
  m.arr.(i) <- last;
  Hashtbl.replace m.slot last i;
  Hashtbl.remove m.slot e;
  m.len <- m.len - 1

let present (m : mirror) (st : Random.State.t) : int * int = m.arr.(Random.State.int st m.len)
let edges_of (m : mirror) : (int * int) list = Array.to_list (Array.sub m.arr 0 m.len)
