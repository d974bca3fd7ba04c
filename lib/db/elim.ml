(** One variable-elimination engine for every per-term count.

    A term [(A, X)] is counted over flat copies of the relations it
    names.  Each atom becomes a {e factor}: distinct rows over the atom's
    distinct variables, stored row-major in one [int array] of element
    ids, with an integer weight per row.  Variables are then
    eliminated one at a time.  An elimination joins the factors that
    mention the variable and groups the joined rows by the variables
    that remain, in one pass — a hash join fused with a hash group-by —
    so a joined row is counted but never built.

    A term can also be evaluated under a {e restriction}: a flat table
    over some of its variables.  Each atom's copy then keeps only the
    rows that agree with the restriction on the variables they share (a
    semijoin, done while copying), and the restriction joins the
    elimination as one more factor.

    An acyclic quantifier-free term also has a reduced join tree over
    the same copies: the atoms' factors along a GYO join tree, each
    node's live rows bucketed by the key it shares with its parent, in
    the interned-key tables the joins index with.  See DESIGN.md §15. *)

type order = Projecting | Summing | Acyclic

type table = { cols : int array; rows : int; data : int array }

(* A factor: [rows] distinct rows over the local variables [vars],
   row-major in [data]; [wt] holds the row weights, or is empty when
   every weight is 1. *)
type factor = { vars : int array; rows : int; data : int array; wt : int array }

let weight (f : factor) (r : int) : int = if Array.length f.wt = 0 then 1 else f.wt.(r)

(* ------------------------------------------------------------------ *)
(* Interning fixed-width int tuples                                   *)
(* ------------------------------------------------------------------ *)

(* [intern] numbers distinct keys 0, 1, ... in first-seen order; key [i]
   is stored at [keys.(i * w ..)] and owns the accumulator [vals.(i)].
   Open addressing over [slots] (-1 = empty), at most half full. *)
type keys = {
  w : int;
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
  mutable slots : int array;
}

let create (w : int) (hint : int) : keys =
  let cap = ref 16 in
  while !cap < 2 * hint do cap := 2 * !cap done;
  { w; keys = Array.make (max 1 (w * hint)) 0; vals = Array.make (max 1 hint) 0; size = 0;
    slots = Array.make !cap (-1) }

let hash (a : int array) (off : int) (w : int) : int =
  let h = ref 0 in
  for j = off to off + w - 1 do h := (!h + a.(j)) * 0x2545F4914F6CDD1D done;
  !h lxor (!h lsr 29)

let rec same (t : keys) (buf : int array) (base : int) (j : int) : bool =
  j = t.w || (t.keys.(base + j) = buf.(j) && same t buf base (j + 1))

let rec probe_from (t : keys) (buf : int array) (mask : int) (s : int) : int =
  let id = t.slots.(s) in
  if id < 0 || same t buf (id * t.w) 0 then s else probe_from t buf mask ((s + 1) land mask)

(* The slot holding key [buf], or the empty slot where it would go. *)
let probe (t : keys) (buf : int array) : int =
  let mask = Array.length t.slots - 1 in
  probe_from t buf mask (hash buf 0 t.w land mask)

let find (t : keys) (buf : int array) : int = t.slots.(probe t buf)

let grow (a : int array) (need : int) : int array =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let intern (t : keys) (buf : int array) : int =
  let s = probe t buf in
  if t.slots.(s) >= 0 then t.slots.(s)
  else begin
    let id = t.size in
    t.keys <- grow t.keys ((id + 1) * t.w);
    t.vals <- grow t.vals (id + 1);
    Array.blit buf 0 t.keys (id * t.w) t.w;
    t.slots.(s) <- id;
    t.size <- id + 1;
    if 2 * t.size > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      let mask = Array.length slots - 1 in
      for i = 0 to t.size - 1 do
        let s = ref (hash t.keys (i * t.w) t.w land mask) in
        while slots.(!s) >= 0 do s := (!s + 1) land mask done;
        slots.(!s) <- i
      done;
      t.slots <- slots
    end;
    id
  end

(* [index f key n row] interns the values at the columns [key] of the
   rows [row 0 .. row (n - 1)] of [f] and buckets those rows by them: key
   [id]'s rows are [perm.(start.(id)) .. perm.(start.(id + 1) - 1)], in
   the order given. *)
let index (f : factor) (key : int array) (n : int) (row : int -> int) : keys * int array * int array =
  let a = Array.length f.vars and w = Array.length key in
  let t = create w n and ids = Array.make n 0 and buf = Array.make (max 1 w) 0 in
  for i = 0 to n - 1 do
    let r = row i in
    for j = 0 to w - 1 do buf.(j) <- f.data.((r * a) + key.(j)) done;
    let id = intern t buf in
    ids.(i) <- id;
    t.vals.(id) <- t.vals.(id) + 1
  done;
  let start = Array.make (t.size + 1) 0 in
  for id = 0 to t.size - 1 do start.(id + 1) <- start.(id) + t.vals.(id) done;
  let perm = Array.make n 0 in
  for i = n - 1 downto 0 do
    let id = ids.(i) in
    t.vals.(id) <- t.vals.(id) - 1;
    perm.(start.(id) + t.vals.(id)) <- row i
  done;
  (t, start, perm)

(* ------------------------------------------------------------------ *)
(* Join and group by, fused                                           *)
(* ------------------------------------------------------------------ *)

(* [combine ~exists ?tick nv fs out] joins the factors [fs] and groups
   the joined rows by the variables [out].  Weights multiply along a
   joined row and add up per group; with [exists] every group weighs 1
   (an existential projection).  The first factor drives; every other
   one is indexed (keys interned, rows bucketed by key) on the variables
   bound before it.  With [tick], each joined row and each missed probe
   (a partial row that no row of the next factor extends) is charged to
   it as it is found.  Every partial row ends in one or the other, so
   the charge times the number of factors bounds the join's probes.
   Returns the grouped factor and the number of joined rows. *)
let combine ~(exists : bool) ?(tick : Budget.t option) (nv : int) (fs : factor list) (out : int array) :
    factor * int =
  let fs = Array.of_list fs in
  let k = Array.length fs in
  let asg = Array.make nv 0 and bound = Array.make nv false in
  let buf = Array.make (max 1 nv) 0 in
  let split f =
    let cols = List.init (Array.length f.vars) Fun.id in
    let key, fresh = List.partition (fun c -> bound.(f.vars.(c))) cols in
    Array.iter (fun v -> bound.(v) <- true) f.vars;
    (Array.of_list key, Array.of_list fresh)
  in
  let cols = Array.map split fs in
  let idx =
    Array.init k (fun i -> if i = 0 then (create 0 0, [||], [||]) else index fs.(i) (fst cols.(i)) fs.(i).rows Fun.id)
  in
  let g = create (Array.length out) 16 and joined = ref 0 in
  let rec go i w =
    if i = k then begin
      incr joined;
      Budget.tick_opt tick;
      for j = 0 to Array.length out - 1 do buf.(j) <- asg.(out.(j)) done;
      let id = intern g buf in
      g.vals.(id) <- (if exists then 1 else g.vals.(id) + w)
    end
    else begin
      let f = fs.(i) and key, fresh = cols.(i) and t, start, perm = idx.(i) in
      let a = Array.length f.vars in
      for j = 0 to Array.length key - 1 do buf.(j) <- asg.(f.vars.(key.(j))) done;
      let id = find t buf in
      if id < 0 then Budget.tick_opt tick
      else
        for p = start.(id) to start.(id + 1) - 1 do
          let r = perm.(p) in
          for j = 0 to Array.length fresh - 1 do
            asg.(f.vars.(fresh.(j))) <- f.data.((r * a) + fresh.(j))
          done;
          go (i + 1) (w * weight f r)
        done
    end
  in
  let f0 = fs.(0) in
  let a0 = Array.length f0.vars in
  for r = 0 to f0.rows - 1 do
    for j = 0 to a0 - 1 do asg.(f0.vars.(j)) <- f0.data.((r * a0) + j) done;
    go 1 (weight f0 r)
  done;
  ({ vars = out; rows = g.size; data = g.keys; wt = (if exists then [||] else g.vals) }, !joined)

(* The largest factor drives a join. *)
let by_rows (fs : factor list) : factor list = List.stable_sort (fun f g -> compare g.rows f.rows) fs

(* A join order for [fs], after [lead] when given: each time the
   smallest of the factors sharing a variable with those before it (of
   all the rest when none does). *)
let join_order ?(lead : factor option) (fs : factor list) : factor list =
  let rec go bound acc = function
    | [] -> List.rev acc
    | rest ->
        let linked = List.filter (fun f -> Array.exists (fun v -> List.mem v bound) f.vars) rest in
        let f = Listx.min_by (fun f -> f.rows) (if linked = [] then rest else linked) in
        go (Array.to_list f.vars @ bound) (f :: acc) (List.filter (( != ) f) rest)
  in
  match lead with None -> go [] [] fs | Some r -> r :: go (Array.to_list r.vars) [] fs

(* ------------------------------------------------------------------ *)
(* Elimination orders                                                 *)
(* ------------------------------------------------------------------ *)

let mentions (v : int) (f : factor) : bool = Array.mem v f.vars

(* The rows of the factors that mention [v]. *)
let rows_with (v : int) (fs : factor list) : int =
  List.fold_left (fun acc f -> if mentions v f then acc + f.rows else acc) 0 fs

(* The variables of [fs] other than [v], in first-seen order. *)
let remaining_vars (v : int) (fs : factor list) : int array =
  List.fold_left
    (fun acc f -> Array.fold_left (fun acc u -> if u = v || List.mem u acc then acc else acc @ [ u ]) acc f.vars)
    [] fs
  |> Array.of_list

(* [eliminate ?budget ?restriction ~exists ~cost nv vars fs] eliminates
   [vars] one at a time, next the remaining one of least [cost] (the
   first on ties), charging [1 + |join|] steps each, the largest factor
   driving.  Under a restriction a join runs in {!join_order} instead,
   and charges 1 plus its joined rows and missed probes, as it finds
   them, so a budget stops it part-way.  The restriction factor, while
   it is one of [fs], leads every join it can enter: one on a variable
   it mentions, or one whose grouped variables include all of its own.
   [None] when a grouped factor comes out empty (the count is 0). *)
let eliminate ?(budget : Budget.t option) ?(restriction : factor option) ~(exists : bool)
    ~(cost : int -> factor list -> int) (nv : int) (vars : int list) (fs : factor list) :
    factor list option =
  let tick = if Option.is_some restriction then budget else None in
  let rec loop remaining fs =
    match remaining with
    | [] -> Some fs
    | _ -> (
        let v = Listx.min_by (fun v -> cost v fs) remaining in
        let remaining = List.filter (( <> ) v) remaining in
        match List.partition (mentions v) fs with
        | [], _ -> loop remaining fs
        | with_v, without ->
            let out = remaining_vars v with_v in
            let joins, without =
              match restriction with
              | None -> (by_rows with_v, without)
              | Some r when List.memq r with_v -> (join_order ~lead:r (List.filter (( != ) r) with_v), without)
              | Some r when List.memq r without && Array.for_all (fun u -> Array.mem u out) r.vars ->
                  (join_order ~lead:r with_v, List.filter (( != ) r) without)
              | Some _ -> (join_order with_v, without)
            in
            let g, joined = combine ~exists ?tick nv joins out in
            Budget.ticks_opt budget (if Option.is_some tick then 1 else 1 + joined);
            if g.rows = 0 then None else loop remaining (g :: without))
  in
  loop vars fs

(* [sum_out nv fs] is the sum over all assignments of the product of the
   factors' weights, uncharged.  While the GYO steps apply it takes them:
   variables private to one factor are summed out of it, and a factor
   whose variables lie within another's is multiplied into it.  On an
   acyclic term every intermediate is then no larger than an input
   factor.  Otherwise it eliminates the variable of least total rows. *)
let rec sum_out (nv : int) (fs : factor list) : int =
  let scalars, fs = List.partition (fun f -> Array.length f.vars = 0) fs in
  let s = List.fold_left (fun acc f -> if f.rows = 0 then 0 else acc * weight f 0) 1 scalars in
  if s = 0 || List.exists (fun f -> f.rows = 0) fs then 0
  else if fs = [] then s
  else begin
    let occ v = List.length (List.filter (mentions v) fs) in
    let others f = List.filter (( != ) f) fs in
    let subsumed f g = f != g && Array.for_all (fun v -> mentions v g) f.vars in
    let next =
      match List.find_opt (fun f -> Array.exists (fun v -> occ v = 1) f.vars) fs with
      | Some f ->
          let shared = List.filter (fun v -> occ v > 1) (Array.to_list f.vars) in
          fst (combine ~exists:false nv [ f ] (Array.of_list shared)) :: others f
      | None -> (
          let inside f = Option.map (fun g -> (f, g)) (List.find_opt (subsumed f) fs) in
          match List.find_map inside fs with
          | Some (f, g) ->
              fst (combine ~exists:false nv (by_rows [ g; f ]) g.vars) :: List.filter (fun h -> h != g) (others f)
          | None ->
              let live = List.filter (fun v -> occ v > 0) (List.init nv Fun.id) in
              let v = Listx.min_by (fun v -> rows_with v fs) live in
              let with_v, without = List.partition (mentions v) fs in
              fst (combine ~exists:false nv (by_rows with_v) (remaining_vars v with_v)) :: without)
    in
    s * sum_out nv next
  end

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

(* The factor of an atom over the local variables [qt], from the flat
   copy [rel] of its relation ([rows] tuples): the tuples agreeing on
   repeated variables, projected onto the distinct ones.  Without
   repetition it shares [rel]. *)
let of_atom (qt : int array) (rel : int array) (rows : int) : factor =
  let a = Array.length qt in
  let first = Array.map (fun v -> Option.get (Array.find_index (( = ) v) qt)) qt in
  let keep = List.filter (fun p -> first.(p) = p) (List.init a Fun.id) |> Array.of_list in
  let vars = Array.map (fun p -> qt.(p)) keep in
  if Array.length keep = a then { vars; rows; data = rel; wt = [||] }
  else begin
    let w = Array.length keep in
    let data = Array.make (rows * w) 0 and n = ref 0 in
    for r = 0 to rows - 1 do
      let ok = ref true in
      for p = 0 to a - 1 do
        if rel.((r * a) + p) <> rel.((r * a) + first.(p)) then ok := false
      done;
      if !ok then begin
        for j = 0 to w - 1 do data.((!n * w) + j) <- rel.((r * a) + keep.(j)) done;
        incr n
      end
    done;
    { vars; rows = !n; data; wt = [||] }
  end

(* The flat copy of [tuples], [arity] values a row. *)
let flat (tuples : int list list) (arity : int) : int array * int =
  let rows = List.length tuples in
  let rel = Array.make (rows * arity) 0 in
  let rec fill i = function [] -> () | v :: t -> rel.(i) <- v; fill (i + 1) t in
  List.iteri (fun r t -> fill (r * arity) t) tuples;
  (rel, rows)

(* A flat copy of a relation in the making, for an atom that shares the
   variables at its positions [pos] with a restriction: the rows whose
   values there form one of the [keys] (every row when [pos] is
   empty). *)
type copy = { pos : int array; keys : keys; key : int array; mutable out : int array; mutable len : int }

let copy_of (r : factor) (qt : int array) : copy =
  let pos = List.filter (fun p -> Array.mem qt.(p) r.vars) (List.init (Array.length qt) Fun.id) |> Array.of_list in
  let col = Array.map (fun p -> Option.get (Array.find_index (( = ) qt.(p)) r.vars)) pos in
  let w = Array.length pos and rw = Array.length r.vars in
  let keys = create w r.rows and key = Array.make w 0 in
  for i = 0 to r.rows - 1 do
    for j = 0 to w - 1 do key.(j) <- r.data.((i * rw) + col.(j)) done;
    ignore (intern keys key : int)
  done;
  { pos; keys; key; out = [||]; len = 0 }

(* The flat copies of [tuples] for the atoms over the local variables
   [qts], in one pass: each keeps only the rows that agree with the
   restriction [r] on the variables they share with it (a semijoin, done
   while copying), and the atoms sharing none share one whole copy. *)
let semijoin (r : factor) (qts : int array list) (tuples : int list list) (arity : int) : (int array * int) list =
  let whole = ref None in
  let cs =
    List.map
      (fun qt ->
        let c = copy_of r qt in
        if c.pos <> [||] then c
        else match !whole with Some w -> w | None -> whole := Some c; c)
      qts
  in
  let todo = List.fold_left (fun acc c -> if List.memq c acc then acc else c :: acc) [] cs in
  let row = Array.make arity 0 in
  let rec fill i = function [] -> () | v :: t -> row.(i) <- v; fill (i + 1) t in
  let rec visit = function
    | [] -> ()
    | c :: cs ->
        let w = Array.length c.pos in
        let agrees =
          if c.keys.size = 1 then begin
            (* one key (a binding) is compared in place: hashing it made
               tier-B folds whose bindings are dead about 1.8x slower *)
            let j = ref 0 in
            while !j < w && row.(c.pos.(!j)) = c.keys.keys.(!j) do incr j done;
            !j = w
          end
          else begin
            for j = 0 to w - 1 do c.key.(j) <- row.(c.pos.(j)) done;
            find c.keys c.key >= 0
          end
        in
        if agrees then begin
          c.out <- grow c.out ((c.len + 1) * arity);
          Array.blit row 0 c.out (c.len * arity) arity;
          c.len <- c.len + 1
        end;
        visit cs
  in
  let rec scan = function [] -> () | t :: ts -> fill 0 t; visit todo; scan ts in
  scan tuples;
  List.map (fun c -> (c.out, c.len)) cs

(* A term over [d] as factors on the local variables [0 .. nv - 1]: the
   factor of each atom, after the restriction's factor when there is
   one.  Each relation is copied in one pass per call. *)
type setup = { n : int; nv : int; local : int -> int; restriction : factor option; factors : factor list }

let setup (n : int) (restrict : table option) (q : Cq.t) (d : Structure.t) : setup =
  let a = Cq.structure q in
  let univ = Structure.universe a in
  let nv = List.length univ in
  let local v = Listx.index_of v univ in
  let restriction =
    Option.map
      (fun (r : table) ->
        let w = Array.length r.cols in
        if
          (not (Array.for_all (fun v -> List.mem v univ) r.cols))
          || List.length (List.sort_uniq compare (Array.to_list r.cols)) <> w
          || Array.length r.data < r.rows * w
        then invalid_arg "Elim: a restriction names distinct variables of the term";
        { vars = Array.map local r.cols; rows = r.rows; data = r.data; wt = [||] })
      restrict
  in
  let atoms =
    List.concat_map
      (fun (name, ts) ->
        if ts = [] then []
        else begin
          let tuples = Structure.relation d name in
          let arity = Signature.arity_of (Structure.signature d) name in
          let qts = List.map (fun t -> Array.of_list (List.map local t)) ts in
          match restriction with
          | None ->
              let rel, rows = flat tuples arity in
              List.map (fun qt -> of_atom qt rel rows) qts
          | Some r -> List.map2 (fun qt (rel, rows) -> of_atom qt rel rows) qts (semijoin r qts tuples arity)
        end)
      (Structure.relations a)
  in
  { n; nv; local; restriction; factors = Option.to_list restriction @ atoms }

(* Over the empty universe only the empty assignment exists: an answer
   iff the term has no free variable, it holds, and the restriction, if
   any, holds a row over no variables. *)
let holds_on_empty ?(budget : Budget.t option) (restrict : table option) (q : Cq.t) (d : Structure.t) : bool =
  Cq.free q = []
  && (match restrict with None -> true | Some r -> r.rows > 0 && r.cols = [||])
  && Hom.exists ?budget (Cq.structure q) d

(* A restricted term with an empty factor (an atom no row of which
   agrees with the restriction) has no answer, before any elimination. *)
let dead (s : setup) : bool = Option.is_some s.restriction && List.exists (fun f -> f.rows = 0) s.factors

(* The factors left once the quantified variables are projected away. *)
let project ?(budget : Budget.t option) (s : setup) (q : Cq.t) : factor list option =
  let cost v fs = List.length (List.filter (mentions v) fs) in
  eliminate ?budget ?restriction:s.restriction ~exists:true ~cost s.nv (List.map s.local (Cq.quantified q)) s.factors

let count ?(budget : Budget.t option) ?(restrict : table option) (order : order) (q : Cq.t)
    (d : Structure.t) : int =
  let a = Cq.structure q in
  let n = Structure.universe_size d in
  if not (Structure.covered_by a d) then 0
  else if n = 0 && order = Projecting then if holds_on_empty ?budget restrict q d then 1 else 0
  else begin
    let s = setup n restrict q d in
    let nv = s.nv and factors = s.factors in
    let covered = List.filter (fun v -> List.exists (mentions v) factors) (List.init nv Fun.id) in
    (* a variable in no atom ranges over the whole universe *)
    let homs fs = sum_out nv fs * Combinat.power_int s.n (nv - List.length covered) in
    if dead s then 0
    else
      match order with
      | Acyclic -> homs factors
      | Summing -> (
          match eliminate ?budget ?restriction:s.restriction ~exists:false ~cost:rows_with nv covered factors with
          | None -> 0
          | Some fs -> homs fs)
      | Projecting -> (
          match project ?budget s q with
          | None -> 0
          | Some fs ->
              let missing = List.filter (fun x -> not (List.mem (s.local x) covered)) (Cq.free q) in
              sum_out nv fs * Combinat.power_int s.n (List.length missing))
  end

let answers ?(budget : Budget.t option) ?(restrict : table option) (q : Cq.t) (d : Structure.t) : table =
  let cols = Array.of_list (Cq.free q) in
  let none = { cols; rows = 0; data = [||] } in
  let n = Structure.universe_size d in
  if not (Structure.covered_by (Cq.structure q) d) then none
  else if n = 0 then if holds_on_empty ?budget restrict q d then { cols; rows = 1; data = [||] } else none
  else begin
    let s = setup n restrict q d in
    match if dead s then None else project ?budget s q with
    | None -> none
    | Some fs -> (
        let xs = Array.map s.local cols in
        (* a free variable in no factor ranges over the whole universe *)
        let spread =
          List.filter_map
            (fun v ->
              if List.exists (mentions v) fs then None
              else Some { vars = [| v |]; rows = s.n; data = Array.of_list (Structure.universe d); wt = [||] })
            (Array.to_list xs)
        in
        match fs @ spread with
        | [] -> { cols; rows = 1; data = [||] }
        | fs ->
            let g, _ = combine ~exists:true ?tick:budget s.nv (join_order fs) xs in
            { cols; rows = g.rows; data = g.data })
  end

(* The distinct rows of the tables [ts], all over [cols], interned. *)
let interned (cols : int array) (ts : table list) : keys =
  let w = Array.length cols in
  let g = create w (List.fold_left (fun acc (t : table) -> acc + t.rows) 0 ts) in
  let buf = Array.make w 0 in
  List.iter
    (fun (t : table) ->
      if t.cols <> cols then invalid_arg "Elim.union: tables over different columns";
      for r = 0 to t.rows - 1 do
        Array.blit t.data (r * w) buf 0 w;
        ignore (intern g buf : int)
      done)
    ts;
  g

let union (cols : int array) (ts : table list) : table =
  let g = interned cols ts in
  { cols; rows = g.size; data = g.keys }

let mem (t : table) : int array -> bool =
  let g = interned t.cols [ t ] in
  fun row -> find g row >= 0

(* ------------------------------------------------------------------ *)
(* The reduced join tree                                              *)
(* ------------------------------------------------------------------ *)

type node = {
  vars : int array;
  data : int array;
  find : int array -> int;
  start : int array;
  live : int array;
  acc : int array;
}

type tree = { nodes : node array; free : int array; spread : int array; universe : int array; total : int }

(* The nodes over the factors [fs] along the join tree [jt] of their
   variable sets, bottom-up.  Each ear's parent is its witness, removed
   after it, so the root, then the ears latest-removed first, puts
   parents first. *)
let grow (nv : int) (fs : factor array) (jt : Hypergraph.join_tree) : node array =
  let m = Array.length fs in
  let order = Array.of_list (List.filter (fun i -> not (List.mem_assoc i jt.tree)) (List.init m Fun.id) @ List.map fst jt.tree) in
  let at = Array.make m 0 in
  Array.iteri (fun j i -> at.(i) <- j) order;
  let parent = Array.init m (fun j -> if j = 0 then -1 else at.(List.assoc order.(j) jt.tree)) in
  let built = Array.make m None and asg = Array.make nv 0 in
  for j = m - 1 downto 0 do
    let f = fs.(order.(j)) in
    let kids = List.filter_map (fun k -> if parent.(k) = j then built.(k) else None) (List.init m Fun.id) in
    let a = Array.length f.vars in
    let count = Array.make f.rows 0 and alive = Array.make f.rows 0 and nlive = ref 0 in
    for r = 0 to f.rows - 1 do
      Array.iteri (fun c v -> asg.(v) <- f.data.((r * a) + c)) f.vars;
      (* live when every child has a live row under its key *)
      let rec extend c = function
        | [] ->
            count.(r) <- c;
            alive.(!nlive) <- r;
            incr nlive
        | k :: ks ->
            let b = k.find asg in
            if b >= 0 then extend (c * k.acc.(k.start.(b + 1) - 1)) ks
      in
      extend 1 kids
    done;
    let up = if j = 0 then [||] else fs.(order.(parent.(j))).vars in
    let key = List.filter (fun c -> Array.mem f.vars.(c) up) (List.init a Fun.id) |> Array.of_list in
    let shared = Array.map (fun c -> f.vars.(c)) key in
    let keys, start, live = index f key !nlive (fun i -> alive.(i)) in
    let acc = Array.make !nlive 0 in
    for b = 0 to keys.size - 1 do
      for p = start.(b) to start.(b + 1) - 1 do
        acc.(p) <- (if p = start.(b) then 0 else acc.(p - 1)) + count.(live.(p))
      done
    done;
    let find asg = find keys (Array.map (fun v -> asg.(v)) shared) in
    built.(j) <- Some { vars = f.vars; data = f.data; find; start; live; acc }
  done;
  Array.map Option.get built

let tree (q : Cq.t) (d : Structure.t) : tree option =
  if not (Cq.is_quantifier_free q) then None
  else begin
    let a = Cq.structure q in
    let n = Structure.universe_size d and nv = List.length (Structure.universe a) in
    let fs : factor array =
      if Structure.covered_by a d then Array.of_list (setup n None q d).factors
      else [| { vars = [||]; rows = 0; data = [||]; wt = [||] } |] (* a relation [d] lacks: no answer *)
    in
    let in_atom v = Array.exists (fun (f : factor) -> Array.mem v f.vars) fs in
    let edges = Array.to_list (Array.map (fun (f : factor) -> Array.to_list f.vars) fs) in
    Option.map
      (fun jt ->
        let nodes = grow nv fs jt in
        let spread = List.filter (fun v -> not (in_atom v)) (List.init nv Fun.id) in
        let root = if Array.length nodes = 0 then 1 else match nodes.(0).find [||] with -1 -> 0 | b -> nodes.(0).acc.(nodes.(0).start.(b + 1) - 1) in
        { nodes; free = Array.of_list (Cq.free q); spread = Array.of_list spread;
          universe = Array.of_list (Structure.universe d); total = root * Combinat.power_int n (List.length spread) })
      (Hypergraph.join_tree (Hypergraph.make (List.init nv Fun.id) edges))
  end
