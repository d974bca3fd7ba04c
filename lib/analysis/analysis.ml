(** The static query analyzer: runs every lint rule over one query text
    and produces a {!report} of {!Diagnostic.t} findings.

    Total by construction — {!check} never raises.  Parse and interning
    failures become [UCQ001]/[UCQ002] diagnostics; budget exhaustion
    becomes [UCQ003] and skips the remaining budgeted rules; any other
    exception escaping a rule becomes [UCQ004].  The rules run in two
    stages: structural rules over the positioned {!Parse.ast} (spans and
    surface names), then semantic rules over the interned {!Ucq.t}. *)

type report = {
  path : string option;
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare} *)
  plan : Plan.t option;  (** present when the plan rule completed *)
  update_tier : Tier.selection option;
      (** maintenance tier under live updates; present when interning
          succeeded and the tier rule completed *)
}

(* Adversarial input must terminate even without a caller budget: the
   semantic rules (hom checks, exact treewidth, 2^l expansion) are
   exponential by design. *)
let default_max_steps = 1_000_000

let span_of (s : Parse.pos) (e : Parse.pos) : Diagnostic.span =
  {
    Diagnostic.line = s.Parse.line;
    col = s.Parse.col;
    end_line = e.Parse.line;
    end_col = e.Parse.col;
  }

let atom_span (a : Parse.atom) : Diagnostic.span =
  span_of a.Parse.apos a.Parse.aend

(** Span of disjunct [i]: first atom start to last atom end. *)
let disjunct_span (ast : Parse.ast) (i : int) : Diagnostic.span option =
  match List.nth_opt ast.Parse.disjuncts i with
  | Some (first :: _ as atoms) ->
      let last = List.nth atoms (List.length atoms - 1) in
      Some (span_of first.Parse.apos last.Parse.aend)
  | _ -> None

(** Span of the whole query text: head start to the last atom end — the
    deleted region of whole-query replacement fixes. *)
let full_span (ast : Parse.ast) : Diagnostic.span =
  let e =
    List.fold_left
      (fun acc atoms ->
        match List.rev atoms with
        | (a : Parse.atom) :: _ -> a.Parse.aend
        | [] -> acc)
      ast.Parse.head_end ast.Parse.disjuncts
  in
  span_of ast.Parse.head_pos e

(** [2^l - 1] as a display string, exact only when it fits a word. *)
let subsets_string (l : int) : string =
  if l < 62 then string_of_int ((1 lsl l) - 1) else Printf.sprintf "2^%d - 1" l

(* ------------------------------------------------------------------ *)
(* Error -> diagnostic mapping                                        *)
(* ------------------------------------------------------------------ *)

let of_error (e : Ucqc_error.t) : Diagnostic.t =
  match e with
  | Ucqc_error.Parse_error { line; col; end_line; end_col; msg } ->
      Diagnostic.make
        ~span:{ Diagnostic.line; col; end_line; end_col }
        "UCQ001" "%s" msg
  | Ucqc_error.Arity_mismatch { rel; expected; got } ->
      Diagnostic.make "UCQ002" "relation %s used with arity %d and arity %d"
        rel expected got
  | Ucqc_error.Budget_exhausted { phase; steps_done } ->
      Diagnostic.make "UCQ003"
        "analysis incomplete: budget exhausted after %d steps in %s"
        steps_done phase
  | Ucqc_error.Unsupported msg ->
      Diagnostic.make ~severity:Diagnostic.Error "UCQ004" "unsupported: %s" msg
  | Ucqc_error.Internal msg ->
      Diagnostic.make ~severity:Diagnostic.Error "UCQ004" "internal: %s" msg

(* ------------------------------------------------------------------ *)
(* Structural rules (positioned AST, surface names)                   *)
(* ------------------------------------------------------------------ *)

(** Underscore-prefixed variables opt out of the occurrence hints
    ([UCQ101]/[UCQ102]) — the conventional wildcard marker. *)
let is_wildcard_name (v : string) : bool =
  String.length v > 0 && v.[0] = '_'

let ast_rules ~(add : Diagnostic.t -> unit) (ast : Parse.ast) : unit =
  let head = ast.Parse.head in
  (* UCQ002: arity clash, with the span of the conflicting atom. *)
  let arities : (string, int * Parse.pos) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (a : Parse.atom) ->
         let n = List.length a.Parse.args in
         match Hashtbl.find_opt arities a.Parse.rel with
         | None -> Hashtbl.add arities a.Parse.rel (n, a.Parse.apos)
         | Some (n0, p0) ->
             if n <> n0 then
               add
                 (Diagnostic.make ~span:(atom_span a) "UCQ002"
                    "relation %s used with arity %d here but arity %d at line \
                     %d, column %d"
                    a.Parse.rel n n0 p0.Parse.line p0.Parse.col)))
    ast.Parse.disjuncts;
  List.iteri
    (fun i (conj : Parse.atom list) ->
      let dnum = i + 1 in
      (* UCQ103: syntactically duplicate atoms (interning drops them). *)
      let seen : (string * string list, int * Parse.pos) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iteri
        (fun ai (a : Parse.atom) ->
          let key = (a.Parse.rel, a.Parse.args) in
          match Hashtbl.find_opt seen key with
          | None -> Hashtbl.add seen key (ai, a.Parse.apos)
          | Some (fi, p0) ->
              add
                (Diagnostic.make ~span:(atom_span a)
                   ~witness:
                     (Diagnostic.Atom_witness
                        { disjunct = i; atom = ai; first = fi })
                   "UCQ103"
                   "duplicate atom %s(%s) in disjunct %d (first at line %d, \
                    column %d); duplicates are dropped at interning"
                   a.Parse.rel
                   (String.concat ", " a.Parse.args)
                   dnum p0.Parse.line p0.Parse.col))
        conj;
      (* Occurrence map: variable -> (total count, atoms containing it). *)
      let occ : (string, int ref * (int, unit) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iteri
        (fun ai (a : Parse.atom) ->
          List.iter
            (fun v ->
              let count, ats =
                match Hashtbl.find_opt occ v with
                | Some c -> c
                | None ->
                    let c = (ref 0, Hashtbl.create 4) in
                    Hashtbl.add occ v c;
                    c
              in
              incr count;
              Hashtbl.replace ats ai ())
            a.Parse.args)
        conj;
      (* UCQ101 / UCQ102: existential variables that constrain nothing
         across atoms.  Iterate atoms (not the hashtable) for
         deterministic order. *)
      let hinted : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (a : Parse.atom) ->
          List.iter
            (fun v ->
              if
                (not (List.mem v head))
                && (not (is_wildcard_name v))
                && not (Hashtbl.mem hinted v)
              then
                match Hashtbl.find_opt occ v with
                | None -> ()
                | Some (count, ats) ->
                    if !count = 1 then (
                      Hashtbl.add hinted v ();
                      add
                        (Diagnostic.make ~span:(atom_span a) "UCQ101"
                           "existential variable %s occurs only once in \
                            disjunct %d; it only asserts that a matching \
                            tuple exists"
                           v dnum))
                    else if Hashtbl.length ats = 1 then (
                      Hashtbl.add hinted v ();
                      add
                        (Diagnostic.make ~span:(atom_span a) "UCQ102"
                           "existential variable %s of disjunct %d appears \
                            in a single atom only"
                           v dnum)))
            a.Parse.args)
        conj;
      (* UCQ107: free variables absent from the disjunct range over the
         whole universe. *)
      List.iter
        (fun v ->
          if not (Hashtbl.mem occ v) then
            add
              (Diagnostic.make
                 ?span:(disjunct_span ast i)
                 "UCQ107"
                 "free variable %s appears in no atom of disjunct %d; it \
                  ranges over the whole universe"
                 v dnum))
        (List.sort_uniq String.compare head);
      (* UCQ105: variable-disjoint atom groups multiply out as a
         cartesian product.  Union-find over atoms keyed by shared
         variables. *)
      let n = List.length conj in
      if n >= 2 then (
        let parent = Array.init n (fun i -> i) in
        let rec find i =
          if parent.(i) = i then i
          else (
            parent.(i) <- find parent.(i);
            parent.(i))
        in
        let union i j =
          let ri = find i and rj = find j in
          if ri <> rj then parent.(ri) <- rj
        in
        let var_home : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iteri
          (fun ai (a : Parse.atom) ->
            List.iter
              (fun v ->
                match Hashtbl.find_opt var_home v with
                | None -> Hashtbl.add var_home v ai
                | Some first -> union first ai)
              a.Parse.args)
          conj;
        let roots = Hashtbl.create 4 in
        for i = 0 to n - 1 do
          Hashtbl.replace roots (find i) ()
        done;
        let parts = Hashtbl.length roots in
        if parts > 1 then
          add
            (Diagnostic.make
               ?span:(disjunct_span ast i)
               "UCQ105"
               "disjunct %d is a cartesian product of %d variable-disjoint \
                parts; its count is the product of the parts' counts"
               dnum parts)))
    ast.Parse.disjuncts

(* ------------------------------------------------------------------ *)
(* Semantic rules (interned query)                                    *)
(* ------------------------------------------------------------------ *)

let semantic_rules ~(add : Diagnostic.t -> unit) ~(budget : Budget.t)
    ~(tw_threshold : int) ~(tier : Tier.selection option ref)
    ~(env : Parse.query_env) (ast : Parse.ast) (psi : Ucq.t) : Plan.t option =
  (* the plan rule's outcome: its expansion also feeds UCQ204 *)
  let plan : (Plan.t, exn) result option ref = ref None in
  let exhausted = ref false in
  (* Every rule is fenced: budget exhaustion reports UCQ003 once, naming
     the rule as its phase, and skips the remaining (budgeted) rules;
     any other escape reports UCQ004 and moves on. *)
  let rule (name : string) (f : unit -> unit) : unit =
    if not !exhausted then
      try Budget.with_phase budget name f with
      | Budget.Exhausted e ->
          exhausted := true;
          add
            (Diagnostic.make "UCQ003"
               "analysis incomplete: budget exhausted after %d steps in %s; \
                remaining semantic rules skipped"
               e.Budget.steps_done e.Budget.phase)
      | exn ->
          add
            (Diagnostic.make "UCQ004" "rule %s failed: %s" name
               (Printexc.to_string exn))
  in
  let disjuncts = Ucq.disjuncts psi in
  let dspan i = disjunct_span ast i in
  (* UCQ205: META (Theorem 5) needs a quantifier-free union. *)
  rule "quantified-union" (fun () ->
      if Ucq.length psi > 1 && not (Ucq.is_quantifier_free psi) then
        add
          (Diagnostic.make "UCQ205"
             "union of %d disjuncts with %d quantified variables: the META \
              linear-time decision (Theorem 5) is defined only for \
              quantifier-free unions"
             (Ucq.length psi) (Ucq.num_quantified psi)));
  (* UCQ202 / UCQ206: acyclicity and free-connexity, per disjunct. *)
  List.iteri
    (fun i q ->
      rule "acyclicity" (fun () ->
          let dnum = i + 1 in
          if Cq.is_acyclic q then (
            if not (Cq.is_free_connex q) then
              add
                (Diagnostic.make ?span:(dspan i) "UCQ202"
                   "disjunct %d is acyclic but not free-connex; linear-time \
                    counting of the single disjunct is not available \
                    (footnote 2)"
                   dnum))
          else
            let g, _ = Structure.gaifman (Cq.structure q) in
            let hi, _ = Treewidth.heuristic g in
            add
              (Diagnostic.make ?span:(dspan i) "UCQ206"
                 "disjunct %d is cyclic (alpha-acyclicity fails); per-term \
                  counting backtracks within treewidth <= %d"
                 dnum hi)))
    disjuncts;
  (* UCQ207: the dynamic-counting criterion, exponential in l - gated
     (the gate lives in Tier.select, which reports tier C above it). *)
  rule "q-hierarchical" (fun () ->
      let sel = Tier.select psi in
      tier := Some sel;
      if Ucq.length psi <= Tier.max_disjuncts && sel.Tier.tier <> Tier.A then
        add
          (Diagnostic.make "UCQ207"
             "not exhaustively q-hierarchical: constant-time dynamic \
              counting under updates (Section 1.2) does not apply; live \
              updates fall back to maintenance tier %s (%s)"
             (Tier.to_string sel.Tier.tier)
             (Tier.describe sel.Tier.tier)));
  (* UCQ104 / UCQ106: subsumption between disjuncts via homomorphisms
     fixing the free variables pointwise. *)
  rule "subsumption" (fun () ->
      let ds = Array.of_list (Ucq.disjunct_structures psi) in
      let n = Array.length ds in
      if n >= 2 then (
        let fixed = List.map (fun v -> (v, v)) (Ucq.free psi) in
        (* hom.(i).(j): a witness A_i -> A_j fixing X, i.e. ans_j
           included in ans_i.  Witnesses ride on the diagnostics so the
           optimizer can re-verify in O(tuples) instead of re-searching. *)
        let hom = Array.make_matrix n n None in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then
              hom.(i).(j) <-
                (let r = ref None in
                 Hom.iter_homs ~budget ~fixed ds.(i) ds.(j) (fun h ->
                     r := Some h;
                     false);
                 !r)
          done
        done;
        (* The machine-applicable fix: the same query with the redundant
           disjunct deleted, as a whole-query replacement that parses
           back (SARIF [fixes]). *)
        let drop_fix j =
          let kept = List.filteri (fun k _ -> k <> j) (Ucq.disjuncts psi) in
          {
            Diagnostic.description =
              Printf.sprintf "delete redundant disjunct %d" (j + 1);
            replacements =
              [
                {
                  Diagnostic.at = full_span ast;
                  text = Pretty.ucq ~env (Ucq.make kept);
                };
              ];
          }
        in
        for j = 0 to n - 1 do
          let dup = ref None and sub = ref None in
          for i = 0 to n - 1 do
            if i <> j && hom.(i).(j) <> None then
              if hom.(j).(i) <> None then (
                if i < j && !dup = None then dup := Some i)
              else if !sub = None then sub := Some i
          done;
          let witness i =
            Diagnostic.Hom_witness
              { source = i; target = j; map = Option.get hom.(i).(j) }
          in
          match (!dup, !sub) with
          | Some i, _ ->
              add
                (Diagnostic.make ?span:(dspan j) ~fix:(drop_fix j)
                   ~witness:(witness i) "UCQ106"
                   "disjunct %d duplicates disjunct %d (homomorphically \
                    equivalent over the free variables); it contributes no \
                    answers"
                   (j + 1) (i + 1))
          | None, Some i ->
              add
                (Diagnostic.make ?span:(dspan j) ~fix:(drop_fix j)
                   ~witness:(witness i) "UCQ104"
                   "disjunct %d is subsumed by disjunct %d: every answer of \
                    disjunct %d is already an answer of disjunct %d"
                   (j + 1) (i + 1) (j + 1) (i + 1))
          | None, None -> ()
        done));
  (* UCQ201: the Theorem 2/5 hardness signal - contract treewidth. *)
  List.iteri
    (fun i q ->
      rule "contract-treewidth" (fun () ->
          let g, _ = Cq.contract q in
          let n = Graph.num_vertices g in
          if n > 0 then (
            let lo = Treewidth.lower_bound g in
            let hi, _ = Treewidth.heuristic g in
            let lo, hi, exact =
              if lo = hi then (lo, hi, true)
              else if n <= 10 then
                let w = Treewidth.treewidth ~budget g in
                (w, w, true)
              else (lo, hi, false)
            in
            if lo > tw_threshold then
              add
                (Diagnostic.make ?span:(dspan i) "UCQ201"
                   "contract treewidth of disjunct %d is %s (threshold %d): \
                    families of unbounded contract treewidth are \
                    #W[1]-hard to count (Theorems 2 and 5)"
                   (i + 1)
                   (if exact then string_of_int lo
                    else Printf.sprintf "between %d and %d" lo hi)
                   tw_threshold))))
    disjuncts;
  (* UCQ301: the predicted execution plan. *)
  rule "plan" (fun () ->
      match Plan.predict ~budget psi with
      | p ->
          plan := Some (Ok p);
          add (Diagnostic.make "UCQ301" "%s" (Plan.describe p))
      | exception e ->
          plan := Some (Error e);
          raise e);
  (* UCQ204: WL-dimension bounds via hereditary treewidth (Theorem 7),
     over the support the plan rule expanded. *)
  rule "wl-dimension" (fun () ->
      if Ucq.is_quantifier_free psi && Wl_dimension.check_labelled psi then
        match !plan with
        | Some (Error e) -> raise e
        | None -> ()
        | Some (Ok p) ->
            let lo, hi = Meta.support_treewidth_bounds p.Plan.support_terms in
            add
              (Diagnostic.make "UCQ204"
                 "WL-dimension (Theorems 7/8): %d <= dim_WL = hdtw <= %d%s" lo
                 hi
                 (if lo = hi then "" else " (heuristic per-term bounds)")));
  match !plan with Some (Ok p) -> Some p | _ -> None

(* ------------------------------------------------------------------ *)
(* The engine                                                         *)
(* ------------------------------------------------------------------ *)

let check ?(budget : Budget.t option) ?(tw_threshold : int = 2)
    ?(ie_threshold : int = 8) ?(path : string option) (text : string) :
    report =
  let budget =
    match budget with Some b -> b | None -> Budget.of_steps default_max_steps
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let plan = ref None in
  let tier = ref None in
  (try
     match Parse.ast_result text with
     | Error e -> add (of_error e)
     | Ok ast -> (
         ast_rules ~add ast;
         let ie_terms = List.length ast.Parse.disjuncts in
         (match Parse.intern_result ast with
         | Error (Ucqc_error.Arity_mismatch _)
           when List.exists (fun d -> d.Diagnostic.code = "UCQ002") !diags ->
             (* the AST pass already reported it, with a span *)
             ()
         | Error e -> add (of_error e)
         | Ok (psi, env) ->
             plan :=
               semantic_rules ~add ~budget ~tw_threshold ~tier ~env ast psi);
         (* UCQ203: union-size blowup - unbudgeted, from l alone, refined
            by the plan when one was computed. *)
         if ie_terms >= ie_threshold then
           add
             (Diagnostic.make
                ?span:
                  (Some
                     (span_of ast.Parse.head_pos ast.Parse.head_end))
                "UCQ203"
                "%d disjuncts induce %s inclusion-exclusion subsets; the \
                 expansion and IE engines are exponential in the union \
                 size%s"
                ie_terms
                (subsets_string ie_terms)
                (match !plan with
                | Some p ->
                    Printf.sprintf
                      " (%d support classes survive, max treewidth bound %d)"
                      (List.length p.Plan.support) p.Plan.max_tw_upper
                | None -> "")))
   with exn ->
     add
       (Diagnostic.make ~severity:Diagnostic.Error "UCQ004"
          "analyzer failed: %s" (Printexc.to_string exn)));
  {
    path;
    diagnostics = List.sort_uniq Diagnostic.compare !diags;
    plan = !plan;
    update_tier = !tier;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let max_severity (r : report) : Diagnostic.severity option =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      match acc with
      | None -> Some d.Diagnostic.severity
      | Some s ->
          if
            Diagnostic.severity_rank d.Diagnostic.severity
            > Diagnostic.severity_rank s
          then Some d.Diagnostic.severity
          else acc)
    None r.diagnostics

let denied_diagnostics (specs : Diagnostic.deny list) (r : report) :
    Diagnostic.t list =
  List.filter (Diagnostic.denied specs) r.diagnostics

let span_to_json (s : Diagnostic.span) : Trace_json.t =
  Trace_json.Obj
    [
      ("line", Trace_json.Num (float_of_int s.Diagnostic.line));
      ("col", Trace_json.Num (float_of_int s.Diagnostic.col));
      ("endLine", Trace_json.Num (float_of_int s.Diagnostic.end_line));
      ("endCol", Trace_json.Num (float_of_int s.Diagnostic.end_col));
    ]

let diagnostic_to_json (d : Diagnostic.t) : Trace_json.t =
  let base =
    [
      ("code", Trace_json.Str d.Diagnostic.code);
      ( "severity",
        Trace_json.Str (Diagnostic.severity_to_string d.Diagnostic.severity) );
      ("message", Trace_json.Str d.Diagnostic.message);
    ]
  in
  let span =
    match d.Diagnostic.span with
    | None -> []
    | Some s -> [ ("span", span_to_json s) ]
  in
  let fix =
    match d.Diagnostic.fix with
    | None -> []
    | Some f ->
        [
          ( "fix",
            Trace_json.Obj
              [
                ("description", Trace_json.Str f.Diagnostic.description);
                ( "replacements",
                  Trace_json.Arr
                    (List.map
                       (fun (r : Diagnostic.replacement) ->
                         Trace_json.Obj
                           [
                             ("at", span_to_json r.Diagnostic.at);
                             ("text", Trace_json.Str r.Diagnostic.text);
                           ])
                       f.Diagnostic.replacements) );
              ] );
        ]
  in
  let witness =
    match d.Diagnostic.witness with
    | None -> []
    | Some (Diagnostic.Hom_witness { source; target; map }) ->
        [
          ( "witness",
            Trace_json.Obj
              [
                ("kind", Trace_json.Str "hom");
                ("source", Trace_json.Num (float_of_int source));
                ("target", Trace_json.Num (float_of_int target));
                ( "map",
                  Trace_json.Arr
                    (List.map
                       (fun (x, y) ->
                         Trace_json.Arr
                           [
                             Trace_json.Num (float_of_int x);
                             Trace_json.Num (float_of_int y);
                           ])
                       map) );
              ] );
        ]
    | Some (Diagnostic.Atom_witness { disjunct; atom; first }) ->
        [
          ( "witness",
            Trace_json.Obj
              [
                ("kind", Trace_json.Str "atom");
                ("disjunct", Trace_json.Num (float_of_int disjunct));
                ("atom", Trace_json.Num (float_of_int atom));
                ("first", Trace_json.Num (float_of_int first));
              ] );
        ]
  in
  Trace_json.Obj (base @ span @ fix @ witness)

let report_to_json (r : report) : Trace_json.t =
  Trace_json.Obj
    ([
       ( "path",
         match r.path with Some p -> Trace_json.Str p | None -> Trace_json.Null
       );
       ( "diagnostics",
         Trace_json.Arr (List.map diagnostic_to_json r.diagnostics) );
     ]
    @ (match r.plan with Some p -> [ ("plan", Plan.to_json p) ] | None -> [])
    @
    match r.update_tier with
    | Some sel ->
        [
          ( "update_tier",
            Trace_json.Obj
              [
                ("tier", Trace_json.Str (Tier.to_string sel.Tier.tier));
                ("reason", Trace_json.Str sel.Tier.reason);
              ] );
        ]
    | None -> [])

let report_to_human (r : report) : string =
  match r.diagnostics with
  | [] ->
      Printf.sprintf "%s: clean (no findings)"
        (Option.value r.path ~default:"<stdin>")
  | ds ->
      String.concat "\n"
        (List.map (fun d -> Diagnostic.to_string ?path:r.path d) ds)
