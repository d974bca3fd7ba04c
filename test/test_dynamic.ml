(** Tests for the dynamic (q-hierarchical) counting engine against
    from-scratch recomputation. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let sg_rs =
  Signature.make [ Signature.symbol "R" 1; Signature.symbol "S" 2 ]

let mkq sg n rels free =
  Cq.make (Structure.make sg (List.init n (fun i -> i)) rels) free

(* q-hierarchical test queries *)
let star_q =
  (* (x) :- E(x, y1), E(x, y2) with y's quantified *)
  mkq sg_e 3 [ ("E", [ [ 0; 1 ]; [ 0; 2 ] ]) ] [ 0 ]

let rs_q =
  (* (x, y) :- R(x), S(x, y): hierarchical, all free *)
  mkq sg_rs 2 [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ] [ 0; 1 ]

let exists_q =
  (* (x) :- R(x), ∃y S(x, y) *)
  mkq sg_rs 2 [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ] [ 0 ]

let boolean_q =
  (* () :- ∃x∃y S(x, y) *)
  mkq sg_rs 2 [ ("S", [ [ 0; 1 ] ]) ] []

let sg_rst =
  Signature.make
    [ Signature.symbol "R" 1; Signature.symbol "S" 2; Signature.symbol "T" 3 ]

let deep_q =
  (* (x, y) :- R(x), S(x, y), ∃z T(x, y, z): a depth-3 chain *)
  mkq sg_rst 3
    [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]); ("T", [ [ 0; 1; 2 ] ]) ]
    [ 0; 1 ]

let recount q db = Counting.count ~strategy:Counting.Naive q db

let test_rejects_non_qh () =
  let path = Paper_examples.q_hierarchical_example () in
  let db = Generators.path_db 3 in
  Alcotest.check_raises "path query rejected" Dynamic.Not_q_hierarchical
    (fun () -> ignore (Dynamic.create_exn path db))

let test_result_convention () =
  (* the result-returning constructors report Unsupported instead of
     raising, and succeed exactly where the _exn forms do *)
  let db = Generators.path_db 3 in
  (match Dynamic.create (Paper_examples.q_hierarchical_example ()) db with
  | Error (Ucqc_error.Unsupported _) -> ()
  | Error e ->
      Alcotest.fail ("expected Unsupported, got " ^ Ucqc_error.to_string e)
  | Ok _ -> Alcotest.fail "non-q-hierarchical query accepted");
  match Dynamic.create star_q (Generators.random_digraph ~seed:71 8 20) with
  | Ok st ->
      Alcotest.(check int) "result create counts"
        (recount star_q (Generators.random_digraph ~seed:71 8 20))
        (Dynamic.count st)
  | Error e -> Alcotest.fail (Ucqc_error.to_string e)

let test_initial_counts () =
  let db = Generators.random_digraph ~seed:71 8 20 in
  let st = Dynamic.create_exn star_q db in
  Alcotest.(check int) "initial star count" (recount star_q db) (Dynamic.count st)

let test_insert_delete_roundtrip () =
  let db = Structure.make sg_rs [ 0; 1; 2 ] [ ("R", [ [ 0 ] ]); ("S", [ [ 0; 1 ] ]) ] in
  let st = Dynamic.create_exn rs_q db in
  Alcotest.(check int) "initial" 1 (Dynamic.count st);
  Dynamic.insert st "S" [ 0; 2 ];
  Alcotest.(check int) "after S insert" 2 (Dynamic.count st);
  Dynamic.insert st "R" [ 1 ];
  Alcotest.(check int) "R without S has no effect" 2 (Dynamic.count st);
  Dynamic.insert st "S" [ 1; 1 ];
  Alcotest.(check int) "now R(1), S(1,1)" 3 (Dynamic.count st);
  Dynamic.delete st "R" [ 0 ];
  Alcotest.(check int) "deleting R(0) removes two answers" 1 (Dynamic.count st);
  Dynamic.delete st "R" [ 0 ];
  Alcotest.(check int) "idempotent delete" 1 (Dynamic.count st);
  Dynamic.insert st "S" [ 1; 1 ];
  Alcotest.(check int) "idempotent insert" 1 (Dynamic.count st)

let test_quantified_indicator () =
  let db = Structure.make sg_rs [ 0; 1; 2 ] [] in
  let st = Dynamic.create_exn exists_q db in
  Alcotest.(check int) "empty" 0 (Dynamic.count st);
  Dynamic.insert st "R" [ 0 ];
  Alcotest.(check int) "R alone" 0 (Dynamic.count st);
  Dynamic.insert st "S" [ 0; 1 ];
  Alcotest.(check int) "witness appears" 1 (Dynamic.count st);
  Dynamic.insert st "S" [ 0; 2 ];
  Alcotest.(check int) "second witness does not double count" 1 (Dynamic.count st);
  Dynamic.delete st "S" [ 0; 1 ];
  Alcotest.(check int) "one witness remains" 1 (Dynamic.count st);
  Dynamic.delete st "S" [ 0; 2 ];
  Alcotest.(check int) "witnesses gone" 0 (Dynamic.count st)

let test_boolean_query () =
  let db = Structure.make sg_rs [ 0; 1 ] [] in
  let st = Dynamic.create_exn boolean_q db in
  Alcotest.(check int) "false" 0 (Dynamic.count st);
  Dynamic.insert st "S" [ 0; 1 ];
  Alcotest.(check int) "true" 1 (Dynamic.count st);
  Dynamic.delete st "S" [ 0; 1 ];
  Alcotest.(check int) "false again" 0 (Dynamic.count st)

let test_random_update_sequences () =
  (* drive random insert/delete sequences and compare with recomputation *)
  let queries =
    [
      ("star", star_q, sg_e);
      ("rs", rs_q, sg_rs);
      ("exists", exists_q, sg_rs);
      ("boolean", boolean_q, sg_rs);
      ("deep chain", deep_q, sg_rst);
    ]
  in
  List.iter
    (fun (name, q, sg) ->
      let n = 5 in
      let universe = List.init n (fun i -> i) in
      let empty = Structure.make sg universe [] in
      let st = Dynamic.create_exn q empty in
      let current = Hashtbl.create 16 in
      let rng = Random.State.make [| 1234 |] in
      for step = 1 to 120 do
        let symbols = Structure.signature empty in
        let s = List.nth symbols (Random.State.int rng (List.length symbols)) in
        let tuple =
          List.init s.Signature.arity (fun _ -> Random.State.int rng n)
        in
        if Random.State.bool rng then begin
          Dynamic.insert st s.Signature.name tuple;
          Hashtbl.replace current (s.Signature.name, tuple) ()
        end
        else begin
          Dynamic.delete st s.Signature.name tuple;
          Hashtbl.remove current (s.Signature.name, tuple)
        end;
        if step mod 10 = 0 then begin
          let rels =
            List.map
              (fun (sym : Signature.symbol) ->
                ( sym.name,
                  Hashtbl.fold
                    (fun (rn, t) () acc -> if rn = sym.name then t :: acc else acc)
                    current [] ))
              symbols
          in
          let db = Structure.make sg universe rels in
          Alcotest.(check int)
            (Printf.sprintf "%s at step %d" name step)
            (recount q db) (Dynamic.count st)
        end
      done)
    queries

let test_free_twins () =
  (* (x, y) :- E(x, y): two free variables with equal atom sets *)
  let q = mkq sg_e 2 [ ("E", [ [ 0; 1 ] ]) ] [ 0; 1 ] in
  let db = Generators.random_digraph ~seed:91 6 12 in
  let st = Dynamic.create_exn q db in
  Alcotest.(check int) "edge count" (recount q db) (Dynamic.count st);
  Dynamic.insert st "E" [ 5; 0 ];
  let db' = Structure.add_tuples db "E" [ [ 5; 0 ] ] in
  Alcotest.(check int) "after insert" (recount q db') (Dynamic.count st)

let test_isolated_free_variable () =
  (* (x, z) :- E(x, y) with z isolated free: count multiplies by n *)
  let q = mkq sg_e 3 [ ("E", [ [ 0; 1 ] ]) ] [ 0; 2 ] in
  let db = Generators.random_digraph ~seed:92 5 8 in
  let st = Dynamic.create_exn q db in
  Alcotest.(check int) "isolated factor" (recount q db) (Dynamic.count st)

let test_dynamic_ucq_rejects () =
  (* the triangle-of-unions combined query is not hierarchical: Dynamic
     refuses it, and the live-update engine maintains no term of the
     union (tier C) *)
  let e1 = mkq sg_e 3 [ ("E", [ [ 0; 1 ] ]) ] [ 0; 1; 2 ] in
  let e2 = mkq sg_e 3 [ ("E", [ [ 1; 2 ] ]) ] [ 0; 1; 2 ] in
  let e3 = mkq sg_e 3 [ ("E", [ [ 2; 0 ] ]) ] [ 0; 1; 2 ] in
  let psi = Ucq.make [ e1; e2; e3 ] in
  let db = Structure.make sg_e [ 0; 1; 2 ] [] in
  Alcotest.(check bool) "not exhaustively qh" false
    (Ucq.is_exhaustively_q_hierarchical psi);
  (match Dynamic.create (Ucq.combined_all psi) db with
  | Error (Ucqc_error.Unsupported _) -> ()
  | Error e ->
      Alcotest.fail ("expected Unsupported, got " ^ Ucqc_error.to_string e)
  | Ok _ -> Alcotest.fail "the combined triangle accepted");
  let d = Delta.open_db db in
  let st = Delta.prepare psi d in
  Alcotest.(check string) "rejected: tier C" "C"
    (Tier.to_string (Delta.effective_tier st));
  Alcotest.(check int) "no maintained terms" 0 (List.length (Delta.terms st));
  Alcotest.(check bool) "no maintained count" true
    (Delta.maintained_count st d = None)

(* random q-hierarchical query generator: a random variable forest with
   free variables closed upwards, and one atom per node spanning its
   ancestor chain (fresh relation symbol each) *)
let random_qh_query (seed : int) : Cq.t * Signature.t =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 4 in
  (* parent.(i) < i or -1 *)
  let parent = Array.init n (fun i -> if i = 0 then -1 else Random.State.int rng (i + 1) - 1) in
  (* free: roots decide; a child of a quantified node is quantified *)
  let free = Array.make n false in
  for i = 0 to n - 1 do
    let parent_free = parent.(i) < 0 || free.(parent.(i)) in
    free.(i) <- parent_free && Random.State.bool rng
  done;
  let chain i =
    let rec up j acc = if j < 0 then acc else up parent.(j) (j :: acc) in
    up i []
  in
  let symbols = ref [] in
  let rels = ref [] in
  Array.iteri
    (fun i _ ->
      let vars = chain i in
      let name = Printf.sprintf "R%d" i in
      symbols := Signature.symbol name (List.length vars) :: !symbols;
      rels := (name, [ vars ]) :: !rels)
    parent;
  let sg = Signature.make !symbols in
  let universe = List.init n (fun i -> i) in
  let free_vars = List.filter (fun i -> free.(i)) universe in
  (Cq.make (Structure.make sg universe !rels) free_vars, sg)

let qcheck_dynamic =
  let open QCheck in
  [
    Test.make ~name:"random q-hierarchical queries stay consistent" ~count:25
      (int_range 0 10_000) (fun seed ->
        let q, sg = random_qh_query seed in
        if not (Cq.is_q_hierarchical q) then
          QCheck.Test.fail_report "generator produced a non-qh query";
        let n = 4 in
        let universe = List.init n (fun i -> i) in
        let empty = Structure.make sg universe [] in
        let st = Dynamic.create_exn q empty in
        let current = Hashtbl.create 16 in
        let rng = Random.State.make [| seed + 1 |] in
        let ok = ref true in
        for step = 1 to 40 do
          let symbols = sg in
          let s = List.nth symbols (Random.State.int rng (List.length symbols)) in
          let tuple =
            List.init s.Signature.arity (fun _ -> Random.State.int rng n)
          in
          if Random.State.bool rng then begin
            Dynamic.insert st s.Signature.name tuple;
            Hashtbl.replace current (s.Signature.name, tuple) ()
          end
          else begin
            Dynamic.delete st s.Signature.name tuple;
            Hashtbl.remove current (s.Signature.name, tuple)
          end;
          if step mod 8 = 0 then begin
            let rels =
              List.map
                (fun (sym : Signature.symbol) ->
                  ( sym.name,
                    Hashtbl.fold
                      (fun (rn, t) () acc -> if rn = sym.name then t :: acc else acc)
                      current [] ))
                symbols
            in
            let db = Structure.make sg universe rels in
            if Dynamic.count st <> recount q db then ok := false
          end
        done;
        !ok);
  ]

let suite =
  [
    ( "dynamic",
      [
        Alcotest.test_case "rejects non-q-hierarchical" `Quick test_rejects_non_qh;
        Alcotest.test_case "result-returning constructors" `Quick
          test_result_convention;
        Alcotest.test_case "initial counts" `Quick test_initial_counts;
        Alcotest.test_case "insert/delete roundtrip" `Quick
          test_insert_delete_roundtrip;
        Alcotest.test_case "existential indicators" `Quick test_quantified_indicator;
        Alcotest.test_case "boolean query" `Quick test_boolean_query;
        Alcotest.test_case "random update sequences" `Quick
          test_random_update_sequences;
        Alcotest.test_case "free twins" `Quick test_free_twins;
        Alcotest.test_case "isolated free variable" `Quick
          test_isolated_free_variable;
        Alcotest.test_case "dynamic UCQ rejects" `Quick test_dynamic_ucq_rejects;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_dynamic );
  ]
