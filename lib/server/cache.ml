(** Prepared-query LRU cache.  See the interface for the design.

    LRU is implemented with logical stamps and an O(capacity) eviction
    scan: eviction runs at most once per miss and capacities are small
    (hundreds), so a pointer-chasing intrusive list would buy nothing.
    Each entry carries at most [max_aliases] spellings in the text
    front-map, keeping the alias table proportional to the entry table. *)

type entry = {
  ucq : Ucq.t;
  env : Parse.query_env;
  intern_key : string;
  primary_text : string;
  mutable analysis : Analysis.report option;
  mutable classify : Classify.report option;
  mutable plan_cost : float option option;
  mutable optimized : Optimize.report option;
  mutable maint : Delta.state option;
  mutable hits : int;
}

type outcome =
  | Hit of entry
  | Interned of entry
  | Miss of entry
  | Invalid of Ucqc_error.t

let outcome_label = function
  | Hit _ -> "hit"
  | Interned _ -> "interned"
  | Miss _ -> "miss"
  | Invalid _ -> "invalid"

type node = {
  e : entry;
  mutable stamp : int;
  mutable aliases : string list; (* texts pointing here, newest first *)
}

type bad = { err : Ucqc_error.t; mutable bstamp : int }

type t = {
  capacity : int;
  mutable clock : int;
  nodes : (string, node) Hashtbl.t; (* intern_key -> node *)
  texts : (string, string) Hashtbl.t; (* text -> intern_key *)
  bads : (string, bad) Hashtbl.t; (* text -> cached failure *)
}

let max_aliases = 8

let create ~capacity () : t =
  {
    capacity = max 0 capacity;
    clock = 0;
    nodes = Hashtbl.create 64;
    texts = Hashtbl.create 64;
    bads = Hashtbl.create 16;
  }

let entries (t : t) : int = Hashtbl.length t.nodes

let iter (t : t) (f : entry -> unit) : unit =
  Hashtbl.iter (fun _ node -> f node.e) t.nodes
let invalids (t : t) : int = Hashtbl.length t.bads

let tick (t : t) : int =
  t.clock <- t.clock + 1;
  t.clock

(* Evict the least-recently-used binding of [tbl] by [stamp_of]. *)
let evict_lru (tbl : (string, 'a) Hashtbl.t) (stamp_of : 'a -> int)
    (on_evict : string -> 'a -> unit) : unit =
  let victim =
    Hashtbl.fold
      (fun k v acc ->
        match acc with
        | Some (_, best) when stamp_of best <= stamp_of v -> acc
        | _ -> Some (k, v))
      tbl None
  in
  match victim with
  | None -> ()
  | Some (k, v) ->
      on_evict k v;
      Hashtbl.remove tbl k

let find (t : t) (text : string) : outcome option =
  if t.capacity = 0 then None
  else
    match Hashtbl.find_opt t.texts text with
    | Some key -> (
        match Hashtbl.find_opt t.nodes key with
        | Some node ->
            node.stamp <- tick t;
            node.e.hits <- node.e.hits + 1;
            Some (Hit node.e)
        | None ->
            (* stale alias of an evicted entry — drop it and re-prepare *)
            Hashtbl.remove t.texts text;
            None)
    | None -> (
        match Hashtbl.find_opt t.bads text with
        | Some bad ->
            bad.bstamp <- tick t;
            Some (Invalid bad.err)
        | None -> None)

let admit (t : t) (text : string)
    (parsed : (Ucq.t * Parse.query_env, Ucqc_error.t) result) : outcome =
  match parsed with
  | Error err ->
      if t.capacity > 0 then begin
        if Hashtbl.length t.bads >= t.capacity then
          evict_lru t.bads (fun b -> b.bstamp) (fun _ _ -> ());
        Hashtbl.replace t.bads text { err; bstamp = tick t }
      end;
      Invalid err
  | Ok (ucq, env) -> (
      let intern_key = Pretty.ucq ucq in
      if t.capacity = 0 then
        Miss
          {
            ucq;
            env;
            intern_key;
            primary_text = text;
            analysis = None;
            classify = None;
            plan_cost = None;
            optimized = None;
            maint = None;
            hits = 0;
          }
      else
        match Hashtbl.find_opt t.nodes intern_key with
        | Some node ->
            (* same interned UCQ under a new spelling: share the entry *)
            node.stamp <- tick t;
            node.e.hits <- node.e.hits + 1;
            if List.length node.aliases < max_aliases then begin
              node.aliases <- text :: node.aliases;
              Hashtbl.replace t.texts text intern_key
            end;
            Interned node.e
        | None ->
            let entry =
              {
                ucq;
                env;
                intern_key;
                primary_text = text;
                analysis = None;
                classify = None;
                plan_cost = None;
                optimized = None;
                maint = None;
                hits = 0;
              }
            in
            if Hashtbl.length t.nodes >= t.capacity then
              evict_lru t.nodes
                (fun n -> n.stamp)
                (fun _ n ->
                  List.iter (fun a -> Hashtbl.remove t.texts a) n.aliases);
            Hashtbl.replace t.nodes intern_key
              { e = entry; stamp = tick t; aliases = [ text ] };
            Hashtbl.replace t.texts text intern_key;
            Miss entry)

let parse_total (text : string) :
    (Ucq.t * Parse.query_env, Ucqc_error.t) result =
  match Parse.ucq_result text with
  | r -> r
  | exception e ->
      (* the parser is exception-total through [ucq_result]; anything
         else is an internal bug, reported structurally, never a crash *)
      Error (Ucqc_error.Internal (Printexc.to_string e))

let lookup (t : t) (text : string) : outcome =
  match find t text with
  | Some o -> o
  | None ->
      admit t text
        (Telemetry.with_span "session.parse" (fun () -> parse_total text))
