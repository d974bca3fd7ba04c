(** Prometheus text exposition (format 0.0.4): builder, parser and
    conformance checker.  See the interface for the contract. *)

type kind = Counter | Gauge

(* ------------------------------------------------------------------ *)
(* Names and formatting                                               *)
(* ------------------------------------------------------------------ *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let is_digit c = c >= '0' && c <= '9'

let sanitize (name : string) : string =
  if name = "" then "_"
  else begin
    let b = Bytes.of_string name in
    Bytes.iteri (fun i c -> if not (is_name_char c) then Bytes.set b i '_') b;
    let s = Bytes.to_string b in
    if is_digit s.[0] then "_" ^ s else s
  end

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let fmt_value (v : float) : string =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let escape_label (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let labels_str (labels : (string * string) list) : string =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
           labels)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

type fam = {
  fname : string;
  ftype : string; (* "counter" | "gauge" | "histogram" *)
  fhelp : string option;
  mutable fscalars : ((string * string) list * float) list; (* reversed *)
  mutable fhists : ((string * string) list * int array * float) list;
      (* (labels, log2 counts, sum), reversed *)
}

type t = {
  tbl : (string, fam) Hashtbl.t;
  mutable order : string list; (* reversed registration order *)
}

let create () : t = { tbl = Hashtbl.create 32; order = [] }

let family (t : t) (name : string) (ftype : string) (help : string option) :
    fam =
  match Hashtbl.find_opt t.tbl name with
  | Some f ->
      if f.ftype <> ftype then
        invalid_arg
          (Printf.sprintf "Prometheus: %s registered as %s, reused as %s" name
             f.ftype ftype);
      f
  | None ->
      let f =
        { fname = name; ftype; fhelp = help; fscalars = []; fhists = [] }
      in
      Hashtbl.add t.tbl name f;
      t.order <- name :: t.order;
      f

let scalar (t : t) ?help ?(labels = []) ~(kind : kind) (name : string)
    (v : float) : unit =
  let name = sanitize name in
  let name, ftype =
    match kind with
    | Counter ->
        ((if ends_with ~suffix:"_total" name then name else name ^ "_total"),
         "counter")
    | Gauge -> (name, "gauge")
  in
  let f = family t name ftype help in
  f.fscalars <- (labels, v) :: f.fscalars

let log2_histogram (t : t) ?help ?(labels = []) (name : string)
    ~(counts : int array) ~(sum : float) : unit =
  let name = sanitize name in
  let f = family t name "histogram" help in
  f.fhists <- (labels, Array.copy counts, sum) :: f.fhists

let render (t : t) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let f = Hashtbl.find t.tbl name in
      (match f.fhelp with
      | Some h ->
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" f.fname (escape_help h))
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.fname f.ftype);
      List.iter
        (fun (labels, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" f.fname (labels_str labels)
               (fmt_value v)))
        (List.rev f.fscalars);
      List.iter
        (fun (labels, counts, sum) ->
          let cum = ref 0 in
          Array.iteri
            (fun b n ->
              if n > 0 then begin
                cum := !cum + n;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" f.fname
                     (labels_str
                        (labels @ [ ("le", fmt_value (Telemetry.bucket_upper b)) ]))
                     !cum)
              end)
            counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" f.fname
               (labels_str (labels @ [ ("le", "+Inf") ]))
               !cum);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" f.fname (labels_str labels)
               (fmt_value sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" f.fname (labels_str labels) !cum))
        (List.rev f.fhists))
    (List.rev t.order);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Scraping side: line scanner                                        *)
(* ------------------------------------------------------------------ *)

type sample = {
  sname : string;
  slabels : (string * string) list;
  svalue : float;
}

type item =
  | IComment
  | IHelp of string
  | IType of string * string
  | ISample of sample

exception Bad of string

let parse_float (s : string) : float =
  match s with
  | "+Inf" | "+inf" | "Inf" -> Float.infinity
  | "-Inf" | "-inf" -> Float.neg_infinity
  | "NaN" | "nan" -> Float.nan
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "bad number %S" s)))

(* [name ['{' k '="' v '",' ... '}'] ws value [ws timestamp]] *)
let scan_sample (line : string) : sample =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let take_name_chars ok what =
    let start = !pos in
    while !pos < n && ok line.[!pos] do
      incr pos
    done;
    if !pos = start then
      raise (Bad (Printf.sprintf "expected %s at column %d" what (start + 1)));
    String.sub line start (!pos - start)
  in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else
      raise
        (Bad (Printf.sprintf "expected %C at column %d" c (!pos + 1)))
  in
  let sname = take_name_chars is_name_char "metric name" in
  let slabels =
    if peek () <> Some '{' then []
    else begin
      incr pos;
      let acc = ref [] in
      let rec loop () =
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let k =
            take_name_chars
              (fun c -> is_name_char c && c <> ':')
              "label name"
          in
          expect '=';
          expect '"';
          let buf = Buffer.create 16 in
          let rec str () =
            match peek () with
            | None -> raise (Bad "unterminated label value")
            | Some '"' -> incr pos
            | Some '\\' ->
                incr pos;
                (match peek () with
                | Some '\\' -> Buffer.add_char buf '\\'
                | Some '"' -> Buffer.add_char buf '"'
                | Some 'n' -> Buffer.add_char buf '\n'
                | _ -> raise (Bad "bad escape in label value"));
                incr pos;
                str ()
            | Some c ->
                Buffer.add_char buf c;
                incr pos;
                str ()
          in
          str ();
          acc := (k, Buffer.contents buf) :: !acc;
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              loop ()
          | Some '}' -> incr pos
          | _ -> raise (Bad "expected ',' or '}' in label set")
        end
      in
      loop ();
      List.rev !acc
    end
  in
  skip_ws ();
  let vstart = !pos in
  while !pos < n && line.[!pos] <> ' ' && line.[!pos] <> '\t' do
    incr pos
  done;
  if !pos = vstart then raise (Bad "missing sample value");
  let svalue = parse_float (String.sub line vstart (!pos - vstart)) in
  skip_ws ();
  (* optional timestamp: integer milliseconds *)
  if !pos < n then begin
    let tstart = !pos in
    while !pos < n && not (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done;
    let ts = String.sub line tstart (!pos - tstart) in
    if int_of_string_opt ts = None then
      raise (Bad (Printf.sprintf "bad timestamp %S" ts));
    skip_ws ();
    if !pos < n then raise (Bad "trailing garbage after timestamp")
  end;
  { sname; slabels; svalue }

let scan_comment (line : string) : item =
  (* "# HELP name text" | "# TYPE name type" | any other comment *)
  let starts_with p =
    String.length line >= String.length p
    && String.sub line 0 (String.length p) = p
  in
  let word_after prefix =
    let rest = String.sub line (String.length prefix)
        (String.length line - String.length prefix) in
    match String.index_opt rest ' ' with
    | Some i -> (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
    | None -> (rest, "")
  in
  if starts_with "# HELP " then begin
    let name, _ = word_after "# HELP " in
    if name = "" || not (String.for_all is_name_char name) then
      raise (Bad "bad HELP line");
    IHelp name
  end
  else if starts_with "# TYPE " then begin
    let name, ty = word_after "# TYPE " in
    if name = "" || not (String.for_all is_name_char name) then
      raise (Bad "bad TYPE line");
    (match ty with
    | "counter" | "gauge" | "histogram" | "summary" | "untyped" -> ()
    | _ -> raise (Bad (Printf.sprintf "bad TYPE %S for %s" ty name)));
    IType (name, ty)
  end
  else IComment

let scan (text : string) : (item list, string) result =
  let lines = String.split_on_char '\n' text in
  let strip_cr s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
  in
  try
    Ok
      (List.concat
         (List.mapi
            (fun i line ->
              let line = strip_cr line in
              try
                if line = "" then []
                else if line.[0] = '#' then [ scan_comment line ]
                else [ ISample (scan_sample line) ]
              with Bad msg ->
                raise (Bad (Printf.sprintf "line %d: %s" (i + 1) msg)))
            lines))
  with Bad msg -> Error msg

let parse (text : string) : (sample list, string) result =
  match scan text with
  | Error e -> Error e
  | Ok items ->
      Ok
        (List.filter_map
           (function ISample s -> Some s | _ -> None)
           items)

let find ?(labels = []) (samples : sample list) (name : string) : float option
    =
  List.find_map
    (fun s ->
      if
        s.sname = name
        && List.for_all
             (fun (k, v) -> List.assoc_opt k s.slabels = Some v)
             labels
      then Some s.svalue
      else None)
    samples

(* ------------------------------------------------------------------ *)
(* Conformance checking                                               *)
(* ------------------------------------------------------------------ *)

let labels_key (labels : (string * string) list) : string =
  List.sort compare labels
  |> List.map (fun (k, v) -> k ^ "\x00" ^ v ^ "\x01")
  |> String.concat ""

let validate (text : string) : (int, string) result =
  match scan text with
  | Error e -> Error e
  | Ok items -> (
      let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let helps : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let sampled : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let seen_samples : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      (* histogram bookkeeping: per (family, label-set-sans-le) *)
      let hbuckets : (string * string, (float * float) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let hsums : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
      let hcounts : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
      let closed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let current = ref "" in
      let nsamples = ref 0 in
      let family_of sname =
        let strip suffix =
          if ends_with ~suffix sname then
            let base =
              String.sub sname 0 (String.length sname - String.length suffix)
            in
            if Hashtbl.find_opt types base = Some "histogram" then Some base
            else None
          else None
        in
        match strip "_bucket" with
        | Some b -> b
        | None -> (
            match strip "_sum" with
            | Some b -> b
            | None -> (
                match strip "_count" with Some b -> b | None -> sname))
      in
      let enter fam =
        if !current <> fam then begin
          if Hashtbl.mem closed fam then
            raise
              (Bad
                 (Printf.sprintf "family %s is not contiguous in exposition"
                    fam));
          if !current <> "" then Hashtbl.replace closed !current ();
          current := fam
        end
      in
      try
        List.iter
          (fun item ->
            match item with
            | IComment -> ()
            | IHelp name ->
                if Hashtbl.mem helps name then
                  raise (Bad (Printf.sprintf "duplicate HELP for %s" name));
                Hashtbl.replace helps name ();
                enter name
            | IType (name, ty) ->
                if Hashtbl.mem types name then
                  raise (Bad (Printf.sprintf "duplicate TYPE for %s" name));
                if Hashtbl.mem sampled name then
                  raise
                    (Bad
                       (Printf.sprintf "TYPE for %s after its samples" name));
                Hashtbl.replace types name ty;
                enter name
            | ISample s ->
                incr nsamples;
                let fam = family_of s.sname in
                enter fam;
                Hashtbl.replace sampled fam ();
                let key = s.sname ^ "\x02" ^ labels_key s.slabels in
                if Hashtbl.mem seen_samples key then
                  raise
                    (Bad (Printf.sprintf "duplicate sample %s" s.sname));
                Hashtbl.replace seen_samples key ();
                let fam_type = Hashtbl.find_opt types fam in
                if fam_type = Some "counter" then begin
                  if Float.is_nan s.svalue || s.svalue < 0. then
                    raise
                      (Bad
                         (Printf.sprintf "counter %s has invalid value %g"
                            s.sname s.svalue))
                end;
                if fam_type = Some "histogram" then begin
                  if ends_with ~suffix:"_bucket" s.sname then begin
                    let le =
                      match List.assoc_opt "le" s.slabels with
                      | Some le -> parse_float le
                      | None ->
                          raise
                            (Bad
                               (Printf.sprintf "%s sample without le label"
                                  s.sname))
                    in
                    let rest =
                      List.filter (fun (k, _) -> k <> "le") s.slabels
                    in
                    let key = (fam, labels_key rest) in
                    let cell =
                      match Hashtbl.find_opt hbuckets key with
                      | Some r -> r
                      | None ->
                          let r = ref [] in
                          Hashtbl.add hbuckets key r;
                          r
                    in
                    cell := (le, s.svalue) :: !cell
                  end
                  else if ends_with ~suffix:"_sum" s.sname then
                    Hashtbl.replace hsums (fam, labels_key s.slabels) s.svalue
                  else if ends_with ~suffix:"_count" s.sname then
                    Hashtbl.replace hcounts (fam, labels_key s.slabels)
                      s.svalue
                end)
          items;
        (* per-histogram-series invariants *)
        Hashtbl.iter
          (fun (fam, lkey) cell ->
            let bs = List.rev !cell in
            let rec check_sorted prev = function
              | [] -> ()
              | (le, v) :: tl ->
                  (match prev with
                  | Some (ple, pv) ->
                      if not (le > ple) then
                        raise
                          (Bad
                             (Printf.sprintf
                                "%s: le buckets not sorted ascending" fam));
                      if v < pv then
                        raise
                          (Bad
                             (Printf.sprintf
                                "%s: bucket counts not cumulative" fam))
                  | None -> ());
                  check_sorted (Some (le, v)) tl
            in
            check_sorted None bs;
            (match List.rev bs with
            | (le, vinf) :: _ when le = Float.infinity -> (
                match Hashtbl.find_opt hcounts (fam, lkey) with
                | Some c when c = vinf -> ()
                | Some c ->
                    raise
                      (Bad
                         (Printf.sprintf
                            "%s: +Inf bucket %g disagrees with _count %g" fam
                            vinf c))
                | None ->
                    raise
                      (Bad (Printf.sprintf "%s: missing _count sample" fam)))
            | _ ->
                raise
                  (Bad (Printf.sprintf "%s: missing le=\"+Inf\" bucket" fam)));
            if not (Hashtbl.mem hsums (fam, lkey)) then
              raise (Bad (Printf.sprintf "%s: missing _sum sample" fam)))
          hbuckets;
        Ok !nsamples
      with Bad msg -> Error msg)
