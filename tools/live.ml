(** Shared plumbing of the live-server harnesses [fault_inject] and
    [obs_check]: failure reporting, a private scratch directory,
    spawning [ucqc serve] on a Unix socket, and NDJSON exchanges with
    it.  Both harnesses [open] this module. *)

let bin = ref "_build/default/bin/ucqc_cli.exe"
let db_file = ref "data/example_db.facts"

(* the scratch directory of the run, made by [mkdtemp] *)
let tmp = ref ""

let failures = ref 0

let report fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL: %s\n%!" msg)
    fmt

let section name f =
  Printf.printf "== %s\n%!" name;
  try f ()
  with e ->
    report "%s: harness exception %s" name (Printexc.to_string e)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* [mkdtemp tag] makes a fresh private directory [ucqc-TAG-PID-N] under
   the system temp directory *)
let mkdtemp (tag : string) : string =
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucqc-%s-%d" tag (Unix.getpid ()))
  in
  let rec try_n i =
    let d = Printf.sprintf "%s-%d" base i in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when i < 100 ->
        try_n (i + 1)
  in
  try_n 0

(* [exit_if_no_bin tool] stops the harness when the server binary is
   missing *)
let exit_if_no_bin (tool : string) : unit =
  if not (Sys.file_exists !bin) then begin
    Printf.eprintf "%s: server binary %s not found (build first)\n" tool !bin;
    exit 64
  end

(* [remove_tree path] deletes [path], and what is under it if it is a
   directory (symbolic links are removed, not followed) *)
let rec remove_tree (path : string) : unit =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* [finish tool ~what] prints the verdict and exits 0 or 1: a run that
   passes removes its scratch directory, one that fails keeps it for
   inspection and prints its path *)
let finish (tool : string) ~(what : string) =
  if !failures = 0 then begin
    if !tmp <> "" then remove_tree !tmp;
    Printf.printf "%s: all %s passed\n" tool what;
    exit 0
  end
  else begin
    Printf.printf "%s: %d failure%s\n" tool !failures
      (if !failures = 1 then "" else "s");
    if !tmp <> "" then Printf.printf "%s: scratch files kept in %s\n" tool !tmp;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; sock : string; log : string }

(* [start_server ?name ?extra ()] runs [bin serve DB --socket
   TMP/NAME.sock EXTRA…] with stdout and stderr in [TMP/NAME.log], and
   returns once the socket accepts (10 s at most) *)
let start_server ?(name = "main") ?(extra = []) () : server =
  let sock = Filename.concat !tmp (name ^ ".sock") in
  let log = Filename.concat !tmp (name ^ ".log") in
  let argv =
    Array.of_list
      ([ !bin; "serve"; !db_file; "--socket"; sock ] @ extra)
  in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process !bin argv null logfd logfd in
  Unix.close logfd;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception _ ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "server %s did not come up; log: %s" name
                      (try read_file log with _ -> "<unreadable>"))
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
  in
  wait ();
  { pid; sock; log }

(* waitpid with a deadline; returns the exit status or None on timeout *)
let wait_exit (s : server) ~(deadline_s : float) : Unix.process_status option
    =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf 0.05;
          poll ()
        end
    | _, status -> Some status
  in
  poll ()

(* ------------------------------------------------------------------ *)
(* NDJSON client                                                      *)
(* ------------------------------------------------------------------ *)

let connect (s : server) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX s.sock);
  fd

let send_all (fd : Unix.file_descr) (data : string) : unit =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd data !pos (len - !pos)
  done

(* Read newline-terminated frames until [n] arrived, EOF, or deadline. *)
let recv_lines ?(deadline_s = 15.) (fd : Unix.file_descr) (n : int) :
    string list =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let count_lines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25 with _ -> ());
  let rec loop () =
    if count_lines () >= n || Unix.gettimeofday () > deadline then ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | r ->
          Buffer.add_subbytes buf chunk 0 r;
          loop ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          loop ()
      | exception _ -> ()
  in
  loop ();
  Buffer.contents buf |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Build a request line with correct JSON escaping. *)
let req (fields : (string * Trace_json.t) list) : string =
  Trace_json.to_string (Trace_json.Obj fields) ^ "\n"

let parse_response (line : string) : Trace_json.t option =
  match Trace_json.parse line with
  | v -> Some v
  | exception _ -> None

let mem k v = Trace_json.member k v

let str_of = function Some (Trace_json.Str s) -> Some s | _ -> None
let num_of = function Some (Trace_json.Num f) -> Some f | _ -> None

(* One request/response exchange on a fresh connection; a response that
   is not JSON is reported and dropped. *)
let roundtrip ?deadline_s (s : server) (lines : string list) ~(expect : int) :
    Trace_json.t list =
  let fd = connect s in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      send_all fd (String.concat "" lines);
      List.filter_map
        (fun line ->
          match parse_response line with
          | Some v -> Some v
          | None ->
              report "response is not JSON: %S" line;
              None)
        (recv_lines ?deadline_s fd expect))
