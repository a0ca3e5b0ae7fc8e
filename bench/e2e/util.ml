(** Process, file and JSON helpers shared by the workloads. *)

module Json = Liblang_core.Core.Json

let now = Unix.gettimeofday

let rec mkdir_p (d : string) : unit =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf (p : string) : unit =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let absolute (p : string) : string =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(** [p] relative to the working directory, when it lies below it. *)
let relative (p : string) : string =
  let cwd = Sys.getcwd () ^ "/" in
  if String.starts_with ~prefix:cwd p then
    String.sub p (String.length cwd) (String.length p - String.length cwd)
  else p

let read_file (path : string) : string =
  In_channel.with_open_bin path In_channel.input_all

let write_file (path : string) (s : string) : unit =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(** Replace [path] by [s] through a rename, so a concurrent reader (the
    daemon) sees either the old or the new text, never a torn file. *)
let write_file_atomic (path : string) (s : string) : unit =
  let tmp = path ^ ".tmp" in
  write_file tmp s;
  Unix.rename tmp path

(** Peak resident set size ([VmHWM]) of process [pid], in MB. *)
let vmhwm_mb (pid : int) : float =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)

let shuffle (rng : Random.State.t) (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- JSON with every digit ------------------------------------------------------ *)

(** [Json.to_string] rounds numbers to six significant digits; timestamps
    and measured values need all of theirs. *)
let rec json_to_buffer (buf : Buffer.t) (j : Json.t) : unit =
  match j with
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Json.Num f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Json.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Json.escape_string buf k;
          Buffer.add_char buf ':';
          json_to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'
  | j -> Buffer.add_string buf (Json.to_string j)

let json_to_string (j : Json.t) : string =
  let buf = Buffer.create 256 in
  json_to_buffer buf j;
  Buffer.contents buf

let num (f : float) = Json.Num f
let int (n : int) = Json.Num (float_of_int n)

(** [j]'s field [k], [Null] when absent. *)
let field (k : string) (j : Json.t) : Json.t = Option.value ~default:Json.Null (Json.member k j)

let member_num (k : string) (j : Json.t) : float =
  match Option.bind (Json.member k j) Json.to_num with Some f -> f | None -> 0.0

let member_arr (k : string) (j : Json.t) : Json.t list =
  Option.value ~default:[] (Option.bind (Json.member k j) Json.to_arr)

let member_str (k : string) (j : Json.t) : string =
  Option.value ~default:"" (Option.bind (Json.member k j) Json.to_str)

let member_obj (k : string) (j : Json.t) : (string * Json.t) list =
  match Json.member k j with Some (Json.Obj kvs) -> kvs | _ -> []

(* -- subprocesses ----------------------------------------------------------------- *)

let rec waitpid_no_eintr (pid : int) : Unix.process_status =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_no_eintr pid

let alive (pid : int) : bool =
  match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false

(** Kill [pid], a process this one did not start (so cannot reap), and wait
    until it is gone. *)
let kill_and_await (pid : int) : unit =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  while alive pid && now () < deadline do
    Unix.sleepf 0.01
  done

(** Run [prog args] to completion with stdin from /dev/null and stderr
    inherited; returns its exit status and everything it wrote to stdout.
    A child still running after [timeout] seconds is killed. *)
let run_capture ?(timeout = 170.0) (prog : string) (args : string list) :
    Unix.process_status * string =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null wr Unix.stderr)
  in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = now () +. timeout in
  let rec drain () =
    let left = deadline -. now () in
    if left <= 0.0 then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    else
      match Unix.select [ rd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | [], _, _ -> drain ()
      | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) drain;
  let st = waitpid_no_eintr pid in
  (st, Buffer.contents buf)

let last_line (s : string) : string =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""
