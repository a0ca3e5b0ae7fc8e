(** Client side of the compile-server protocol: connect to a daemon's
    Unix-domain socket, send request frames, read response frames.
    Used by [liblang client] and [liblang run/compile --via-server], and
    by the server tests and the repository benchmark's [daemon] workload.
    Paths in requests should be
    absolute (the daemon resolves relative paths against {e its} working
    directory, not the client's) — {!Liblang_compiled.Resolver.module_key}
    canonicalizes on the client side.

    Two usage shapes:

    - {!request} — the simple synchronous call: send one frame, block for
      one frame.  Correct only while nothing else is in flight.
    - {!send} / {!recv} — pipelining: queue several requests on the
      connection, then read responses as the daemon produces them.
      Responses carry the request's [id] verbatim ({!id_of}); session ops
      answer in arrival order, but control ops ([status], [cancel]) may
      overtake them, so a pipelining caller must correlate by id, not by
      position.  See docs/server.md#pipelining. *)

module Json = Liblang_observe.Json
module P = Protocol

type t = { fd : Unix.file_descr; mutable next_id : int }

(** Connect to the daemon at [path].  [retries] (default 0) retries with
    capped exponential backoff — 5 ms doubling to a 200 ms ceiling, each
    sleep scaled by deterministic jitter in [0.5, 1.0) derived from
    [(pid, attempt)] — for callers that just started the daemon and race
    its bind.  Backoff keeps a herd of bench clients from hammering the
    socket in lockstep; determinism keeps test timings reproducible. *)
let connect ?(retries = 0) (path : string) : (t, string) result =
  (* a daemon that died mid-conversation must surface as an error result
     on the next send, not as a SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let backoff attempt =
    let base = Float.min 0.2 (0.005 *. Float.of_int (1 lsl min attempt 16)) in
    (* splitmix-flavored hash of (pid, attempt): deterministic per process
       and per attempt, decorrelated across processes *)
    let h = (Unix.getpid () * 0x9E3779B1) lxor ((attempt + 1) * 0x85EBCA77) in
    let h = h lxor (h lsr 15) in
    let h = h * 0x2C1B3C6D in
    let u = Float.of_int (h land 0xFFFF) /. 65536.0 in
    base *. (0.5 +. (0.5 *. u))
  in
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; next_id = 1 }
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if attempt < retries then begin
          Unix.sleepf (backoff attempt);
          go (attempt + 1)
        end
        else
          Error
            (Printf.sprintf "cannot connect to server at %s: %s" path
               (Unix.error_message e))
  in
  go 0

let close (t : t) : unit = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* -- pipelining --------------------------------------------------------------- *)

(** Send [req] without waiting; returns the [id] the response will echo.
    Pair with {!recv}. *)
let send (t : t) (req : P.request) : (Json.t, string) result =
  let id = Json.Num (float_of_int t.next_id) in
  t.next_id <- t.next_id + 1;
  match P.write_frame t.fd (P.request_to_json ~id req) with
  | () -> Ok id
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)

(** Send [req] under a caller-chosen [id] (echoed verbatim — any JSON
    value).  The caller owns uniqueness among its in-flight ids. *)
let send_with_id (t : t) ~(id : Json.t) (req : P.request) : (unit, string) result =
  match P.write_frame t.fd (P.request_to_json ~id req) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)

(** Read the next response frame, whichever request it answers. *)
let recv (t : t) : (Json.t, string) result =
  match P.read_frame t.fd with
  | P.Frame j -> Ok j
  | P.Eof -> Error "server closed the connection"
  | P.Malformed m -> Error ("malformed response: " ^ m)

(** Send [req] and wait for its response object (no pipelining: blocks for
    the next frame, which is [req]'s answer only if nothing else is in
    flight). *)
let request (t : t) (req : P.request) : (Json.t, string) result =
  match send t req with Error e -> Error e | Ok _ -> recv t

(* -- response accessors ------------------------------------------------------- *)

(** The echoed request id ([Json.Null] when the request carried none). *)
let id_of (j : Json.t) : Json.t = Option.value ~default:Json.Null (Json.member "id" j)

let ok_of (j : Json.t) : bool =
  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let exit_of (j : Json.t) : int =
  match Option.bind (Json.member "exit" j) Json.to_num with
  | Some f -> int_of_float f
  | None -> 2

let output_of (j : Json.t) : string =
  match Option.bind (Json.member "output" j) Json.to_str with Some s -> s | None -> ""

let error_of (j : Json.t) : string option =
  Option.bind (Json.member "error" j) Json.to_str

let rendered_of (j : Json.t) : string option =
  Option.bind (Json.member "rendered" j) Json.to_str

(** The [n]-named count out of the response's [summary] object; [-1] when
    absent (callers treat that as "unknown", never as zero). *)
let summary_count (j : Json.t) (n : string) : int =
  match
    Option.bind (Json.member "summary" j) (fun s ->
        Option.bind (Json.member n s) Json.to_num)
  with
  | Some f -> int_of_float f
  | None -> -1
