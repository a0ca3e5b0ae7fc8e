(** The compile-server wire protocol: length-prefixed NDJSON frames over a
    Unix-domain socket.  The full specification — framing grammar, request
    and response schemas, error-code mapping — lives in docs/server.md;
    this module is the single codec both the daemon ({!Server}) and the
    client ({!Client}) speak.

    {2 Framing}

    One frame is

    {v <LEN> LF <PAYLOAD> LF v}

    where [LEN] is the byte length of [PAYLOAD] in ASCII decimal (at most
    9 digits, payload capped at {!max_frame}) and [PAYLOAD] is a single
    JSON value emitted on one line ({!Liblang_observe.Json} never emits
    newlines un-pretty).  The length prefix gives robust framing; the
    trailing newline keeps a socket dump readable NDJSON.  Anything else —
    a non-digit header, an oversized length, a missing terminator, payload
    that does not parse as JSON — is {!Malformed}; framing cannot be
    resynchronized after that, so the peer closes the connection.

    {2 Exit codes}

    Responses carry the CLI's exit-code convention verbatim: [0] success,
    [1] program diagnostics, [2] internal platform error, [64]
    protocol/usage error (docs/diagnostics.md). *)

module Json = Liblang_observe.Json

(** Payload byte-length cap: 16 MiB. *)
let max_frame = 16 * 1024 * 1024

(* -- framing ------------------------------------------------------------------ *)

(** The encoded bytes of one frame carrying [j]. *)
let encode_frame (j : Json.t) : string =
  let payload = Json.to_string j in
  Printf.sprintf "%d\n%s\n" (String.length payload) payload

(** Write one frame (complete, looping over partial writes). *)
let write_frame (fd : Unix.file_descr) (j : Json.t) : unit =
  let s = encode_frame j in
  let b = Bytes.unsafe_of_string s in
  let rec go pos len =
    if len > 0 then begin
      let n =
        try Unix.write fd b pos len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (pos + n) (len - n)
    end
  in
  go 0 (Bytes.length b)

type frame =
  | Frame of Json.t
  | Eof  (** clean end of stream before any header byte *)
  | Malformed of string  (** framing violation; the connection is unrecoverable *)

(* Read exactly [len] bytes into [buf] at [pos]; false on premature EOF.
   A hard read error (ECONNRESET from a peer that closed without
   draining, and kin) is the same thing as the stream ending. *)
let really_read fd buf pos len : bool =
  let rec go pos len =
    len = 0
    ||
    match Unix.read fd buf pos len with
    | 0 -> false
    | n -> go (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
    | exception Unix.Unix_error _ -> false
  in
  go pos len

(** Read one frame (blocking).  [Eof] only when the stream ends cleanly
    between frames; a stream cut mid-frame is [Malformed]. *)
let read_frame (fd : Unix.file_descr) : frame =
  let byte = Bytes.create 1 in
  let hdr = Buffer.create 12 in
  let rec header () =
    if not (really_read fd byte 0 1) then
      if Buffer.length hdr = 0 then Eof else Malformed "truncated frame header"
    else
      match Bytes.get byte 0 with
      | '\n' ->
          if Buffer.length hdr = 0 then Malformed "empty frame header"
          else body (int_of_string (Buffer.contents hdr))
      | '0' .. '9' when Buffer.length hdr < 9 ->
          Buffer.add_char hdr (Bytes.get byte 0);
          header ()
      | _ -> Malformed "malformed frame header (want DIGITS LF)"
  and body len =
    if len > max_frame then Malformed (Printf.sprintf "frame too large (%d bytes)" len)
    else begin
      let payload = Bytes.create len in
      if not (really_read fd payload 0 len) then Malformed "truncated frame payload"
      else if not (really_read fd byte 0 1) || Bytes.get byte 0 <> '\n' then
        Malformed "missing frame terminator"
      else
        match Json.parse (Bytes.unsafe_to_string payload) with
        | Ok j -> Frame j
        | Error m -> Malformed ("payload is not JSON: " ^ m)
    end
  in
  header ()

(* -- requests ----------------------------------------------------------------- *)

type request =
  | Compile of { path : string; jobs : int option }
      (** compile [path] and its require graph through the store; [jobs]
          worker domains (daemon default when absent) *)
  | Run of { path : string; fuel : int option }
      (** compile, then instantiate; the response carries the program's
          captured output *)
  | Expand of { path : string }  (** fully-expanded core forms as text *)
  | Analyze of { path : string }
      (** 0CFA flow analysis over the expanded core forms *)
  | Status  (** daemon liveness/counters snapshot *)
  | Cancel of { target : Json.t }
      (** abort the queued or in-flight request whose [id] equals
          [target] on this same connection (cooperative — docs/server.md) *)
  | Shutdown  (** acknowledge, then stop the daemon *)

(** A request plus its envelope: [id] is echoed verbatim in the response
    ([Json.Null] when the client sent none). *)
type envelope = { id : Json.t; req : request }

let op_name = function
  | Compile _ -> "compile"
  | Run _ -> "run"
  | Expand _ -> "expand"
  | Analyze _ -> "analyze"
  | Status -> "status"
  | Cancel _ -> "cancel"
  | Shutdown -> "shutdown"

(** The raw [id] / [op] of an unvalidated request object — for error
    responses to requests that fail validation. *)
let raw_id (j : Json.t) : Json.t = Option.value ~default:Json.Null (Json.member "id" j)

let raw_op (j : Json.t) : string =
  match Json.member "op" j with Some (Json.Str s) -> s | _ -> "?"

let request_to_json ?(id = Json.Null) (req : request) : Json.t =
  let base = if id = Json.Null then [] else [ ("id", id) ] in
  let fields =
    match req with
    | Compile { path; jobs } ->
        [ ("op", Json.Str "compile"); ("path", Json.Str path) ]
        @ (match jobs with None -> [] | Some j -> [ ("jobs", Json.Num (float_of_int j)) ])
    | Run { path; fuel } ->
        [ ("op", Json.Str "run"); ("path", Json.Str path) ]
        @ (match fuel with None -> [] | Some f -> [ ("fuel", Json.Num (float_of_int f)) ])
    | Expand { path } -> [ ("op", Json.Str "expand"); ("path", Json.Str path) ]
    | Analyze { path } -> [ ("op", Json.Str "analyze"); ("path", Json.Str path) ]
    | Status -> [ ("op", Json.Str "status") ]
    | Cancel { target } -> [ ("op", Json.Str "cancel"); ("target", target) ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
  in
  Json.Obj (base @ fields)

let request_of_json (j : Json.t) : (envelope, string) result =
  match j with
  | Json.Obj _ -> (
      let str k = Option.bind (Json.member k j) Json.to_str in
      let num k = Option.bind (Json.member k j) Json.to_num in
      let with_path op k =
        match str "path" with
        | Some p when p <> "" -> Ok (k p)
        | _ -> Error (op ^ ": missing or empty \"path\"")
      in
      let req =
        match Json.member "op" j with
        | Some (Json.Str op) -> (
            match op with
            | "compile" ->
                let jobs =
                  match num "jobs" with
                  | Some f when f >= 1.0 -> Some (int_of_float f)
                  | _ -> None
                in
                with_path op (fun path -> Compile { path; jobs })
            | "run" ->
                let fuel =
                  match num "fuel" with
                  | Some f when f >= 1.0 -> Some (int_of_float f)
                  | _ -> None
                in
                with_path op (fun path -> Run { path; fuel })
            | "expand" -> with_path op (fun path -> Expand { path })
            | "analyze" -> with_path op (fun path -> Analyze { path })
            | "status" -> Ok Status
            | "cancel" -> (
                match Json.member "target" j with
                | Some t when t <> Json.Null -> Ok (Cancel { target = t })
                | _ -> Error "cancel: missing \"target\" (the id of the request to abort)")
            | "shutdown" -> Ok Shutdown
            | _ ->
                Error
                  (Printf.sprintf
                     "unknown op %S (compile, run, expand, analyze, status, cancel, \
                      shutdown)" op))
        | Some _ -> Error "\"op\" must be a string"
        | None -> Error "missing \"op\""
      in
      Result.map (fun req -> { id = raw_id j; req }) req)
  | _ -> Error "request must be a JSON object"

(* -- responses ---------------------------------------------------------------- *)

(** Build a response object: the echoed [id] (omitted when the request had
    none), the [op] it answers, [ok], the CLI-convention [exit] code, and
    any op-specific [fields] ([summary], [output], [status], [error],
    [diagnostics], [rendered] — see docs/server.md). *)
let response ~(id : Json.t) ~(op : string) ~(ok : bool) ~(exit : int)
    ?(fields : (string * Json.t) list = []) () : Json.t =
  Json.Obj
    ((if id = Json.Null then [] else [ ("id", id) ])
    @ [
        ("op", Json.Str op);
        ("ok", Json.Bool ok);
        ("exit", Json.Num (float_of_int exit));
      ]
    @ fields)
