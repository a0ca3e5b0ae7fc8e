(** The S-expression reader: text -> located datums.

    Supports the notation used throughout the paper: lists, improper lists,
    vectors, booleans, characters, strings, fixnums (decimal / #x / #b / #o),
    flonums, float-complex literals such as [2.0+2.0i], [+inf.0] / [+nan.0],
    line comments [;], nestable block comments [#| |#], datum comments [#;],
    and the quotation shorthands ['] [`] [,] [,@] [#'] [#`] [#,] [#,@].

    Symbol tokens are interned through {!Liblang_symbol.Symbol} at creation:
    equal names share one canonical string, and the downstream syntax layer
    ({!Liblang_stx.Stx}) re-interns them into O(1) symbol ids for free. *)

module Symbol = Liblang_symbol.Symbol

exception Error of string * Srcloc.t

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make_state ?(file = "<string>") src = { src; file; pos = 0; line = 1; col = 0 }

let loc_here st ~span =
  Srcloc.make ~file:st.file ~line:st.line ~col:st.col ~pos:st.pos ~span

let err st msg = raise (Error (msg, loc_here st ~span:1))

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let peek2 st = if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (eof st) then begin
    (if st.src.[st.pos] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 0
     end
     else st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let is_delimiter c =
  match c with
  | '(' | ')' | '[' | ']' | '"' | ';' | '\000' -> true
  | c -> c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_symbol_char c = not (is_delimiter c)

(* -- whitespace and comments ------------------------------------------- *)

let rec skip_atmosphere st =
  if eof st then ()
  else
    match peek st with
    | ' ' | '\t' | '\n' | '\r' ->
        advance st;
        skip_atmosphere st
    | ';' ->
        while (not (eof st)) && peek st <> '\n' do
          advance st
        done;
        skip_atmosphere st
    | '#' when peek2 st = '|' ->
        advance st;
        advance st;
        skip_block_comment st 1;
        skip_atmosphere st
    | '#' when peek2 st = ';' ->
        advance st;
        advance st;
        skip_atmosphere st;
        ignore (read_datum st);
        skip_atmosphere st
    | _ -> ()

and skip_block_comment st depth =
  if depth = 0 then ()
  else if eof st then err st "unterminated block comment"
  else if peek st = '|' && peek2 st = '#' then begin
    advance st;
    advance st;
    skip_block_comment st (depth - 1)
  end
  else if peek st = '#' && peek2 st = '|' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1)
  end
  else begin
    advance st;
    skip_block_comment st depth
  end

(* -- tokens ------------------------------------------------------------- *)

and read_token_text st =
  let buf = Buffer.create 16 in
  while (not (eof st)) && is_symbol_char (peek st) do
    Buffer.add_char buf (peek st);
    advance st
  done;
  Buffer.contents buf

and read_string_lit st =
  let start_line = st.line and start_col = st.col and start_pos = st.pos in
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then err st "unterminated string"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (match peek st with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | '0' -> Buffer.add_char buf '\000'
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | c -> err st (Printf.sprintf "unknown string escape \\%c" c));
          advance st;
          go ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          go ()
  in
  go ();
  let loc =
    Srcloc.make ~file:st.file ~line:start_line ~col:start_col ~pos:start_pos
      ~span:(st.pos - start_pos)
  in
  { Datum.d = Datum.Atom (Datum.Str (Buffer.contents buf)); loc }

and read_char_lit st loc0 =
  (* called after consuming "#\\" *)
  if eof st then err st "bad character literal"
  else begin
    let first = peek st in
    advance st;
    let rest = if is_symbol_char (peek st) then read_token_text st else "" in
    let named = String.make 1 first ^ rest in
    let c =
      match String.lowercase_ascii named with
      | "space" -> ' '
      | "newline" | "linefeed" -> '\n'
      | "tab" -> '\t'
      | "return" -> '\r'
      | "nul" | "null" -> '\000'
      | _ when String.length named = 1 -> first
      | _ -> err st (Printf.sprintf "unknown character literal #\\%s" named)
    in
    { Datum.d = Datum.Atom (Datum.Char c); loc = loc0 }
  end

(* -- numbers ------------------------------------------------------------ *)

and parse_unsigned_float s = float_of_string_opt s

(* Parse a possibly signed real written as text: "3", "3.5", "1e3", "+inf.0",
   "-nan.0", ".5". Returns [None] if [s] is not real-number syntax. *)
and parse_real s : [ `Int of int | `Float of float ] option =
  match s with
  | "+inf.0" -> Some (`Float Float.infinity)
  | "-inf.0" -> Some (`Float Float.neg_infinity)
  | "+nan.0" | "-nan.0" -> Some (`Float Float.nan)
  | _ -> (
      match int_of_string_opt s with
      | Some n -> Some (`Int n)
      | None -> (
          (* Reject things float_of_string accepts but Scheme doesn't, like
             "0x1" or "infinity"; require digits-and-[.eE+-] only. *)
          let ok =
            String.length s > 0
            && String.for_all
                 (fun c ->
                   (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-')
                 s
            && String.exists (fun c -> c >= '0' && c <= '9') s
          in
          if not ok then None
          else match parse_unsigned_float s with Some f -> Some (`Float f) | None -> None))

(* Recognize "<real><signed-real>i" float-complex syntax, e.g. 2.0+3.5i,
   -1e2-0.5i, +2.0i. *)
and parse_number s : Datum.atom option =
  let n = String.length s in
  if n = 0 then None
  else if s.[n - 1] = 'i' || s.[n - 1] = 'I' then begin
    let body = String.sub s 0 (n - 1) in
    (* find the sign that splits real and imaginary parts: the last '+' or '-'
       that is not part of an exponent and not at position 0 *)
    let split = ref (-1) in
    String.iteri
      (fun i c ->
        if (c = '+' || c = '-') && i > 0 && s.[i - 1] <> 'e' && s.[i - 1] <> 'E' then split := i)
      body;
    let to_float = function `Int n -> float_of_int n | `Float f -> f in
    if !split = -1 then
      (* pure imaginary: "+2.0i", "-i"-style not supported without digits *)
      match parse_real body with
      | Some r when body.[0] = '+' || body.[0] = '-' -> Some (Datum.Cpx (0., to_float r))
      | _ -> None
    else
      let re_s = String.sub body 0 !split in
      let im_s = String.sub body !split (String.length body - !split) in
      let im_s = if im_s = "+" then "1" else if im_s = "-" then "-1" else im_s in
      match (parse_real re_s, parse_real im_s) with
      | Some re, Some im -> Some (Datum.Cpx (to_float re, to_float im))
      | _ -> None
  end
  else
    match parse_real s with
    | Some (`Int n) -> Some (Datum.Int n)
    | Some (`Float f) -> Some (Datum.Float f)
    | None -> None

and read_radix_int st loc0 radix =
  let text = read_token_text st in
  let prefix = match radix with 16 -> "0x" | 8 -> "0o" | 2 -> "0b" | _ -> "" in
  let sign, digits =
    if String.length text > 0 && (text.[0] = '-' || text.[0] = '+') then
      ((if text.[0] = '-' then -1 else 1), String.sub text 1 (String.length text - 1))
    else (1, text)
  in
  match int_of_string_opt (prefix ^ digits) with
  | Some n -> { Datum.d = Datum.Atom (Datum.Int (sign * n)); loc = loc0 }
  | None -> err st (Printf.sprintf "bad radix-%d number: %s" radix text)

(* -- datums -------------------------------------------------------------- *)

and read_list st close =
  let items = ref [] in
  let rec go () =
    skip_atmosphere st;
    if eof st then err st "unterminated list"
    else if peek st = close then begin
      advance st;
      Datum.List (List.rev !items)
    end
    else if peek st = ')' || peek st = ']' then err st "mismatched close paren"
    else if
      peek st = '.'
      && (st.pos + 1 >= String.length st.src || is_delimiter st.src.[st.pos + 1])
    then begin
      advance st;
      skip_atmosphere st;
      let tl = read_datum_exn st in
      skip_atmosphere st;
      if eof st || peek st <> close then err st "expected close paren after dotted tail"
      else begin
        advance st;
        match !items with
        | [] -> err st "dotted pair with no head"
        | items -> (
            (* (a b . (c d)) reads as (a b c d) *)
            match tl.Datum.d with
            | Datum.List more -> Datum.List (List.rev_append items more)
            | Datum.DotList (more, tl') -> Datum.DotList (List.rev_append items more, tl')
            | _ -> Datum.DotList (List.rev items, tl))
      end
    end
    else begin
      items := read_datum_exn st :: !items;
      go ()
    end
  in
  go ()

and wrap_quote st name =
  skip_atmosphere st;
  let x = read_datum_exn st in
  let loc = x.Datum.loc in
  { Datum.d = Datum.List [ { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon name)); loc }; x ]; loc }

and read_datum_exn st =
  match read_datum st with
  | Some d -> d
  | None -> err st "unexpected end of input"

and read_datum st : Datum.annot option =
  skip_atmosphere st;
  if eof st then None
  else begin
    let start_line = st.line and start_col = st.col and start_pos = st.pos in
    let mkloc () =
      Srcloc.make ~file:st.file ~line:start_line ~col:start_col ~pos:start_pos
        ~span:(st.pos - start_pos)
    in
    match peek st with
    | '(' | '[' ->
        let close = if peek st = '(' then ')' else ']' in
        advance st;
        let d = read_list st close in
        Some { Datum.d; loc = mkloc () }
    | ')' | ']' -> err st "unexpected close paren"
    | '"' -> Some (read_string_lit st)
    | '\'' ->
        advance st;
        Some (wrap_quote st "quote")
    | '`' ->
        advance st;
        Some (wrap_quote st "quasiquote")
    | ',' ->
        advance st;
        if peek st = '@' then begin
          advance st;
          Some (wrap_quote st "unquote-splicing")
        end
        else Some (wrap_quote st "unquote")
    | '#' -> (
        advance st;
        match peek st with
        | '(' ->
            advance st;
            let d = read_list st ')' in
            let items =
              match d with
              | Datum.List xs -> xs
              | _ -> err st "dotted pair not allowed in vector"
            in
            Some { Datum.d = Datum.Vec items; loc = mkloc () }
        | 't' | 'f' ->
            let text = read_token_text st in
            let b =
              match text with
              | "t" | "true" -> true
              | "f" | "false" -> false
              | _ -> err st ("bad boolean literal #" ^ text)
            in
            Some { Datum.d = Datum.Atom (Datum.Bool b); loc = mkloc () }
        | '\\' ->
            advance st;
            Some (read_char_lit st (mkloc ()))
        | 'x' | 'X' ->
            advance st;
            Some (read_radix_int st (mkloc ()) 16)
        | 'b' | 'B' ->
            advance st;
            Some (read_radix_int st (mkloc ()) 2)
        | 'o' | 'O' ->
            advance st;
            Some (read_radix_int st (mkloc ()) 8)
        | 'd' | 'D' ->
            advance st;
            Some (read_radix_int st (mkloc ()) 10)
        | '\'' ->
            advance st;
            Some (wrap_quote st "syntax")
        | '`' ->
            advance st;
            Some (wrap_quote st "quasisyntax")
        | ',' ->
            advance st;
            if peek st = '@' then begin
              advance st;
              Some (wrap_quote st "unsyntax-splicing")
            end
            else Some (wrap_quote st "unsyntax")
        | '%' ->
            (* #%app, #%plain-lambda, ... are ordinary symbols *)
            let text = read_token_text st in
            Some { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon ("#" ^ text))); loc = mkloc () }
        | c -> err st (Printf.sprintf "unknown reader syntax #%c" c))
    | _ -> (
        let text = read_token_text st in
        if text = "" then err st "unreadable input"
        else
          match parse_number text with
          | Some a -> Some { Datum.d = Datum.Atom a; loc = mkloc () }
          | None -> Some { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon text)); loc = mkloc () })
  end

(* -- entry points -------------------------------------------------------- *)

(** Read a single datum from [src]; raises {!Error} on malformed input,
    returns [None] on (whitespace-only) empty input. *)
let read_one ?file src =
  let st = make_state ?file src in
  read_datum st

module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

(** Read all datums from [src]. *)
let read_all ?file src =
  Trace.span "read" ?detail:file @@ fun () ->
  Metrics.count "reader.reads";
  let st = make_state ?file src in
  let rec go acc = match read_datum st with None -> List.rev acc | Some d -> go (d :: acc) in
  let ds = go [] in
  if Metrics.installed () then Metrics.countn "reader.datums" (List.length ds);
  ds

(** Read all datums from [src] with {e datum-level resynchronization}: on a
    parse error, record it (message × location), skip forward to the next
    plausible top-level datum start, and keep reading — so one pass over a
    file surfaces {e all} of its parse errors, not just the first.  Returns
    the datums that did parse and the errors in source order.  Progress is
    guaranteed (each recovery consumes at least one character) and the
    error list is capped at [max_errors]. *)
let read_all_recovering ?file ?(max_errors = 25) src =
  Trace.span "read" ?detail:file @@ fun () ->
  Metrics.count "reader.reads";
  let st = make_state ?file src in
  let datums = ref [] and errors = ref [] and n_errors = ref 0 in
  (* Resynchronize: consume at least one character, then skip to the next
     whitespace or open-paren boundary, where a fresh datum plausibly
     starts.  An erroneous close paren at that point errors again, but each
     round still advances, so the loop terminates. *)
  let resync () =
    if not (eof st) then advance st;
    let rec go () =
      if eof st then ()
      else
        match peek st with
        | ' ' | '\t' | '\n' | '\r' | '(' | '[' -> ()
        | _ ->
            advance st;
            go ()
    in
    go ()
  in
  let rec go () =
    if !n_errors >= max_errors then ()
    else
      match read_datum st with
      | Some d ->
          datums := d :: !datums;
          go ()
      | None -> ()
      | exception Error (msg, loc) ->
          errors := (msg, loc) :: !errors;
          incr n_errors;
          resync ();
          go ()
  in
  go ();
  if Metrics.installed () then begin
    Metrics.countn "reader.datums" (List.length !datums);
    if !errors <> [] then Metrics.countn "reader.parse_errors" (List.length !errors)
  end;
  (List.rev !datums, List.rev !errors)

(** If [src] starts with a [#lang <name>] line, return [Some (name, rest)]
    where [rest] is the remaining source (with line numbering preserved by
    keeping a newline placeholder); otherwise [None]. *)
let split_lang_line src =
  let n = String.length src in
  let i = ref 0 in
  while !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\n' || src.[!i] = '\r') do
    incr i
  done;
  let start = !i in
  if start + 5 <= n && String.sub src start 5 = "#lang" then begin
    let nl = match String.index_from_opt src start '\n' with Some j -> j | None -> n in
    let name = String.trim (String.sub src (start + 5) (nl - start - 5)) in
    let rest = if nl >= n then "" else String.sub src nl (n - nl) in
    Some (name, rest)
  end
  else None
