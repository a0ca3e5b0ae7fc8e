(** The S-expression reader: text -> located datums.

    Supports the notation used throughout the paper: lists, improper lists,
    vectors, booleans, characters, strings, fixnums (decimal / #x / #b / #o),
    flonums, float-complex literals such as [2.0+2.0i], [+inf.0] / [+nan.0],
    line comments [;], nestable block comments [#| |#], datum comments [#;],
    and the quotation shorthands ['] [`] [,] [,@] [#'] [#`] [#,] [#,@].

    Symbols may use Racket's [|...|] notation.  Inside bars every
    character is taken literally except a backslash, which escapes the
    next character: the printer ({!Datum.to_string}) writes a bar or a
    backslash inside bars with a backslash before it.  A token with bars
    is always a symbol, never a number: [|42|] and [|a b|] are symbols.
    The printer uses the form for exactly the symbols whose bare text
    would not read back as themselves.

    Symbol tokens are interned through {!Liblang_symbol.Symbol} at creation:
    equal names share one canonical string, and the downstream syntax layer
    ({!Liblang_stx.Stx}) re-interns them into O(1) symbol ids for free. *)

module Symbol = Liblang_symbol.Symbol

exception Error of string * Srcloc.t

type state = {
  src : string;
  file : string;
  limit : int;  (** reading stops here: the end of [src], or of a range *)
  located : bool;  (** whether datums carry their locations, or all share {!Srcloc.none} *)
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make_state ?(file = "<string>") ?(located = true) ?(pos = 0) ?limit ?(line = 1) ?(col = 0) src =
  let limit = match limit with Some l -> min l (String.length src) | None -> String.length src in
  { src; file; limit; located; pos; line; col }

let loc_here st ~span =
  Srcloc.make ~file:st.file ~line:st.line ~col:st.col ~pos:st.pos ~span

let err st msg = raise (Error (msg, loc_here st ~span:1))

let eof st = st.pos >= st.limit
let peek st = if eof st then '\000' else st.src.[st.pos]
let peek2 st = if st.pos + 1 >= st.limit then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (eof st) then begin
    (if st.src.[st.pos] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 0
     end
     else st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let is_symbol_char c = not (Datum.is_delimiter c)

(* -- whitespace and comments ------------------------------------------- *)

(* The heads the quotation shorthands read as, interned once as the module
   initializes: a compiled body repeats ['] thousands of times, and while a
   domain pool runs every intern takes a lock.  Not [Lazy]: two domains
   forcing one lazy value at once can raise [CamlinternalLazy.Undefined]. *)
module Head = struct
  let quote = Symbol.canon "quote"
  let quasiquote = Symbol.canon "quasiquote"
  let unquote = Symbol.canon "unquote"
  let unquote_splicing = Symbol.canon "unquote-splicing"
  let syntax = Symbol.canon "syntax"
  let quasisyntax = Symbol.canon "quasisyntax"
  let unsyntax = Symbol.canon "unsyntax"
  let unsyntax_splicing = Symbol.canon "unsyntax-splicing"
end

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

(* End of the token starting at [st.pos]: the first delimiter, or with
   [~bars] also the first [|]. *)
and token_end ~bars st =
  let n = st.limit in
  let rec go i =
    if i < n then
      let c = String.unsafe_get st.src i in
      if is_symbol_char c && not (bars && c = '|') then go (i + 1) else i
    else i
  in
  go st.pos

(* Take [st.pos, stop) as the token text, sliced from the source.  A token
   holds no newline, so only the column moves. *)
and take_token st stop =
  let start = st.pos in
  st.pos <- stop;
  st.col <- st.col + (stop - start);
  String.sub st.src start (stop - start)

and read_token_text st = take_token st (token_end ~bars:false st)

(* A symbol token that has [|...|] segments (see the header). *)
and read_barred_symbol st =
  let buf = Buffer.create 16 in
  let rec plain () =
    match peek st with
    | '|' ->
        advance st;
        barred ()
    | c when is_symbol_char c ->
        Buffer.add_char buf c;
        advance st;
        plain ()
    | _ -> ()
  and barred () =
    if eof st then err st "unterminated |...| in symbol"
    else
      match peek st with
      | '|' ->
          advance st;
          plain ()
      | '\\' ->
          advance st;
          if eof st then err st "unterminated |...| in symbol";
          Buffer.add_char buf (peek st);
          advance st;
          barred ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          barred ()
  in
  plain ();
  Buffer.contents buf

(* The text of a symbol token that may have bars. *)
and read_symbol_text st =
  let stop = token_end ~bars:true st in
  if bar_at st stop then read_barred_symbol st else take_token st stop

and bar_at st i = i < st.limit && st.src.[i] = '|'

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
  { Datum.d = Datum.Atom (Datum.Str (Buffer.contents buf)); loc = mkloc st start_line start_col start_pos }

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

and read_list st close = read_list_items st close []

(* [items] holds the elements read so far, last first. *)
and read_list_items st close items =
  skip_atmosphere st;
  if eof st then err st "unterminated list"
  else if peek st = close then begin
    advance st;
    Datum.List (List.rev items)
  end
  else if peek st = ')' || peek st = ']' then err st "mismatched close paren"
  else if
    peek st = '.'
    && (st.pos + 1 >= st.limit || Datum.is_delimiter st.src.[st.pos + 1])
  then begin
    advance st;
    skip_atmosphere st;
    let tl = read_datum_exn st in
    skip_atmosphere st;
    if eof st || peek st <> close then err st "expected close paren after dotted tail"
    else begin
      advance st;
      match items with
      | [] -> err st "dotted pair with no head"
      | items -> (
          (* (a b . (c d)) reads as (a b c d) *)
          match tl.Datum.d with
          | Datum.List more -> Datum.List (List.rev_append items more)
          | Datum.DotList (more, tl') -> Datum.DotList (List.rev_append items more, tl')
          | _ -> Datum.DotList (List.rev items, tl))
    end
  end
  else read_list_items st close (read_datum_exn st :: items)

(* [head] is one of {!Head}'s canonical names. *)
and wrap_quote st head =
  skip_atmosphere st;
  let x = read_datum_exn st in
  let loc = x.Datum.loc in
  { Datum.d = Datum.List [ { Datum.d = Datum.Atom (Datum.Sym head); loc }; x ]; loc }

and read_datum_exn st =
  skip_atmosphere st;
  if eof st then err st "unexpected end of input" else read_datum_here st

and read_datum st : Datum.annot option =
  skip_atmosphere st;
  if eof st then None else Some (read_datum_here st)

(* From the datum's start [line], [col], [pos] up to the current position;
   the one shared {!Srcloc.none} when reading without locations. *)
and mkloc st line col pos =
  if st.located then Srcloc.make ~file:st.file ~line ~col ~pos ~span:(st.pos - pos) else Srcloc.none

(* The datum starting at the current (non-atmosphere) character. *)
and read_datum_here st : Datum.annot =
  let line = st.line and col = st.col and pos = st.pos in
  match peek st with
  | '(' | '[' ->
      let close = if peek st = '(' then ')' else ']' in
      advance st;
      let d = read_list st close in
      { Datum.d; loc = mkloc st line col pos }
  | ')' | ']' -> err st "unexpected close paren"
  | '"' -> read_string_lit st
  | '\'' ->
      advance st;
      wrap_quote st Head.quote
  | '`' ->
      advance st;
      wrap_quote st Head.quasiquote
  | ',' ->
      advance st;
      if peek st = '@' then begin
        advance st;
        wrap_quote st Head.unquote_splicing
      end
      else wrap_quote st Head.unquote
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
          { Datum.d = Datum.Vec items; loc = mkloc st line col pos }
      | 't' | 'f' ->
          let text = read_token_text st in
          let b =
            match text with
            | "t" | "true" -> true
            | "f" | "false" -> false
            | _ -> err st ("bad boolean literal #" ^ text)
          in
          { Datum.d = Datum.Atom (Datum.Bool b); loc = mkloc st line col pos }
      | '\\' ->
          advance st;
          read_char_lit st (mkloc st line col pos)
      | 'x' | 'X' ->
          advance st;
          read_radix_int st (mkloc st line col pos) 16
      | 'b' | 'B' ->
          advance st;
          read_radix_int st (mkloc st line col pos) 2
      | 'o' | 'O' ->
          advance st;
          read_radix_int st (mkloc st line col pos) 8
      | 'd' | 'D' ->
          advance st;
          read_radix_int st (mkloc st line col pos) 10
      | '\'' ->
          advance st;
          wrap_quote st Head.syntax
      | '`' ->
          advance st;
          wrap_quote st Head.quasisyntax
      | ',' ->
          advance st;
          if peek st = '@' then begin
            advance st;
            wrap_quote st Head.unsyntax_splicing
          end
          else wrap_quote st Head.unsyntax
      | '%' ->
          (* #%app, #%plain-lambda, ... are ordinary symbols: read the
             token again from its [#] *)
          st.pos <- pos;
          st.col <- col;
          let text = read_symbol_text st in
          { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon text)); loc = mkloc st line col pos }
      | c -> err st (Printf.sprintf "unknown reader syntax #%c" c))
  | _ -> (
      let stop = token_end ~bars:true st in
      if bar_at st stop then
        (* a token with bars is a symbol, whatever it spells *)
        let text = read_barred_symbol st in
        { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon text)); loc = mkloc st line col pos }
      else
        let text = take_token st stop in
        if text = "" then err st "unreadable input"
        else
          match Datum.parse_number text with
          | Some a -> { Datum.d = Datum.Atom a; loc = mkloc st line col pos }
          | None -> { Datum.d = Datum.Atom (Datum.Sym (Symbol.canon text)); loc = mkloc st line col pos })

(* -- entry points -------------------------------------------------------- *)

(** Read a single datum from [src]; raises {!Error} on malformed input,
    returns [None] on (whitespace-only) empty input. *)
let read_one ?file src =
  let st = make_state ?file src in
  read_datum st

module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

(* Run [k] on [st] as one accounted read: a [read] span, and the datums
   [k] returns the count of and the bytes [st] moved over counted. *)
let accounted ?file st k =
  Trace.span "read" ?detail:file @@ fun () ->
  Metrics.count "reader.reads";
  let start = st.pos in
  let r, n = k st in
  if Metrics.installed () then begin
    Metrics.countn "reader.datums" n;
    Metrics.countn "reader.bytes" (st.pos - start)
  end;
  r

(* Run [k] with [src]'s reader state and a function that reads its next
   datum on each call ([None] at the end), as one accounted read. *)
let cursor ?file src k =
  accounted ?file (make_state ?file src) @@ fun st ->
  let n = ref 0 in
  let r =
    k st (fun () ->
        let d = read_datum st in
        if Option.is_some d then incr n;
        d)
  in
  (r, !n)

(** Read all datums from [src]. *)
let read_all ?file src =
  cursor ?file src @@ fun _ next ->
  let rec go acc = match next () with None -> List.rev acc | Some d -> go (d :: acc) in
  go []

(** Read one datum from byte [pos] of [src], with or without locations,
    up to [stop] if given; see the interface. *)
let read_range ?file ?at ?stop src ~pos =
  let st =
    match at with
    | Some (line, col) -> make_state ?file ~pos ?limit:stop ~line ~col src
    | None -> make_state ?file ~located:false ~pos ?limit:stop src
  in
  accounted ?file st @@ fun st ->
  let d = read_datum_exn st in
  if Option.is_some stop then begin
    skip_atmosphere st;
    if not (eof st) then err st "more than one datum in the range"
  end;
  ((d, st.pos), 1)

(** Read all datums from [src] with {e datum-level resynchronization}: on a
    parse error, record it (message × location), skip forward to the next
    plausible top-level datum start, and keep reading — so one pass over a
    file surfaces {e all} of its parse errors, not just the first.  Returns
    the datums that did parse and the errors in source order.  Progress is
    guaranteed (each recovery consumes at least one character) and the
    error list is capped at [max_errors]. *)
let read_all_recovering ?file ?(max_errors = 25) src =
  cursor ?file src @@ fun st next ->
  (* Resynchronize: consume at least one character, then skip to the next
     whitespace or open-paren boundary, where a fresh datum plausibly
     starts.  An erroneous close paren at that point errors again, but each
     round still advances, so the loop terminates. *)
  let rec resync () =
    if not (eof st) then begin
      advance st;
      match peek st with ' ' | '\t' | '\n' | '\r' | '(' | '[' -> () | _ -> resync ()
    end
  in
  let rec go datums errors n_errors =
    if n_errors >= max_errors then (datums, errors)
    else
      match next () with
      | Some d -> go (d :: datums) errors n_errors
      | None -> (datums, errors)
      | exception Error (msg, loc) ->
          resync ();
          go datums ((msg, loc) :: errors) (n_errors + 1)
  in
  let datums, errors = go [] [] 0 in
  if errors <> [] && Metrics.installed () then
    Metrics.countn "reader.parse_errors" (List.length errors);
  (List.rev datums, List.rev errors)

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
