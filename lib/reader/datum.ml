(** Raw read-time data: the output of the reader, before lexical context is
    attached.  Mirrors Racket's notion of a datum.  Numbers follow the
    three-level tower this runtime implements: fixnums, flonums, and
    float-complex.  (Racket's exact rationals and bignums are out of scope;
    see DESIGN.md.) *)

type atom =
  | Sym of string
  | Int of int
  | Float of float
  | Cpx of float * float  (** float-complex: real, imaginary *)
  | Bool of bool
  | Str of string
  | Char of char

type t =
  | Atom of atom
  | List of annot list
  | DotList of annot list * annot  (** improper list; first list is nonempty *)
  | Vec of annot list

and annot = { d : t; loc : Srcloc.t }

let atom ?(loc = Srcloc.none) a = { d = Atom a; loc }
let sym ?loc s = atom ?loc (Sym s)
let int ?loc n = atom ?loc (Int n)
let float ?loc f = atom ?loc (Float f)
let bool ?loc b = atom ?loc (Bool b)
let str ?loc s = atom ?loc (Str s)
let list ?(loc = Srcloc.none) xs = { d = List xs; loc }

let is_sym name a = match a.d with Atom (Sym s) -> String.equal s name | _ -> false

(* -- external syntax shared with the reader ------------------------------- *)

(** Characters that end a token. *)
let is_delimiter c =
  match c with
  | '(' | ')' | '[' | ']' | '"' | ';' | '\000' -> true
  | c -> c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Every number token starts with one of these; any other token is a
   symbol without trying [int_of_string]/[float_of_string] on it. *)
let can_start_number c = match c with '0' .. '9' | '+' | '-' | '.' -> true | _ -> false

let is_digit c = c >= '0' && c <= '9'

(* A possibly signed real written as text: "3", "3.5", "1e3", "+inf.0",
   "-nan.0", ".5", as an [Int] or [Float] atom.  [None] if [s] is not
   real-number syntax. *)
let parse_real s : atom option =
  match s with
  | "+inf.0" -> Some (Float Float.infinity)
  | "-inf.0" -> Some (Float Float.neg_infinity)
  | "+nan.0" | "-nan.0" -> Some (Float Float.nan)
  | _ when not (String.exists is_digit s) -> None
  | _ -> (
      match int_of_string s with
      | n -> Some (Int n)
      | exception Failure _ ->
          (* Reject things float_of_string accepts but Scheme doesn't, like
             "0x1" or "infinity"; require digits-and-[.eE+-] only. *)
          if String.for_all (fun c -> is_digit c || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-') s
          then Option.map (fun f -> Float f) (float_of_string_opt s)
          else None)

(** Recognize number syntax in a token ([None] = not a number), including
    "<real><signed-real>i" float-complex syntax such as [2.0+3.5i],
    [-1e2-0.5i] and [+2.0i].  The reader classifies tokens with it, the
    printer quotes symbols that it would misread, and [string->number]
    parses with it. *)
let parse_number s : atom option =
  let n = String.length s in
  if n = 0 || not (can_start_number s.[0]) then None
  else if s.[n - 1] = 'i' || s.[n - 1] = 'I' then begin
    let body = String.sub s 0 (n - 1) in
    (* find the sign that splits real and imaginary parts: the last '+' or '-'
       that is not part of an exponent and not at position 0 *)
    let split = ref (-1) in
    String.iteri
      (fun i c ->
        if (c = '+' || c = '-') && i > 0 && s.[i - 1] <> 'e' && s.[i - 1] <> 'E' then split := i)
      body;
    let to_float = function Int n -> float_of_int n | Float f -> f | _ -> Float.nan in
    if !split = -1 then
      (* pure imaginary: "+2.0i", "-i"-style not supported without digits *)
      match parse_real body with
      | Some r when body.[0] = '+' || body.[0] = '-' -> Some (Cpx (0., to_float r))
      | _ -> None
    else
      let re_s = String.sub body 0 !split in
      let im_s = String.sub body !split (String.length body - !split) in
      let im_s = if im_s = "+" then "1" else if im_s = "-" then "-1" else im_s in
      match (parse_real re_s, parse_real im_s) with
      | Some re, Some im -> Some (Cpx (to_float re, to_float im))
      | _ -> None
  end
  else parse_real s

(** Does the reader read [s], written bare, back as the symbol [s]?  Not if
    it is empty or the lone dot, contains a delimiter or [|], starts like
    a quotation or [#] reader syntax ([#%app] is an ordinary symbol), or
    reads as a number. *)
let symbol_reads_bare s =
  String.length s > 0
  && (not (String.equal s "."))
  && (match s.[0] with
     | '\'' | '`' | ',' -> false
     | '#' -> String.length s > 1 && s.[1] = '%'
     | _ -> true)
  && String.for_all (fun c -> not (is_delimiter c || c = '|')) s
  && parse_number s = None

(* -- printing --------------------------------------------------------------

   Everything prints into one [Buffer], so printing is linear in the
   output however deeply the datum nests. *)

(* Float printing that round-trips and always shows a decimal point or
   exponent, Scheme-style. *)
let float_to_string f =
  if Float.is_nan f then "+nan.0"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else if f = Float.infinity then "+inf.0"
  else if f = Float.neg_infinity then "-inf.0"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let add_escaped_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* A symbol that would not read back bare is written in Racket's [|...|]
   form, with [|] and [\] backslash-escaped. *)
let add_symbol buf s =
  if symbol_reads_bare s then Buffer.add_string buf s
  else begin
    Buffer.add_char buf '|';
    String.iter
      (fun c ->
        if c = '|' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.add_char buf '|'
  end

let add_char_literal buf c =
  match c with
  | ' ' -> Buffer.add_string buf "#\\space"
  | '\n' -> Buffer.add_string buf "#\\newline"
  | '\t' -> Buffer.add_string buf "#\\tab"
  | '\r' -> Buffer.add_string buf "#\\return"
  | '\000' -> Buffer.add_string buf "#\\nul"
  | c ->
      Buffer.add_string buf "#\\";
      Buffer.add_char buf c

let add_cpx buf re im =
  let ims = float_to_string im in
  Buffer.add_string buf (float_to_string re);
  if not (String.length ims > 0 && (ims.[0] = '-' || ims.[0] = '+')) then Buffer.add_char buf '+';
  Buffer.add_string buf ims;
  Buffer.add_char buf 'i'

let add_atom buf = function
  | Sym s -> add_symbol buf s
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Cpx (re, im) -> add_cpx buf re im
  | Bool b -> Buffer.add_string buf (if b then "#t" else "#f")
  | Str s -> add_escaped_string buf s
  | Char c -> add_char_literal buf c

(** Append [d]'s external representation to [buf]. *)
let rec to_buffer buf d =
  match d with
  | Atom a -> add_atom buf a
  | List [ { d = Atom (Sym "quote"); _ }; x ] -> prefixed buf "'" x
  | List [ { d = Atom (Sym "quasiquote"); _ }; x ] -> prefixed buf "`" x
  | List [ { d = Atom (Sym "unquote"); _ }; x ] -> prefixed buf "," x
  | List [ { d = Atom (Sym "unquote-splicing"); _ }; x ] -> prefixed buf ",@" x
  | List xs ->
      Buffer.add_char buf '(';
      add_seq buf xs;
      Buffer.add_char buf ')'
  | DotList (xs, tl) ->
      Buffer.add_char buf '(';
      add_seq buf xs;
      Buffer.add_string buf " . ";
      to_buffer buf tl.d;
      Buffer.add_char buf ')'
  | Vec xs ->
      Buffer.add_string buf "#(";
      add_seq buf xs;
      Buffer.add_char buf ')'

and prefixed buf p x =
  Buffer.add_string buf p;
  to_buffer buf x.d

and add_seq buf = function
  | [] -> ()
  | x :: rest ->
      to_buffer buf x.d;
      add_rest buf rest

and add_rest buf = function
  | [] -> ()
  | x :: rest ->
      Buffer.add_char buf ' ';
      to_buffer buf x.d;
      add_rest buf rest

let with_buffer add x =
  let buf = Buffer.create 64 in
  add buf x;
  Buffer.contents buf

let to_string d = with_buffer to_buffer d
let escape_string s = with_buffer add_escaped_string s
let char_to_string c = with_buffer add_char_literal c
let cpx_to_string re im = with_buffer (fun buf () -> add_cpx buf re im) ()
let pp fmt d = Format.pp_print_string fmt (to_string d)

let rec equal a b =
  match (a, b) with
  | Atom x, Atom y -> atom_equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 annot_equal xs ys
  | DotList (xs, xt), DotList (ys, yt) ->
      List.length xs = List.length ys
      && List.for_all2 annot_equal xs ys
      && annot_equal xt yt
  | Vec xs, Vec ys -> List.length xs = List.length ys && List.for_all2 annot_equal xs ys
  | _ -> false

and annot_equal a b = equal a.d b.d

and atom_equal x y =
  match (x, y) with
  | Sym a, Sym b -> String.equal a b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | Cpx (a, b), Cpx (c, d) -> Float.equal a c && Float.equal b d
  | Bool a, Bool b -> a = b
  | Str a, Str b -> String.equal a b
  | Char a, Char b -> a = b
  | _ -> false
