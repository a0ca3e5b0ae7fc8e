(** The S-expression reader: text -> located datums.

    Supports the notation used throughout the paper: lists, improper lists,
    vectors, booleans, characters, strings, fixnums (decimal / #x / #b /
    #o), flonums, float-complex literals such as [2.0+2.0i],
    [+inf.0] / [+nan.0], line comments [;], nestable block comments
    [#| |#], datum comments [#;], the quotation shorthands
    ['] [`] [,] [,@] [#'] [#`] [#,] [#,@], and [|...|] symbols such as
    [|a b|] and [|42|]. *)

exception Error of string * Srcloc.t

(** Read a single datum; [None] on (whitespace-only) empty input. *)
val read_one : ?file:string -> string -> Datum.annot option

(** Read all datums. *)
val read_all : ?file:string -> string -> Datum.annot list

(** Read all datums with datum-level error recovery: parse errors are
    collected (in source order, capped at [max_errors], default 25) and
    reading resynchronizes at the next plausible datum start, so one pass
    reports every parse error in the file.  Never raises {!Error}. *)
val read_all_recovering :
  ?file:string -> ?max_errors:int -> string -> Datum.annot list * (string * Srcloc.t) list

(** If the source starts with a [#lang <name>] line, return
    [Some (name, rest-of-source)]. *)
val split_lang_line : string -> (string * string) option
