(** Reader tests: datum syntax, locations, comments, error reporting. *)

open Liblang_core.Core
open Test_util

let read1 src =
  match Reader.read_one src with
  | Some a -> Datum.to_string a.Datum.d
  | None -> "<eof>"

let t name src expect =
  Alcotest.test_case name `Quick (fun () -> check_s name expect (read1 src))

let terr name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      match read1 src with
      | out -> Alcotest.failf "%s: expected reader error, got %s" name out
      | exception Reader.Error (m, _) ->
          if not (contains m fragment) then
            Alcotest.failf "%s: expected error containing %S, got %S" name fragment m)

let atoms =
  [
    t "fixnum" "42" "42";
    t "negative fixnum" "-17" "-17";
    t "explicit positive" "+17" "17";
    t "hex" "#x2a" "42";
    t "hex negative" "#x-2a" "-42";
    t "binary" "#b1010" "10";
    t "octal" "#o17" "15";
    t "decimal radix" "#d42" "42";
    t "flonum" "3.5" "3.5";
    t "flonum integral shows point" "3.0" "3.0";
    t "leading dot" ".5" "0.5";
    t "trailing dot" "5." "5.0";
    t "exponent" "1e3" "1000.0";
    t "negative exponent" "2.5e-2" "0.025";
    t "+inf.0" "+inf.0" "+inf.0";
    t "-inf.0" "-inf.0" "-inf.0";
    t "+nan.0" "+nan.0" "+nan.0";
    t "complex" "1.0+2.0i" "1.0+2.0i";
    t "complex negative imag" "1.0-2.0i" "1.0-2.0i";
    t "complex int parts" "1+2i" "1.0+2.0i";
    t "pure imaginary" "+2.0i" "0.0+2.0i";
    t "complex with exponents" "1e2+5e-1i" "100.0+0.5i";
    t "symbol" "foo" "foo";
    t "symbol with dashes" "list->vector" "list->vector";
    t "symbol +" "+" "+";
    t "symbol -" "-" "-";
    t "symbol ..." "..." "...";
    t "symbol 1+" "1+" "1+";
    t "hash-percent symbol" "#%app" "#%app";
    t "true" "#t" "#t";
    t "true long" "#true" "#t";
    t "false" "#f" "#f";
    t "string" {|"hello"|} {|"hello"|};
    t "string with escapes" {|"a\nb\t\"c\\"|} "\"a\\nb\\t\\\"c\\\\\"";
    t "char" "#\\a" "#\\a";
    t "char space" "#\\space" "#\\space";
    t "char newline" "#\\newline" "#\\newline";
    t "char tab" "#\\tab" "#\\tab";
    t "char open paren" "#\\(" "#\\(";
  ]

let lists =
  [
    t "empty list" "()" "()";
    t "flat list" "(1 2 3)" "(1 2 3)";
    t "nested" "(a (b (c)) d)" "(a (b (c)) d)";
    t "brackets" "[a b]" "(a b)";
    t "mixed brackets" "(let ([x 1]) x)" "(let ((x 1)) x)";
    t "dotted pair" "(a . b)" "(a . b)";
    t "dotted list" "(a b . c)" "(a b . c)";
    t "dotted collapse" "(a . (b c))" "(a b c)";
    t "dotted collapse nested" "(a . (b . (c . ())))" "(a b c)";
    t "vector" "#(1 2 3)" "#(1 2 3)";
    t "empty vector" "#()" "#()";
    t "quote sugar" "'x" "'x";
    t "quote list" "'(1 2)" "'(1 2)";
    t "quasiquote sugar" "`x" "`x";
    t "unquote sugar" ",x" ",x";
    t "unquote-splicing sugar" ",@x" ",@x";
    t "nested quotes" "''x" "''x";
    t "syntax quote" "#'x" "(syntax x)";
    t "quasisyntax" "#`x" "(quasisyntax x)";
    t "unsyntax" "#,x" "(unsyntax x)";
  ]

let comments =
  [
    t "line comment" "; hi\n42" "42";
    t "block comment" "#| hi |# 42" "42";
    t "nested block comment" "#| a #| b |# c |# 42" "42";
    t "datum comment" "#;(skipped) 42" "42";
    t "datum comment in list" "(1 #;2 3)" "(1 3)";
    t "comment between" "(1 ; x\n 2)" "(1 2)";
  ]

let errors =
  [
    terr "unterminated list" "(1 2" "unterminated";
    terr "unterminated string" {|"abc|} "unterminated string";
    terr "stray close" ")" "close paren";
    terr "unterminated block comment" "#| hi" "unterminated block comment";
    terr "bad boolean" "#tx" "bad boolean";
    terr "dotted head" "(. x)" "dotted";
    terr "bad radix" "#xZZ" "bad radix";
    terr "unknown hash" "#armadillo" "unknown reader syntax";
  ]

let multiple =
  [
    Alcotest.test_case "read_all counts" `Quick (fun () ->
        check_i "count" 3 (List.length (Reader.read_all "1 (2 3) four")));
    Alcotest.test_case "read_all empty" `Quick (fun () ->
        check_i "count" 0 (List.length (Reader.read_all "  ; nothing\n")));
    Alcotest.test_case "locations" `Quick (fun () ->
        match Reader.read_all ~file:"f.rkt" "x\n  yy" with
        | [ a; b ] ->
            check_i "line a" 1 a.Datum.loc.Srcloc.line;
            check_i "line b" 2 b.Datum.loc.Srcloc.line;
            check_i "col b" 2 b.Datum.loc.Srcloc.col;
            check_i "span b" 2 b.Datum.loc.Srcloc.span
        | _ -> Alcotest.fail "expected 2 datums");
    Alcotest.test_case "#lang line split" `Quick (fun () ->
        match Reader.split_lang_line "#lang racket\n(+ 1 2)" with
        | Some ("racket", rest) -> check_i "rest datums" 1 (List.length (Reader.read_all rest))
        | _ -> Alcotest.fail "expected #lang split");
    Alcotest.test_case "#lang with slash" `Quick (fun () ->
        match Reader.split_lang_line "#lang typed/racket\n" with
        | Some ("typed/racket", _) -> ()
        | _ -> Alcotest.fail "expected typed/racket");
    Alcotest.test_case "no #lang line" `Quick (fun () ->
        check_b "none" true (Reader.split_lang_line "(display 1)" = None));
    Alcotest.test_case "float round-trip" `Quick (fun () ->
        List.iter
          (fun f ->
            let s = Datum.float_to_string f in
            match Datum.parse_number s with
            | Some (Datum.Float f') ->
                check_b (Printf.sprintf "%s round-trips" s) true (Float.equal f f')
            | _ -> Alcotest.failf "%s did not parse as float" s)
          [ 0.1; 1.5; -3.25; 1e100; 1e-100; 0.30000000000000004; Float.pi ]);
  ]

(* -- tokens that look almost like numbers ----------------------------------------

   Each reads to the atom it always has: the number parser runs only on
   tokens whose first character can start a number, and that shortcut
   must not reclassify anything. *)

let tricky_tokens =
  [
    ("1_000", Datum.Int 1000);
    ("e1", Datum.Sym "e1");
    ("+i", Datum.Sym "+i");
    ("-nan.0", Datum.Float Float.nan);
    ("1e+16", Datum.Float 1e16);
    (".", Datum.Sym ".");
    ("...", Datum.Sym "...");
    ("+", Datum.Sym "+");
    ("-", Datum.Sym "-");
    ("0x1F", Datum.Int 31);
    ("2.0+3.5i", Datum.Cpx (2.0, 3.5));
  ]

let tricky =
  List.map
    (fun (src, want) ->
      Alcotest.test_case ("token " ^ src) `Quick (fun () ->
          match Reader.read_one src with
          | Some { Datum.d = Datum.Atom got; _ } ->
              check_b (src ^ " reads as before") true (Datum.atom_equal want got)
          | _ -> Alcotest.failf "%s: expected an atom" src))
    tricky_tokens

(* -- symbols that do not read back bare ------------------------------------------ *)

let sym_case name text printed =
  Alcotest.test_case name `Quick (fun () ->
      check_s (name ^ ": printed") printed (Datum.to_string (Datum.Atom (Datum.Sym text)));
      match Reader.read_all printed with
      | [ { Datum.d = Datum.Atom (Datum.Sym back); _ } ] -> check_s (name ^ ": read back") text back
      | _ -> Alcotest.failf "%s: %s did not read back as one symbol" name printed)

let bars =
  [
    sym_case "bare symbol stays bare" "list->vector" "list->vector";
    sym_case "#% symbol stays bare" "#%app" "#%app";
    sym_case "number-like symbol" "42" "|42|";
    sym_case "symbol with a space" "a b" "|a b|";
    sym_case "empty symbol" "" "||";
    sym_case "lone dot symbol" "." "|.|";
    sym_case "hash symbol" "#t" "|#t|";
    sym_case "quote-like symbol" "'x" "|'x|";
    sym_case "bar and backslash escaped" "a|b\\c" "|a\\|b\\\\c|";
    t "bars inside a token" "a|b c|d" "|ab cd|";
    Alcotest.test_case "bars in a list" `Quick (fun () ->
        match Reader.read_one "(|x y| z)" with
        | Some { Datum.d = Datum.List [ a; b ]; _ } ->
            check_b "two symbols" true (Datum.is_sym "x y" a && Datum.is_sym "z" b)
        | _ -> Alcotest.fail "expected a two-element list");
    terr "unterminated bars" "|abc" "unterminated";
  ]

(* -- printing cost ------------------------------------------------------------------ *)

(* Words [f] allocates, minor and major (a minor collection first, so
   every promoted word was allocated by [f]). *)
let allocated_words f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let deep_printing () =
  let d = ref (Datum.sym "x") in
  for _ = 1 to 5000 do
    d := Datum.list [ !d ]
  done;
  let text, words = allocated_words (fun () -> Datum.to_string !d.Datum.d) in
  check_i "output length" 10001 (String.length text);
  (* one buffer: about half a word per output byte; copying the text at
     each of the 5000 levels would take about 9.5M words *)
  check_b
    (Printf.sprintf "printed %d bytes in %.0f words (<= 2 per byte)" (String.length text) words)
    true
    (words <= 2. *. float_of_int (String.length text))

(* -- print then read ------------------------------------------------------------------ *)

module Q = QCheck

(* Symbol text drawn to hit every reason a symbol might not read back:
   delimiters, bars, backslashes, quote and hash prefixes, the dot, and
   number syntax; plus arbitrary bytes. *)
let gen_symbol_text =
  let tricky_chars = "ab09+-.eEi#%|\\ ()[]\";'`,@\t\n\r\000" in
  Q.Gen.oneof
    [
      Q.Gen.string_size ~gen:(Q.Gen.oneofl (List.of_seq (String.to_seq tricky_chars))) (Q.Gen.int_bound 6);
      Q.Gen.string_size ~gen:Q.Gen.char (Q.Gen.int_bound 8);
      Q.Gen.oneofl
        ([ ""; "a b"; "|"; "\\"; "quote"; "#%app"; "#t"; "1+"; "..." ] @ List.map fst tricky_tokens);
    ]

let gen_atom =
  Q.Gen.oneof
    [
      Q.Gen.map (fun s -> Datum.Sym s) gen_symbol_text;
      Q.Gen.map (fun n -> Datum.Int n) Q.Gen.int;
      Q.Gen.map (fun f -> Datum.Float f) Q.Gen.float;
      Q.Gen.map2 (fun re im -> Datum.Cpx (re, im)) Q.Gen.float Q.Gen.float;
      Q.Gen.map (fun b -> Datum.Bool b) Q.Gen.bool;
      Q.Gen.map (fun s -> Datum.Str s) Q.Gen.string;
      Q.Gen.map (fun c -> Datum.Char c) Q.Gen.char;
    ]

let gen_datum =
  let annot d = { Datum.d; loc = Srcloc.none } in
  Q.Gen.sized
    (Q.Gen.fix (fun self size ->
         let atom = Q.Gen.map (fun a -> Datum.Atom a) gen_atom in
         if size <= 1 then atom
         else
           let items n = Q.Gen.list_size (Q.Gen.int_bound n) (Q.Gen.map annot (self (size / 2))) in
           Q.Gen.oneof
             [
               atom;
               Q.Gen.map (fun xs -> Datum.List xs) (items 4);
               Q.Gen.map (fun xs -> Datum.Vec xs) (items 3);
               Q.Gen.map (fun x -> Datum.List [ annot (Datum.Atom (Datum.Sym "quote")); annot x ]) (self (size / 2));
               (* a list or dotted tail would read back flattened *)
               Q.Gen.map2
                 (fun x tl -> Datum.DotList (annot x :: [], annot tl))
                 (self (size / 2)) atom;
             ]))

let print_read_identity =
  Q.Test.make ~count:500 ~name:"print then read is identity (random symbol text)"
    (Q.make ~print:Datum.to_string gen_datum) (fun d ->
      match Reader.read_all (Datum.to_string d) with
      | [ d' ] -> Datum.equal d d'.Datum.d
      | _ -> false)

let suite =
  atoms @ lists @ comments @ errors @ multiple @ tricky @ bars
  @ [
      Alcotest.test_case "printing a 5000-deep list is linear" `Quick deep_printing;
      QCheck_alcotest.to_alcotest print_read_identity;
    ]
