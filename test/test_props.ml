(** Property-based tests (qcheck): reader round-trips, hygiene under
    α-renaming, subtyping laws, optimizer semantic preservation on random
    well-typed float programs, and contract transparency. *)

open Liblang_core.Core
open Test_util
module T = Types
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* -- generators ----------------------------------------------------------- *)

let gen_atom_datum =
  Q.Gen.oneof
    [
      Q.Gen.map (fun n -> Datum.Atom (Datum.Int n)) Q.Gen.small_signed_int;
      Q.Gen.map (fun f -> Datum.Atom (Datum.Float f)) (Q.Gen.float_bound_inclusive 1000.);
      Q.Gen.map (fun b -> Datum.Atom (Datum.Bool b)) Q.Gen.bool;
      Q.Gen.map
        (fun s -> Datum.Atom (Datum.Sym ("s" ^ string_of_int (abs s))))
        Q.Gen.small_signed_int;
      Q.Gen.map (fun s -> Datum.Atom (Datum.Str s)) Q.Gen.small_string;
      Q.Gen.return (Datum.Atom (Datum.Char 'x'));
    ]

let annot d = { Datum.d; loc = Srcloc.none }

let gen_datum =
  Q.Gen.sized (fun size ->
      Q.Gen.fix
        (fun self size ->
          if size <= 1 then gen_atom_datum
          else
            Q.Gen.oneof
              [
                gen_atom_datum;
                Q.Gen.map
                  (fun xs -> Datum.List (List.map annot xs))
                  (Q.Gen.list_size (Q.Gen.int_bound 4) (self (size / 2)));
                Q.Gen.map
                  (fun xs -> Datum.Vec (List.map annot xs))
                  (Q.Gen.list_size (Q.Gen.int_bound 3) (self (size / 2)));
              ])
        (min size 12))

let arb_datum = Q.make ~print:Datum.to_string gen_datum

let gen_type =
  Q.Gen.sized (fun size ->
      Q.Gen.fix
        (fun self size ->
          let base =
            Q.Gen.oneofl
              [
                T.Integer; T.Float; T.FloatComplex; T.Real; T.Number; T.Boolean; T.String_;
                T.Symbol; T.Char_; T.Void_; T.Null; T.Any;
              ]
          in
          if size <= 1 then base
          else
            Q.Gen.oneof
              [
                base;
                Q.Gen.map (fun t -> T.Listof t) (self (size / 2));
                Q.Gen.map2 (fun a b -> T.Pairof (a, b)) (self (size / 2)) (self (size / 2));
                Q.Gen.map (fun t -> T.Vectorof t) (self (size / 2));
                Q.Gen.map2 (fun a b -> T.Fun ([ a ], b)) (self (size / 2)) (self (size / 2));
                Q.Gen.map2 (fun a b -> T.Union [ a; b ]) (self (size / 2)) (self (size / 2));
                Q.Gen.map (fun ts -> T.ListT ts) (Q.Gen.list_size (Q.Gen.int_bound 3) (self (size / 3)));
              ])
        (min size 10))

let arb_type = Q.make ~print:T.to_string gen_type

(* -- reader properties ------------------------------------------------------ *)

let reader_roundtrip =
  Q.Test.make ~name:"reader: print then parse is identity" ~count:300 arb_datum (fun d ->
      match Reader.read_one (Datum.to_string d) with
      | Some d' -> Datum.equal d d'.Datum.d
      | None -> false)

let value_roundtrip =
  Q.Test.make ~name:"value: datum->value->datum is identity" ~count:300 arb_datum (fun d ->
      Datum.equal d (Value.to_datum (Value.of_datum d)))

let quote_evaluates_to_itself =
  Q.Test.make ~name:"eval: quoted datum evaluates to itself" ~count:150 arb_datum (fun d ->
      let src = "(quote " ^ Datum.to_string d ^ ")" in
      Value.equal_values (eval_expr src) (Value.of_datum d))

(* -- subtyping laws ----------------------------------------------------------- *)

let subtype_reflexive =
  Q.Test.make ~name:"subtype: reflexive" ~count:300 arb_type (fun t -> T.subtype t t)

let subtype_top =
  Q.Test.make ~name:"subtype: Any is top" ~count:300 arb_type (fun t -> T.subtype t T.Any)

(* The dynamic type Any deliberately breaks transitivity (every type flows
   into and out of it); the law holds for chains that avoid it. *)
let rec mentions_any = function
  | T.Any -> true
  | T.Listof t | T.Vectorof t -> mentions_any t
  | T.Pairof (a, b) -> mentions_any a || mentions_any b
  | T.ListT ts | T.Union ts -> List.exists mentions_any ts
  | T.Fun (ds, r) -> List.exists mentions_any ds || mentions_any r
  | _ -> false

let subtype_transitive =
  Q.Test.make ~name:"subtype: transitive (chains avoiding the dynamic type)" ~count:500
    (Q.triple arb_type arb_type arb_type) (fun (a, b, c) ->
      mentions_any b || (not (T.subtype a b && T.subtype b c)) || T.subtype a c)

let join_upper_bound =
  Q.Test.make ~name:"join: upper bound of both sides" ~count:300 (Q.pair arb_type arb_type)
    (fun (a, b) ->
      let j = T.join a b in
      T.subtype a j && T.subtype b j)

let serialization_roundtrip =
  Q.Test.make ~name:"types: serialize round-trips" ~count:300 arb_type (fun t ->
      T.equal t (T.of_datum (T.to_datum t)))

(* -- hygiene under user α-renaming --------------------------------------------- *)

(* A macro using temporary [t] must behave identically whatever the user
   names their own variable. *)
let hygiene_alpha =
  Q.Test.make ~name:"hygiene: user variable name never matters" ~count:50
    (Q.make ~print:(fun s -> s)
       (Q.Gen.oneofl [ "t"; "tmp"; "x"; "v"; "e"; "a"; "b"; "q"; "zz" ]))
    (fun name ->
      let prog =
        Printf.sprintf
          "#lang racket\n\
           (define-syntax-rule (my-or a b) (let ([t a]) (if t t b)))\n\
           (define %s 42)\n\
           (display (my-or #f %s))"
          name name
      in
      run prog = "42")

(* -- optimizer preservation on random float expressions ------------------------- *)

(* Random arithmetic over float variables x, y and literals; the typed
   (optimized) program must print exactly what the untyped one prints. *)
let gen_float_expr =
  Q.Gen.sized (fun size ->
      Q.Gen.fix
        (fun self size ->
          (* a tagged leaf displays its tag before returning its operand,
             so the printed tags pin the operands' evaluation order *)
          let leaf =
            Q.Gen.oneof
              [
                Q.Gen.return "x";
                Q.Gen.return "y";
                Q.Gen.map (Printf.sprintf "%.3f") (Q.Gen.float_bound_inclusive 10.);
                Q.Gen.map2
                  (Printf.sprintf "(begin (display %d) %s)")
                  (Q.Gen.int_bound 9) (Q.Gen.oneofl [ "x"; "y" ]);
              ]
          in
          if size <= 1 then leaf
          else
            Q.Gen.oneof
              [
                leaf;
                Q.Gen.map2 (Printf.sprintf "(+ %s %s)") (self (size / 2)) (self (size / 2));
                Q.Gen.map2 (Printf.sprintf "(- %s %s)") (self (size / 2)) (self (size / 2));
                Q.Gen.map2 (Printf.sprintf "(* %s %s)") (self (size / 2)) (self (size / 2));
                Q.Gen.map (Printf.sprintf "(abs %s)") (self (size - 1));
                Q.Gen.map (Printf.sprintf "(min %s 5.0)") (self (size - 1));
                Q.Gen.map2 (Printf.sprintf "(if (< %s %s) 1.0 2.0)") (self (size / 2))
                  (self (size / 2));
              ])
        (min size 10))

let optimizer_preserves =
  Q.Test.make ~name:"optimizer: typed twin agrees on random float programs" ~count:60
    (Q.make ~print:(fun e -> e) gen_float_expr)
    (fun expr ->
      let untyped =
        Printf.sprintf "#lang racket\n(define (f x y) %s)\n(display (f 1.25 -2.5))" expr
      in
      let typed =
        Printf.sprintf
          "#lang typed/racket\n(define (f [x : Float] [y : Float]) : Float %s)\n(display (f 1.25 -2.5))"
          expr
      in
      run untyped = run typed)

(* -- contract transparency -------------------------------------------------------- *)

let contract_transparent =
  Q.Test.make ~name:"contracts: conforming integers pass through unchanged" ~count:200
    Q.small_signed_int (fun n ->
      Contracts.project Contracts.integer_c (Value.Int n) ~pos:"p" ~neg:"n" = Value.Int n)

let arrow_transparent =
  Q.Test.make ~name:"contracts: wrapped function agrees on conforming inputs" ~count:100
    Q.small_signed_int (fun n ->
      let f = Value.prim "triple" (function [ Value.Int x ] -> Value.Int (3 * x) | _ -> Value.Nil) in
      let wrapped =
        Contracts.project
          (Contracts.arrow [ Contracts.integer_c ] Contracts.integer_c)
          f ~pos:"p" ~neg:"n"
      in
      Interp.apply1 wrapped (Value.Int n) = Value.Int (3 * n))

(* -- numeric tower vs OCaml floats -------------------------------------------------- *)

let generic_add_matches_ocaml =
  Q.Test.make ~name:"numeric: generic float ops match OCaml's" ~count:300
    (Q.pair (Q.float_range (-1e6) 1e6) (Q.float_range (-1e6) 1e6))
    (fun (a, b) ->
      Numeric.add (Value.Float a) (Value.Float b) = Value.Float (a +. b)
      && Numeric.mul (Value.Float a) (Value.Float b) = Value.Float (a *. b)
      && Numeric.lt (Value.Float a) (Value.Float b) = (a < b))

let complex_mul_matches =
  Q.Test.make ~name:"numeric: complex multiplication is correct" ~count:300
    (Q.pair (Q.pair (Q.float_range (-100.) 100.) (Q.float_range (-100.) 100.))
       (Q.pair (Q.float_range (-100.) 100.) (Q.float_range (-100.) 100.)))
    (fun ((ar, ai), (br, bi)) ->
      match Numeric.mul (Value.Cpx (ar, ai)) (Value.Cpx (br, bi)) with
      | Value.Cpx (re, im) ->
          Float.equal re ((ar *. br) -. (ai *. bi)) && Float.equal im ((ar *. bi) +. (ai *. br))
      | _ -> false)

let suite =
  List.map to_alcotest
    [
      reader_roundtrip;
      value_roundtrip;
      quote_evaluates_to_itself;
      subtype_reflexive;
      subtype_top;
      subtype_transitive;
      join_upper_bound;
      serialization_roundtrip;
      hygiene_alpha;
      optimizer_preserves;
      contract_transparent;
      arrow_transparent;
      generic_add_matches_ocaml;
      complex_mul_matches;
    ]
