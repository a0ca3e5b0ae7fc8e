(** The primitive procedures of the base language, including the unsafe
    type-specialized primitives the type-driven optimizer targets.

    [all] is the complete name → value table; the base language module
    exposes these as variable bindings.  Key operations also register
    arity-specialized fast paths with {!Interp} so that saturated calls to
    them compile to direct calls. *)

open Value

let bad_arity name n args =
  error "%s: arity mismatch: expects %d argument%s, given %d" name n
    (if n = 1 then "" else "s")
    (List.length args)

let p1 name f =
  prim name (function [ a ] -> f a | args -> bad_arity name 1 args)

let p2 name f =
  prim name (function [ a; b ] -> f a b | args -> bad_arity name 2 args)

let p3 name f =
  prim name (function [ a; b; c ] -> f a b c | args -> bad_arity name 3 args)

let pred name f = p1 name (fun v -> Bool (f v))

let int_arg name = function Int n -> n | v -> error "%s: expects a fixnum, given %s" name (write_string v)
let str_arg name = function Str s -> s | v -> error "%s: expects a string, given %s" name (write_string v)
let char_arg name = function Char c -> c | v -> error "%s: expects a character, given %s" name (write_string v)
let vec_arg name = function Vec v -> v | v -> error "%s: expects a vector, given %s" name (write_string v)
let sym_arg name = function Sym s -> s | v -> error "%s: expects a symbol, given %s" name (write_string v)

let stx_arg name = function
  | StxV s -> s
  | v -> error "%s: expects a syntax object, given %s" name (write_string v)

(* -- numeric ---------------------------------------------------------------- *)

let fold_num name two init = function
  | [] -> init
  | [ v ] -> ( match name with "-" -> Numeric.neg v | "/" -> Numeric.div (Int 1) v | _ -> two init v)
  | v :: rest -> List.fold_left two v rest

let chain_cmp name two =
  prim name (fun args ->
      let rec go = function
        | a :: (b :: _ as rest) -> two a b && go rest
        | _ -> true
      in
      match args with
      | [] -> error "%s: expects at least 1 argument" name
      | [ v ] ->
          if Numeric.is_number v then Bool true
          else error "%s: expects real numbers, given %s" name (write_string v)
      | _ -> Bool (go args))

let numeric_prims =
  [
    prim "+" (fun args -> fold_num "+" Numeric.add (Int 0) args);
    prim "*" (fun args -> fold_num "*" Numeric.mul (Int 1) args);
    prim "-" (function
      | [] -> error "-: expects at least 1 argument"
      | args -> fold_num "-" Numeric.sub (Int 0) args);
    prim "/" (function
      | [] -> error "/: expects at least 1 argument"
      | args -> fold_num "/" Numeric.div (Int 1) args);
    chain_cmp "<" Numeric.lt;
    chain_cmp ">" Numeric.gt;
    chain_cmp "<=" Numeric.le;
    chain_cmp ">=" Numeric.ge;
    chain_cmp "=" Numeric.num_eq;
    p2 "quotient" Numeric.quotient;
    p2 "remainder" Numeric.remainder;
    p2 "modulo" Numeric.modulo;
    p2 "gcd" Numeric.gcd_;
    p2 "expt" Numeric.expt;
    p1 "abs" Numeric.abs_;
    p1 "add1" Numeric.add1;
    p1 "sub1" Numeric.sub1;
    p1 "sqrt" Numeric.sqrt_;
    p1 "sin" (Numeric.float_fun "sin" sin);
    p1 "cos" (Numeric.float_fun "cos" cos);
    p1 "tan" (Numeric.float_fun "tan" tan);
    p1 "asin" (Numeric.float_fun "asin" asin);
    p1 "acos" (Numeric.float_fun "acos" acos);
    p1 "exp" (Numeric.float_fun "exp" exp);
    p1 "log" (Numeric.float_fun "log" log);
    prim "atan" (function
      | [ v ] -> Numeric.float_fun "atan" atan v
      | [ a; b ] -> Float (Float.atan2 (Numeric.to_float "atan" a) (Numeric.to_float "atan" b))
      | args -> bad_arity "atan" 1 args);
    p1 "magnitude" Numeric.magnitude;
    p1 "real-part" Numeric.real_part;
    p1 "imag-part" Numeric.imag_part;
    p2 "make-rectangular" Numeric.make_rectangular;
    p2 "make-polar" Numeric.make_polar;
    p1 "exact->inexact" Numeric.exact_to_inexact;
    p1 "inexact->exact" Numeric.inexact_to_exact;
    p1 "exact" Numeric.inexact_to_exact;
    p1 "floor" Numeric.floor_;
    p1 "ceiling" Numeric.ceiling_;
    p1 "truncate" Numeric.truncate_;
    p1 "round" Numeric.round_;
    prim "min" (function
      | [] -> error "min: expects at least 1 argument"
      | v :: rest -> List.fold_left Numeric.min_ v rest);
    prim "max" (function
      | [] -> error "max: expects at least 1 argument"
      | v :: rest -> List.fold_left Numeric.max_ v rest);
    pred "number?" Numeric.is_number;
    pred "integer?" Numeric.is_integer;
    pred "exact-integer?" Numeric.is_exact_integer;
    pred "fixnum?" Numeric.is_exact_integer;
    pred "flonum?" Numeric.is_flonum;
    pred "real?" Numeric.is_real;
    pred "complex?" Numeric.is_number;
    pred "zero?" Numeric.is_zero;
    pred "positive?" Numeric.is_positive;
    pred "negative?" Numeric.is_negative;
    pred "even?" Numeric.is_even;
    pred "odd?" Numeric.is_odd;
    p1 "exact->float" (fun v -> Float (Numeric.to_float "exact->float" v));
  ]

(* -- unsafe type-specialized primitives (§7.1) ------------------------------ *)

(* The operand reads of [Numeric] raise each off-type error with its one
   text; binary operations read the left operand first, so the error
   names the leftmost off-type one, as every other path does. *)
let fl2 f a b =
  match (a, b) with
  | Float x, Float y -> Float (f x y)
  | _ ->
      let x = Numeric.unsafe_fl a in
      Float (f x (Numeric.unsafe_fl b))

let flcmp f a b =
  match (a, b) with
  | Float x, Float y -> Bool (f x y)
  | _ ->
      let x = Numeric.unsafe_fl a in
      Bool (f x (Numeric.unsafe_fl b))

let fx_to_fl = function
  | Int n -> Float (float_of_int n)
  | Float _ as v -> v
  | v -> Float (Numeric.unsafe_fx_to_fl v)

let unsafe_car = function
  | Pair p -> p.car
  | v -> error "unsafe-car: expects a pair, given %s (undefined behavior off-type)" (write_string v)

let unsafe_cdr = function
  | Pair p -> p.cdr
  | v -> error "unsafe-cdr: expects a pair, given %s (undefined behavior off-type)" (write_string v)

let unsafe_fl2 name f = p2 name (fun a b -> fl2 f a b)
let unsafe_flcmp name f = p2 name (fun a b -> flcmp f a b)
let unsafe_fl1 name f = p1 name (fun a -> Float (f (Numeric.unsafe_fl a)))

let unsafe_fx2 name f =
  p2 name (fun a b ->
      match (a, b) with
      | Int x, Int y -> Int (f x y)
      | _ -> error "%s: expects fixnums (undefined behavior off-type)" name)

let unsafe_fxcmp name f =
  p2 name (fun a b ->
      match (a, b) with
      | Int x, Int y -> Bool (f x y)
      | _ -> error "%s: expects fixnums (undefined behavior off-type)" name)

let unsafe_c2 name f =
  p2 name (fun a b ->
      let ar, ai = Numeric.unsafe_cpx a in
      let br, bi = Numeric.unsafe_cpx b in
      let re, im = f ar ai br bi in
      Cpx (re, im))

let unsafe_prims =
  [
    unsafe_fl2 "unsafe-fl+" ( +. );
    unsafe_fl2 "unsafe-fl-" ( -. );
    unsafe_fl2 "unsafe-fl*" ( *. );
    unsafe_fl2 "unsafe-fl/" ( /. );
    unsafe_fl2 "unsafe-flmin" Float.min;
    unsafe_fl2 "unsafe-flmax" Float.max;
    unsafe_fl2 "unsafe-flexpt" Float.pow;
    unsafe_flcmp "unsafe-fl<" ( < );
    unsafe_flcmp "unsafe-fl>" ( > );
    unsafe_flcmp "unsafe-fl<=" ( <= );
    unsafe_flcmp "unsafe-fl>=" ( >= );
    unsafe_flcmp "unsafe-fl=" Float.equal;
    unsafe_fl1 "unsafe-flabs" Float.abs;
    unsafe_fl1 "unsafe-flsqrt" Float.sqrt;
    unsafe_fl1 "unsafe-flsin" sin;
    unsafe_fl1 "unsafe-flcos" cos;
    unsafe_fl1 "unsafe-fltan" tan;
    unsafe_fl1 "unsafe-flatan" atan;
    unsafe_fl1 "unsafe-flexp" exp;
    unsafe_fl1 "unsafe-fllog" log;
    unsafe_fl1 "unsafe-flfloor" Float.floor;
    unsafe_fl1 "unsafe-flceiling" Float.ceil;
    unsafe_fl1 "unsafe-flround" Numeric.round_half_even;
    unsafe_fl1 "unsafe-fltruncate" Float.trunc;
    unsafe_fx2 "unsafe-fx+" ( + );
    unsafe_fx2 "unsafe-fx-" ( - );
    unsafe_fx2 "unsafe-fx*" ( * );
    unsafe_fx2 "unsafe-fxquotient" ( / );
    unsafe_fx2 "unsafe-fxremainder" (fun a b -> a mod b);
    unsafe_fxcmp "unsafe-fx<" ( < );
    unsafe_fxcmp "unsafe-fx>" ( > );
    unsafe_fxcmp "unsafe-fx<=" ( <= );
    unsafe_fxcmp "unsafe-fx>=" ( >= );
    unsafe_fxcmp "unsafe-fx=" ( = );
    unsafe_c2 "unsafe-c+" (fun ar ai br bi -> (ar +. br, ai +. bi));
    unsafe_c2 "unsafe-c-" (fun ar ai br bi -> (ar -. br, ai -. bi));
    unsafe_c2 "unsafe-c*" (fun ar ai br bi ->
        ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)));
    unsafe_c2 "unsafe-c/" Numeric.cpx_div;
    p1 "unsafe-cneg" (fun a ->
        let re, im = Numeric.unsafe_cpx a in
        Cpx (-.re, -.im));
    p1 "unsafe-conjugate" (fun a ->
        let re, im = Numeric.unsafe_cpx a in
        Cpx (re, -.im));
    p1 "unsafe-magnitude" (fun a ->
        let re, im = Numeric.unsafe_cpx a in
        Float (Float.hypot re im));
    p1 "unsafe-real-part" (fun a -> Float (fst (Numeric.unsafe_cpx a)));
    p1 "unsafe-imag-part" (fun a -> Float (snd (Numeric.unsafe_cpx a)));
    p2 "unsafe-make-rectangular" (fun a b ->
        let re = Numeric.unsafe_fl a in
        Cpx (re, Numeric.unsafe_fl b));
    p1 "unsafe-fx->fl" fx_to_fl;
    p1 "unsafe-car" unsafe_car;
    p1 "unsafe-cdr" unsafe_cdr;
    p2 "unsafe-vector-ref" (fun v i ->
        match (v, i) with
        | Vec a, Int i -> Array.unsafe_get a i
        | _ -> error "unsafe-vector-ref: undefined behavior off-type");
    p3 "unsafe-vector-set!" (fun v i x ->
        match (v, i) with
        | Vec a, Int i ->
            Array.unsafe_set a i x;
            Void
        | _ -> error "unsafe-vector-set!: undefined behavior off-type");
    p1 "unsafe-vector-length" (fun v ->
        match v with Vec a -> Int (Array.length a) | _ -> error "unsafe-vector-length: undefined behavior off-type");
    (* like their unsafe- twins, but inserted by the flow analysis rather
       than written by the programmer — separate names so rewrite counters
       and the VecRefU/VecSetU opcodes attribute the elision correctly *)
    p2 "unchecked-vector-ref" (fun v i ->
        match (v, i) with
        | Vec a, Int i -> Array.unsafe_get a i
        | _ -> error "unchecked-vector-ref: undefined behavior off-type");
    p3 "unchecked-vector-set!" (fun v i x ->
        match (v, i) with
        | Vec a, Int i ->
            Array.unsafe_set a i x;
            Void
        | _ -> error "unchecked-vector-set!: undefined behavior off-type");
    p2 "unsafe-string-ref" (fun s i ->
        match (s, i) with
        | Str b, Int i -> Char (Bytes.unsafe_get b i)
        | _ -> error "unsafe-string-ref: undefined behavior off-type");
  ]

(* -- pairs and lists --------------------------------------------------------- *)

let car_v = function
  | Pair p -> p.car
  | v -> error "car: expects a pair, given %s" (write_string v)

let cdr_v = function
  | Pair p -> p.cdr
  | v -> error "cdr: expects a pair, given %s" (write_string v)

let rec list_length n = function
  | Nil -> n
  | Pair p -> list_length (n + 1) p.cdr
  | v -> error "length: expects a proper list, given tail %s" (write_string v)

let rec append2 a b =
  match a with
  | Nil -> b
  | Pair p -> cons p.car (append2 p.cdr b)
  | v -> error "append: expects a proper list, given tail %s" (write_string v)

let list_prims =
  [
    p2 "cons" cons;
    p1 "car" car_v;
    p1 "cdr" cdr_v;
    p1 "cadr" (fun v -> car_v (cdr_v v));
    p1 "caddr" (fun v -> car_v (cdr_v (cdr_v v)));
    p1 "cddr" (fun v -> cdr_v (cdr_v v));
    p1 "cdar" (fun v -> cdr_v (car_v v));
    p1 "caar" (fun v -> car_v (car_v v));
    p1 "first" car_v;
    p1 "rest" cdr_v;
    p1 "second" (fun v -> car_v (cdr_v v));
    p1 "third" (fun v -> car_v (cdr_v (cdr_v v)));
    p2 "set-car!" (fun p v ->
        match p with
        | Pair c ->
            c.car <- v;
            Void
        | v -> error "set-car!: expects a pair, given %s" (write_string v));
    p2 "set-cdr!" (fun p v ->
        match p with
        | Pair c ->
            c.cdr <- v;
            Void
        | v -> error "set-cdr!: expects a pair, given %s" (write_string v));
    prim "list" of_list;
    prim "list*" (fun args ->
        let rec go = function
          | [] -> error "list*: expects at least 1 argument"
          | [ v ] -> v
          | v :: rest -> cons v (go rest)
        in
        go args);
    pred "pair?" (function Pair _ -> true | _ -> false);
    pred "null?" (function Nil -> true | _ -> false);
    pred "empty?" (function Nil -> true | _ -> false);
    pred "list?" (fun v -> Option.is_some (to_list_opt v));
    p1 "length" (fun v -> Int (list_length 0 v));
    prim "append" (fun args ->
        let rec go = function
          | [] -> Nil
          | [ v ] -> v
          | v :: rest -> append2 v (go rest)
        in
        go args);
    p1 "reverse" (fun v ->
        let rec go acc = function
          | Nil -> acc
          | Pair p -> go (cons p.car acc) p.cdr
          | v -> error "reverse: expects a proper list, given tail %s" (write_string v)
        in
        go Nil v);
    p2 "list-ref" (fun l i ->
        let rec go l i =
          match l with
          | Pair p -> if i = 0 then p.car else go p.cdr (i - 1)
          | _ -> error "list-ref: index out of range"
        in
        go l (int_arg "list-ref" i));
    p2 "list-tail" (fun l i ->
        let rec go l i =
          if i = 0 then l
          else match l with Pair p -> go p.cdr (i - 1) | _ -> error "list-tail: index out of range"
        in
        go l (int_arg "list-tail" i));
    p2 "member" (fun x l ->
        let rec go = function
          | Nil -> Bool false
          | Pair p as v -> if equal_values x p.car then v else go p.cdr
          | _ -> error "member: expects a proper list"
        in
        go l);
    p2 "memq" (fun x l ->
        let rec go = function
          | Nil -> Bool false
          | Pair p as v -> if eqv x p.car then v else go p.cdr
          | _ -> error "memq: expects a proper list"
        in
        go l);
    p2 "assoc" (fun x l ->
        let rec go = function
          | Nil -> Bool false
          | Pair { car = Pair kv as entry; cdr } -> if equal_values x kv.car then entry else go cdr
          | _ -> error "assoc: expects a list of pairs"
        in
        go l);
    p2 "assq" (fun x l ->
        let rec go = function
          | Nil -> Bool false
          | Pair { car = Pair kv as entry; cdr } -> if eqv x kv.car then entry else go cdr
          | _ -> error "assq: expects a list of pairs"
        in
        go l);
    p2 "take" (fun l n ->
        let n = int_arg "take" n in
        let rec go l n =
          if n = 0 then Nil
          else
            match l with
            | Pair p -> cons p.car (go p.cdr (n - 1))
            | _ -> error "take: list too short"
        in
        go l n);
    p2 "drop" (fun l n ->
        let rec go l n =
          if n = 0 then l
          else match l with Pair p -> go p.cdr (n - 1) | _ -> error "drop: list too short"
        in
        go l (int_arg "drop" n));
    p2 "remove" (fun x l ->
        let rec go = function
          | Nil -> Nil
          | Pair p -> if equal_values x p.car then p.cdr else cons p.car (go p.cdr)
          | _ -> error "remove: expects a proper list"
        in
        go l);
    p2 "count" (fun f l ->
        Int (List.length (List.filter (fun x -> truthy (Interp.apply1 f x)) (to_list l))));
    p1 "flatten" (fun v ->
        let rec go acc = function
          | Nil -> acc
          | Pair p -> go (go acc p.cdr) p.car
          | x -> cons x acc
        in
        go Nil v);
    prim "range" (function
      | [ hi ] ->
          let hi = int_arg "range" hi in
          of_list (List.init (max 0 hi) (fun i -> Int i))
      | [ lo; hi ] ->
          let lo = int_arg "range" lo and hi = int_arg "range" hi in
          of_list (List.init (max 0 (hi - lo)) (fun i -> Int (lo + i)))
      | args -> bad_arity "range" 1 args);
    p1 "last-pair" (fun l ->
        let rec go = function
          | Pair ({ cdr = Pair _; _ } as p) -> go p.cdr
          | Pair _ as p -> p
          | _ -> error "last-pair: expects a nonempty list"
        in
        go l);
    p2 "memv" (fun x l ->
        let rec go = function
          | Nil -> Bool false
          | Pair p as v -> if eqv x p.car then v else go p.cdr
          | _ -> error "memv: expects a proper list"
        in
        go l);
    p1 "last" (fun l ->
        let rec go = function
          | Pair { car; cdr = Nil } -> car
          | Pair p -> go p.cdr
          | _ -> error "last: expects a nonempty proper list"
        in
        go l);
  ]

(* -- higher-order ------------------------------------------------------------- *)

let ho_prims =
  [
    prim "apply" (function
      | f :: args when args <> [] ->
          let rec split = function
            | [ tail ] -> to_list tail
            | a :: more -> a :: split more
            | [] -> assert false
          in
          Interp.apply f (split args)
      | _ -> error "apply: expects a procedure and arguments ending in a list");
    prim "map" (function
      | [ f; l ] -> of_list (List.map (fun x -> Interp.apply1 f x) (to_list l))
      | [ f; l1; l2 ] ->
          of_list (List.map2 (fun x y -> Interp.apply2 f x y) (to_list l1) (to_list l2))
      | args -> bad_arity "map" 2 args);
    prim "for-each" (function
      | [ f; l ] ->
          List.iter (fun x -> ignore (Interp.apply1 f x)) (to_list l);
          Void
      | [ f; l1; l2 ] ->
          List.iter2 (fun x y -> ignore (Interp.apply2 f x y)) (to_list l1) (to_list l2);
          Void
      | args -> bad_arity "for-each" 2 args);
    p2 "filter" (fun f l -> of_list (List.filter (fun x -> truthy (Interp.apply1 f x)) (to_list l)));
    p3 "foldl" (fun f init l ->
        List.fold_left (fun acc x -> Interp.apply2 f x acc) init (to_list l));
    p3 "foldr" (fun f init l ->
        List.fold_right (fun x acc -> Interp.apply2 f x acc) (to_list l) init);
    p2 "andmap" (fun f l -> Bool (List.for_all (fun x -> truthy (Interp.apply1 f x)) (to_list l)));
    p2 "ormap" (fun f l -> Bool (List.exists (fun x -> truthy (Interp.apply1 f x)) (to_list l)));
    p2 "sort" (fun l less ->
        of_list
          (List.stable_sort
             (fun a b ->
               if truthy (Interp.apply2 less a b) then -1
               else if truthy (Interp.apply2 less b a) then 1
               else 0)
             (to_list l)));
    p2 "build-list" (fun n f -> of_list (List.init (int_arg "build-list" n) (fun i -> Interp.apply1 f (Int i))));
    prim "values" (function [ v ] -> v | vs -> Values vs);
    p2 "call-with-values" (fun producer consumer ->
        match Interp.apply producer [] with
        | Values vs -> Interp.apply consumer vs
        | v -> Interp.apply1 consumer v);
    pred "procedure?" is_procedure;
  ]

(* -- vectors ------------------------------------------------------------------- *)

let vector_prims =
  [
    prim "vector" (fun args -> Vec (Array.of_list args));
    prim "make-vector" (function
      | [ n ] -> Vec (Array.make (int_arg "make-vector" n) (Int 0))
      | [ n; fill ] -> Vec (Array.make (int_arg "make-vector" n) fill)
      | args -> bad_arity "make-vector" 1 args);
    p2 "vector-ref" (fun v i ->
        let a = vec_arg "vector-ref" v and i = int_arg "vector-ref" i in
        if i < 0 || i >= Array.length a then
          error "vector-ref: index %d out of range for vector of length %d" i (Array.length a)
        else a.(i));
    p3 "vector-set!" (fun v i x ->
        let a = vec_arg "vector-set!" v and i = int_arg "vector-set!" i in
        if i < 0 || i >= Array.length a then
          error "vector-set!: index %d out of range for vector of length %d" i (Array.length a)
        else begin
          a.(i) <- x;
          Void
        end);
    p1 "vector-length" (fun v -> Int (Array.length (vec_arg "vector-length" v)));
    p1 "vector->list" (fun v -> of_list (Array.to_list (vec_arg "vector->list" v)));
    p1 "list->vector" (fun l -> Vec (Array.of_list (to_list l)));
    p2 "vector-fill!" (fun v x ->
        Array.fill (vec_arg "vector-fill!" v) 0 (Array.length (vec_arg "vector-fill!" v)) x;
        Void);
    p2 "vector-map" (fun f v -> Vec (Array.map (fun x -> Interp.apply1 f x) (vec_arg "vector-map" v)));
    p2 "build-vector" (fun n f ->
        Vec (Array.init (int_arg "build-vector" n) (fun i -> Interp.apply1 f (Int i))));
    p1 "vector-copy" (fun v -> Vec (Array.copy (vec_arg "vector-copy" v)));
    pred "vector?" (function Vec _ -> true | _ -> false);
  ]

(* -- strings, symbols, characters ----------------------------------------------- *)

let string_prims =
  [
    p1 "string-length" (fun s -> Int (Bytes.length (str_arg "string-length" s)));
    p2 "string-ref" (fun s i ->
        let b = str_arg "string-ref" s and i = int_arg "string-ref" i in
        if i < 0 || i >= Bytes.length b then error "string-ref: index %d out of range" i
        else Char (Bytes.get b i));
    p3 "string-set!" (fun s i c ->
        Bytes.set (str_arg "string-set!" s) (int_arg "string-set!" i) (char_arg "string-set!" c);
        Void);
    prim "substring" (function
      | [ s; st ] ->
          let b = str_arg "substring" s and st = int_arg "substring" st in
          Str (Bytes.sub b st (Bytes.length b - st))
      | [ s; st; en ] ->
          let b = str_arg "substring" s
          and st = int_arg "substring" st
          and en = int_arg "substring" en in
          Str (Bytes.sub b st (en - st))
      | args -> bad_arity "substring" 2 args);
    prim "string-append" (fun args ->
        Str (Bytes.concat Bytes.empty (List.map (str_arg "string-append") args)));
    prim "make-string" (function
      | [ n ] -> Str (Bytes.make (int_arg "make-string" n) ' ')
      | [ n; c ] -> Str (Bytes.make (int_arg "make-string" n) (char_arg "make-string" c))
      | args -> bad_arity "make-string" 1 args);
    prim "string" (fun args -> Str (Bytes.init (List.length args) (fun i -> char_arg "string" (List.nth args i))));
    p1 "string->symbol" (fun s -> Sym (Bytes.to_string (str_arg "string->symbol" s)));
    p1 "symbol->string" (fun s -> string_ (sym_arg "symbol->string" s));
    p1 "string->list" (fun s ->
        of_list (List.of_seq (Seq.map (fun c -> Char c) (Bytes.to_seq (str_arg "string->list" s)))));
    p1 "list->string" (fun l ->
        Str (Bytes.of_string (String.concat "" (List.map (fun c -> String.make 1 (char_arg "list->string" c)) (to_list l)))));
    p1 "string-copy" (fun s -> Str (Bytes.copy (str_arg "string-copy" s)));
    p1 "string-upcase" (fun s -> string_ (String.uppercase_ascii (Bytes.to_string (str_arg "string-upcase" s))));
    p1 "string-downcase" (fun s -> string_ (String.lowercase_ascii (Bytes.to_string (str_arg "string-downcase" s))));
    p2 "string=?" (fun a b -> Bool (Bytes.equal (str_arg "string=?" a) (str_arg "string=?" b)));
    p2 "string-contains?" (fun hay needle ->
        let h = Bytes.to_string (str_arg "string-contains?" hay) in
        let n = Bytes.to_string (str_arg "string-contains?" needle) in
        let nh = String.length h and nn = String.length n in
        let rec go i = i + nn <= nh && (String.sub h i nn = n || go (i + 1)) in
        Bool (nn = 0 || go 0));
    p2 "string-split" (fun s sep ->
        let str = Bytes.to_string (str_arg "string-split" s) in
        let sep = Bytes.to_string (str_arg "string-split" sep) in
        if String.length sep <> 1 then error "string-split: expects a 1-character separator"
        else
          of_list
            (List.filter_map
               (fun part -> if part = "" then None else Some (string_ part))
               (String.split_on_char sep.[0] str)));
    p2 "string-join" (fun parts sep ->
        let sep = Bytes.to_string (str_arg "string-join" sep) in
        string_
          (String.concat sep
             (List.map
                (function Str b -> Bytes.to_string b | v -> error "string-join: expects strings, given %s" (write_string v))
                (to_list parts))));
    p2 "string<?" (fun a b -> Bool (Bytes.compare (str_arg "string<?" a) (str_arg "string<?" b) < 0));
    p1 "string->number" (fun s ->
        match Liblang_reader.Datum.parse_number (Bytes.to_string (str_arg "string->number" s)) with
        | Some a -> of_datum (Liblang_reader.Datum.Atom a)
        | None -> Bool false);
    p1 "number->string" (fun v ->
        match v with
        | Int _ | Float _ | Cpx _ -> string_ (write_string v)
        | v -> error "number->string: expects a number, given %s" (write_string v));
    pred "string?" (function Str _ -> true | _ -> false);
    pred "symbol?" (function Sym _ -> true | _ -> false);
    pred "char?" (function Char _ -> true | _ -> false);
    p1 "char->integer" (fun c -> Int (Char.code (char_arg "char->integer" c)));
    p1 "integer->char" (fun n -> Char (Char.chr (int_arg "integer->char" n)));
    p2 "char=?" (fun a b -> Bool (char_arg "char=?" a = char_arg "char=?" b));
    p2 "char<?" (fun a b -> Bool (char_arg "char<?" a < char_arg "char<?" b));
    p1 "char-upcase" (fun c -> Char (Char.uppercase_ascii (char_arg "char-upcase" c)));
    p1 "char-alphabetic?" (fun c ->
        let c = char_arg "char-alphabetic?" c in
        Bool ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')));
    p1 "char-numeric?" (fun c ->
        let c = char_arg "char-numeric?" c in
        Bool (c >= '0' && c <= '9'));
    (let counter = ref 0 in
     prim "gensym" (fun args ->
         incr counter;
         let base = match args with Sym s :: _ -> s | Str s :: _ -> Bytes.to_string s | _ -> "g" in
         Sym (Printf.sprintf "%s%d" base !counter)));
  ]

(* -- equality, booleans, misc ----------------------------------------------------- *)

let misc_prims =
  [
    p2 "eq?" (fun a b -> Bool (eqv a b));
    p2 "eqv?" (fun a b -> Bool (eqv a b));
    p2 "equal?" (fun a b -> Bool (equal_values a b));
    p1 "not" (fun v -> Bool (not (truthy v)));
    pred "boolean?" (function Bool _ -> true | _ -> false);
    pred "void?" (function Void -> true | _ -> false);
    prim "void" (fun _ -> Void);
    p1 "identity" (fun v -> v);
    p1 "box" (fun v -> Box (ref v));
    p1 "unbox" (function Box b -> !b | v -> error "unbox: expects a box, given %s" (write_string v));
    p2 "set-box!" (fun b v ->
        match b with
        | Box r ->
            r := v;
            Void
        | v -> error "set-box!: expects a box, given %s" (write_string v));
    pred "box?" (function Box _ -> true | _ -> false);
    prim "error" (fun args ->
        let msg =
          String.concat " "
            (List.map (function Str s -> Bytes.to_string s | v -> write_string v) args)
        in
        raise (Scheme_error msg));
    prim "make-hash" (fun _ -> Hash (Hashtbl.create 16));
    p3 "hash-set!" (fun h k v ->
        match h with
        | Hash t ->
            Hashtbl.replace t k v;
            Void
        | _ -> error "hash-set!: expects a hash");
    prim "hash-ref" (function
      | [ Hash t; k ] -> (
          match Hashtbl.find_opt t k with
          | Some v -> v
          | None -> error "hash-ref: no value found for key %s" (write_string k))
      | [ Hash t; k; default ] -> (
          match Hashtbl.find_opt t k with
          | Some v -> v
          | None -> if is_procedure default then Interp.apply default [] else default)
      | _ -> error "hash-ref: expects a hash and a key");
    p2 "hash-has-key?" (fun h k ->
        match h with Hash t -> Bool (Hashtbl.mem t k) | _ -> error "hash-has-key?: expects a hash");
    p1 "hash-count" (fun h ->
        match h with Hash t -> Int (Hashtbl.length t) | _ -> error "hash-count: expects a hash");
    pred "hash?" (function Hash _ -> true | _ -> false);
    p1 "make-promise" (fun thunk ->
        if is_procedure thunk then Promise { forced = false; thunk }
        else error "make-promise: expects a thunk");
    p1 "force" (fun v ->
        match v with
        | Promise p ->
            if p.forced then p.thunk
            else begin
              let result = Interp.apply p.thunk [] in
              (* force through chained promises *)
              let rec chase = function
                | Promise inner when inner.forced -> inner.thunk
                | Promise inner ->
                    let r = chase (Interp.apply inner.thunk []) in
                    inner.forced <- true;
                    inner.thunk <- r;
                    r
                | v -> v
              in
              let result = chase result in
              p.forced <- true;
              p.thunk <- result;
              result
            end
        | v -> v);
    pred "promise?" (function Promise _ -> true | _ -> false);
  ]

(* -- output ------------------------------------------------------------------------ *)

(* Tests and the benchmark harness capture program output here rather than
   spying on stdout.  Domain-local so a parallel-build worker never writes
   into a capture buffer installed on the main domain. *)
let output_buffer_key : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let emit s =
  match Domain.DLS.get output_buffer_key with
  | None -> print_string s
  | Some b -> Buffer.add_string b s

let with_captured_output f =
  let b = Buffer.create 256 in
  let saved = Domain.DLS.get output_buffer_key in
  Domain.DLS.set output_buffer_key (Some b);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set output_buffer_key saved)
    (fun () ->
      let v = f () in
      (Buffer.contents b, v))

(* A tiny [printf]/[format]: ~a (display), ~s (write), ~v (write), ~% and \n
   (newline), ~~ (tilde). *)
let format_string fmt args =
  let buf = Buffer.create (String.length fmt) in
  let args = ref args in
  let next name =
    match !args with
    | [] -> error "%s: too few arguments for format string" name
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    (if fmt.[!i] = '~' && !i + 1 < n then begin
       (match Char.lowercase_ascii fmt.[!i + 1] with
       | 'a' -> Buffer.add_string buf (display_string (next "format"))
       | 's' | 'v' -> Buffer.add_string buf (write_string (next "format"))
       | '%' | 'n' -> Buffer.add_char buf '\n'
       | '~' -> Buffer.add_char buf '~'
       | c -> error "format: unknown directive ~%c" c);
       incr i
     end
     else Buffer.add_char buf fmt.[!i]);
    incr i
  done;
  if !args <> [] then error "format: too many arguments for format string";
  Buffer.contents buf

let io_prims =
  [
    p1 "display" (fun v ->
        emit (display_string v);
        Void);
    p1 "write" (fun v ->
        emit (write_string v);
        Void);
    p1 "displayln" (fun v ->
        emit (display_string v);
        emit "\n";
        Void);
    prim "newline" (fun _ ->
        emit "\n";
        Void);
    prim "printf" (function
      | Str fmt :: args ->
          emit (format_string (Bytes.to_string fmt) args);
          Void
      | _ -> error "printf: expects a format string");
    prim "format" (function
      | Str fmt :: args -> string_ (format_string (Bytes.to_string fmt) args)
      | _ -> error "format: expects a format string");
    p1 "with-output-to-string" (fun thunk ->
        if not (is_procedure thunk) then error "with-output-to-string: expects a thunk"
        else
          let out, _ = with_captured_output (fun () -> Interp.apply thunk []) in
          string_ out);
    prim "current-seconds" (fun _ -> Int (int_of_float (Unix.gettimeofday ())));
    prim "current-inexact-milliseconds" (fun _ -> Float (Unix.gettimeofday () *. 1000.));
  ]

(* -- syntax-object primitives (available at phase 1) -------------------------------- *)

module Stx = Liblang_stx.Stx
module Binding = Liblang_stx.Binding

let stx_prims =
  [
    p1 "syntax-e" (fun v ->
        let s = stx_arg "syntax-e" v in
        match Stx.view s with
        | Stx.Id name -> Sym (Stx.Symbol.name name)
        | Stx.Atom a -> of_datum (Liblang_reader.Datum.Atom a)
        | Stx.List xs -> of_list (List.map (fun x -> StxV x) xs)
        | Stx.DotList (xs, tl) ->
            List.fold_right (fun x acc -> cons (StxV x) acc) xs (StxV tl)
        | Stx.Vec xs -> Vec (Array.of_list (List.map (fun x -> StxV x) xs)));
    p1 "syntax->datum" (fun v -> of_datum (Stx.to_datum (stx_arg "syntax->datum" v)));
    p2 "datum->syntax" (fun ctx v ->
        let ctx = stx_arg "datum->syntax" ctx in
        let datum_of_value v =
          match v with
          | StxV s -> Stx.to_datum s
          | Pair _ | Nil | Vec _ | Sym _ | Int _ | Float _ | Cpx _ | Bool _ | Str _ | Char _ ->
              to_datum v
          | v -> error "datum->syntax: cannot convert %s" (write_string v)
        in
        StxV (Stx.datum_to_syntax ~ctx (datum_of_value v)));
    p1 "syntax->splice-list" (fun v ->
        (* for #,@ : accept either a syntax list or a plain list of syntax *)
        match v with
        | StxV s -> (
            match Stx.to_list s with
            | Some xs -> of_list (List.map (fun x -> StxV x) xs)
            | None -> error "unsyntax-splicing: expects a list, given %s" (write_string v))
        | Pair _ | Nil -> v
        | _ -> error "unsyntax-splicing: expects a list, given %s" (write_string v));
    p1 "syntax->list" (fun v ->
        match Stx.to_list (stx_arg "syntax->list" v) with
        | Some xs -> of_list (List.map (fun x -> StxV x) xs)
        | None -> Bool false);
    p2 "free-identifier=?" (fun a b ->
        Bool (Binding.free_identifier_eq (stx_arg "free-identifier=?" a) (stx_arg "free-identifier=?" b)));
    pred "identifier?" (function StxV s -> Stx.is_id s | _ -> false);
    pred "syntax?" (function StxV _ -> true | _ -> false);
    p3 "syntax-property-put" (fun s k v ->
        let s = stx_arg "syntax-property-put" s in
        let key = sym_arg "syntax-property-put" k in
        let pv =
          match v with
          | StxV p -> p
          | v -> Stx.datum_to_syntax ~ctx:s (to_datum v)
        in
        StxV (Stx.property_put key pv s));
    p2 "syntax-property-get" (fun s k ->
        let s = stx_arg "syntax-property-get" s in
        match Stx.property_get (sym_arg "syntax-property-get" k) s with
        | Some v -> StxV v
        | None -> Bool false);
  ]

(* -- fast paths ----------------------------------------------------------------------- *)

let () =
  Interp.register_fast2 "+" Numeric.add;
  Interp.register_fast2 "-" Numeric.sub;
  Interp.register_fast2 "*" Numeric.mul;
  Interp.register_fast2 "/" Numeric.div;
  Interp.register_fast2 "<" (fun a b -> Bool (Numeric.lt a b));
  Interp.register_fast2 ">" (fun a b -> Bool (Numeric.gt a b));
  Interp.register_fast2 "<=" (fun a b -> Bool (Numeric.le a b));
  Interp.register_fast2 ">=" (fun a b -> Bool (Numeric.ge a b));
  Interp.register_fast2 "=" (fun a b -> Bool (Numeric.num_eq a b));
  Interp.register_fast2 "quotient" Numeric.quotient;
  Interp.register_fast2 "remainder" Numeric.remainder;
  Interp.register_fast2 "modulo" Numeric.modulo;
  Interp.register_fast2 "cons" cons;
  Interp.register_fast2 "eq?" (fun a b -> Bool (eqv a b));
  Interp.register_fast2 "eqv?" (fun a b -> Bool (eqv a b));
  Interp.register_fast2 "equal?" (fun a b -> Bool (equal_values a b));
  Interp.register_fast1 "car" car_v;
  Interp.register_fast1 "cdr" cdr_v;
  Interp.register_fast1 "add1" Numeric.add1;
  Interp.register_fast1 "sub1" Numeric.sub1;
  Interp.register_fast1 "abs" Numeric.abs_;
  Interp.register_fast1 "sqrt" Numeric.sqrt_;
  Interp.register_fast1 "magnitude" Numeric.magnitude;
  Interp.register_fast1 "real-part" Numeric.real_part;
  Interp.register_fast1 "imag-part" Numeric.imag_part;
  Interp.register_fast2 "make-rectangular" Numeric.make_rectangular;
  Interp.register_fast1 "not" (fun v -> Bool (not (truthy v)));
  Interp.register_fast1 "null?" (fun v -> Bool (v = Nil));
  Interp.register_fast1 "pair?" (fun v -> Bool (match v with Pair _ -> true | _ -> false));
  Interp.register_fast1 "zero?" (fun v -> Bool (Numeric.is_zero v));
  Interp.register_fast2 "vector-ref" (fun v i ->
      match (v, i) with
      | Vec a, Int i ->
          if i < 0 || i >= Array.length a then
            error "vector-ref: index %d out of range for vector of length %d" i (Array.length a)
          else Array.unsafe_get a i
      | _ -> error "vector-ref: expects a vector and a fixnum");
  Interp.register_fast1 "vector-length" (fun v ->
      match v with Vec a -> Int (Array.length a) | _ -> error "vector-length: expects a vector");
  (* unsafe primitives also get direct-call paths, so that disabling the
     unboxing backend (ablation) still measures dispatch elimination *)
  List.iter
    (fun (name, f) -> Interp.register_fast2 name (fun a b -> fl2 f a b))
    [ ("unsafe-fl+", ( +. )); ("unsafe-fl-", ( -. )); ("unsafe-fl*", ( *. )); ("unsafe-fl/", ( /. )) ];
  List.iter
    (fun (name, f) -> Interp.register_fast2 name (fun a b -> flcmp f a b))
    [ ("unsafe-fl<", ( < )); ("unsafe-fl>", ( > )); ("unsafe-fl<=", ( <= )); ("unsafe-fl>=", ( >= )); ("unsafe-fl=", Float.equal) ];
  Interp.register_fast1 "unsafe-flsqrt" (fun a -> Float (Float.sqrt (Numeric.unsafe_fl a)));
  Interp.register_fast1 "unsafe-fx->fl" fx_to_fl;
  Interp.register_fast1 "unsafe-flabs" (fun a -> Float (Float.abs (Numeric.unsafe_fl a)));
  Interp.register_fast1 "unsafe-car" unsafe_car;
  Interp.register_fast1 "unsafe-cdr" unsafe_cdr;
  Interp.register_fast2 "unsafe-vector-ref" (fun v i ->
      match (v, i) with
      | Vec a, Int i -> Array.unsafe_get a i
      | _ -> error "unsafe-vector-ref: undefined behavior off-type");
  Interp.register_fast2 "unchecked-vector-ref" (fun v i ->
      match (v, i) with
      | Vec a, Int i -> Array.unsafe_get a i
      | _ -> error "unchecked-vector-ref: undefined behavior off-type");
  Interp.register_fast1 "unsafe-vector-length" (function
    | Vec a -> Int (Array.length a)
    | _ -> error "unsafe-vector-length: undefined behavior off-type");
  ()

let all : (string * value) list =
  List.map
    (fun v -> match v with Prim p -> (p.p_name, v) | _ -> assert false)
    (numeric_prims @ unsafe_prims @ list_prims @ ho_prims @ vector_prims @ string_prims
   @ misc_prims @ io_prims @ stx_prims)
