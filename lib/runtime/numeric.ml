(** The numeric tower: generic arithmetic with dynamic tag dispatch.

    Every generic operation inspects the tags of its operands and dispatches
    to fixnum, flonum, or float-complex code, coercing upward as needed.
    This dispatch-and-coerce work is precisely what the paper's type-driven
    optimizer removes by rewriting to the unsafe type-specialized primitives
    in {!Unsafe_ops} (§7.1): "not only do these primitives avoid the run-time
    dispatch of generic operations, they also serve as signals to the Racket
    code generator to guide its unboxing optimizations". *)

open Value

let type_err op v = error "%s: expects a number, given %s" op (write_string v)

let to_float op = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> type_err op v

let cpx_parts op = function
  | Int n -> (float_of_int n, 0.)
  | Float f -> (f, 0.)
  | Cpx (re, im) -> (re, im)
  | v -> type_err op v

let is_number = function Int _ | Float _ | Cpx _ -> true | _ -> false

(* -- the unsafe primitives' operands (§7.1) --------------------------------
   Racket leaves an unsafe primitive's behaviour on an off-type operand
   undefined; here it raises, with one text per failure.  Every path
   that runs an unsafe primitive — its entry in [Prims] and its fast
   path, the fused closures of [Flfuse], the VM — reads its operands
   through these, left to right, so the error names the leftmost
   off-type operand whichever path compiled the call. *)

let unsafe_fl = function
  | Float f -> f
  | Int n -> float_of_int n
  | v -> error "unsafe flonum operation: given %s (undefined behavior off-type)" (write_string v)

let unsafe_cpx = function
  | Cpx (re, im) -> (re, im)
  | Float f -> (f, 0.)
  | Int n -> (float_of_int n, 0.)
  | v ->
      error "unsafe float-complex operation: given %s (undefined behavior off-type)"
        (write_string v)

let unsafe_fx_to_fl = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> error "unsafe-fx->fl: expects a fixnum, given %s (undefined behavior off-type)" (write_string v)

(* -- generic binary arithmetic ------------------------------------------- *)

let add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | Cpx _, _ | _, Cpx _ ->
      let ar, ai = cpx_parts "+" a and br, bi = cpx_parts "+" b in
      Cpx (ar +. br, ai +. bi)
  | _ -> type_err "+" (if is_number a then b else a)

let sub a b =
  match (a, b) with
  | Int x, Int y -> Int (x - y)
  | Float x, Float y -> Float (x -. y)
  | Int x, Float y -> Float (float_of_int x -. y)
  | Float x, Int y -> Float (x -. float_of_int y)
  | Cpx _, _ | _, Cpx _ ->
      let ar, ai = cpx_parts "-" a and br, bi = cpx_parts "-" b in
      Cpx (ar -. br, ai -. bi)
  | _ -> type_err "-" (if is_number a then b else a)

let mul a b =
  match (a, b) with
  | Int x, Int y -> Int (x * y)
  | Float x, Float y -> Float (x *. y)
  | Int x, Float y -> Float (float_of_int x *. y)
  | Float x, Int y -> Float (x *. float_of_int y)
  | Cpx _, _ | _, Cpx _ ->
      let ar, ai = cpx_parts "*" a and br, bi = cpx_parts "*" b in
      Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
  | _ -> type_err "*" (if is_number a then b else a)

let cpx_div ar ai br bi =
  let d = (br *. br) +. (bi *. bi) in
  (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)

(* Racket's [/] on two exact integers yields an exact rational; this tower
   has no rationals, so non-evenly-dividing fixnums produce a flonum (see
   DESIGN.md substitutions). *)
let div a b =
  match (a, b) with
  | Int _, Int 0 -> error "/: division by zero"
  | Int x, Int y -> if x mod y = 0 then Int (x / y) else Float (float_of_int x /. float_of_int y)
  | Float x, Float y -> Float (x /. y)
  | Int x, Float y -> Float (float_of_int x /. y)
  | Float x, Int y -> Float (x /. float_of_int y)
  | Cpx _, _ | _, Cpx _ ->
      let ar, ai = cpx_parts "/" a and br, bi = cpx_parts "/" b in
      let re, im = cpx_div ar ai br bi in
      Cpx (re, im)
  | _ -> type_err "/" (if is_number a then b else a)

let quotient a b =
  match (a, b) with
  | Int _, Int 0 -> error "quotient: division by zero"
  | Int x, Int y -> Int (x / y)
  | _ -> error "quotient: expects fixnums"

let remainder a b =
  match (a, b) with
  | Int _, Int 0 -> error "remainder: division by zero"
  | Int x, Int y -> Int (x mod y)
  | _ -> error "remainder: expects fixnums"

let modulo a b =
  match (a, b) with
  | Int _, Int 0 -> error "modulo: division by zero"
  | Int x, Int y ->
      let m = x mod y in
      Int (if m <> 0 && (m < 0) <> (y < 0) then m + y else m)
  | _ -> error "modulo: expects fixnums"

(* -- generic comparison --------------------------------------------------- *)

let cmp op name a b =
  match (a, b) with
  | Int x, Int y -> op (compare x y) 0
  | Float x, Float y -> op (compare x y) 0
  | Int x, Float y -> op (compare (float_of_int x) y) 0
  | Float x, Int y -> op (compare x (float_of_int y)) 0
  | _ -> error "%s: expects real numbers, given %s and %s" name (write_string a) (write_string b)

let lt = cmp ( < ) "<"
let gt = cmp ( > ) ">"
let le = cmp ( <= ) "<="
let ge = cmp ( >= ) ">="

let num_eq a b =
  match (a, b) with
  | Cpx (ar, ai), Cpx (br, bi) -> Float.equal ar br && Float.equal ai bi
  | Cpx (ar, ai), (Int _ | Float _) -> Float.equal ai 0. && Float.equal ar (to_float "=" b)
  | (Int _ | Float _), Cpx (br, bi) -> Float.equal bi 0. && Float.equal br (to_float "=" a)
  | _ -> cmp ( = ) "=" a b

(* -- generic unary -------------------------------------------------------- *)

let neg = function
  | Int n -> Int (-n)
  | Float f -> Float (-.f)
  | Cpx (re, im) -> Cpx (-.re, -.im)
  | v -> type_err "-" v

let abs_ = function
  | Int n -> Int (abs n)
  | Float f -> Float (Float.abs f)
  | v -> type_err "abs" v

let add1 = function Int n -> Int (n + 1) | Float f -> Float (f +. 1.) | v -> type_err "add1" v
let sub1 = function Int n -> Int (n - 1) | Float f -> Float (f -. 1.) | v -> type_err "sub1" v

let sqrt_ = function
  | Int n when n >= 0 ->
      let r = int_of_float (Float.round (sqrt (float_of_int n))) in
      if r * r = n then Int r else Float (sqrt (float_of_int n))
  | Int n -> Cpx (0., sqrt (float_of_int (-n)))
  | Float f when f >= 0. -> Float (sqrt f)
  | Float f -> Cpx (0., sqrt (-.f))
  | Cpx (re, im) ->
      let m = sqrt (sqrt ((re *. re) +. (im *. im))) in
      let theta = Float.atan2 im re /. 2. in
      Cpx (m *. cos theta, m *. sin theta)
  | v -> type_err "sqrt" v

let float_fun name f = function
  | Int n -> Float (f (float_of_int n))
  | Float x -> Float (f x)
  | v -> type_err name v

let magnitude = function
  | Int n -> Int (abs n)
  | Float f -> Float (Float.abs f)
  | Cpx (re, im) -> Float (Float.hypot re im)
  | v -> type_err "magnitude" v

let real_part = function
  | (Int _ | Float _) as v -> v
  | Cpx (re, _) -> Float re
  | v -> type_err "real-part" v

let imag_part = function
  | Int _ -> Int 0
  | Float _ -> Float 0.
  | Cpx (_, im) -> Float im
  | v -> type_err "imag-part" v

let make_rectangular a b =
  match (a, b) with
  | (Int _ | Float _), (Int _ | Float _) ->
      Cpx (to_float "make-rectangular" a, to_float "make-rectangular" b)
  | _ -> error "make-rectangular: expects real numbers"

let make_polar a b =
  match (a, b) with
  | (Int _ | Float _), (Int _ | Float _) ->
      let m = to_float "make-polar" a and t = to_float "make-polar" b in
      Cpx (m *. cos t, m *. sin t)
  | _ -> error "make-polar: expects real numbers"

let expt a b =
  match (a, b) with
  | Int x, Int y when y >= 0 ->
      let rec go acc b e = if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1) in
      Int (go 1 x y)
  | _, _ -> Float (Float.pow (to_float "expt" a) (to_float "expt" b))

let exact_to_inexact = function
  | Int n -> Float (float_of_int n)
  | (Float _ | Cpx _) as v -> v
  | v -> type_err "exact->inexact" v

let inexact_to_exact = function
  | Int _ as v -> v
  | Float f when Float.is_integer f -> Int (int_of_float f)
  | Float f -> error "inexact->exact: no exact rationals in this tower: %f" f
  | v -> type_err "inexact->exact" v

(* Scheme's round is round-half-to-even (banker's rounding) *)
let round_half_even f =
  let r = Float.round f in
  if Float.abs (f -. r) = 0.5 then 2.0 *. Float.round (f /. 2.0) else r

let round_to name f = function
  | Int _ as v -> v
  | Float x -> Float (f x)
  | v -> type_err name v

let floor_ = round_to "floor" Float.floor
let ceiling_ = round_to "ceiling" Float.ceil
let truncate_ = round_to "truncate" Float.trunc
let round_ = round_to "round" round_half_even

let min_ a b = if lt a b then a else b
let max_ a b = if gt a b then a else b

let gcd_ a b =
  match (a, b) with
  | Int x, Int y ->
      let rec g a b = if b = 0 then abs a else g b (a mod b) in
      Int (g x y)
  | _ -> error "gcd: expects fixnums"

(* -- predicates ----------------------------------------------------------- *)

let is_zero = function
  | Int n -> n = 0
  | Float f -> f = 0.
  | Cpx (re, im) -> re = 0. && im = 0.
  | v -> type_err "zero?" v

let is_exact_integer = function Int _ -> true | _ -> false
let is_flonum = function Float _ -> true | _ -> false
let is_real = function Int _ | Float _ -> true | _ -> false

let is_integer = function
  | Int _ -> true
  | Float f -> Float.is_integer f
  | _ -> false

let is_positive = function Int n -> n > 0 | Float f -> f > 0. | v -> type_err "positive?" v
let is_negative = function Int n -> n < 0 | Float f -> f < 0. | v -> type_err "negative?" v
let is_even = function Int n -> n land 1 = 0 | v -> type_err "even?" v
let is_odd = function Int n -> n land 1 = 1 | v -> type_err "odd?" v
