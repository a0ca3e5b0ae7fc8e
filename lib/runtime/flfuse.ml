(** GENERATED by tools/gen_flfuse.py — do not edit by hand.

    Fused closures for the unsafe float / float-complex primitives: each
    (operation, operand shape) pair gets a single OCaml closure with the
    leaf reads and the arithmetic inlined, so a nest of unsafe operations
    evaluates with one closure call per operation and no dispatch — the
    interpreter-level realization of the unboxing that the unsafe
    primitives signal to the code generator (§7.1).  Constant and
    local-slot operands are read unboxed in place; every closure returns
    a freshly allocated [Float], so an operand that is itself a fused
    operation arrives boxed.  Operands evaluate left to right. *)

open Value

let ub = Numeric.unsafe_fl
let ubc = Numeric.unsafe_cpx

let local env d i =
  let rec up env d = if d = 0 then env.frame.(i) else up env.up (d - 1) in
  up env d

(** float operand shapes: constant, local slot at depth 0/1/deeper, or a
    generic compiled subexpression *)
type leaf = C of float | L0 of int | L1 of int | LD of int * int | X of (env -> value)

(** complex operand shapes *)
type cleaf = CC of float * float | CL0 of int | CL1 of int | CLD of int * int | CX of (env -> value)

let bin_u_fl_add (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x +. y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (x +. (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (x +. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (x +. (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (x +. (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l +. y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l +. y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l +. (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l +. y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l +. (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l +. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l +. (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l +. (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l +. y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l +. (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l +. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l +. (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l +. (match y env with Float f -> f | v -> ub v))

let bin_u_fl_sub (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x -. y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (x -. (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (x -. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (x -. (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (x -. (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l -. y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l -. y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l -. (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l -. y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l -. (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l -. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l -. (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l -. (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l -. y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l -. (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l -. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l -. (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l -. (match y env with Float f -> f | v -> ub v))

let bin_u_fl_mul (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x *. y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (x *. (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (x *. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (x *. (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (x *. (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l *. y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l *. y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l *. (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l *. y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l *. (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l *. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l *. (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l *. (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l *. y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l *. (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l *. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l *. (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l *. (match y env with Float f -> f | v -> ub v))

let bin_u_fl_div (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x /. y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (x /. (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (x /. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (x /. (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (x /. (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l /. y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l /. y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (l /. (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l /. y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l /. (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l /. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l /. (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (l /. (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l /. y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l /. (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l /. (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l /. (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (l /. (match y env with Float f -> f | v -> ub v))

let bin_u_flmin (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = Float.min x y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (Float.min x (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (Float.min x (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (Float.min x (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (Float.min x (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.min l (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.min l y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.min l (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.min l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.min l (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.min l (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.min l y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.min l (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.min l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.min l (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.min l (match y env with Float f -> f | v -> ub v))

let bin_u_flmax (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = Float.max x y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (Float.max x (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (Float.max x (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (Float.max x (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (Float.max x (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.max l (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.max l y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.max l (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.max l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.max l (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.max l (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.max l y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.max l (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.max l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.max l (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.max l (match y env with Float f -> f | v -> ub v))

let bin_u_flexpt (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = Float.pow x y in
      fun _ -> Float (r)
  | C x, L0 y -> fun env -> Float (Float.pow x (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Float (Float.pow x (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Float (Float.pow x (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Float (Float.pow x (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Float (Float.pow l (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.pow l y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.pow l (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.pow l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.pow l (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Float (Float.pow l (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.pow l y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.pow l (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.pow l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.pow l (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Float (Float.pow l (match y env with Float f -> f | v -> ub v))

let bin_u_fl_lt (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x < y in
      fun _ -> Bool (r)
  | C x, L0 y -> fun env -> Bool (x < (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Bool (x < (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Bool (x < (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Bool (x < (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l < y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l < y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l < (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l < y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l < (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l < (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l < (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l < (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l < y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l < (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l < (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l < (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l < (match y env with Float f -> f | v -> ub v))

let bin_u_fl_gt (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x > y in
      fun _ -> Bool (r)
  | C x, L0 y -> fun env -> Bool (x > (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Bool (x > (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Bool (x > (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Bool (x > (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l > y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l > y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l > (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l > y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l > (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l > (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l > (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l > (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l > y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l > (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l > (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l > (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l > (match y env with Float f -> f | v -> ub v))

let bin_u_fl_le (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x <= y in
      fun _ -> Bool (r)
  | C x, L0 y -> fun env -> Bool (x <= (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Bool (x <= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Bool (x <= (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Bool (x <= (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l <= (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l <= y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l <= (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l <= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l <= (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l <= (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l <= y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l <= (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l <= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l <= (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l <= (match y env with Float f -> f | v -> ub v))

let bin_u_fl_ge (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = x >= y in
      fun _ -> Bool (r)
  | C x, L0 y -> fun env -> Bool (x >= (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Bool (x >= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Bool (x >= (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Bool (x >= (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (l >= (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l >= y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l >= (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l >= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l >= (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (l >= (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l >= y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l >= (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l >= (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l >= (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (l >= (match y env with Float f -> f | v -> ub v))

let bin_u_fl_eq (a : leaf) (b : leaf) : env -> value =
  match (a, b) with
  | C x, C y ->
      let r = Float.equal x y in
      fun _ -> Bool (r)
  | C x, L0 y -> fun env -> Bool (Float.equal x (match env.frame.(y) with Float f -> f | v -> ub v))
  | C x, L1 y -> fun env -> Bool (Float.equal x (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | C x, LD (dy, y) -> fun env -> Bool (Float.equal x (match local env dy y with Float f -> f | v -> ub v))
  | C x, X y -> fun env -> Bool (Float.equal x (match y env with Float f -> f | v -> ub v))
  | L0 x, C y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l y)
  | L0 x, L0 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, L1 y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L0 x, LD (dy, y) -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match local env dy y with Float f -> f | v -> ub v))
  | L0 x, X y -> fun env -> let l = (match env.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match y env with Float f -> f | v -> ub v))
  | L1 x, C y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l y)
  | L1 x, L0 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, L1 y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | L1 x, LD (dy, y) -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match local env dy y with Float f -> f | v -> ub v))
  | L1 x, X y -> fun env -> let l = (match env.up.frame.(x) with Float f -> f | v -> ub v) in Bool (Float.equal l (match y env with Float f -> f | v -> ub v))
  | LD (dx, x), C y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (Float.equal l y)
  | LD (dx, x), L0 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), L1 y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | LD (dx, x), LD (dy, y) -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (Float.equal l (match local env dy y with Float f -> f | v -> ub v))
  | LD (dx, x), X y -> fun env -> let l = (match local env dx x with Float f -> f | v -> ub v) in Bool (Float.equal l (match y env with Float f -> f | v -> ub v))
  | X x, C y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (Float.equal l y)
  | X x, L0 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.frame.(y) with Float f -> f | v -> ub v))
  | X x, L1 y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (Float.equal l (match env.up.frame.(y) with Float f -> f | v -> ub v))
  | X x, LD (dy, y) -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (Float.equal l (match local env dy y with Float f -> f | v -> ub v))
  | X x, X y -> fun env -> let l = (match x env with Float f -> f | v -> ub v) in Bool (Float.equal l (match y env with Float f -> f | v -> ub v))

let un_u_flabs (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Float.abs x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Float.abs (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Float.abs (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Float.abs (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Float.abs (match x env with Float f -> f | v -> ub v))

let un_u_flsqrt (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Float.sqrt x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Float.sqrt (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Float.sqrt (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Float.sqrt (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Float.sqrt (match x env with Float f -> f | v -> ub v))

let un_u_flsin (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = sin x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (sin (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (sin (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (sin (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (sin (match x env with Float f -> f | v -> ub v))

let un_u_flcos (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = cos x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (cos (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (cos (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (cos (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (cos (match x env with Float f -> f | v -> ub v))

let un_u_fltan (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = tan x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (tan (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (tan (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (tan (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (tan (match x env with Float f -> f | v -> ub v))

let un_u_flatan (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = atan x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (atan (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (atan (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (atan (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (atan (match x env with Float f -> f | v -> ub v))

let un_u_flexp (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = exp x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (exp (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (exp (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (exp (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (exp (match x env with Float f -> f | v -> ub v))

let un_u_fllog (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = log x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (log (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (log (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (log (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (log (match x env with Float f -> f | v -> ub v))

let un_u_flfloor (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Float.floor x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Float.floor (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Float.floor (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Float.floor (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Float.floor (match x env with Float f -> f | v -> ub v))

let un_u_flceiling (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Float.ceil x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Float.ceil (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Float.ceil (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Float.ceil (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Float.ceil (match x env with Float f -> f | v -> ub v))

let un_u_flround (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Numeric.round_half_even x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Numeric.round_half_even (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Numeric.round_half_even (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Numeric.round_half_even (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Numeric.round_half_even (match x env with Float f -> f | v -> ub v))

let un_u_fltruncate (a : leaf) : env -> value =
  match a with
  | C x ->
      let r = Float.trunc x in
      fun _ -> Float r
  | L0 x -> fun env -> Float (Float.trunc (match env.frame.(x) with Float f -> f | v -> ub v))
  | L1 x -> fun env -> Float (Float.trunc (match env.up.frame.(x) with Float f -> f | v -> ub v))
  | LD (dx, x) -> fun env -> Float (Float.trunc (match local env dx x with Float f -> f | v -> ub v))
  | X x -> fun env -> Float (Float.trunc (match x env with Float f -> f | v -> ub v))

let un_fx_to_fl (a : leaf) : env -> value =
  let cvt = Numeric.unsafe_fx_to_fl in
  match a with
  | C x -> fun _ -> Float x
  | L0 i -> fun env -> Float (cvt env.frame.(i))
  | L1 i -> fun env -> Float (cvt env.up.frame.(i))
  | LD (d, i) -> fun env -> Float (cvt (local env d i))
  | X cx -> fun env -> Float (cvt (cx env))

let cbin_add (a : cleaf) (b : cleaf) : env -> value =
  match (a, b) with
  | CC (xr, xi), CC (yr, yi) ->
      let ar = xr and ai = xi and br = yr and bi = yi in
      let r = Cpx (ar +. br, ai +. bi) in
      fun _ -> r
  | CC (xr, xi), CL0 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.frame.(y) with
        | Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CC (xr, xi), CL1 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.up.frame.(y) with
        | Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CC (xr, xi), CLD (dy, y) ->
      fun env ->
        let ar = xr and ai = xi in
        (match local env dy y with
        | Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CC (xr, xi), CX y ->
      fun env ->
        let ar = xr and ai = xi in
        (match y env with
        | Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CL0 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.frame.(x) with
        | Cpx (ar, ai) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CL0 x, CL0 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL0 x, CL1 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL0 x, CLD (dy, y) ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL0 x, CX y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL1 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.up.frame.(x) with
        | Cpx (ar, ai) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CL1 x, CL0 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL1 x, CL1 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL1 x, CLD (dy, y) ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CL1 x, CX y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CLD (dx, x), CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match local env dx x with
        | Cpx (ar, ai) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CLD (dx, x), CL0 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CLD (dx, x), CL1 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CLD (dx, x), CLD (dy, y) ->
      fun env ->
        let va = local env dx x in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CLD (dx, x), CX y ->
      fun env ->
        let va = local env dx x in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CX x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match x env with
        | Cpx (ar, ai) -> Cpx (ar +. br, ai +. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar +. br, ai +. bi))
  | CX x, CL0 y ->
      fun env ->
        let va = x env in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CX x, CL1 y ->
      fun env ->
        let va = x env in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CX x, CLD (dy, y) ->
      fun env ->
        let va = x env in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))
  | CX x, CX y ->
      fun env ->
        let va = x env in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar +. br, ai +. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar +. br, ai +. bi))

let cbin_sub (a : cleaf) (b : cleaf) : env -> value =
  match (a, b) with
  | CC (xr, xi), CC (yr, yi) ->
      let ar = xr and ai = xi and br = yr and bi = yi in
      let r = Cpx (ar -. br, ai -. bi) in
      fun _ -> r
  | CC (xr, xi), CL0 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.frame.(y) with
        | Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CC (xr, xi), CL1 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.up.frame.(y) with
        | Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CC (xr, xi), CLD (dy, y) ->
      fun env ->
        let ar = xr and ai = xi in
        (match local env dy y with
        | Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CC (xr, xi), CX y ->
      fun env ->
        let ar = xr and ai = xi in
        (match y env with
        | Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let br, bi = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CL0 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.frame.(x) with
        | Cpx (ar, ai) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CL0 x, CL0 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL0 x, CL1 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL0 x, CLD (dy, y) ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL0 x, CX y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL1 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.up.frame.(x) with
        | Cpx (ar, ai) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CL1 x, CL0 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL1 x, CL1 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL1 x, CLD (dy, y) ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CL1 x, CX y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CLD (dx, x), CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match local env dx x with
        | Cpx (ar, ai) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CLD (dx, x), CL0 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CLD (dx, x), CL1 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CLD (dx, x), CLD (dy, y) ->
      fun env ->
        let va = local env dx x in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CLD (dx, x), CX y ->
      fun env ->
        let va = local env dx x in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CX x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match x env with
        | Cpx (ar, ai) -> Cpx (ar -. br, ai -. bi)
        | v ->
            let ar, ai = ubc v in
            Cpx (ar -. br, ai -. bi))
  | CX x, CL0 y ->
      fun env ->
        let va = x env in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CX x, CL1 y ->
      fun env ->
        let va = x env in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CX x, CLD (dy, y) ->
      fun env ->
        let va = x env in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))
  | CX x, CX y ->
      fun env ->
        let va = x env in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx (ar -. br, ai -. bi)
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx (ar -. br, ai -. bi))

let cbin_mul (a : cleaf) (b : cleaf) : env -> value =
  match (a, b) with
  | CC (xr, xi), CC (yr, yi) ->
      let ar = xr and ai = xi and br = yr and bi = yi in
      let r = Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)) in
      fun _ -> r
  | CC (xr, xi), CL0 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.frame.(y) with
        | Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let br, bi = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CC (xr, xi), CL1 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.up.frame.(y) with
        | Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let br, bi = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CC (xr, xi), CLD (dy, y) ->
      fun env ->
        let ar = xr and ai = xi in
        (match local env dy y with
        | Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let br, bi = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CC (xr, xi), CX y ->
      fun env ->
        let ar = xr and ai = xi in
        (match y env with
        | Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let br, bi = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL0 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.frame.(x) with
        | Cpx (ar, ai) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let ar, ai = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL0 x, CL0 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL0 x, CL1 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL0 x, CLD (dy, y) ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL0 x, CX y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL1 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.up.frame.(x) with
        | Cpx (ar, ai) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let ar, ai = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL1 x, CL0 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL1 x, CL1 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL1 x, CLD (dy, y) ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CL1 x, CX y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CLD (dx, x), CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match local env dx x with
        | Cpx (ar, ai) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let ar, ai = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CLD (dx, x), CL0 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CLD (dx, x), CL1 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CLD (dx, x), CLD (dy, y) ->
      fun env ->
        let va = local env dx x in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CLD (dx, x), CX y ->
      fun env ->
        let va = local env dx x in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CX x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match x env with
        | Cpx (ar, ai) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | v ->
            let ar, ai = ubc v in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CX x, CL0 y ->
      fun env ->
        let va = x env in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CX x, CL1 y ->
      fun env ->
        let va = x env in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CX x, CLD (dy, y) ->
      fun env ->
        let va = x env in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
  | CX x, CX y ->
      fun env ->
        let va = x env in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))

let cbin_div (a : cleaf) (b : cleaf) : env -> value =
  match (a, b) with
  | CC (xr, xi), CC (yr, yi) ->
      let ar = xr and ai = xi and br = yr and bi = yi in
      let r = (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)) in
      fun _ -> r
  | CC (xr, xi), CL0 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.frame.(y) with
        | Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let br, bi = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CC (xr, xi), CL1 y ->
      fun env ->
        let ar = xr and ai = xi in
        (match env.up.frame.(y) with
        | Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let br, bi = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CC (xr, xi), CLD (dy, y) ->
      fun env ->
        let ar = xr and ai = xi in
        (match local env dy y with
        | Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let br, bi = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CC (xr, xi), CX y ->
      fun env ->
        let ar = xr and ai = xi in
        (match y env with
        | Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let br, bi = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL0 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.frame.(x) with
        | Cpx (ar, ai) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let ar, ai = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL0 x, CL0 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL0 x, CL1 y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL0 x, CLD (dy, y) ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL0 x, CX y ->
      fun env ->
        let va = env.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL1 x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match env.up.frame.(x) with
        | Cpx (ar, ai) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let ar, ai = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL1 x, CL0 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL1 x, CL1 y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL1 x, CLD (dy, y) ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CL1 x, CX y ->
      fun env ->
        let va = env.up.frame.(x) in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CLD (dx, x), CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match local env dx x with
        | Cpx (ar, ai) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let ar, ai = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CLD (dx, x), CL0 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CLD (dx, x), CL1 y ->
      fun env ->
        let va = local env dx x in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CLD (dx, x), CLD (dy, y) ->
      fun env ->
        let va = local env dx x in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CLD (dx, x), CX y ->
      fun env ->
        let va = local env dx x in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CX x, CC (yr, yi) ->
      fun env ->
        let br = yr and bi = yi in
        (match x env with
        | Cpx (ar, ai) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | v ->
            let ar, ai = ubc v in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CX x, CL0 y ->
      fun env ->
        let va = x env in
        (match (va, env.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CX x, CL1 y ->
      fun env ->
        let va = x env in
        (match (va, env.up.frame.(y)) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CX x, CLD (dy, y) ->
      fun env ->
        let va = x env in
        (match (va, local env dy y) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))
  | CX x, CX y ->
      fun env ->
        let va = x env in
        (match (va, y env) with
        | Cpx (ar, ai), Cpx (br, bi) -> (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
        | va, vb ->
            let ar, ai = ubc va in
            let br, bi = ubc vb in
            (let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)))

let cun_neg (a : cleaf) : env -> value =
  match a with
  | CC (xr, xi) ->
      let re = xr and im = xi in
      let r = Cpx (-.re, -.im) in
      fun _ -> r
  | CL0 x ->
      fun env ->
        (match env.frame.(x) with
        | Cpx (re, im) -> Cpx (-.re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (-.re, -.im))
  | CL1 x ->
      fun env ->
        (match env.up.frame.(x) with
        | Cpx (re, im) -> Cpx (-.re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (-.re, -.im))
  | CLD (dx, x) ->
      fun env ->
        (match local env dx x with
        | Cpx (re, im) -> Cpx (-.re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (-.re, -.im))
  | CX x ->
      fun env ->
        (match x env with
        | Cpx (re, im) -> Cpx (-.re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (-.re, -.im))

let cun_conj (a : cleaf) : env -> value =
  match a with
  | CC (xr, xi) ->
      let re = xr and im = xi in
      let r = Cpx (re, -.im) in
      fun _ -> r
  | CL0 x ->
      fun env ->
        (match env.frame.(x) with
        | Cpx (re, im) -> Cpx (re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (re, -.im))
  | CL1 x ->
      fun env ->
        (match env.up.frame.(x) with
        | Cpx (re, im) -> Cpx (re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (re, -.im))
  | CLD (dx, x) ->
      fun env ->
        (match local env dx x with
        | Cpx (re, im) -> Cpx (re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (re, -.im))
  | CX x ->
      fun env ->
        (match x env with
        | Cpx (re, im) -> Cpx (re, -.im)
        | v ->
            let re, im = ubc v in
            Cpx (re, -.im))

let c_magnitude (a : cleaf) : env -> value =
  match a with
  | CC (xr, xi) ->
      let re = xr and im = xi in
      let r = Float (Float.hypot re im) in
      fun _ -> r
  | CL0 x ->
      fun env ->
        (match env.frame.(x) with
        | Cpx (re, im) -> Float (Float.hypot re im)
        | v ->
            let re, im = ubc v in
            Float (Float.hypot re im))
  | CL1 x ->
      fun env ->
        (match env.up.frame.(x) with
        | Cpx (re, im) -> Float (Float.hypot re im)
        | v ->
            let re, im = ubc v in
            Float (Float.hypot re im))
  | CLD (dx, x) ->
      fun env ->
        (match local env dx x with
        | Cpx (re, im) -> Float (Float.hypot re im)
        | v ->
            let re, im = ubc v in
            Float (Float.hypot re im))
  | CX x ->
      fun env ->
        (match x env with
        | Cpx (re, im) -> Float (Float.hypot re im)
        | v ->
            let re, im = ubc v in
            Float (Float.hypot re im))

let c_real_part (a : cleaf) : env -> value =
  match a with
  | CC (xr, xi) ->
      let re = xr and im = xi in
      let r = (let _ = im in Float re) in
      fun _ -> r
  | CL0 x ->
      fun env ->
        (match env.frame.(x) with
        | Cpx (re, im) -> (let _ = im in Float re)
        | v ->
            let re, im = ubc v in
            (let _ = im in Float re))
  | CL1 x ->
      fun env ->
        (match env.up.frame.(x) with
        | Cpx (re, im) -> (let _ = im in Float re)
        | v ->
            let re, im = ubc v in
            (let _ = im in Float re))
  | CLD (dx, x) ->
      fun env ->
        (match local env dx x with
        | Cpx (re, im) -> (let _ = im in Float re)
        | v ->
            let re, im = ubc v in
            (let _ = im in Float re))
  | CX x ->
      fun env ->
        (match x env with
        | Cpx (re, im) -> (let _ = im in Float re)
        | v ->
            let re, im = ubc v in
            (let _ = im in Float re))

let c_imag_part (a : cleaf) : env -> value =
  match a with
  | CC (xr, xi) ->
      let re = xr and im = xi in
      let r = (let _ = re in Float im) in
      fun _ -> r
  | CL0 x ->
      fun env ->
        (match env.frame.(x) with
        | Cpx (re, im) -> (let _ = re in Float im)
        | v ->
            let re, im = ubc v in
            (let _ = re in Float im))
  | CL1 x ->
      fun env ->
        (match env.up.frame.(x) with
        | Cpx (re, im) -> (let _ = re in Float im)
        | v ->
            let re, im = ubc v in
            (let _ = re in Float im))
  | CLD (dx, x) ->
      fun env ->
        (match local env dx x with
        | Cpx (re, im) -> (let _ = re in Float im)
        | v ->
            let re, im = ubc v in
            (let _ = re in Float im))
  | CX x ->
      fun env ->
        (match x env with
        | Cpx (re, im) -> (let _ = re in Float im)
        | v ->
            let re, im = ubc v in
            (let _ = re in Float im))

(* make-rectangular from float leaves *)
let c_rect (a : leaf) (b : leaf) : env -> value =
  let rd (l : leaf) (env : env) =
    match l with
    | C x -> x
    | L0 i -> ( match env.frame.(i) with Float f -> f | v -> ub v)
    | L1 i -> ( match env.up.frame.(i) with Float f -> f | v -> ub v)
    | LD (d, i) -> ( match local env d i with Float f -> f | v -> ub v)
    | X c -> ( match c env with Float f -> f | v -> ub v)
  in
  fun env ->
    let re = rd a env in
    Cpx (re, rd b env)

let bin_table : (string * (leaf -> leaf -> env -> value)) list =
  [
    ("unsafe-fl+", bin_u_fl_add);
    ("unsafe-fl-", bin_u_fl_sub);
    ("unsafe-fl*", bin_u_fl_mul);
    ("unsafe-fl/", bin_u_fl_div);
    ("unsafe-flmin", bin_u_flmin);
    ("unsafe-flmax", bin_u_flmax);
    ("unsafe-flexpt", bin_u_flexpt);
  ]

let cmp_table : (string * (leaf -> leaf -> env -> value)) list =
  [
    ("unsafe-fl<", bin_u_fl_lt);
    ("unsafe-fl>", bin_u_fl_gt);
    ("unsafe-fl<=", bin_u_fl_le);
    ("unsafe-fl>=", bin_u_fl_ge);
    ("unsafe-fl=", bin_u_fl_eq);
  ]

let un_table : (string * (leaf -> env -> value)) list =
  [
    ("unsafe-flabs", un_u_flabs);
    ("unsafe-flsqrt", un_u_flsqrt);
    ("unsafe-flsin", un_u_flsin);
    ("unsafe-flcos", un_u_flcos);
    ("unsafe-fltan", un_u_fltan);
    ("unsafe-flatan", un_u_flatan);
    ("unsafe-flexp", un_u_flexp);
    ("unsafe-fllog", un_u_fllog);
    ("unsafe-flfloor", un_u_flfloor);
    ("unsafe-flceiling", un_u_flceiling);
    ("unsafe-flround", un_u_flround);
    ("unsafe-fltruncate", un_u_fltruncate);
    ("unsafe-fx->fl", un_fx_to_fl);
  ]

let cbin_table =
  [ ("unsafe-c+", cbin_add); ("unsafe-c-", cbin_sub); ("unsafe-c*", cbin_mul); ("unsafe-c/", cbin_div) ]

let cun_table =
  [
    ("unsafe-cneg", cun_neg); ("unsafe-conjugate", cun_conj);
    ("unsafe-magnitude", c_magnitude); ("unsafe-real-part", c_real_part);
    ("unsafe-imag-part", c_imag_part);
  ]
