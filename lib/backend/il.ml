(** The typed intermediate language executed by {!Vm}.

    A fully-expanded core form ({!Liblang_runtime.Ast.t}) is lowered by
    {!Lower} into a table of [proto]s — flat instruction arrays with
    explicit locals, resolved variable slots, and known-primitive calls —
    plus shared constant/global pools drawn from the source AST in
    pre-order.  Entry 0 of the table is the form's top-level code; other
    entries are the bodies of the lambdas it creates.

    Two register files sit beside the value stack: [fregs] holds unboxed
    OCaml floats and is targeted wherever the typed optimizer emitted
    [fl:*] rewrites ([unsafe-fl*] primitives), and [iregs] holds unboxed
    ints for loop counters the lowerer can prove are fixnum-valued.
    Instructions over those files ([FlBin], [FxJcmp], ...) neither
    allocate nor dispatch.

    Code lives only in memory: the VM lowers each form at its first
    evaluation and caches the result per AST node ({!Vm.eval_top}).
    Artifacts carry no bytecode. *)

open Liblang_runtime

type cmp = Clt | Cgt | Cle | Cge | Ceq

type flbin = FAdd | FSub | FMul | FDiv | FMin | FMax | FExpt

type flun =
  | FAbs
  | FSqrt
  | FSin
  | FCos
  | FTan
  | FAtan
  | FExp
  | FLog
  | FFloor
  | FCeil
  | FRound
  | FTrunc

type fxbin = XAdd | XSub | XMul

type instr =
  (* values and variables ------------------------------------------------ *)
  | Const of int  (** push [consts.(i)] *)
  | Pop
  | Lref of int * int  (** push [frame(depth).(slot)] *)
  | Lset of int * int  (** pop v; [frame(depth).(slot) <- v]; push Void *)
  | Gref of int  (** push [globals.(i)]; error when still Undefined *)
  | Gset of int  (** pop v; [globals.(i).g_val <- v]; push Void *)
  (* control -------------------------------------------------------------- *)
  | Jump of int
  | Jfalse of int  (** pop; jump when not [truthy] *)
  | JcmpGen of int * int  (** pop b, a; cmps pool ix, target-if-false *)
  | MkClosure of int  (** push a closure over [protos.(i)] capturing the current env *)
  | Call of int  (** argc; pops argc args then the callee; pushes result *)
  | TailCall of int  (** like [Call] but releases this frame's VM state first *)
  | CallKnown of int
      (** [Call] at a site the flow analysis proved monomorphic: the callee
          is expected to be an exact-arity closure, entered without generic
          dispatch; anything else falls back to the [Call] path *)
  | TailCallKnown of int  (** tail form of [CallKnown] *)
  | Fast1 of int  (** unary fast-path primitive: pool index into [fast1s] *)
  | Fast2 of int  (** binary fast-path primitive: pool index into [fast2s] *)
  | VecRefU  (** pop i, v; push element — bounds proved by the analysis *)
  | VecSetU  (** pop x, i, v; store unchecked; push Void *)
  | Step  (** one interpreter fuel tick (inlined loop iteration) *)
  | StepJump of int  (** fused [Step; Jump t]: the inlined-loop back edge *)
  | Return
  (* binding -------------------------------------------------------------- *)
  | BindE of int * int * int  (** pop v into [frame(depth).(slot)]; kind *)
  | BindEV of int * int * int  (** pop v; spread [n] values into slots from [start] *)
  | ClearE of int * int  (** [frame(depth).(slot) <- Undefined] (letrec reset) *)
  (* unboxed float lane --------------------------------------------------- *)
  | FlConst of int * int  (** fregs.(r) <- float of [consts.(i)] (Int/Float) *)
  | FlLoad of int * int * int  (** fregs.(r) <- unbox_float [frame(d).(i)] *)
  | FlPop of int  (** pop v; fregs.(r) <- unbox_float v *)
  | FlPush of int  (** push [Float fregs.(r)] *)
  | FlBin of flbin * int * int * int  (** dst, a, b *)
  | FlUn of flun * int * int  (** dst, a *)
  | FlCmp of cmp * int * int  (** push [Bool (a OP b)] *)
  | FlJcmp of cmp * int * int * int  (** a, b, target-if-false *)
  | FlMov of int * int
  | FlOfI of int * int  (** fregs.(d) <- float_of_int iregs.(s) *)
  (* unboxed int lane ----------------------------------------------------- *)
  | FxConst of int * int  (** iregs.(r) <- n *)
  | FxPush of int  (** push [Int iregs.(r)] *)
  | FxBin of fxbin * int * int * int
  | FxCmp of cmp * int * int
  | FxJcmp of cmp * int * int * int
  | FxMov of int * int
  | FxToFl of int  (** pop v; fregs.(r) <- [unsafe-fx->fl]'s conversion of v *)

(** Values-check kinds for [BindE], matching the interpreter's
    three binding error shapes exactly. *)
let bind_none = 0 (* no check: named-let closure slot *)

let bind_short = 1 (* "context expected 1 value" (specialized let) *)
let bind_long = 2 (* "context expected 1 value, got multiple values" *)

type proto = {
  p_arity : int;
  p_rest : bool;
  p_name : string;  (** closure name for arity errors; "" = anonymous *)
  p_nlocals : int;  (** size of the base locals frame (>= max (arity+rest) 1) *)
  p_nfregs : int;
  p_niregs : int;
  p_nstack : int;  (** max operand-stack depth *)
  p_code : instr array;
}

(** One lowered top-level form: a proto table plus the pools shared by
    every proto in it.  [fast1s]/[fast2s] hold resolved primitive
    functions; [cmps] holds unwrapped comparators for [JcmpGen]. *)
type code = {
  protos : proto array;  (** entry 0 runs the form itself *)
  consts : Value.value array;  (** pre-order Quote/QuoteStx pool *)
  globals : Ast.global array;  (** pre-order GlobalRef/SetGlobal pool *)
  fast1s : (Value.value -> Value.value) array;
  fast2s : (Value.value -> Value.value -> Value.value) array;
  cmps : (Value.value -> Value.value -> bool) array;
}
