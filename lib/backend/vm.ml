(* The bytecode engine: executes Il.code produced by Lower, with exact
   observable parity with lib/runtime/interp.ml — same results, same
   error messages, same [Interp.step] fuel/metrics cadence, same
   evaluation orders.  Anything Lower could not express runs on the
   tree walker via the per-form fallback, so [eval_top] is a drop-in
   replacement for [Interp.eval_top].

   Execution model: one [exec] activation per procedure call.  The
   value stack, float register file, and int register file are local
   arrays sized by the proto; the locals array doubles as the
   environment frame child closures capture (interp env shape).  Hot
   loops are inlined into their enclosing proto by Lower, so float
   kernels iterate entirely inside one activation, touching only the
   unboxed register files — no allocation per iteration. *)

open Liblang_runtime
open Value
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

(* total instructions retired; eval_top snapshots around each form *)
let executed = ref 0

let rec lookup_env (env : env) d =
  if d = 0 then env else lookup_env env.up (d - 1)

let flbin_fn : Il.flbin -> float -> float -> float = function
  | Il.FAdd -> ( +. )
  | Il.FSub -> ( -. )
  | Il.FMul -> ( *. )
  | Il.FDiv -> ( /. )
  | Il.FMin -> Float.min
  | Il.FMax -> Float.max
  | Il.FExpt -> Float.pow

let flun_fn : Il.flun -> float -> float = function
  | Il.FAbs -> Float.abs
  | Il.FSqrt -> Float.sqrt
  | Il.FSin -> Float.sin
  | Il.FCos -> Float.cos
  | Il.FTan -> Float.tan
  | Il.FAtan -> Float.atan
  | Il.FExp -> Float.exp
  | Il.FLog -> Float.log
  | Il.FFloor -> Float.floor
  | Il.FCeil -> Float.ceil
  | Il.FRound -> Numeric.round_half_even
  | Il.FTrunc -> Float.trunc

(* Shared empty register files: most protos have no unboxed registers,
   and an activation must not pay an allocation for files it never
   touches. *)
let no_fregs : float array = [||]
let no_iregs : int array = [||]

let call_n (stack : value array) n sp =
  match n with
  | 0 -> Interp.apply stack.(sp - 1) []
  | 1 -> Interp.apply1 stack.(sp - 1) stack.(sp - 2)
  | 2 -> Interp.apply2 stack.(sp - 3) stack.(sp - 2) stack.(sp - 1)
  | 3 -> Interp.apply3 stack.(sp - 4) stack.(sp - 3) stack.(sp - 2) stack.(sp - 1)
  | 4 ->
      Interp.apply4 stack.(sp - 5) stack.(sp - 4) stack.(sp - 3) stack.(sp - 2)
        stack.(sp - 1)
  | 5 ->
      Interp.apply5 stack.(sp - 6) stack.(sp - 5) stack.(sp - 4) stack.(sp - 3)
        stack.(sp - 2) stack.(sp - 1)
  | _ ->
      let rec args i acc =
        if i < sp - n then acc else args (i - 1) (stack.(i) :: acc)
      in
      Interp.apply stack.(sp - n - 1) (args (sp - 1) [])

(* A call site the flow analysis proved monomorphic: the common case is
   an exact-arity closure, entered with a frame built straight off the
   stack — no applyN dispatch chain.  Anything else (a fact made stale
   by an escaped rebind) falls back to the generic path, so the
   observable behavior — including arity errors — is identical. *)
let call_known (stack : value array) n sp =
  let f = if n = 1 then stack.(sp - 1) else stack.(sp - n - 1) in
  match f with
  | Closure c when c.arity = n && not c.rest ->
      Interp.step ();
      let frame = Array.make (max n 1) Undefined in
      (if n = 1 then frame.(0) <- stack.(sp - 2)
       else
         for k = 0 to n - 1 do
           frame.(k) <- stack.(sp - n + k)
         done);
      c.code { frame; up = c.cl_env }
  | _ -> call_n stack n sp

(* One [exec] activation per procedure call: three array allocations
   (often two, via the shared empties) and a tail-recursive dispatch
   loop with every piece of state in parameters — no closure is
   allocated, which is what keeps call-heavy code (fibfp) at parity
   with the tree-walker's compiled closures.

   Register indices are in bounds by construction (Lower sizes each
   proto's register files to the registers it allocated), so the hot
   loop reads the register files unchecked; the value stack and locals keep their
   checks.  [ic] (instructions retired) rides along as an unboxed
   parameter and lands in [executed] only at activation exit. *)
type act = {
  a_c : Il.code;
  a_code : Il.instr array;
  a_env : env;
  a_locals : value array;
  a_fregs : float array;
  a_iregs : int array;
  a_stack : value array;
}

let rec exec (c : Il.code) (p : Il.proto) (env : env) : value =
  let a =
    {
      a_c = c;
      a_code = p.Il.p_code;
      a_env = env;
      a_locals = env.frame;
      a_fregs = (if p.Il.p_nfregs = 0 then no_fregs else Array.make p.Il.p_nfregs 0.);
      a_iregs = (if p.Il.p_niregs = 0 then no_iregs else Array.make p.Il.p_niregs 0);
      a_stack = Array.make p.Il.p_nstack Undefined;
    }
  in
  go a 0 0 0

and go (a : act) pc sp ic : value =
  match a.a_code.(pc) with
  | Il.Const i ->
      a.a_stack.(sp) <- a.a_c.Il.consts.(i);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.Pop -> go a (pc + 1) (sp - 1) (ic + 1)
  | Il.Lref (0, s) ->
      a.a_stack.(sp) <- Array.unsafe_get a.a_locals s;
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.Lref (d, s) ->
      a.a_stack.(sp) <- (lookup_env a.a_env d).frame.(s);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.Lset (d, s) ->
      let v = a.a_stack.(sp - 1) in
      if d = 0 then a.a_locals.(s) <- v else (lookup_env a.a_env d).frame.(s) <- v;
      a.a_stack.(sp - 1) <- Void;
      go a (pc + 1) sp (ic + 1)
  | Il.Gref i ->
      let g = a.a_c.Il.globals.(i) in
      let v = g.Ast.g_val in
      if v == Undefined then
        error "%s: undefined; cannot reference before definition" g.Ast.g_name
      else begin
        a.a_stack.(sp) <- v;
        go a (pc + 1) (sp + 1) (ic + 1)
      end
  | Il.Gset i ->
      (a.a_c.Il.globals.(i)).Ast.g_val <- a.a_stack.(sp - 1);
      a.a_stack.(sp - 1) <- Void;
      go a (pc + 1) sp (ic + 1)
  | Il.Jump t -> go a t sp (ic + 1)
  | Il.Jfalse t ->
      if truthy a.a_stack.(sp - 1) then
        go a (pc + 1) (sp - 1) (ic + 1)
      else go a t (sp - 1) (ic + 1)
  | Il.JcmpGen (ix, t) ->
      if a.a_c.Il.cmps.(ix) a.a_stack.(sp - 2) a.a_stack.(sp - 1) then
        go a (pc + 1) (sp - 2) (ic + 1)
      else go a t (sp - 2) (ic + 1)
  | Il.MkClosure ix ->
      let pr = a.a_c.Il.protos.(ix) in
      a.a_stack.(sp) <-
        Closure
          {
            arity = pr.Il.p_arity;
            rest = pr.Il.p_rest;
            cl_name = pr.Il.p_name;
            cl_env = a.a_env;
            code = enter a.a_c ix;
          };
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.Call n ->
      let v = call_n a.a_stack n sp in
      let sp' = sp - n in
      a.a_stack.(sp' - 1) <- v;
      go a (pc + 1) sp' (ic + 1)
  | Il.TailCall n ->
      executed := !executed + ic + 1;
      call_n a.a_stack n sp
  | Il.CallKnown n ->
      let v = call_known a.a_stack n sp in
      let sp' = sp - n in
      a.a_stack.(sp' - 1) <- v;
      go a (pc + 1) sp' (ic + 1)
  | Il.TailCallKnown n ->
      executed := !executed + ic + 1;
      call_known a.a_stack n sp
  | Il.VecRefU ->
      (match (a.a_stack.(sp - 2), a.a_stack.(sp - 1)) with
      | Vec arr, Int i -> a.a_stack.(sp - 2) <- Array.unsafe_get arr i
      | _ -> error "unchecked-vector-ref: undefined behavior off-type");
      go a (pc + 1) (sp - 1) (ic + 1)
  | Il.VecSetU ->
      (match (a.a_stack.(sp - 3), a.a_stack.(sp - 2)) with
      | Vec arr, Int i ->
          Array.unsafe_set arr i a.a_stack.(sp - 1);
          a.a_stack.(sp - 3) <- Void
      | _ -> error "unchecked-vector-set!: undefined behavior off-type");
      go a (pc + 1) (sp - 2) (ic + 1)
  | Il.Fast1 i ->
      a.a_stack.(sp - 1) <- a.a_c.Il.fast1s.(i) a.a_stack.(sp - 1);
      go a (pc + 1) sp (ic + 1)
  | Il.Fast2 i ->
      a.a_stack.(sp - 2) <- a.a_c.Il.fast2s.(i) a.a_stack.(sp - 2) a.a_stack.(sp - 1);
      go a (pc + 1) (sp - 1) (ic + 1)
  | Il.Step ->
      Interp.step ();
      go a (pc + 1) sp (ic + 1)
  | Il.StepJump t ->
      Interp.step ();
      go a t sp (ic + 1)
  | Il.Return ->
      executed := !executed + ic + 1;
      a.a_stack.(sp - 1)
  | Il.BindE (0, s, k) ->
      let v = a.a_stack.(sp - 1) in
      (if k <> Il.bind_none then
         match v with
         | Values _ ->
             if k = Il.bind_short then error "context expected 1 value"
             else error "context expected 1 value, got multiple values"
         | _ -> ());
      a.a_locals.(s) <- v;
      go a (pc + 1) (sp - 1) (ic + 1)
  | Il.BindE (_, _, _) -> assert false
  | Il.BindEV (_, s, n) -> (
      match a.a_stack.(sp - 1) with
      | Values vs when List.length vs = n ->
          List.iteri (fun j v -> a.a_locals.(s + j) <- v) vs;
          go a (pc + 1) (sp - 1) (ic + 1)
      | _ -> error "context expected %d values" n)
  | Il.ClearE (_, s) ->
      a.a_locals.(s) <- Undefined;
      go a (pc + 1) sp (ic + 1)
  | Il.FlConst (r, i) ->
      Array.unsafe_set a.a_fregs r (Numeric.unsafe_fl a.a_c.Il.consts.(i));
      go a (pc + 1) sp (ic + 1)
  | Il.FlLoad (r, 0, s) ->
      Array.unsafe_set a.a_fregs r
        (match Array.unsafe_get a.a_locals s with Float f -> f | v -> Numeric.unsafe_fl v);
      go a (pc + 1) sp (ic + 1)
  | Il.FlLoad (r, d, s) ->
      Array.unsafe_set a.a_fregs r
        (match (lookup_env a.a_env d).frame.(s) with Float f -> f | v -> Numeric.unsafe_fl v);
      go a (pc + 1) sp (ic + 1)
  | Il.FlPop r ->
      Array.unsafe_set a.a_fregs r
        (match a.a_stack.(sp - 1) with Float f -> f | v -> Numeric.unsafe_fl v);
      go a (pc + 1) (sp - 1) (ic + 1)
  | Il.FlPush r ->
      a.a_stack.(sp) <- Float (Array.unsafe_get a.a_fregs r);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.FlBin (op, d, ra, rb) ->
      let x = Array.unsafe_get a.a_fregs ra and y = Array.unsafe_get a.a_fregs rb in
      Array.unsafe_set a.a_fregs d
        (match op with
        | Il.FAdd -> x +. y
        | Il.FSub -> x -. y
        | Il.FMul -> x *. y
        | Il.FDiv -> x /. y
        | op -> flbin_fn op x y);
      go a (pc + 1) sp (ic + 1)
  | Il.FlUn (op, d, ra) ->
      Array.unsafe_set a.a_fregs d (flun_fn op (Array.unsafe_get a.a_fregs ra));
      go a (pc + 1) sp (ic + 1)
  | Il.FlCmp (cmp, ra, rb) ->
      let x = Array.unsafe_get a.a_fregs ra and y = Array.unsafe_get a.a_fregs rb in
      a.a_stack.(sp) <-
        Bool
          (match cmp with
          | Il.Clt -> x < y
          | Il.Cgt -> x > y
          | Il.Cle -> x <= y
          | Il.Cge -> x >= y
          | Il.Ceq -> x = y);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.FlJcmp (cmp, ra, rb, t) ->
      let x = Array.unsafe_get a.a_fregs ra and y = Array.unsafe_get a.a_fregs rb in
      let hit =
        match cmp with
        | Il.Clt -> x < y
        | Il.Cgt -> x > y
        | Il.Cle -> x <= y
        | Il.Cge -> x >= y
        | Il.Ceq -> x = y
      in
      if hit then go a (pc + 1) sp (ic + 1) else go a t sp (ic + 1)
  | Il.FlMov (d, s) ->
      Array.unsafe_set a.a_fregs d (Array.unsafe_get a.a_fregs s);
      go a (pc + 1) sp (ic + 1)
  | Il.FlOfI (d, s) ->
      Array.unsafe_set a.a_fregs d (float_of_int (Array.unsafe_get a.a_iregs s));
      go a (pc + 1) sp (ic + 1)
  | Il.FxToFl r ->
      Array.unsafe_set a.a_fregs r (Numeric.unsafe_fx_to_fl a.a_stack.(sp - 1));
      go a (pc + 1) (sp - 1) (ic + 1)
  | Il.FxConst (r, n) ->
      Array.unsafe_set a.a_iregs r n;
      go a (pc + 1) sp (ic + 1)
  | Il.FxPush r ->
      a.a_stack.(sp) <- Int (Array.unsafe_get a.a_iregs r);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.FxBin (op, d, ra, rb) ->
      let x = Array.unsafe_get a.a_iregs ra and y = Array.unsafe_get a.a_iregs rb in
      Array.unsafe_set a.a_iregs d
        (match op with Il.XAdd -> x + y | Il.XSub -> x - y | Il.XMul -> x * y);
      go a (pc + 1) sp (ic + 1)
  | Il.FxCmp (cmp, ra, rb) ->
      let x = Array.unsafe_get a.a_iregs ra and y = Array.unsafe_get a.a_iregs rb in
      a.a_stack.(sp) <-
        Bool
          (match cmp with
          | Il.Clt -> x < y
          | Il.Cgt -> x > y
          | Il.Cle -> x <= y
          | Il.Cge -> x >= y
          | Il.Ceq -> x = y);
      go a (pc + 1) (sp + 1) (ic + 1)
  | Il.FxJcmp (cmp, ra, rb, t) ->
      let x = Array.unsafe_get a.a_iregs ra and y = Array.unsafe_get a.a_iregs rb in
      let hit =
        match cmp with
        | Il.Clt -> x < y
        | Il.Cgt -> x > y
        | Il.Cle -> x <= y
        | Il.Cge -> x >= y
        | Il.Ceq -> x = y
      in
      if hit then go a (pc + 1) sp (ic + 1) else go a t sp (ic + 1)
  | Il.FxMov (d, s) ->
      Array.unsafe_set a.a_iregs d (Array.unsafe_get a.a_iregs s);
      go a (pc + 1) sp (ic + 1)

(* Closure entry: interp's [apply] hands us a frame sized exactly to
   the arguments; pad it out to the proto's coalesced locals count so
   let-bindings in the body have their slots.  The padded array is the
   frame child closures capture. *)
and enter (c : Il.code) ix : env -> value =
 fun given ->
  let p = c.Il.protos.(ix) in
  let nargs = Array.length given.frame in
  if nargs >= p.Il.p_nlocals then exec c p given
  else begin
    let locals = Array.make p.Il.p_nlocals Undefined in
    Array.blit given.frame 0 locals 0 nargs;
    exec c p { frame = locals; up = given.up }
  end

let run_code (c : Il.code) : value =
  let p = c.Il.protos.(0) in
  let frame = Array.make p.Il.p_nlocals Undefined in
  exec c p { frame; up = top_env }

(* -- per-form code cache -------------------------------------------------

   Keyed on the Ast node's physical identity (forms are compiled once
   and re-evaluated many times — the compile server and warm runs), and
   ephemeral so dropping a program's forms drops its bytecode.  Each
   entry caches both unboxing variants: the ablation benchmarks flip
   [Interp.unboxing_enabled] between runs of the same form.  Artifacts
   carry no bytecode, so a form loaded from the store lowers here at
   its first evaluation, like any other. *)

type lowered = LCode of Il.code | LInterp

type entry = { mutable on_ : lowered option; mutable off_ : lowered option }

module Cache = Ephemeron.K1.Make (struct
  type t = Ast.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let cache : entry Cache.t = Cache.create 256

let entry_of (a : Ast.t) : entry =
  match Cache.find_opt cache a with
  | Some e -> e
  | None ->
      let e = { on_ = None; off_ = None } in
      Cache.replace cache a e;
      e

let get (e : entry) unboxing = if unboxing then e.on_ else e.off_

let set (e : entry) unboxing l =
  if unboxing then e.on_ <- Some l else e.off_ <- Some l

let eval_top (a : Ast.t) : value =
  let unboxing = !Interp.unboxing_enabled in
  let e = entry_of a in
  let l =
    match get e unboxing with
    | Some l -> l
    | None ->
        let l =
          Trace.span "lower" @@ fun () ->
          match Lower.lower_form ~unboxing a with
          | Some c -> LCode c
          | None -> LInterp
        in
        set e unboxing l;
        l
  in
  match l with
  | LInterp -> Interp.eval_top a
  | LCode c ->
      if Metrics.installed () then begin
        let before = !executed in
        let v = run_code c in
        Metrics.countn "vm.instructions" (!executed - before);
        v
      end
      else run_code c
