(* Lowering: fully-expanded core forms (Ast.t) -> typed IL (Il.code).

   Parity with lib/runtime/interp.ml is the prime directive — the
   differential gate asserts byte-identical output under both engines.
   The load-bearing decisions:

   - No real frames.  Every [let]/[letrec] binding in a procedure body
     is coalesced into the procedure's single base locals array (slot
     indices are monotonic, never reused), so the environment never
     changes during one proto's execution and child closures capture
     the base env directly.  An outer-scope reference from a child
     resolves to depth [1 + rel] where [rel] counts capture hops.

   - Named [let] loops whose lambda body is lambda-free and whose
     binding is only ever the callee of exact-arity tail applications
     are inlined as jump regions in the enclosing proto.  Parameters
     are homed by a fixpoint: a float (resp. int) register when every
     write — entry and self-call args alike — is statically
     float-valued (resp. int-valued); a slot otherwise.  A bare int
     literal is *not* statically float-valued even though the fused
     interpreter would accept it: an [Int]-holding binding must keep
     exact-integer printing.

   - Operand evaluation order mirrors the interpreter's: generic
     1-argument applications evaluate the argument before the callee
     (an OCaml right-to-left quirk), and fused float binaries evaluate
     their operands left to right.

   - Anything the VM cannot express with exact interpreter semantics
     raises [Unsupported]; the whole form then runs on the tree
     walker.  Per-node escapes are deliberately avoided: the VM's
     coalesced locals do not match the interpreter's env shape. *)

open Liblang_runtime
open Value
module Metrics = Liblang_observe.Metrics

exception Unsupported

module AstTbl = Hashtbl.Make (struct
  type t = Ast.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module GlobTbl = Hashtbl.Make (struct
  type t = Ast.global

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Primitive name tables                                              *)
(* ------------------------------------------------------------------ *)

let flbin_of_name = function
  | "unsafe-fl+" -> Some Il.FAdd
  | "unsafe-fl-" -> Some Il.FSub
  | "unsafe-fl*" -> Some Il.FMul
  | "unsafe-fl/" -> Some Il.FDiv
  | "unsafe-flmin" -> Some Il.FMin
  | "unsafe-flmax" -> Some Il.FMax
  | "unsafe-flexpt" -> Some Il.FExpt
  | _ -> None

let flcmp_of_name = function
  | "unsafe-fl<" -> Some Il.Clt
  | "unsafe-fl>" -> Some Il.Cgt
  | "unsafe-fl<=" -> Some Il.Cle
  | "unsafe-fl>=" -> Some Il.Cge
  | "unsafe-fl=" -> Some Il.Ceq
  | _ -> None

let flun_of_name = function
  | "unsafe-flabs" -> Some Il.FAbs
  | "unsafe-flsqrt" -> Some Il.FSqrt
  | "unsafe-flsin" -> Some Il.FSin
  | "unsafe-flcos" -> Some Il.FCos
  | "unsafe-fltan" -> Some Il.FTan
  | "unsafe-flatan" -> Some Il.FAtan
  | "unsafe-flexp" -> Some Il.FExp
  | "unsafe-fllog" -> Some Il.FLog
  | "unsafe-flfloor" -> Some Il.FFloor
  | "unsafe-flceiling" -> Some Il.FCeil
  | "unsafe-flround" -> Some Il.FRound
  | "unsafe-fltruncate" -> Some Il.FTrunc
  | _ -> None

(* generic numeric comparisons eligible for fused conditional jumps;
   the fast2 registrations wrap these exact Numeric functions *)
let cmp_fn_of_name : string -> (value -> value -> bool) option = function
  | "<" -> Some Numeric.lt
  | ">" -> Some Numeric.gt
  | "<=" -> Some Numeric.le
  | ">=" -> Some Numeric.ge
  | "=" -> Some Numeric.num_eq
  | _ -> None

let fxbin_of_name = function
  | "+" -> Some Il.XAdd
  | "-" -> Some Il.XSub
  | "*" -> Some Il.XMul
  | _ -> None

(* Names whose fused interpretation has no IL encoding (complex
   arithmetic).  Seeing one fused bails the whole form out so the
   unboxed-complex semantics can never diverge. *)
let complex_fused_name = function
  | "unsafe-c+" | "unsafe-c-" | "unsafe-c*" | "unsafe-c/" | "unsafe-cneg"
  | "unsafe-conjugate" | "unsafe-magnitude" | "unsafe-real-part"
  | "unsafe-imag-part" | "unsafe-make-rectangular" ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Lowering state                                                     *)
(* ------------------------------------------------------------------ *)

type home = HSlot of int | HFreg of int | HIreg of int

type loop = {
  lp_homes : home array;
  lp_fregs : int list;  (** param float registers (self-call copy hazard) *)
  lp_iregs : int list;
  mutable lp_jumps : int list;  (** pc of Jump placeholders -> loop head *)
}

type scope =
  | SIn of home array  (** binder coalesced into the current proto's frame *)
  | SOut of home array * int  (** captured; frame lives [1 + rel] envs up *)
  | SLoop of loop  (** inlined named-let binding (callee-only by proof) *)

type buf = { mutable arr : Il.instr array; mutable len : int }

let buf_make () = { arr = Array.make 64 Il.Return; len = 0 }

let buf_push b i =
  if b.len = Array.length b.arr then begin
    let a = Array.make (2 * b.len) Il.Return in
    Array.blit b.arr 0 a 0 b.len;
    b.arr <- a
  end;
  b.arr.(b.len) <- i;
  b.len <- b.len + 1

type pst = {
  buf : buf;
  mutable sp : int;
  mutable max_sp : int;
  mutable nlocals : int;  (** next free slot *)
  mutable nfregs : int;  (** next free float register *)
  mutable niregs : int;
  (* Proto preamble: infallible register setup hoisted to proto entry —
     float/int literals and float loads of never-assigned parameters.
     Hoisted instructions run once per activation instead of once per
     loop iteration; memoization keys equal literals to one register. *)
  mutable pre : Il.instr list;  (** reversed preamble *)
  mutable pre_fc : (int64 * int) list;  (** float bits -> preamble freg *)
  mutable pre_ic : (int * int) list;  (** int literal -> preamble ireg *)
  mutable pre_ld : (int * int) list;  (** param slot -> preamble freg *)
  pre_params : bool array;  (** param slots eligible for hoisted loads *)
}

type ctx = {
  unboxing : bool;
  consts : value array;
  const_ix : int AstTbl.t;  (** Quote/QuoteStx node -> consts index *)
  globals : Ast.global array;
  global_ix : int GlobTbl.t;
  mutable protos : Il.proto option array;
  mutable nprotos : int;
  mutable f1 : (string * (value -> value)) list;  (* reversed *)
  mutable nf1 : int;
  mutable f2 : (string * (value -> value -> value)) list;
  mutable nf2 : int;
  mutable cmps : (string * (value -> value -> bool)) list;
  mutable ncmps : int;
  inline_memo : bool AstTbl.t;
}

let emit st i = buf_push st.buf i

let adj st d =
  st.sp <- st.sp + d;
  if st.sp > st.max_sp then st.max_sp <- st.sp

let fresh_slot st =
  let s = st.nlocals in
  st.nlocals <- s + 1;
  s

(* Register targets are never reused: temporaries and homes share one
   monotonic counter, so a nested [let]'s register home can never
   clobber a live temporary.  The file stays small — lowering is
   static, so its size is bounded by the proto's expression count. *)
let fresh_freg st =
  let r = st.nfregs in
  st.nfregs <- r + 1;
  r

let fresh_ireg st =
  let r = st.niregs in
  st.niregs <- r + 1;
  r

(* Preamble hoisting.  Only operations that can never fail and whose
   operand cannot change during the proto's activation are eligible:
   literal constants, and float loads of parameters no set! targets.
   (A parameter with a float-lane use was proven Float by the typed
   optimizer; off-type values are already in unsafe-operation
   territory, where the interpreter's fault point is unspecified.) *)

let pre_fconst st (f : float) ix =
  let key = Int64.bits_of_float f in
  match List.assoc_opt key st.pre_fc with
  | Some r -> r
  | None ->
      let r = fresh_freg st in
      st.pre <- Il.FlConst (r, ix) :: st.pre;
      st.pre_fc <- (key, r) :: st.pre_fc;
      r

let pre_iconst st n =
  match List.assoc_opt n st.pre_ic with
  | Some r -> r
  | None ->
      let r = fresh_ireg st in
      st.pre <- Il.FxConst (r, n) :: st.pre;
      st.pre_ic <- (n, r) :: st.pre_ic;
      r

let pre_fload st s =
  match List.assoc_opt s st.pre_ld with
  | Some r -> r
  | None ->
      let r = fresh_freg st in
      st.pre <- Il.FlLoad (r, 0, s) :: st.pre;
      st.pre_ld <- (s, r) :: st.pre_ld;
      r

(* final instruction stream: preamble, then the body with every
   intra-proto jump target shifted past it *)
let assemble st : Il.instr array =
  let body = Array.sub st.buf.arr 0 st.buf.len in
  match st.pre with
  | [] -> body
  | pre ->
      let pre = Array.of_list (List.rev pre) in
      let k = Array.length pre in
      let shift (i : Il.instr) =
        match i with
        | Il.Jump t -> Il.Jump (t + k)
        | Il.Jfalse t -> Il.Jfalse (t + k)
        | Il.JcmpGen (ix, t) -> Il.JcmpGen (ix, t + k)
        | Il.FlJcmp (op, a, b, t) -> Il.FlJcmp (op, a, b, t + k)
        | Il.FxJcmp (op, a, b, t) -> Il.FxJcmp (op, a, b, t + k)
        | Il.StepJump t -> Il.StepJump (t + k)
        | i -> i
      in
      Array.append pre (Array.map shift body)

let reserve_proto ctx =
  if ctx.nprotos = Array.length ctx.protos then begin
    let a = Array.make (max 4 (2 * ctx.nprotos)) None in
    Array.blit ctx.protos 0 a 0 ctx.nprotos;
    ctx.protos <- a
  end;
  let ix = ctx.nprotos in
  ctx.nprotos <- ix + 1;
  ix

let pool_lookup name lst n =
  let rec go i = function
    | [] -> None
    | (nm, _) :: tl ->
        if String.equal nm name then Some (n - 1 - i) else go (i + 1) tl
  in
  go 0 lst

let pool_f1 ctx name fn =
  match pool_lookup name ctx.f1 ctx.nf1 with
  | Some ix -> ix
  | None ->
      let ix = ctx.nf1 in
      ctx.f1 <- (name, fn) :: ctx.f1;
      ctx.nf1 <- ix + 1;
      ix

let pool_f2 ctx name fn =
  match pool_lookup name ctx.f2 ctx.nf2 with
  | Some ix -> ix
  | None ->
      let ix = ctx.nf2 in
      ctx.f2 <- (name, fn) :: ctx.f2;
      ctx.nf2 <- ix + 1;
      ix

let pool_cmp ctx name fn =
  match pool_lookup name ctx.cmps ctx.ncmps with
  | Some ix -> ix
  | None ->
      let ix = ctx.ncmps in
      ctx.cmps <- (name, fn) :: ctx.cmps;
      ctx.ncmps <- ix + 1;
      ix

let const_ix ctx node =
  match AstTbl.find_opt ctx.const_ix node with
  | Some ix -> ix
  | None -> raise Unsupported

let global_ix ctx g =
  match GlobTbl.find_opt ctx.global_ix g with
  | Some ix -> ix
  | None -> raise Unsupported

(* ------------------------------------------------------------------ *)
(* Constant / global pools: one pre-order walk over the form.         *)
(* ------------------------------------------------------------------ *)

let collect_pools (a : Ast.t) =
  let consts = ref [] and nconsts = ref 0 in
  let cix = AstTbl.create 64 in
  let globals = ref [] and nglobals = ref 0 in
  let gix = GlobTbl.create 32 in
  let add_const node v =
    AstTbl.replace cix node !nconsts;
    consts := v :: !consts;
    incr nconsts
  in
  let add_global g =
    if not (GlobTbl.mem gix g) then begin
      GlobTbl.replace gix g !nglobals;
      globals := g :: !globals;
      incr nglobals
    end
  in
  let rec go a =
    match a with
    | Ast.Quote v -> add_const a v
    | Ast.QuoteStx s -> add_const a (StxV s)
    | Ast.LocalRef _ -> ()
    | Ast.GlobalRef g -> add_global g
    | Ast.SetLocal (_, _, e) -> go e
    | Ast.SetGlobal (g, e) ->
        add_global g;
        go e
    | Ast.If (c, t, e) ->
        go c;
        go t;
        go e
    | Ast.Begin es -> Array.iter go es
    | Ast.Lambda l -> go l.Ast.l_body
    | Ast.App (f, args) | Ast.DirectApp (f, args) ->
        go f;
        Array.iter go args
    | Ast.LetVals (cs, b) | Ast.LetrecVals (cs, b) ->
        Array.iter (fun (c : Ast.clause) -> go c.Ast.rhs) cs;
        go b
  in
  go a;
  (Array.of_list (List.rev !consts), cix, Array.of_list (List.rev !globals), gix)

(* ------------------------------------------------------------------ *)
(* Static classification                                              *)
(* ------------------------------------------------------------------ *)

let imm_global (f : Ast.t) =
  match f with
  | Ast.GlobalRef g when not g.Ast.g_mutable -> Some g.Ast.g_name
  | _ -> None

let is_hfreg = function HFreg _ -> true | _ -> false
let is_hireg = function HIreg _ -> true | _ -> false

let static_float ctx scopes (e : Ast.t) =
  match e with
  | Ast.Quote (Float _) -> true
  | Ast.LocalRef (d, i) -> (
      match List.nth_opt scopes d with
      | Some (SIn homes) -> is_hfreg homes.(i)
      | _ -> false)
  | Ast.App (f, args) when ctx.unboxing -> (
      match imm_global f with
      | Some name -> (
          match Array.length args with
          | 2 -> flbin_of_name name <> None
          | 1 -> flun_of_name name <> None || String.equal name "unsafe-fx->fl"
          | _ -> false)
      | None -> false)
  | _ -> false

let rec static_int ctx scopes (e : Ast.t) =
  match e with
  | Ast.Quote (Int _) -> true
  | Ast.LocalRef (d, i) -> (
      match List.nth_opt scopes d with
      | Some (SIn homes) -> is_hireg homes.(i)
      | _ -> false)
  | Ast.App (f, [| a; b |]) -> (
      match imm_global f with
      | Some name ->
          fxbin_of_name name <> None
          && static_int ctx scopes a
          && static_int ctx scopes b
      | None -> false)
  | _ -> false

(* does [e] contain a SetLocal targeting depth [d]'s slot [i]? *)
let rec sets_var (e : Ast.t) d i =
  match e with
  | Ast.Quote _ | Ast.QuoteStx _ | Ast.LocalRef _ | Ast.GlobalRef _ -> false
  | Ast.SetLocal (d', i', e) -> (d' = d && i' = i) || sets_var e d i
  | Ast.SetGlobal (_, e) -> sets_var e d i
  | Ast.If (c, t, el) -> sets_var c d i || sets_var t d i || sets_var el d i
  | Ast.Begin es -> Array.exists (fun e -> sets_var e d i) es
  | Ast.Lambda l -> sets_var l.Ast.l_body (d + 1) i
  | Ast.App (f, args) | Ast.DirectApp (f, args) ->
      sets_var f d i || Array.exists (fun a -> sets_var a d i) args
  | Ast.LetVals (cs, b) ->
      Array.exists (fun (c : Ast.clause) -> sets_var c.Ast.rhs d i) cs
      || sets_var b (d + 1) i
  | Ast.LetrecVals (cs, b) ->
      Array.exists (fun (c : Ast.clause) -> sets_var c.Ast.rhs (d + 1) i) cs
      || sets_var b (d + 1) i

(* ------------------------------------------------------------------ *)
(* Named-let inlining legality                                        *)
(* ------------------------------------------------------------------ *)

(* [usage_ok]: every reference to the loop binding (depth-tracked) is
   the callee of an exact-arity application in region-tail position.
   [lambda_free_ex]: no lambdas except nested inlinable named lets,
   whose bodies stay in the same proto.  Mutually recursive through
   [can_inline]; memoized per letrec node. *)

let rec usage_ok ctx arity (e : Ast.t) d ltail =
  match e with
  | Ast.LocalRef (d', _) -> d' <> d
  | Ast.Quote _ | Ast.QuoteStx _ | Ast.GlobalRef _ -> true
  | Ast.SetLocal (d', _, e) -> d' <> d && usage_ok ctx arity e d false
  | Ast.SetGlobal (_, e) -> usage_ok ctx arity e d false
  | Ast.If (c, t, el) ->
      usage_ok ctx arity c d false
      && usage_ok ctx arity t d ltail
      && usage_ok ctx arity el d ltail
  | Ast.Begin es ->
      let n = Array.length es in
      let ok = ref true in
      Array.iteri
        (fun i e ->
          if !ok then ok := usage_ok ctx arity e d (ltail && i = n - 1))
        es;
      !ok
  | Ast.Lambda l -> usage_ok ctx arity l.Ast.l_body (d + 1) false
  | (Ast.App (Ast.LocalRef (d', _), args) | Ast.DirectApp (Ast.LocalRef (d', _), args))
    when d' = d ->
      ltail
      && Array.length args = arity
      && Array.for_all (fun a -> usage_ok ctx arity a d false) args
  | Ast.App (f, args) | Ast.DirectApp (f, args) ->
      usage_ok ctx arity f d false
      && Array.for_all (fun a -> usage_ok ctx arity a d false) args
  | Ast.LetVals (cs, b) ->
      Array.for_all
        (fun (c : Ast.clause) -> usage_ok ctx arity c.Ast.rhs d false)
        cs
      && usage_ok ctx arity b (d + 1) ltail
  | Ast.LetrecVals (cs, b) as node -> (
      match cs with
      | [| { Ast.n_vals = 1; rhs = Ast.Lambda l } |] when can_inline ctx node l b
        ->
          (* the nested loop's bodies remain region-resident *)
          usage_ok ctx arity l.Ast.l_body (d + 2) ltail
          && usage_ok ctx arity b (d + 1) ltail
      | _ ->
          Array.for_all
            (fun (c : Ast.clause) -> usage_ok ctx arity c.Ast.rhs (d + 1) false)
            cs
          && usage_ok ctx arity b (d + 1) ltail)

and lambda_free_ex ctx (e : Ast.t) =
  match e with
  | Ast.Quote _ | Ast.QuoteStx _ | Ast.LocalRef _ | Ast.GlobalRef _ -> true
  | Ast.SetLocal (_, _, e) | Ast.SetGlobal (_, e) -> lambda_free_ex ctx e
  | Ast.If (c, t, el) ->
      lambda_free_ex ctx c && lambda_free_ex ctx t && lambda_free_ex ctx el
  | Ast.Begin es -> Array.for_all (lambda_free_ex ctx) es
  | Ast.Lambda _ -> false
  | Ast.App (f, args) | Ast.DirectApp (f, args) ->
      lambda_free_ex ctx f && Array.for_all (lambda_free_ex ctx) args
  | Ast.LetVals (cs, b) ->
      Array.for_all (fun (c : Ast.clause) -> lambda_free_ex ctx c.Ast.rhs) cs
      && lambda_free_ex ctx b
  | Ast.LetrecVals (cs, b) as node -> (
      match cs with
      | [| { Ast.n_vals = 1; rhs = Ast.Lambda l } |] when can_inline ctx node l b
        ->
          lambda_free_ex ctx b
      | _ ->
          Array.for_all (fun (c : Ast.clause) -> lambda_free_ex ctx c.Ast.rhs) cs
          && lambda_free_ex ctx b)

and can_inline ctx node (l : Ast.lam) body =
  match AstTbl.find_opt ctx.inline_memo node with
  | Some b -> b
  | None ->
      (* break self-reference cycles pessimistically *)
      AstTbl.replace ctx.inline_memo node false;
      let ok =
        (not l.Ast.l_rest)
        && lambda_free_ex ctx l.Ast.l_body
        && usage_ok ctx l.Ast.l_arity body 0 true
        && usage_ok ctx l.Ast.l_arity l.Ast.l_body 1 true
      in
      AstTbl.replace ctx.inline_memo node ok;
      ok

(* ------------------------------------------------------------------ *)
(* Parameter homing fixpoint                                          *)
(* ------------------------------------------------------------------ *)

(* Abstract scopes stacked over the real ones while collecting a
   loop's self-call sites: the hypothesis params, the loop binding
   itself, and any other binder (conservative: never register-typed). *)
type akind = KParams | KLoop | KOther

let collect_sites ctx (l : Ast.lam) body : (Ast.t array * akind list) list =
  let sites = ref [] in
  let rec go (e : Ast.t) stk =
    match e with
    | Ast.Quote _ | Ast.QuoteStx _ | Ast.LocalRef _ | Ast.GlobalRef _ -> ()
    | Ast.SetLocal (_, _, e) | Ast.SetGlobal (_, e) -> go e stk
    | Ast.If (c, t, el) ->
        go c stk;
        go t stk;
        go el stk
    | Ast.Begin es -> Array.iter (fun e -> go e stk) es
    | Ast.Lambda l -> go l.Ast.l_body (KOther :: stk)
    | (Ast.App (Ast.LocalRef (d, _), args) | Ast.DirectApp (Ast.LocalRef (d, _), args))
      when d < List.length stk && List.nth stk d = KLoop ->
        (* self-call of *this* loop: nested loops walk under KOther *)
        sites := (args, stk) :: !sites;
        Array.iter (fun a -> go a stk) args
    | Ast.App (f, args) | Ast.DirectApp (f, args) ->
        go f stk;
        Array.iter (fun a -> go a stk) args
    | Ast.LetVals (cs, b) ->
        Array.iter (fun (c : Ast.clause) -> go c.Ast.rhs stk) cs;
        go b (KOther :: stk)
    | Ast.LetrecVals (cs, b) as node -> (
        match cs with
        | [| { Ast.n_vals = 1; rhs = Ast.Lambda il } |]
          when can_inline ctx node il b ->
            go b (KOther :: stk);
            go il.Ast.l_body (KOther :: KOther :: stk)
        | _ ->
            Array.iter (fun (c : Ast.clause) -> go c.Ast.rhs (KOther :: stk)) cs;
            go b (KOther :: stk))
  in
  go body [ KLoop ];
  go l.Ast.l_body [ KParams; KLoop ];
  !sites

let hstatic_float ctx scopes stk (hyp_f : bool array) (e : Ast.t) =
  match e with
  | Ast.Quote (Float _) -> true
  | Ast.LocalRef (d, i) -> (
      let n = List.length stk in
      if d < n then
        match List.nth stk d with KParams -> hyp_f.(i) | _ -> false
      else
        match List.nth_opt scopes (d - n) with
        | Some (SIn homes) -> is_hfreg homes.(i)
        | _ -> false)
  | Ast.App (f, args) when ctx.unboxing -> (
      match imm_global f with
      | Some name -> (
          match Array.length args with
          | 2 -> flbin_of_name name <> None
          | 1 -> flun_of_name name <> None || String.equal name "unsafe-fx->fl"
          | _ -> false)
      | None -> false)
  | _ -> false

let rec hstatic_int ctx scopes stk (hyp_i : bool array) (e : Ast.t) =
  match e with
  | Ast.Quote (Int _) -> true
  | Ast.LocalRef (d, i) -> (
      let n = List.length stk in
      if d < n then
        match List.nth stk d with KParams -> hyp_i.(i) | _ -> false
      else
        match List.nth_opt scopes (d - n) with
        | Some (SIn homes) -> is_hireg homes.(i)
        | _ -> false)
  | Ast.App (f, [| a; b |]) -> (
      match imm_global f with
      | Some name ->
          fxbin_of_name name <> None
          && hstatic_int ctx scopes stk hyp_i a
          && hstatic_int ctx scopes stk hyp_i b
      | None -> false)
  | _ -> false

let solve_homes ctx st scopes (l : Ast.lam) body : home array * loop =
  let arity = l.Ast.l_arity in
  (* entry calls are the letrec-body self-calls, so [sites] covers
     every write to the params *)
  let sites = collect_sites ctx l body in
  let hyp_f = Array.make arity true and hyp_i = Array.make arity true in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (args, stk) ->
        Array.iteri
          (fun j a ->
            if hyp_f.(j) && not (hstatic_float ctx scopes stk hyp_f a) then begin
              hyp_f.(j) <- false;
              changed := true
            end;
            if hyp_i.(j) && not (hstatic_int ctx scopes stk hyp_i a) then begin
              hyp_i.(j) <- false;
              changed := true
            end)
          args)
      sites
  done;
  let fregs = ref [] and iregs = ref [] in
  let homes =
    Array.init arity (fun j ->
        if hyp_f.(j) then begin
          let r = fresh_freg st in
          fregs := r :: !fregs;
          HFreg r
        end
        else if hyp_i.(j) then begin
          let r = fresh_ireg st in
          iregs := r :: !iregs;
          HIreg r
        end
        else HSlot (fresh_slot st))
  in
  ( homes,
    { lp_homes = homes; lp_fregs = !fregs; lp_iregs = !iregs; lp_jumps = [] } )

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                *)
(* ------------------------------------------------------------------ *)

let capture scopes =
  List.map
    (function
      | SIn homes -> SOut (homes, 0)
      | SOut (homes, rel) -> SOut (homes, rel + 1)
      | SLoop _ ->
          (* provably never referenced from under a lambda; keep the
             depth numbering aligned *)
          SOut ([||], 0))
    scopes

let resolve scopes d i =
  match List.nth_opt scopes d with
  | Some (SIn homes) -> `In homes.(i)
  | Some (SOut (homes, rel)) ->
      if i >= Array.length homes then raise Unsupported
      else (
        match homes.(i) with
        | HSlot s -> `Up (1 + rel, s)
        | HFreg _ | HIreg _ -> raise Unsupported (* registers do not escape *))
  | Some (SLoop _) | None -> raise Unsupported

let patch st at target =
  st.buf.arr.(at) <-
    (match st.buf.arr.(at) with
    | Il.Jump _ -> Il.Jump target
    | Il.Jfalse _ -> Il.Jfalse target
    | Il.JcmpGen (ix, _) -> Il.JcmpGen (ix, target)
    | Il.FlJcmp (op, a, b, _) -> Il.FlJcmp (op, a, b, target)
    | Il.FxJcmp (op, a, b, _) -> Il.FxJcmp (op, a, b, target)
    | Il.StepJump _ -> Il.StepJump target
    | _ -> assert false)

let rec lower_expr ctx st scopes ~tail (e : Ast.t) =
  match e with
  | Ast.Quote _ | Ast.QuoteStx _ ->
      emit st (Il.Const (const_ix ctx e));
      adj st 1
  | Ast.LocalRef (d, i) -> (
      match resolve scopes d i with
      | `In (HSlot s) ->
          emit st (Il.Lref (0, s));
          adj st 1
      | `In (HFreg r) ->
          emit st (Il.FlPush r);
          adj st 1
      | `In (HIreg r) ->
          emit st (Il.FxPush r);
          adj st 1
      | `Up (d', s) ->
          emit st (Il.Lref (d', s));
          adj st 1)
  | Ast.GlobalRef g ->
      emit st (Il.Gref (global_ix ctx g));
      adj st 1
  | Ast.SetLocal (d, i, rhs) -> (
      match resolve scopes d i with
      | `In (HSlot s) ->
          lower_expr ctx st scopes ~tail:false rhs;
          emit st (Il.Lset (0, s))
      | `Up (d', s) ->
          lower_expr ctx st scopes ~tail:false rhs;
          emit st (Il.Lset (d', s))
      | `In (HFreg _ | HIreg _) -> raise Unsupported)
  | Ast.SetGlobal (g, rhs) ->
      lower_expr ctx st scopes ~tail:false rhs;
      emit st (Il.Gset (global_ix ctx g))
  | Ast.If (c, t, el) -> lower_if ctx st scopes ~tail c t el
  | Ast.Begin es ->
      let n = Array.length es in
      if n = 0 then raise Unsupported;
      for i = 0 to n - 2 do
        lower_expr ctx st scopes ~tail:false es.(i);
        emit st Il.Pop;
        adj st (-1)
      done;
      lower_expr ctx st scopes ~tail es.(n - 1)
  | Ast.Lambda l ->
      let ix = lower_lambda ctx scopes l in
      emit st (Il.MkClosure ix);
      adj st 1
  | Ast.App (Ast.LocalRef (d, _), args)
    when d < List.length scopes
         && (match List.nth scopes d with SLoop _ -> true | _ -> false) ->
      let lp =
        match List.nth scopes d with SLoop lp -> lp | _ -> assert false
      in
      lower_selfcall ctx st scopes lp args
  | Ast.App (f, args) -> lower_app ctx st scopes ~tail f args
  | Ast.DirectApp (Ast.LocalRef (d, _), args)
    when d < List.length scopes
         && (match List.nth scopes d with SLoop _ -> true | _ -> false) ->
      (* a named-let self-call the analysis also proved monomorphic:
         the inlined-loop jump must win, as for plain App *)
      let lp =
        match List.nth scopes d with SLoop lp -> lp | _ -> assert false
      in
      lower_selfcall ctx st scopes lp args
  | Ast.DirectApp (f, args) -> lower_direct ctx st scopes ~tail f args
  | Ast.LetVals (cs, body)
    when Array.length cs >= 1
         && Array.length cs <= 3
         && Array.for_all (fun (c : Ast.clause) -> c.Ast.n_vals = 1) cs ->
      (* specialized paths: all rhs evaluated, then checked, then bound *)
      let homes =
        Array.mapi
          (fun j (c : Ast.clause) -> choose_home ctx st scopes body j c.Ast.rhs)
          cs
      in
      let slots = ref [] in
      Array.iteri
        (fun j (c : Ast.clause) ->
          match homes.(j) with
          | HSlot s ->
              lower_expr ctx st scopes ~tail:false c.Ast.rhs;
              slots := s :: !slots
          | HFreg r ->
              (* a statically-float rhs cannot produce Values, so the
                 check is vacuous and early homing is unobservable *)
              let t = lower_fl ctx st scopes c.Ast.rhs in
              if t <> r then emit st (Il.FlMov (r, t))
          | HIreg r ->
              let t = lower_fx ctx st scopes c.Ast.rhs in
              if t <> r then emit st (Il.FxMov (r, t)))
        cs;
      (* pop in reverse push order; the check still fires only after
         every rhs has run, matching the interpreter *)
      List.iter
        (fun s ->
          emit st (Il.BindE (0, s, Il.bind_short));
          adj st (-1))
        !slots;
      lower_expr ctx st (SIn homes :: scopes) ~tail body
  | Ast.LetVals (cs, body) ->
      (* general path: eval and bind interleaved (bind_results) *)
      let homes = ref [] in
      Array.iter
        (fun (c : Ast.clause) ->
          if c.Ast.n_vals = 1 then begin
            match
              choose_home ctx st scopes body (List.length !homes) c.Ast.rhs
            with
            | HSlot s ->
                lower_expr ctx st scopes ~tail:false c.Ast.rhs;
                emit st (Il.BindE (0, s, Il.bind_long));
                adj st (-1);
                homes := HSlot s :: !homes
            | HFreg r ->
                let t = lower_fl ctx st scopes c.Ast.rhs in
                if t <> r then emit st (Il.FlMov (r, t));
                homes := HFreg r :: !homes
            | HIreg r ->
                let t = lower_fx ctx st scopes c.Ast.rhs in
                if t <> r then emit st (Il.FxMov (r, t));
                homes := HIreg r :: !homes
          end
          else begin
            let start = st.nlocals in
            for _ = 1 to c.Ast.n_vals do
              homes := HSlot (fresh_slot st) :: !homes
            done;
            lower_expr ctx st scopes ~tail:false c.Ast.rhs;
            emit st (Il.BindEV (0, start, c.Ast.n_vals));
            adj st (-1)
          end)
        cs;
      let homes = Array.of_list (List.rev !homes) in
      lower_expr ctx st (SIn homes :: scopes) ~tail body
  | Ast.LetrecVals ([| { Ast.n_vals = 1; rhs = Ast.Lambda l } |], body) as node
    when can_inline ctx node l body ->
      lower_inline_loop ctx st scopes ~tail l body
  | Ast.LetrecVals ([| { Ast.n_vals = 1; rhs = Ast.Lambda l } |], body) ->
      (* named let, not inlinable: closure over env'; no values check *)
      let slot = fresh_slot st in
      let homes = [| HSlot slot |] in
      let scopes' = SIn homes :: scopes in
      emit st (Il.ClearE (0, slot));
      let ix = lower_lambda ctx scopes' l in
      emit st (Il.MkClosure ix);
      adj st 1;
      emit st (Il.BindE (0, slot, Il.bind_none));
      adj st (-1);
      lower_expr ctx st scopes' ~tail body
  | Ast.LetrecVals (cs, body) ->
      (* general letrec: slots only (a register home could expose a
         stale value where the interpreter sees Undefined); rhs see
         the new scope; ClearE resets slots on loop re-entry *)
      let homes = ref [] in
      let plans = ref [] in
      Array.iter
        (fun (c : Ast.clause) ->
          let start = st.nlocals in
          for _ = 1 to c.Ast.n_vals do
            homes := HSlot (fresh_slot st) :: !homes
          done;
          plans := (c, start) :: !plans)
        cs;
      let homes = Array.of_list (List.rev !homes) in
      let scopes' = SIn homes :: scopes in
      Array.iter
        (function HSlot s -> emit st (Il.ClearE (0, s)) | _ -> assert false)
        homes;
      List.iter
        (fun ((c : Ast.clause), start) ->
          lower_expr ctx st scopes' ~tail:false c.Ast.rhs;
          if c.Ast.n_vals = 1 then emit st (Il.BindE (0, start, Il.bind_long))
          else emit st (Il.BindEV (0, start, c.Ast.n_vals));
          adj st (-1))
        (List.rev !plans);
      lower_expr ctx st scopes' ~tail body

(* a register home for a single-value let binding requires: statically
   typed rhs, a lambda-free let body (only this proto reads it), and
   no set! targeting it *)
and choose_home ctx st scopes body jix (rhs : Ast.t) =
  if
    ctx.unboxing
    && static_float ctx scopes rhs
    && lambda_free_ex ctx body
    && not (sets_var body 0 jix)
  then HFreg (fresh_freg st)
  else if
    static_int ctx scopes rhs
    && lambda_free_ex ctx body
    && not (sets_var body 0 jix)
  then HIreg (fresh_ireg st)
  else HSlot (fresh_slot st)

and lower_if ctx st scopes ~tail c t el =
  let jf =
    match c with
    | Ast.App (f, [| a; b |])
      when ctx.unboxing
           && (match imm_global f with
              | Some n -> flcmp_of_name n <> None
              | None -> false) ->
        (* fused float compare-and-branch; left operand first, like
           the interpreter's fused compare *)
        let op = Option.get (flcmp_of_name (Option.get (imm_global f))) in
        let ra = lower_fl ctx st scopes a in
        let rb = lower_fl ctx st scopes b in
        emit st (Il.FlJcmp (op, ra, rb, 0));
        st.buf.len - 1
    | Ast.App (f, [| a; b |])
      when (match imm_global f with
           | Some n -> cmp_fn_of_name n <> None
           | None -> false)
           && static_int ctx scopes a
           && static_int ctx scopes b ->
        let name = Option.get (imm_global f) in
        let op =
          match name with
          | "<" -> Il.Clt
          | ">" -> Il.Cgt
          | "<=" -> Il.Cle
          | ">=" -> Il.Cge
          | _ -> Il.Ceq
        in
        let ra = lower_fx ctx st scopes a in
        let rb = lower_fx ctx st scopes b in
        emit st (Il.FxJcmp (op, ra, rb, 0));
        st.buf.len - 1
    | Ast.App (f, [| a; b |])
      when match imm_global f with
           | Some n -> cmp_fn_of_name n <> None
           | None -> false ->
        (* generic compare-and-branch: the exact Numeric comparator,
           fast2 operand order (left, then right), no Bool boxing *)
        let name = Option.get (imm_global f) in
        let ix = pool_cmp ctx name (Option.get (cmp_fn_of_name name)) in
        lower_expr ctx st scopes ~tail:false a;
        lower_expr ctx st scopes ~tail:false b;
        emit st (Il.JcmpGen (ix, 0));
        adj st (-2);
        st.buf.len - 1
    | _ ->
        lower_expr ctx st scopes ~tail:false c;
        emit st (Il.Jfalse 0);
        adj st (-1);
        st.buf.len - 1
  in
  let sp0 = st.sp in
  lower_expr ctx st scopes ~tail t;
  emit st (Il.Jump 0);
  let jend = st.buf.len - 1 in
  patch st jf st.buf.len;
  st.sp <- sp0;
  lower_expr ctx st scopes ~tail el;
  patch st jend st.buf.len

and lower_lambda ctx scopes (l : Ast.lam) =
  let ix = reserve_proto ctx in
  let nargs = if l.Ast.l_rest then l.Ast.l_arity + 1 else max l.Ast.l_arity 1 in
  let np = if l.Ast.l_rest then l.Ast.l_arity + 1 else l.Ast.l_arity in
  let st =
    { buf = buf_make (); sp = 0; max_sp = 0; nlocals = nargs; nfregs = 0;
      niregs = 0; pre = []; pre_fc = []; pre_ic = []; pre_ld = [];
      pre_params = Array.init np (fun i -> not (sets_var l.Ast.l_body 0 i)) }
  in
  let params =
    Array.init
      (if l.Ast.l_rest then l.Ast.l_arity + 1 else l.Ast.l_arity)
      (fun i -> HSlot i)
  in
  let scopes' = SIn params :: capture scopes in
  lower_expr ctx st scopes' ~tail:true l.Ast.l_body;
  emit st Il.Return;
  ctx.protos.(ix) <-
    Some
      {
        Il.p_arity = l.Ast.l_arity;
        p_rest = l.Ast.l_rest;
        p_name = l.Ast.l_name;
        p_nlocals = max st.nlocals 1;
        p_nfregs = st.nfregs;
        p_niregs = st.niregs;
        p_nstack = max st.max_sp 1;
        p_code = assemble st;
      };
  ix

and lower_inline_loop ctx st scopes ~tail (l : Ast.lam) body =
  let homes, lp = solve_homes ctx st scopes l body in
  (* region layout: [letrec body; Jump exit; head: l_body; exit:] —
     the letrec body's self-calls are the loop's entries *)
  let sp0 = st.sp in
  lower_expr ctx st (SLoop lp :: scopes) ~tail body;
  emit st (Il.Jump 0);
  let jexit = st.buf.len - 1 in
  let head = st.buf.len in
  st.sp <- sp0;
  lower_expr ctx st (SIn homes :: SLoop lp :: scopes) ~tail l.Ast.l_body;
  patch st jexit st.buf.len;
  List.iter (fun at -> patch st at head) lp.lp_jumps

and lower_selfcall ctx st scopes (lp : loop) (args : Ast.t array) =
  (* the interpreter's generic-apply order: with one argument the arg
     runs before the (pure) callee ref; with more, callee first then
     args left-to-right — either way args run left-to-right here *)
  let commits = ref [] in
  let last = Array.length args - 1 in
  Array.iteri
    (fun j a ->
      match lp.lp_homes.(j) with
      | HSlot s ->
          lower_expr ctx st scopes ~tail:false a;
          commits := `Slot s :: !commits
      | HFreg r ->
          if j = last then begin
            (* the final argument may target its home directly: no
               later argument reads the params, and its commit runs
               first so a passthrough of another param is read before
               that param's own commit clobbers it *)
            let t = lower_fl ~dst:r ctx st scopes a in
            commits := `F (r, t) :: !commits
          end
          else begin
            let t = lower_fl ctx st scopes a in
            let t =
              if List.mem t lp.lp_fregs then begin
                (* direct param-register reference: copy it out before
                   commits clobber it (parallel-assignment hazard) *)
                let c = fresh_freg st in
                emit st (Il.FlMov (c, t));
                c
              end
              else t
            in
            commits := `F (r, t) :: !commits
          end
      | HIreg r ->
          if j = last then begin
            let t = lower_fx ~dst:r ctx st scopes a in
            commits := `I (r, t) :: !commits
          end
          else begin
            let t = lower_fx ctx st scopes a in
            let t =
              if List.mem t lp.lp_iregs then begin
                let c = fresh_ireg st in
                emit st (Il.FxMov (c, t));
                c
              end
              else t
            in
            commits := `I (r, t) :: !commits
          end)
    args;
  (* stack pops must run in reverse push order ([commits] is already
     reversed); register moves read temps only — except the last
     argument's, which therefore commits first *)
  List.iter
    (fun c ->
      match c with
      | `Slot s ->
          emit st (Il.BindE (0, s, Il.bind_none));
          adj st (-1)
      | `F (r, t) -> if r <> t then emit st (Il.FlMov (r, t))
      | `I (r, t) -> if r <> t then emit st (Il.FxMov (r, t)))
    !commits;
  emit st (Il.StepJump 0);
  lp.lp_jumps <- (st.buf.len - 1) :: lp.lp_jumps;
  (* never falls through; account for the value the call "returns" so
     join points balance *)
  adj st 1

and lower_app ctx st scopes ~tail f (args : Ast.t array) =
  let argc = Array.length args in
  let name = imm_global f in
  let fused_fl =
    ctx.unboxing
    && (match name with
       | Some n -> (
           match argc with
           | 2 -> flbin_of_name n <> None
           | 1 -> flun_of_name n <> None || String.equal n "unsafe-fx->fl"
           | _ -> false)
       | None -> false)
  in
  if fused_fl then begin
    let r = lower_fl ctx st scopes (Ast.App (f, args)) in
    emit st (Il.FlPush r);
    adj st 1
  end
  else
    match name with
    | Some n
      when ctx.unboxing && argc = 2 && flcmp_of_name n <> None ->
        let op = Option.get (flcmp_of_name n) in
        let ra = lower_fl ctx st scopes args.(0) in
        let rb = lower_fl ctx st scopes args.(1) in
        emit st (Il.FlCmp (op, ra, rb));
        adj st 1
    | Some n
      when ctx.unboxing && complex_fused_name n && (argc = 1 || argc = 2) ->
        raise Unsupported
    | Some n
      when argc = 2
           && fxbin_of_name n <> None
           && static_int ctx scopes args.(0)
           && static_int ctx scopes args.(1) ->
        (* generic + - * over statically-int operands: Numeric's
           Int,Int case is native wrapping arithmetic *)
        let r = lower_fx ctx st scopes (Ast.App (f, args)) in
        emit st (Il.FxPush r);
        adj st 1
    | Some "unchecked-vector-ref" when argc = 2 ->
        (* flow-proved in-bounds access: dedicated opcode, no fast2 hop *)
        lower_expr ctx st scopes ~tail:false args.(0);
        lower_expr ctx st scopes ~tail:false args.(1);
        emit st Il.VecRefU;
        adj st (-1)
    | Some "unchecked-vector-set!" when argc = 3 ->
        Array.iter (fun a -> lower_expr ctx st scopes ~tail:false a) args;
        emit st Il.VecSetU;
        adj st (-2)
    | Some n when argc = 2 && Hashtbl.mem Interp.fast2 n ->
        let fn = Hashtbl.find Interp.fast2 n in
        lower_expr ctx st scopes ~tail:false args.(0);
        lower_expr ctx st scopes ~tail:false args.(1);
        emit st (Il.Fast2 (pool_f2 ctx n fn));
        adj st (-1)
    | Some n when argc = 1 && Hashtbl.mem Interp.fast1 n ->
        let fn = Hashtbl.find Interp.fast1 n in
        lower_expr ctx st scopes ~tail:false args.(0);
        emit st (Il.Fast1 (pool_f1 ctx n fn))
    | _ ->
        if argc = 1 then begin
          (* arg before callee (OCaml right-to-left); the callee ends
             on top of the stack and Call 1 expects it there *)
          lower_expr ctx st scopes ~tail:false args.(0);
          lower_expr ctx st scopes ~tail:false f
        end
        else begin
          lower_expr ctx st scopes ~tail:false f;
          Array.iter (fun a -> lower_expr ctx st scopes ~tail:false a) args
        end;
        emit st (if tail then Il.TailCall argc else Il.Call argc);
        adj st (-argc)

(* A flow-proved monomorphic call: the callee is a user lambda (never an
   immutable prim global), so none of the fused/fastN prim paths apply;
   emit the known-call opcodes, which skip generic dispatch in the VM.
   Operand order matches [lower_app]'s generic branch exactly. *)
and lower_direct ctx st scopes ~tail f (args : Ast.t array) =
  let argc = Array.length args in
  if argc = 1 then begin
    lower_expr ctx st scopes ~tail:false args.(0);
    lower_expr ctx st scopes ~tail:false f
  end
  else begin
    lower_expr ctx st scopes ~tail:false f;
    Array.iter (fun a -> lower_expr ctx st scopes ~tail:false a) args
  end;
  emit st (if tail then Il.TailCallKnown argc else Il.CallKnown argc);
  adj st (-argc)

(* float-lane lowering: emits code leaving the value in a float
   register and returns the register.  Binary operands evaluate left
   to right, as the fused closures do.
   [?dst] requests the result in a specific register when the lowering
   writes a fresh one anyway (loop self-call argument targeting);
   preamble-memoized and passthrough cases ignore it, and the caller
   reconciles with a move. *)
and lower_fl ?dst ctx st scopes (e : Ast.t) : int =
  let res () = match dst with Some r -> r | None -> fresh_freg st in
  match e with
  | Ast.Quote (Float f) -> pre_fconst st f (const_ix ctx e)
  | Ast.Quote (Int n) ->
      (* fleaf constant-folds both literal shapes to a float *)
      pre_fconst st (float_of_int n) (const_ix ctx e)
  | Ast.LocalRef (d, i) -> (
      match resolve scopes d i with
      | `In (HFreg r) -> r
      | `In (HIreg s) ->
          let r = res () in
          emit st (Il.FlOfI (r, s));
          r
      | `In (HSlot s) when s < Array.length st.pre_params && st.pre_params.(s)
        ->
          pre_fload st s
      | `In (HSlot s) ->
          let r = res () in
          emit st (Il.FlLoad (r, 0, s));
          r
      | `Up (d', s) ->
          let r = res () in
          emit st (Il.FlLoad (r, d', s));
          r)
  | Ast.App (f, [| a; b |])
    when ctx.unboxing
         && (match imm_global f with
            | Some n -> flbin_of_name n <> None
            | None -> false) ->
      let op = Option.get (flbin_of_name (Option.get (imm_global f))) in
      let ra = lower_fl ctx st scopes a in
      let rb = lower_fl ctx st scopes b in
      let r = res () in
      emit st (Il.FlBin (op, r, ra, rb));
      r
  | Ast.App (f, [| a |])
    when ctx.unboxing
         && (match imm_global f with
            | Some n -> flun_of_name n <> None
            | None -> false) ->
      let op = Option.get (flun_of_name (Option.get (imm_global f))) in
      let ra = lower_fl ctx st scopes a in
      let r = res () in
      emit st (Il.FlUn (op, r, ra));
      r
  | Ast.App (f, [| a |])
    when ctx.unboxing
         && (match imm_global f with
            | Some n -> String.equal n "unsafe-fx->fl"
            | None -> false) -> (
      (* unsafe-fx->fl converts with its own error message, so slot
         and dynamic operands go through FxToFl, not FlLoad/FlPop *)
      match a with
      | Ast.Quote (Float f) -> pre_fconst st f (const_ix ctx a)
      | Ast.Quote (Int n) -> pre_fconst st (float_of_int n) (const_ix ctx a)
      | Ast.LocalRef (d, i) -> (
          match resolve scopes d i with
          | `In (HIreg s) ->
              let r = res () in
              emit st (Il.FlOfI (r, s));
              r
          | `In (HFreg r) -> r (* conversion on a float is identity *)
          | `In (HSlot s) ->
              emit st (Il.Lref (0, s));
              adj st 1;
              let r = res () in
              emit st (Il.FxToFl r);
              adj st (-1);
              r
          | `Up (d', s) ->
              emit st (Il.Lref (d', s));
              adj st 1;
              let r = res () in
              emit st (Il.FxToFl r);
              adj st (-1);
              r)
      | _ ->
          lower_expr ctx st scopes ~tail:false a;
          let r = res () in
          emit st (Il.FxToFl r);
          adj st (-1);
          r)
  | _ ->
      lower_expr ctx st scopes ~tail:false e;
      let r = res () in
      emit st (Il.FlPop r);
      adj st (-1);
      r

(* int-lane lowering: only statically-int expressions reach here *)
and lower_fx ?dst ctx st scopes (e : Ast.t) : int =
  match e with
  | Ast.Quote (Int n) -> pre_iconst st n
  | Ast.LocalRef (d, i) -> (
      match resolve scopes d i with `In (HIreg r) -> r | _ -> raise Unsupported)
  | Ast.App (f, [| a; b |]) -> (
      match imm_global f with
      | Some name -> (
          match fxbin_of_name name with
          | Some op ->
              let ra = lower_fx ctx st scopes a in
              let rb = lower_fx ctx st scopes b in
              let r = match dst with Some r -> r | None -> fresh_ireg st in
              emit st (Il.FxBin (op, r, ra, rb));
              r
          | None -> raise Unsupported)
      | None -> raise Unsupported)
  | _ -> raise Unsupported

(* ------------------------------------------------------------------ *)
(* Form entry point                                                   *)
(* ------------------------------------------------------------------ *)

let lower_form ?(unboxing = false) (a : Ast.t) : Il.code option =
  let consts, cix, globals, gix = collect_pools a in
  let ctx =
    {
      unboxing;
      consts;
      const_ix = cix;
      globals;
      global_ix = gix;
      protos = Array.make 4 None;
      nprotos = 0;
      f1 = [];
      nf1 = 0;
      f2 = [];
      nf2 = 0;
      cmps = [];
      ncmps = 0;
      inline_memo = AstTbl.create 8;
    }
  in
  match
    let ix = reserve_proto ctx in
    assert (ix = 0);
    let st =
      { buf = buf_make (); sp = 0; max_sp = 0; nlocals = 0; nfregs = 0;
        niregs = 0; pre = []; pre_fc = []; pre_ic = []; pre_ld = [];
        pre_params = [||] }
    in
    lower_expr ctx st [] ~tail:true a;
    emit st Il.Return;
    ctx.protos.(0) <-
      Some
        {
          Il.p_arity = 0;
          p_rest = false;
          p_name = "";
          p_nlocals = max st.nlocals 1;
          p_nfregs = st.nfregs;
          p_niregs = st.niregs;
          p_nstack = max st.max_sp 1;
          p_code = assemble st;
        };
    let protos =
      Array.init ctx.nprotos (fun i ->
          match ctx.protos.(i) with Some p -> p | None -> assert false)
    in
    {
      Il.protos;
      consts = ctx.consts;
      globals = ctx.globals;
      fast1s = Array.of_list (List.rev_map snd ctx.f1);
      fast2s = Array.of_list (List.rev_map snd ctx.f2);
      cmps = Array.of_list (List.rev_map snd ctx.cmps);
    }
  with
  | code ->
      if Metrics.installed () then begin
        Metrics.countn "lower.protos" (Array.length code.Il.protos);
        Metrics.countn "lower.instructions"
          (Array.fold_left
             (fun acc (p : Il.proto) -> acc + Array.length p.Il.p_code)
             0 code.Il.protos)
      end;
      Some code
  | exception Unsupported -> None
