(** The closure-compiling evaluator — the platform's "code generator".

    [compile] turns a core AST into a tree of OCaml closures ([env -> value]).
    Two features matter for the paper's story:

    - Applications of known immutable primitives compile to direct calls
      (no argument-list allocation), so the dominant remaining cost of
      untyped arithmetic is the generic operation's tag dispatch.
    - Applications of the {e unsafe type-specialized} primitives compile to
      fused closures ({!Flfuse}): each reads its constant and local-slot
      operands unboxed and computes on raw floats (or unboxed (re, im)
      pairs for float-complex operations), with no generic dispatch.
      Each still returns a freshly allocated [Float] (or [Cpx]), so in a
      nest of [unsafe-fl*] operations every inner result reaches its
      parent boxed.  This is this interpreter's reading of §7.1's "these
      primitives … serve as signals to the Racket code generator to guide
      its unboxing optimizations". *)

open Value

(* -- fault containment: fuel ----------------------------------------------

   Compile-time code (macro transformers, [begin-for-syntax] bodies) is
   ordinary object code run by this evaluator, so a divergent transformer
   would otherwise hang the whole compilation.  Every procedure application
   decrements [fuel]; the pipeline installs a finite budget around
   compile-time evaluation (and, on request, around whole-program runs) and
   maps {!Out_of_fuel} to a located diagnostic.  The default budget is
   effectively unlimited, so direct library use and the benchmarks pay only
   one predictable decrement-and-branch per application.

   The budget is {e per domain} (DLS): the compile server dispatches
   requests onto worker domains, and one request's finite [fuel] must
   never starve — or spuriously survive into — a request running
   concurrently on another domain.  A freshly spawned domain copies its
   parent's current budget (a parallel build spawned under a compile
   budget inherits that budget, each worker counting its own copy). *)

exception Out_of_fuel

let unlimited = max_int

let fuel_key : int ref Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:(fun r -> ref !r) (fun () -> ref unlimited)

(** This domain's fuel cell (read with [!], install with [:=]). *)
let[@inline] fuel () : int ref = Domain.DLS.get fuel_key

(* The profiler's hot-path hook: a load-and-branch when no collector is
   installed (see {!Liblang_observe.Metrics.bump_apps}), so the evaluator's
   application path stays allocation-free with observability off. *)
let[@inline] step () =
  Liblang_observe.Metrics.bump_apps ();
  let fuel = Domain.DLS.get fuel_key in
  decr fuel;
  if !fuel <= 0 then raise Out_of_fuel

(* -- procedure application ----------------------------------------------- *)

let arity_error name expected rest got =
  error "%s: arity mismatch: expects %s%d argument%s, given %d"
    (if name = "" then "#<procedure>" else name)
    (if rest then "at least " else "")
    expected
    (if expected = 1 then "" else "s")
    got

let frame_of_args name arity rest args =
  if rest then begin
    let frame = Array.make (arity + 1) Undefined in
    let rec fill i args =
      if i < arity then
        match args with
        | [] -> arity_error name arity rest i
        | a :: more ->
            frame.(i) <- a;
            fill (i + 1) more
      else frame.(arity) <- of_list args
    in
    fill 0 args;
    frame
  end
  else begin
    let frame = Array.make (max arity 1) Undefined in
    let rec fill i args =
      match args with
      | [] -> if i <> arity then arity_error name arity rest i
      | a :: more ->
          if i >= arity then arity_error name arity rest (i + List.length args)
          else begin
            frame.(i) <- a;
            fill (i + 1) more
          end
    in
    fill 0 args;
    frame
  end

(* [apply] less its tick.  [apply1]..[apply5] tick and then fall back on
   it, so an application ticks once whatever the callee. *)
let[@inline] apply_no_tick (f : value) (args : value list) : value =
  match f with
  | Prim p -> p.p_fn args
  | Closure c ->
      let frame = frame_of_args c.cl_name c.arity c.rest args in
      c.code { frame; up = c.cl_env }
  | v -> error "application: not a procedure: %s" (write_string v)

let apply (f : value) (args : value list) : value =
  step ();
  apply_no_tick f args

let apply1 f a0 =
  step ();
  match f with
  | Closure c when c.arity = 1 && not c.rest ->
      c.code { frame = [| a0 |]; up = c.cl_env }
  | Prim p -> p.p_fn [ a0 ]
  | _ -> apply_no_tick f [ a0 ]

let apply2 f a0 a1 =
  step ();
  match f with
  | Closure c when c.arity = 2 && not c.rest ->
      c.code { frame = [| a0; a1 |]; up = c.cl_env }
  | Prim p -> p.p_fn [ a0; a1 ]
  | _ -> apply_no_tick f [ a0; a1 ]

let apply3 f a0 a1 a2 =
  step ();
  match f with
  | Closure c when c.arity = 3 && not c.rest ->
      c.code { frame = [| a0; a1; a2 |]; up = c.cl_env }
  | Prim p -> p.p_fn [ a0; a1; a2 ]
  | _ -> apply_no_tick f [ a0; a1; a2 ]

let apply4 f a0 a1 a2 a3 =
  step ();
  match f with
  | Closure c when c.arity = 4 && not c.rest ->
      c.code { frame = [| a0; a1; a2; a3 |]; up = c.cl_env }
  | Prim p -> p.p_fn [ a0; a1; a2; a3 ]
  | _ -> apply_no_tick f [ a0; a1; a2; a3 ]

let apply5 f a0 a1 a2 a3 a4 =
  step ();
  match f with
  | Closure c when c.arity = 5 && not c.rest ->
      c.code { frame = [| a0; a1; a2; a3; a4 |]; up = c.cl_env }
  | Prim p -> p.p_fn [ a0; a1; a2; a3; a4 ]
  | _ -> apply_no_tick f [ a0; a1; a2; a3; a4 ]

(* -- fast-path registries -------------------------------------------------
   Primitives register specialized entry points here (by name) so that
   saturated calls to immutable globals avoid consing an argument list. *)

let fast1 : (string, value -> value) Hashtbl.t = Hashtbl.create 64
let fast2 : (string, value -> value -> value) Hashtbl.t = Hashtbl.create 64
let register_fast1 name f = Hashtbl.replace fast1 name f
let register_fast2 name f = Hashtbl.replace fast2 name f

(* When false, applications of unsafe float/complex primitives compile as
   ordinary direct calls (still skipping generic dispatch via the fast
   paths) but with no fused unboxing — used by the ablation benchmarks to
   separate the two effects of §7.1's unsafe primitives. *)
let unboxing_enabled = ref true

(* -- compilation ----------------------------------------------------------- *)

(* How an application compiles.  A call to an immutable global whose
   name has a fused unsafe-float closure ([Fused], built on demand) or a
   fast entry point for its arity ([Fast1], [Fast2]) is made directly and
   spends no fuel; any other goes through [apply], which ticks. *)
type call =
  | Apply
  | Fused of (unit -> env -> value)
  | Fast1 of (value -> value)
  | Fast2 of (value -> value -> value)

let local_ref depth idx : env -> value =
  match depth with
  | 0 -> fun env -> env.frame.(idx)
  | 1 -> fun env -> env.up.frame.(idx)
  | 2 -> fun env -> env.up.up.frame.(idx)
  | _ ->
      fun env ->
        let rec up env d = if d = 0 then env.frame.(idx) else up env.up (d - 1) in
        up env depth

let rec compile (a : Ast.t) : env -> value =
  match a with
  | Ast.Quote v -> fun _ -> v
  | Ast.QuoteStx s -> fun _ -> StxV s
  | Ast.LocalRef (d, i) -> local_ref d i
  | Ast.GlobalRef g ->
      fun _ ->
        let v = g.Ast.g_val in
        if v == Undefined then error "%s: undefined; cannot reference before definition" g.Ast.g_name
        else v
  | Ast.SetLocal (d, i, e) ->
      let ce = compile e in
      if d = 0 then
        fun env ->
          env.frame.(i) <- ce env;
          Void
      else
        fun env ->
          let rec up env d = if d = 0 then env else up env.up (d - 1) in
          (up env d).frame.(i) <- ce env;
          Void
  | Ast.SetGlobal (g, e) ->
      let ce = compile e in
      fun env ->
        g.Ast.g_val <- ce env;
        Void
  | Ast.If (c, t, e) ->
      let cc = compile c and ct = compile t and ce = compile e in
      fun env -> if truthy (cc env) then ct env else ce env
  | Ast.Begin es -> (
      match Array.length es with
      | 1 -> compile es.(0)
      | 2 ->
          let c0 = compile es.(0) and c1 = compile es.(1) in
          fun env ->
            ignore (c0 env);
            c1 env
      | n ->
          let cs = Array.map compile es in
          let last = cs.(n - 1) in
          fun env ->
            for i = 0 to n - 2 do
              ignore (cs.(i) env)
            done;
            last env)
  | Ast.Lambda l ->
      let body = compile l.Ast.l_body in
      let arity = l.Ast.l_arity and rest = l.Ast.l_rest and name = l.Ast.l_name in
      fun env -> Closure { arity; rest; cl_name = name; cl_env = env; code = body }
  | Ast.App (f, args) -> compile_app f args
  (* Proved-monomorphic call.  The tree walker's generic [applyN] already
     pre-builds a frame on the matching-arity fast path, so sharing
     [compile_app] is both the fast and the provably-equivalent choice;
     the bytecode backend is where the fact selects a distinct opcode. *)
  | Ast.DirectApp (f, args) -> compile_app f args
  (* single-value clauses are the common case (every [let]); specialize the
     small arities to avoid the general slot machinery *)
  | Ast.LetVals ([| { Ast.n_vals = 1; rhs } |], body) ->
      let r0 = compile rhs in
      let cbody = compile body in
      fun env ->
        let v = r0 env in
        (match v with Values _ -> error "context expected 1 value" | _ -> ());
        cbody { frame = [| v |]; up = env }
  | Ast.LetVals ([| { Ast.n_vals = 1; rhs = r0 }; { Ast.n_vals = 1; rhs = r1 } |], body) ->
      let c0 = compile r0 and c1 = compile r1 in
      let cbody = compile body in
      fun env ->
        let v0 = c0 env in
        let v1 = c1 env in
        (match (v0, v1) with
        | Values _, _ | _, Values _ -> error "context expected 1 value"
        | _ -> ());
        cbody { frame = [| v0; v1 |]; up = env }
  | Ast.LetVals
      ([| { Ast.n_vals = 1; rhs = r0 }; { Ast.n_vals = 1; rhs = r1 }; { Ast.n_vals = 1; rhs = r2 } |], body)
    ->
      let c0 = compile r0 and c1 = compile r1 and c2 = compile r2 in
      let cbody = compile body in
      fun env ->
        let v0 = c0 env in
        let v1 = c1 env in
        let v2 = c2 env in
        (match (v0, v1, v2) with
        | Values _, _, _ | _, Values _, _ | _, _, Values _ -> error "context expected 1 value"
        | _ -> ());
        cbody { frame = [| v0; v1; v2 |]; up = env }
  | Ast.LetrecVals ([| { Ast.n_vals = 1; rhs = Ast.Lambda l } |], body) ->
      (* a named let *)
      let lam_body = compile l.Ast.l_body in
      let arity = l.Ast.l_arity and rest = l.Ast.l_rest and name = l.Ast.l_name in
      let cbody = compile body in
      fun env ->
        let frame = [| Undefined |] in
        let env' = { frame; up = env } in
        frame.(0) <- Closure { arity; rest; cl_name = name; cl_env = env'; code = lam_body };
        cbody env'
  | Ast.LetVals (clauses, body) ->
      let total = Array.fold_left (fun acc c -> acc + c.Ast.n_vals) 0 clauses in
      let compiled = Array.map (fun c -> (c.Ast.n_vals, compile c.Ast.rhs)) clauses in
      let cbody = compile body in
      fun env ->
        let frame = Array.make (max total 1) Undefined in
        let slot = ref 0 in
        Array.iter
          (fun (n, rhs) ->
            let v = rhs env in
            bind_results frame slot n v)
          compiled;
        cbody { frame; up = env }
  | Ast.LetrecVals (clauses, body) ->
      let total = Array.fold_left (fun acc c -> acc + c.Ast.n_vals) 0 clauses in
      let compiled = Array.map (fun c -> (c.Ast.n_vals, compile c.Ast.rhs)) clauses in
      let cbody = compile body in
      fun env ->
        let frame = Array.make (max total 1) Undefined in
        let env' = { frame; up = env } in
        let slot = ref 0 in
        Array.iter
          (fun (n, rhs) ->
            let v = rhs env' in
            bind_results frame slot n v)
          compiled;
        cbody env'

and bind_results frame slot n v =
  if n = 1 then begin
    (match v with
    | Values _ -> error "context expected 1 value, got multiple values"
    | _ -> ());
    frame.(!slot) <- v;
    incr slot
  end
  else
    match v with
    | Values vs when List.length vs = n ->
        List.iter
          (fun v ->
            frame.(!slot) <- v;
            incr slot)
          vs
    | _ -> error "context expected %d values" n

and compile_app f args : env -> value =
  let generic () =
    let cf = compile f in
    match Array.map compile args with
    | [||] -> fun env -> apply (cf env) []
    | [| a0 |] -> fun env -> apply1 (cf env) (a0 env)
    | [| a0; a1 |] ->
        fun env ->
          let vf = cf env in
          let v0 = a0 env in
          apply2 vf v0 (a1 env)
    | [| a0; a1; a2 |] ->
        fun env ->
          let vf = cf env in
          let v0 = a0 env in
          let v1 = a1 env in
          apply3 vf v0 v1 (a2 env)
    | [| a0; a1; a2; a3 |] ->
        fun env ->
          let vf = cf env in
          let v0 = a0 env in
          let v1 = a1 env in
          let v2 = a2 env in
          apply4 vf v0 v1 v2 (a3 env)
    | [| a0; a1; a2; a3; a4 |] ->
        fun env ->
          let vf = cf env in
          let v0 = a0 env in
          let v1 = a1 env in
          let v2 = a2 env in
          let v3 = a3 env in
          apply5 vf v0 v1 v2 v3 (a4 env)
    | cargs ->
        fun env ->
          let vf = cf env in
          let vs = Array.to_list (Array.map (fun c -> c env) cargs) in
          apply vf vs
  in
  match call_of f args with
  | Fused build -> build ()
  | Fast2 op ->
      let a0 = compile args.(0) and a1 = compile args.(1) in
      fun env ->
        let x = a0 env in
        op x (a1 env)
  | Fast1 op ->
      let a0 = compile args.(0) in
      fun env -> op (a0 env)
  | Apply -> generic ()

(* How an application of [f] to [args] compiles: see {!call}.  {!Naive}
   asks the same question, so both evaluators spend fuel on exactly the
   same applications. *)
and call_of f args : call =
  match f with
  | Ast.GlobalRef g when not g.Ast.g_mutable -> (
      let name = g.Ast.g_name in
      (* every fused name starts with [unsafe-]: one prefix test spares
         every other primitive application the table scans *)
      match
        if !unboxing_enabled && String.starts_with ~prefix:"unsafe-" name then fused name args
        else None
      with
      | Some build -> Fused build
      | None -> (
          match Array.length args with
          | 2 -> ( match Hashtbl.find fast2 name with op -> Fast2 op | exception Not_found -> Apply)
          | 1 -> ( match Hashtbl.find fast1 name with op -> Fast1 op | exception Not_found -> Apply)
          | _ -> Apply))
  | _ -> Apply

(* the fused unsafe-float closure for an application of [name], if the
   generated tables have one for its arity *)
and fused name args : (unit -> env -> value) option =
  let fbin = List.assoc_opt name Flfuse.bin_table in
  let fcmp = List.assoc_opt name Flfuse.cmp_table in
  let fun1 = List.assoc_opt name Flfuse.un_table in
  match (fbin, fcmp, fun1, Array.length args) with
  | Some build, _, _, 2 -> Some (fun () -> build (fleaf args.(0)) (fleaf args.(1)))
  | _, Some build, _, 2 -> Some (fun () -> build (fleaf args.(0)) (fleaf args.(1)))
  | _, _, Some build, 1 -> Some (fun () -> build (fleaf args.(0)))
  | _ -> (
      let cbin = List.assoc_opt name Flfuse.cbin_table in
      let cun = List.assoc_opt name Flfuse.cun_table in
      match (cbin, cun, Array.length args) with
      | Some build, _, 2 -> Some (fun () -> build (cleaf args.(0)) (cleaf args.(1)))
      | _, Some build, 1 -> Some (fun () -> build (cleaf args.(0)))
      | _ when name = "unsafe-make-rectangular" && Array.length args = 2 ->
          Some (fun () -> Flfuse.c_rect (fleaf args.(0)) (fleaf args.(1)))
      | _ -> None)

(* operand shape classification for the fused unsafe-float closures *)
and fleaf (a : Ast.t) : Flfuse.leaf =
  match a with
  | Ast.Quote (Float f) -> Flfuse.C f
  | Ast.Quote (Int n) -> Flfuse.C (float_of_int n)
  | Ast.LocalRef (0, i) -> Flfuse.L0 i
  | Ast.LocalRef (1, i) -> Flfuse.L1 i
  | Ast.LocalRef (d, i) -> Flfuse.LD (d, i)
  | a -> Flfuse.X (compile a)

and cleaf (a : Ast.t) : Flfuse.cleaf =
  match a with
  | Ast.Quote (Cpx (re, im)) -> Flfuse.CC (re, im)
  | Ast.Quote (Float f) -> Flfuse.CC (f, 0.)
  | Ast.Quote (Int n) -> Flfuse.CC (float_of_int n, 0.)
  | Ast.LocalRef (0, i) -> Flfuse.CL0 i
  | Ast.LocalRef (1, i) -> Flfuse.CL1 i
  | Ast.LocalRef (d, i) -> Flfuse.CLD (d, i)
  | a -> Flfuse.CX (compile a)

(* -- entry points ---------------------------------------------------------- *)

let eval_top (a : Ast.t) : value = compile a top_env
