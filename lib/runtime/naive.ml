(** A deliberately plain AST-walking evaluator over the same core AST.

    Used as the slower comparison backend in the Fig. 6/8 reproductions
    (standing in for the other Scheme systems the paper measures — see the
    substitution table in DESIGN.md).  It re-inspects the AST at every step,
    always conses argument lists, and never specializes primitives or
    unboxes floats.  It spends fuel on the same applications as the
    interpreter ({!Interp.call_of}), so a fuel budget stops a program
    at the same point under either. *)

open Value

(* Naive closures reuse the [Closure] representation by storing an
   AST-walking [code] thunk built at closure-creation time. *)

let rec eval (a : Ast.t) (env : env) : value =
  match a with
  | Ast.Quote v -> v
  | Ast.QuoteStx s -> StxV s
  | Ast.LocalRef (d, i) ->
      let rec up env d = if d = 0 then env.frame.(i) else up env.up (d - 1) in
      up env d
  | Ast.GlobalRef g ->
      let v = g.Ast.g_val in
      if v == Undefined then error "%s: undefined; cannot reference before definition" g.Ast.g_name
      else v
  | Ast.SetLocal (d, i, e) ->
      let rec up env d = if d = 0 then env else up env.up (d - 1) in
      (up env d).frame.(i) <- eval e env;
      Void
  | Ast.SetGlobal (g, e) ->
      g.Ast.g_val <- eval e env;
      Void
  | Ast.If (c, t, e) -> if truthy (eval c env) then eval t env else eval e env
  | Ast.Begin es ->
      let n = Array.length es in
      for i = 0 to n - 2 do
        ignore (eval es.(i) env)
      done;
      eval es.(n - 1) env
  | Ast.Lambda l ->
      let body = l.Ast.l_body in
      Closure
        {
          arity = l.Ast.l_arity;
          rest = l.Ast.l_rest;
          cl_name = l.Ast.l_name;
          cl_env = env;
          code = (fun env' -> eval body env');
        }
  | Ast.App (f, args) | Ast.DirectApp (f, args) ->
      let vf = eval f env in
      let vs = Array.to_list (Array.map (fun a -> eval a env) args) in
      (* spend fuel exactly where the interpreter does *)
      (match Interp.call_of f args with
      | Interp.Apply -> Interp.apply vf vs
      | _ -> Interp.apply_no_tick vf vs)
  | Ast.LetVals (clauses, body) ->
      let total = Array.fold_left (fun acc c -> acc + c.Ast.n_vals) 0 clauses in
      let frame = Array.make (max total 1) Undefined in
      let slot = ref 0 in
      Array.iter
        (fun c -> Interp.bind_results frame slot c.Ast.n_vals (eval c.Ast.rhs env))
        clauses;
      eval body { frame; up = env }
  | Ast.LetrecVals (clauses, body) ->
      let total = Array.fold_left (fun acc c -> acc + c.Ast.n_vals) 0 clauses in
      let frame = Array.make (max total 1) Undefined in
      let env' = { frame; up = env } in
      let slot = ref 0 in
      Array.iter
        (fun c -> Interp.bind_results frame slot c.Ast.n_vals (eval c.Ast.rhs env'))
        clauses;
      eval body env'

let eval_top (a : Ast.t) : value = eval a top_env
