(** Compilation of fully-expanded core syntax to the runtime AST, with
    lexical addressing.  Pattern-matches exactly the core grammar of the
    paper's figure 1 — anything else is an internal error, because the
    expander guarantees its output is core.

    One compiler serves two representations of core forms (a {!source}):
    live syntax objects, whose identifiers resolve through the binding
    table to a binding uid, and the datums of a compiled artifact, whose
    identifiers are {e written names} — unique in their module, so a name
    alone fixes its binding (see [Liblang_compiled.Writer]). *)

module Stx = Liblang_stx.Stx
module Symbol = Liblang_stx.Stx.Symbol
module Binding = Liblang_stx.Binding
module Datum = Liblang_reader.Datum
module Ast = Liblang_runtime.Ast
module Value = Liblang_runtime.Value

exception Compile_error of string * Stx.t

let err msg s = raise (Compile_error (msg, s))

(* compile-time environment: frames of (binder key, slot).  The key is a
   binding uid for syntax and the interned written name for datums. *)
type cenv = (int * int) list list

let lookup (cenv : cenv) (key : int) : (int * int) option =
  (* int equality, not [List.assoc]'s polymorphic compare: this runs for
     every identifier, through every enclosing frame *)
  let rec in_frame = function
    | [] -> -1
    | (k, slot) :: rest -> if k = key then slot else in_frame rest
  in
  let rec go depth = function
    | [] -> None
    | frame :: rest ->
        let slot = in_frame frame in
        if slot >= 0 then Some (depth, slot) else go (depth + 1) rest
  in
  go 0 cenv

(** What an identifier denotes where it occurs: a local's frame address,
    or a module-level binding (a variable, a core form, a macro). *)
type target = Local of int * int | Bound of Binding.t

(** The structure of one node, as far as the core grammar looks. *)
type 'a shape = Ident | Form of 'a list | Dotted of 'a list * 'a | Literal | Other

(** A representation of core forms.  [target] resolves a reference in a
    compile-time environment; [head] gives the binding a form's head
    denotes, which names a core form only if it is no local's; [binder]
    gives a binding occurrence's environment key and the name a procedure
    it binds is shown under. *)
type 'a source = {
  shape : 'a -> 'a shape;
  target : cenv -> 'a -> target;
  head : 'a -> Binding.t option;
  binder : 'a -> int * string;
  datum : 'a -> Datum.t;  (** a [quote]d node's value *)
  syntax : 'a -> Stx.t;  (** a [quote-syntax]ed node's value; error locations *)
  direct_call : 'a -> bool;
}

let fail (src : 'a source) msg (s : 'a) = err msg (src.syntax s)

let is_ident (src : 'a source) (s : 'a) = match src.shape s with Ident -> true | _ -> false

let core_kind (src : 'a source) (hd : 'a) : string option =
  match src.head hd with
  | Some b -> ( match Denote.get b with Some (Denote.DCore name) -> Some name | _ -> None)
  | None -> None

let parse_formals (src : 'a source) (f : 'a) : 'a list * 'a option =
  match src.shape f with
  | Ident -> ([], Some f)
  | Form ids -> (ids, None)
  | Dotted (ids, tl) -> (ids, Some tl)
  | Literal | Other -> fail src "lambda: bad formals" f

let rec compile (src : 'a source) (cenv : cenv) (s : 'a) : Ast.t =
  match src.shape s with
  | Ident -> (
      match src.target cenv s with
      | Local (depth, slot) -> Ast.LocalRef (depth, slot)
      | Bound b -> (
          match Denote.get b with
          | Some (Denote.DCore name) -> fail src (name ^ ": core form used as a variable") s
          | Some (Denote.DMacro _) -> fail src "macro used as a variable after expansion" s
          | _ -> Ast.GlobalRef (Namespace.global_of b)))
  | Form (hd :: args) when is_ident src hd -> (
      match core_kind src hd with
      | Some name -> compile_core src cenv name s args
      | None -> fail src "compile: non-core form (expander bug?)" s)
  | Literal -> fail src "literal not wrapped in quote (expander bug?)" s
  | _ -> fail src "compile: non-core form (expander bug?)" s

and compile_core src cenv name (s : 'a) (args : 'a list) : Ast.t =
  match (name, args) with
  | "quote", [ x ] -> Ast.Quote (Value.of_datum (src.datum x))
  | "quote-syntax", [ x ] -> Ast.QuoteStx (src.syntax x)
  | "if", [ c; t; e ] -> Ast.If (compile src cenv c, compile src cenv t, compile src cenv e)
  | "begin", _ :: _ -> Ast.Begin (Array.of_list (List.map (compile src cenv) args))
  | "#%expression", [ e ] -> compile src cenv e
  | "#%plain-app", f :: rest ->
      let cf = compile src cenv f in
      let cargs = Array.of_list (List.map (compile src cenv) rest) in
      (* the flow analysis marks call sites it proved monomorphic; the
         property survives any optimizer rewrap of the same node *)
      if src.direct_call s then Ast.DirectApp (cf, cargs) else Ast.App (cf, cargs)
  | "#%plain-lambda", formals :: body when body <> [] ->
      let ids, rest = parse_formals src formals in
      let keys = List.map (fun id -> fst (src.binder id)) (ids @ Option.to_list rest) in
      let frame = List.mapi (fun i key -> (key, i)) keys in
      let cbody = compile_body src (frame :: cenv) s body in
      Ast.Lambda
        {
          Ast.l_arity = List.length ids;
          l_rest = Option.is_some rest;
          l_name = "";
          l_body = cbody;
        }
  | ("let-values" | "letrec-values"), clauses :: body when body <> [] ->
      let recursive = String.equal name "letrec-values" in
      let clauses =
        match src.shape clauses with Form cs -> cs | _ -> fail src (name ^ ": bad clauses") s
      in
      let parsed =
        List.map
          (fun c ->
            match src.shape c with
            | Form [ ids; rhs ] -> (
                match src.shape ids with
                | Form ids -> (List.map src.binder ids, rhs)
                | _ -> fail src (name ^ ": bad clause") c)
            | _ -> fail src (name ^ ": bad clause") c)
          clauses
      in
      let frame = List.mapi (fun i (key, _) -> (key, i)) (List.concat_map fst parsed) in
      let inner = frame :: cenv in
      let rhs_env = if recursive then inner else cenv in
      let compiled_clauses =
        Array.of_list
          (List.map
             (fun (binders, rhs) ->
               let ast = compile src rhs_env rhs in
               (match (ast, binders) with
               | Ast.Lambda l, [ (_, n) ] when l.Ast.l_name = "" -> l.Ast.l_name <- n
               | _ -> ());
               { Ast.n_vals = List.length binders; rhs = ast })
             parsed)
      in
      let cbody = compile_body src inner s body in
      if recursive then Ast.LetrecVals (compiled_clauses, cbody)
      else Ast.LetVals (compiled_clauses, cbody)
  | "set!", [ x; e ] -> (
      let tx = src.target cenv x in
      let ce = compile src cenv e in
      match tx with
      | Local (depth, slot) -> Ast.SetLocal (depth, slot, ce)
      | Bound b ->
          let g = Namespace.global_of b in
          if not g.Ast.g_mutable then fail src "set!: cannot mutate an immutable binding" x
          else Ast.SetGlobal (g, ce))
  | _ -> fail src (name ^ ": unexpected core form in expression position") s

and compile_body src cenv s body =
  match body with
  | [ e ] -> compile src cenv e
  | _ :: _ -> Ast.Begin (Array.of_list (List.map (compile src cenv) body))
  | [] -> fail src "empty body" s

(* -- syntax objects ------------------------------------------------------------ *)

let resolve_exn (id : Stx.t) : Binding.t =
  match Binding.resolve id with
  | Some b -> b
  | None -> err (Printf.sprintf "%s: unbound identifier" (Stx.sym_exn id)) id

let stx_source : Stx.t source =
  {
    shape =
      (fun s ->
        match Stx.view s with
        | Stx.Id _ -> Ident
        | Stx.List xs -> Form xs
        | Stx.DotList (xs, tl) -> Dotted (xs, tl)
        | Stx.Atom _ -> Literal
        | Stx.Vec _ -> Other);
    target =
      (fun cenv id ->
        let b = resolve_exn id in
        match lookup cenv b.Binding.uid with
        | Some (depth, slot) -> Local (depth, slot)
        | None -> Bound b);
    head = Binding.resolve;
    binder = (fun id -> ((resolve_exn id).Binding.uid, Stx.sym_exn id));
    datum = Stx.to_datum;
    syntax = Fun.id;
    direct_call = (fun s -> Option.is_some (Stx.property_get "analysis:direct-call" s));
  }

(** Compile a fully-expanded expression (no free local variables). *)
let compile_expr (s : Stx.t) : Ast.t = compile stx_source [] s

(* -- artifact datums ------------------------------------------------------------- *)

(* What a written name means within one datum: a module-context
   binding, or a local with this environment key. *)
type meaning = Module_level of Binding.t | Local_name of int

(** Compile a core expression written in a compiled artifact.  A name
    bound by an enclosing binder in the datum is that local; any other
    name means [resolve name], a binding of the artifact's module context.
    [display name] is the source name a binder was renamed from (shown as
    a procedure's name), and [syntax] makes a node's syntax object, for
    [quote-syntax] and error locations. *)
let compile_datum ~(resolve : string -> Binding.t) ~(display : string -> string)
    ~(syntax : Datum.annot -> Stx.t) (d : Datum.annot) : Ast.t =
  let name (a : Datum.annot) =
    match a.Datum.d with Datum.Atom (Datum.Sym s) -> s | _ -> err "expected an identifier" (syntax a)
  in
  (* Written names are unique in the module, so a name is a local
     everywhere or nowhere: a binder settles it as a local (by its
     environment key), and a name no binder has settled by the time it is
     referenced — binders precede their scope — means a module-context
     binding.  Either way it is looked up once. *)
  let meanings : (string, meaning) Hashtbl.t = Hashtbl.create 32 in
  let module_level n =
    let b = resolve n in
    Hashtbl.add meanings n (Module_level b);
    b
  in
  let src =
    {
      shape =
        (fun (a : Datum.annot) ->
          match a.Datum.d with
          | Datum.Atom (Datum.Sym _) -> Ident
          | Datum.List xs -> Form xs
          | Datum.DotList (xs, tl) -> Dotted (xs, tl)
          | Datum.Atom _ -> Literal
          | Datum.Vec _ -> Other);
      target =
        (fun cenv a ->
          let n = name a in
          match Hashtbl.find_opt meanings n with
          | Some (Module_level b) -> Bound b
          | Some (Local_name key) -> (
              match lookup cenv key with
              | Some (depth, slot) -> Local (depth, slot)
              | None -> err (n ^ ": local used outside its scope") (syntax a))
          | None -> Bound (module_level n));
      head =
        (fun a ->
          let n = name a in
          match Hashtbl.find_opt meanings n with
          | Some (Module_level b) -> Some b
          | Some (Local_name _) -> None
          | None -> Some (module_level n));
      binder =
        (fun a ->
          let n = name a in
          let key = Symbol.intern n in
          Hashtbl.replace meanings n (Local_name key);
          (key, display n));
      datum = (fun a -> a.Datum.d);
      syntax;
      direct_call = (fun _ -> false);
    }
  in
  compile src [] d
