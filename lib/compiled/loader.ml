(** Reconstructing a live module from a compiled artifact — the §5 replay
    path.  No macro runs and the typechecker never does, and no body form
    goes through the expander: {!Writer} wrote every name so that it alone
    fixes its binding, so a body compiles from its datum straight to an
    AST.

    The artifact's body is the module's fully-expanded core forms, so
    loading is exactly the back half of {!Modsys.compile_module}: enter the
    same module context ({!Modsys.in_module_context}), with the language's
    (and each require's) exports bound, then walk the core forms once —

    - [#%require] re-binds the required module's exports (the required
      module itself was already resolved by {!Resolver} while validating
      the artifact's transitive digests);
    - [define-values] binds each id's written name now, from the
      artifact's index, to a binding carrying the source name (the
      artifact's [renames]), and {e defers} its right-hand side to first
      instantiation ({!Modsys.CLazy}), as it does each top-level
      expression.  Forcing reads the form's byte range of the artifact
      text ({!Artifact.read_deferred}) and compiles the datum with
      {!Compile.compile_datum}: a name bound by an enclosing binder in the
      datum is that local, and any other name resolves once per load in
      the module context plus the artifact's [links].  Compile-only
      consumers — importers, parallel-build workers replaying a
      dependency — never read a body, let alone compile one.  The
      artifact carries no bytecode: the VM lowers
      each form at its first evaluation, as it does for a freshly
      compiled module;
    - [define-syntaxes] re-evaluates the transformer expression and
      installs the macro — this is how a typed module's export
      indirections (§6.2) come back to life;
    - [begin-for-syntax] forms are the serialized compile-time
      declarations of §5 (e.g. Typed Racket's [typed:declare-type] calls):
      each is compiled once and becomes a regenerated [ct_thunk], replayed
      by [visit] into every later compilation that requires the module.
      Closures are never read from disk — only core syntax is.

    These last two, and [#%require] and [#%provide], are the forms
    importers expand against, so they alone are read at load, become
    syntax objects (with the module scope) and take the expander's path.
    The class the writer recorded for a form must agree with what its
    head means here; if it does not, the load fails and the resolver
    recompiles the module.

    Loading bumps [module.cache_hits] (the cache-aware sibling of
    [module.compiles]: their sum is the number of modules this session
    acquired by any means) and never [module.compiles] — that is the
    counter the warm-path acceptance test pins to zero. *)

module Stx = Liblang_stx.Stx
module Datum = Liblang_reader.Datum
module Binding = Liblang_stx.Binding
module Ast = Liblang_runtime.Ast
module Interp = Liblang_runtime.Interp
module Expander = Liblang_expander.Expander
module Compile = Liblang_expander.Compile
module Denote = Liblang_expander.Denote
module Namespace = Liblang_expander.Namespace
module Modsys = Liblang_modules.Modsys
module Metrics = Liblang_observe.Metrics

let err = Modsys.err

(** Rebuild a {!Modsys.t} from [a]'s body and register it.  Every
    module [a] requires must already be declared (the resolver loads
    requires first, as part of validating transitive digests). *)
let load (a : Artifact.t) : Modsys.t =
  (* the [loader.replay] fault site: an injected error here is caught by
     the resolver's load wrapper and degrades to a recompile *)
  Liblang_fault.Fault.check "loader.replay";
  let name = a.Artifact.mod_name in
  Modsys.in_module_context ~span:"load-module" ~name ~lang:a.Artifact.lang
  @@ fun scopes requires ->
  Metrics.count "module.cache_hits";
  let syntax (d : Datum.annot) = Stx.of_datum ~scopes d in
  let source_names : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (w, n) -> Hashtbl.replace source_names w n) a.Artifact.renames;
  let display w = Option.value (Hashtbl.find_opt source_names w) ~default:w in
  (* what a written name means in the module context: resolved once
     per load, since the name alone fixes the binding *)
  let meanings : (string, Binding.t) Hashtbl.t = Hashtbl.create 64 in
  let resolve n =
    match Hashtbl.find_opt meanings n with
    | Some b -> b
    | None -> (
        match Binding.resolve (Stx.id ~scopes n) with
        | Some b ->
            Hashtbl.add meanings n b;
            b
        | None ->
            err "%s: unbound identifier while loading compiled module (stale artifact?)" n)
  in
  let bad what = err "artifact: bad %s in %s" what name in
  let sym_of what (d : Datum.annot) =
    match d.Datum.d with Datum.Atom (Datum.Sym s) -> s | _ -> bad what
  in
  let ids_of what (d : Datum.annot) =
    match d.Datum.d with Datum.List ids -> List.map (sym_of what) ids | _ -> bad what
  in
  let head_kind n = match Denote.get (resolve n) with Some (Denote.DCore k) -> Some k | _ -> None in
  let core_kind (f : Datum.annot) =
    match f.Datum.d with
    | Datum.List ({ Datum.d = Datum.Atom (Datum.Sym n); _ } :: _) -> head_kind n
    | _ -> None
  in
  let disagree recorded k =
    err "artifact: the index records %s in %s, whose head means %s" recorded name
      (Option.value k ~default:"no core form")
  in
  let args (f : Datum.annot) = match f.Datum.d with Datum.List (_ :: rest) -> rest | _ -> [] in
  (* bind each alias to the binding it links: another module's
     internal definition, or a builtin module's export.  A builtin
     owner needs no require, so its aliases — a core form's among them
     — are bound before pass A reads any form's head; a file owner is
     loaded by the requires pass A replays.  A missing target means the
     owner was recompiled to a different shape by a cache-less session:
     fail, and the resolver degrades this artifact to a recompile. *)
  let builtin owner = match Modsys.find_opt owner with Some m -> m.Modsys.builtin | None -> false in
  let link (alias, owner, n) =
    let target =
      match Modsys.find_internal ~mod_name:owner n with
      | Some b -> Some b
      | None when builtin owner ->
          List.find_map
            (fun e -> if String.equal e.Modsys.ext_name n then Some e.Modsys.binding else None)
            (Modsys.find owner).Modsys.exports
      | None -> None
    in
    match target with
    | Some b -> Binding.add (Stx.id ~scopes alias) b
    | None -> err "artifact: link target %s in module %s no longer exists" n owner
  in
  let builtin_links, file_links = List.partition (fun (_, o, _) -> builtin o) a.Artifact.links in
  List.iter link builtin_links;
  (* pass A: process requires and forward-bind every module-level
     definition, so mutually recursive right-hand sides compile (the
     expander's pass 1 did the same during the original compilation).
     A require can change what a name means, so the names resolved
     before it are resolved again after it. *)
  Modsys.reset_internals name;
  let define (w : string) : Binding.t =
    let b = Binding.fresh (display w) in
    Binding.add (Stx.id ~scopes w) b;
    b
  in
  List.iter
    (function
      | Artifact.Load f -> (
          match (core_kind f, args f) with
          | Some "#%require", specs ->
              List.iter (fun spec -> Modsys.handle_require (syntax spec)) specs;
              Hashtbl.reset meanings
          | _ -> ())
      | Artifact.Define { ids; _ } ->
          List.iter
            (fun w ->
              let b = define w in
              Denote.set b Denote.DVar;
              Modsys.record_internal ~mod_name:name w b)
            ids
      | Artifact.Expr _ -> ())
    a.Artifact.forms;
  List.iter link file_links;
  let m = Modsys.fresh_module name in
  (* pass B: process each form.  Transformers and compile-time
     declarations are re-evaluated eagerly — importers compile against
     them — but [define-values] right-hand sides and top-level
     expressions only matter at instantiation, so reading and compiling
     them is deferred behind a [Modsys.CLazy].  A compile-only consumer
     — an importer, or a parallel-build worker replaying a dependency's
     artifact — therefore never pays for the body at all.  Forcing
     yields a fresh [Modsys.code] cell, whose interpreter closure the
     first instantiation compiles. *)
  let read = Artifact.read_deferred a in
  let compile r = Compile.compile_datum ~resolve ~display ~syntax (read r) in
  let defer (k : unit -> Modsys.compiled_form) = Modsys.CLazy (lazy (k ())) in
  let provides = ref [] in
  let read_at_load f =
    match (core_kind f, args f) with
    | Some "define-syntaxes", [ ids; rhs ] -> (
        match ids_of "define-syntaxes" ids with
        | [ w ] ->
            let t = Expander.eval_transformer_rhs ~name:(display w) (syntax rhs) in
            Denote.set (define w) (Denote.DMacro t)
        | _ -> bad "define-syntaxes")
    | Some "define-syntaxes", _ -> bad "define-syntaxes"
    | Some "begin-for-syntax", es ->
        (* the serialized §5 declarations: compile once, replay now
           into the module's own (fresh) store — mirroring the
           original compilation — and keep the thunk for [visit] *)
        let thunks =
          List.map
            (fun e ->
              let ast = Compile.compile_expr (Expander.expand_expr (syntax e)) in
              fun () -> ignore (Interp.eval_top ast))
            es
        in
        List.iter (fun thunk -> thunk ()) thunks;
        m.Modsys.ct_thunks <- m.Modsys.ct_thunks @ thunks
    | Some "#%provide", specs -> provides := !provides @ specs
    | Some "#%require", _ -> ()
    | k, _ -> disagree "a form read at load" k
  in
  let load_form = function
    | Artifact.Load f -> read_at_load f
    | Artifact.Define { head; ids; rhs } ->
        (match head_kind head with Some "define-values" -> () | k -> disagree "a define-values" k);
        let globals = List.map (fun w -> Namespace.global_of (resolve w)) ids in
        m.Modsys.body <-
          defer (fun () ->
              let ast = compile rhs in
              (match (globals, ast) with
              | [ g ], Ast.Lambda l when l.Ast.l_name = "" -> l.Ast.l_name <- g.Ast.g_name
              | _ -> ());
              Modsys.CDef (globals, Modsys.code ast))
          :: m.Modsys.body
    | Artifact.Expr { head; range } ->
        (match Option.bind head head_kind with
        | Some ("define-values" | "define-syntaxes" | "begin-for-syntax" | "#%require" | "#%provide") as k
          ->
            disagree "an expression" k
        | _ -> ());
        m.Modsys.body <- defer (fun () -> Modsys.CExpr (Modsys.code (compile range))) :: m.Modsys.body
  in
  List.iter load_form a.Artifact.forms;
  (* a provide may name a macro defined after it: parse the specs once
     every form is loaded, as compilation does once expansion is done *)
  List.iter
    (fun spec -> m.Modsys.exports <- m.Modsys.exports @ Modsys.parse_provide_spec (syntax spec))
    !provides;
  m.Modsys.body <- List.rev m.Modsys.body;
  m.Modsys.requires <- List.rev !requires;
  Modsys.register m;
  m
