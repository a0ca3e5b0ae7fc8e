(** The module system (paper §2.3, §5).

    A module is compiled separately, with a fresh compile-time store; its
    compiled form records, besides runtime definitions, the compile-time
    declarations ([begin-for-syntax] forms) that are replayed — "visited" —
    into the store of any later compilation that requires it.  This is how
    Typed Racket persists its type environment across compilations (§5).

    Every module names its language; the language is itself just a module
    whose exports (including [#%module-begin]) form the initial binding
    environment of the body. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Value = Liblang_runtime.Value
module Ast = Liblang_runtime.Ast
module Interp = Liblang_runtime.Interp
module Reader = Liblang_reader.Reader
module Datum = Liblang_reader.Datum
module Expander = Liblang_expander.Expander
module Compile = Liblang_expander.Compile
module Denote = Liblang_expander.Denote
module Namespace = Liblang_expander.Namespace
module Ct_store = Liblang_expander.Ct_store
module Srcloc = Liblang_reader.Srcloc
module Diagnostic = Liblang_diagnostics.Diagnostic
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

exception Module_error of string * Srcloc.t

let err_at loc fmt = Printf.ksprintf (fun s -> raise (Module_error (s, loc))) fmt
let err fmt = err_at Srcloc.none fmt
let err_stx (stx : Stx.t) fmt = err_at (Stx.loc stx) fmt

(* Names of modules whose compilation is currently in progress (innermost
   first).  A [require] of a module on this stack is a require cycle; the
   error carries the full cycle path.  Domain-local: each parallel-build
   worker tracks its own nest of in-progress compilations (a freshly
   spawned domain starts with an empty stack). *)
let compiling_stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let[@inline] compiling_stack () = Domain.DLS.get compiling_stack_key

let with_compiling name f =
  let compiling_stack = compiling_stack () in
  compiling_stack := name :: !compiling_stack;
  Fun.protect ~finally:(fun () -> compiling_stack := List.tl !compiling_stack) f

let check_cycle ?(loc = Srcloc.none) name =
  let compiling_stack = compiling_stack () in
  if List.mem name !compiling_stack then begin
    let rec upto acc = function
      | [] -> List.rev acc
      | x :: _ when String.equal x name -> List.rev (x :: acc)
      | x :: rest -> upto (x :: acc) rest
    in
    (* the stack is innermost-first; display the cycle outermost-first,
       closing back on [name] *)
    let path = List.rev (upto [] !compiling_stack) @ [ name ] in
    err_at loc "cyclic require: %s" (String.concat " -> " path)
  end

type export = { ext_name : string; binding : Binding.t }

(** One runnable body form's code: its AST, and the interpreter closures
    compiled from it (§5: compile once, instantiate many).  The first
    instantiation under {!Interp.eval_top} fills the closure for the
    current {!Interp.unboxing_enabled} setting, since the flag decides
    which closures [Interp.compile] builds; every later instantiation
    under the same setting reuses it.  Only the domain that instantiates
    the module writes the cell, the same rule [CLazy] follows. *)
type code = {
  ast : Ast.t;
  mutable unboxed : (Value.env -> Value.value) option;
  mutable boxed : (Value.env -> Value.value) option;
}

let code ast = { ast; unboxed = None; boxed = None }

type compiled_form =
  | CDef of Ast.global list * code
  | CExpr of code
  | CLazy of compiled_form Lazy.t
      (** a deferred body compilation, forced on first instantiation.  The
          artifact loader defers reading and compiling [define-values]
          right-hand sides and top-level expressions: importers only need
          a loaded module's exports, macros and compile-time declarations
          to compile against it, so a load on the compile-only path (e.g.
          a parallel-build worker replaying a dependency) never reads a
          body at all.  Forcing reads the form's byte range of the
          artifact text and compiles the datum straight to an AST
          ({!Compile.compile_datum}): no syntax object, scope or expander
          pass is involved.  A [CLazy] is only
          ever forced by the domain that owns the module record
          (instantiation happens on the acquiring domain), so
          [Lazy.force] is single-domain here. *)

type t = {
  mod_name : string;
  mutable exports : export list;
  mutable export_index : (export list * Binding.exports) option;
      (** the bulk-binding index of [exports], tagged with the list it was
          built from *)
  mutable body : compiled_form list;
  mutable ct_thunks : (unit -> unit) list;
  mutable requires : string list;
  mutable instantiated : bool;
  builtin : bool;
}

(* The module registry is domain-local, seeded at domain spawn with a
   copy of the parent's table in which every module {e record} is cloned
   (preserving alias sharing via physical identity): [instantiate_at]
   sets [instantiated] on registry records, and that mark must stay
   private to the worker.  Clones still share content — bindings,
   compiled bodies (whose code cells only an instantiating domain
   fills), the globals referenced from [body] — so builtin modules work
   unchanged in workers.  Which modules a compilation has visited is
   recorded in its compile-time store, not here. *)
let clone_registry (parent : (string, t) Hashtbl.t) : (string, t) Hashtbl.t =
  let copy = Hashtbl.create (max 64 (Hashtbl.length parent)) in
  let seen : (t * t) list ref = ref [] in
  let clone m =
    match List.find_opt (fun (o, _) -> o == m) !seen with
    | Some (_, c) -> c
    | None ->
        let c = { m with mod_name = m.mod_name } in
        seen := (m, c) :: !seen;
        c
  in
  Hashtbl.iter (fun name m -> Hashtbl.replace copy name (clone m)) parent;
  copy

let registry_key : (string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:clone_registry (fun () -> Hashtbl.create 64)

let[@inline] registry () = Domain.DLS.get registry_key

let find_opt name = Hashtbl.find_opt (registry ()) name

let find ?(loc = Srcloc.none) name =
  match find_opt name with
  | Some m -> m
  | None ->
      check_cycle ~loc name;
      err_at loc "require: unknown module %s" name

let is_declared name = Hashtbl.mem (registry ()) name

let register m = Hashtbl.replace (registry ()) m.mod_name m

(** Register an existing module under an additional name, unless a
    builtin module (a language) holds that name. *)
let alias m name =
  match find_opt name with
  | Some b when b.builtin -> ()
  | _ -> Hashtbl.replace (registry ()) name m

(* -- module-level internals (for separate compilation) -------------------------- *)

(* module key -> (name -> binding): every module-level [define-values]
   binding of the module, including unexported ones.  The separate-
   compilation layer uses this to re-link serialized cross-module
   references to internal bindings — e.g. the typed boundary's
   [defensive-*] definitions, which a typed module's export indirection
   (§6.2) splices into untyped clients without ever exporting them.  A
   module with an artifact keys its table by {e written} name — unique in
   the module, unlike a source name, which a macro-introduced definition
   may share with the user's (see [Liblang_compiled.Writer]): the artifact
   writer re-keys a freshly compiled module's table with {!set_internals},
   and the loader records the written names it binds. *)
(* Domain-local like the registry; the split deep-copies (outer and inner
   tables) so a worker's recompilations never mutate tables shared with
   the parent. *)
let internals_key : (string, (string, Binding.t) Hashtbl.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun parent ->
      let copy = Hashtbl.create (max 32 (Hashtbl.length parent)) in
      Hashtbl.iter (fun k tbl -> Hashtbl.replace copy k (Hashtbl.copy tbl)) parent;
      copy)
    (fun () -> Hashtbl.create 32)

let[@inline] internals () = Domain.DLS.get internals_key

(* Start a fresh internals table for [mod_name] (re-declaration must not
   accumulate stale names). *)
let reset_internals mod_name =
  Hashtbl.replace (internals ()) mod_name (Hashtbl.create 8)

let record_internal ~mod_name name (b : Binding.t) =
  let internals = internals () in
  match Hashtbl.find_opt internals mod_name with
  | Some tbl -> Hashtbl.replace tbl name b
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace tbl name b;
      Hashtbl.replace internals mod_name tbl

(** The binding of module [mod_name]'s module-level definition [name], if
    any (independent of whether it is exported). *)
let find_internal ~mod_name name : Binding.t option =
  Option.bind (Hashtbl.find_opt (internals ()) mod_name) (fun tbl ->
      Hashtbl.find_opt tbl name)

(** Replace [mod_name]'s internals table with [defs]. *)
let set_internals ~mod_name (defs : (string * Binding.t) list) =
  let tbl = Hashtbl.create (max 8 (List.length defs)) in
  List.iter (fun (n, b) -> Hashtbl.replace tbl n b) defs;
  Hashtbl.replace (internals ()) mod_name tbl

(** The module (other than [excluding]) with a module-level definition
    that is exactly the binding [b], and the name it is recorded under —
    the owner a serialized cross-module reference is re-linked against.
    A binding has at most one defining module. *)
let find_internal_owner ?excluding (b : Binding.t) : (string * string) option =
  Hashtbl.fold
    (fun mod_name tbl acc ->
      match acc with
      | Some _ -> acc
      | None when excluding = Some mod_name -> None
      | None ->
          Hashtbl.fold
            (fun n b' acc ->
              match acc with
              | None when Binding.equal b b' -> Some (mod_name, n)
              | _ -> acc)
            tbl None)
    (internals ()) None

(* -- visiting: replaying compile-time declarations (§5) ----------------------- *)

let rec visit (m : t) =
  if Ct_store.first_visit m.mod_name then begin
    List.iter (fun r -> visit (find r)) m.requires;
    List.iter (fun thunk -> thunk ()) m.ct_thunks
  end

(* -- instantiation: running a module ------------------------------------------- *)

(* The evaluation backend — the platform's one engine switch.  Module
   instantiation and [Core.eval_expr] both run through it; the pipeline's
   [with_engine] installs the bytecode VM here, and the benchmarks swap in
   {!Liblang_runtime.Naive.eval_top} for their comparison series. *)
let evaluator : (Ast.t -> Value.value) ref = ref Interp.eval_top

(* Run one form's code: the interpreter through the form's cached
   closure, any other evaluator on the bare AST. *)
let eval_code (c : code) : Value.value =
  let eval = !evaluator in
  if eval != Interp.eval_top then eval c.ast
  else
    let unboxing = !Interp.unboxing_enabled in
    match if unboxing then c.unboxed else c.boxed with
    | Some k -> k Value.top_env
    | None ->
        let k = Interp.compile c.ast in
        if unboxing then c.unboxed <- Some k else c.boxed <- Some k;
        k Value.top_env

let rec run_form = function
  | CLazy l -> run_form (Lazy.force l)
  | CExpr c -> ignore (eval_code c)
  | CDef (globals, c) -> (
      let v = eval_code c in
      match globals with
      | [ g ] -> g.Ast.g_val <- v
      | gs -> (
          match v with
          | Value.Values vs when List.length vs = List.length gs ->
              List.iter2 (fun g v -> g.Ast.g_val <- v) gs vs
          | _ -> err "define-values: expected %d values" (List.length gs)))

(* Instantiation is bounded: the [instantiated] flag already breaks
   require diamonds, so any chain deeper than the cap indicates a cyclic
   or pathological module graph rather than a legitimate program. *)
let max_instantiation_depth = ref 1_000

let rec instantiate_at depth (m : t) =
  if depth > !max_instantiation_depth then
    err "instantiate: module require chain deeper than %d at module %s (cyclic module graph?)"
      !max_instantiation_depth m.mod_name;
  if not m.instantiated then begin
    m.instantiated <- true;
    Metrics.count "module.instantiations";
    List.iter (fun r -> instantiate_at (depth + 1) (find r)) m.requires;
    List.iter run_form m.body
  end

let instantiate (m : t) =
  Trace.span "instantiate" ~detail:m.mod_name @@ fun () -> instantiate_at 0 m

(* -- imports --------------------------------------------------------------------- *)

(** The binding [m] exports as [ext_name]. *)
let export_binding (m : t) (ext_name : string) : Binding.t =
  match List.find_opt (fun e -> String.equal e.ext_name ext_name) m.exports with
  | None -> err "module %s provides no binding named %s" m.mod_name ext_name
  | Some e -> e.binding

(** A builtin module exporting exactly the binding [b], and the name it
    exports it under: the first such pair among the modules [prefer]
    names, in order, and then among all builtins by module name; within
    a module, the first export.  So every domain and session picks the
    same one. *)
let find_builtin_export ?(prefer = []) (b : Binding.t) : (string * string) option =
  let all =
    Hashtbl.fold (fun name m acc -> if m.builtin then name :: acc else acc) (registry ()) []
    |> List.sort String.compare
  in
  List.find_map
    (fun name ->
      match find_opt name with
      | Some m when m.builtin ->
          List.find_map
            (fun e -> if Binding.equal e.binding b then Some (name, e.ext_name) else None)
            m.exports
      | _ -> None)
    (prefer @ all)

(** Bind one export of [m] under the identifier [as_id] (using [as_id]'s own
    lexical context), ranked as an import: a definition of [as_id] in the
    same context outranks it. *)
let bind_export_as (m : t) ~(ext_name : string) ~(as_id : Stx.t) =
  Binding.add_import as_id (export_binding m ext_name)

(* [m]'s export index, built once per export list: [provide] and layered
   languages replace the list, which rebuilds it on the next use. *)
let export_index (m : t) : Binding.exports =
  match m.export_index with
  | Some (l, ix) when l == m.exports -> ix
  | _ ->
      let ix = Binding.exports (List.map (fun e -> (e.ext_name, e.binding)) m.exports) in
      m.export_index <- Some (m.exports, ix);
      ix

(** Make every export of [m] visible in the lexical context of [ctx]:
    each external name refers, with [ctx]'s scopes, to the original
    binding — imported identifiers keep their identity (§5).  One bulk
    entry records [ctx]'s scopes and [m]'s export index. *)
let bind_exports ~(ctx : Stx.t) (m : t) = Binding.add_bulk (Stx.scopes ctx) (export_index m)

(* Per-domain dynamic compilation state: the requires recorded during the
   current compilation, and the name of the module currently being compiled
   (blame party for boundary contracts).  Each parallel-build worker
   carries its own, starting from the defaults. *)
type dyn = {
  mutable cur_requires : string list ref;  (** requires recorded during the current compilation *)
  mutable cur_module_name : string;
}

let dyn_key : dyn Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur_requires = ref []; cur_module_name = "top-level" })

let[@inline] dyn () = Domain.DLS.get dyn_key

let current_requires () = (dyn ()).cur_requires
let current_module_name () = (dyn ()).cur_module_name

(** File-based module resolution hook, installed by the separate
    compilation layer ([Liblang_compiled.Resolver]): resolves a
    [(require "path.scm")] spec to a module loaded/compiled from disk,
    registered under its canonical path. *)
let file_require_handler : (path:string -> loc:Srcloc.t -> t) ref =
  ref (fun ~path ~loc ->
      err_at loc
        "require: file-based module resolution is not installed (require of %S)" path)

(** Observer of successful module compilations, invoked with the module's
    fully-expanded core forms and the scope set of its module context;
    the artifact store persists them so a later session can skip
    expansion and typechecking entirely. *)
let compiled_hook :
    (t -> lang:string -> scopes:Scope.Set.t -> core_forms:Stx.t list -> unit) ref =
  ref (fun _ ~lang:_ ~scopes:_ ~core_forms:_ -> ())

(* A require spec names its module either by registry name (an identifier)
   or by file path (a string literal, resolved from disk). *)
let module_of_spec_head (spec : Stx.t) : t =
  match Stx.view spec with
  | Stx.Id name -> find ~loc:(Stx.loc spec) (Stx.Symbol.name name)
  | Stx.Atom (Datum.Str path) -> !file_require_handler ~path ~loc:(Stx.loc spec)
  | _ -> err_stx spec "require: expected a module name or path, got %s" (Stx.to_string spec)

let handle_require (spec : Stx.t) =
  let record_and_visit mod_spec =
    let m = module_of_spec_head mod_spec in
    visit m;
    let reqs = current_requires () in
    if not (List.mem m.mod_name !reqs) then reqs := m.mod_name :: !reqs;
    m
  in
  match Stx.view spec with
  | Stx.Id _ | Stx.Atom (Datum.Str _) ->
      let m = record_and_visit spec in
      bind_exports ~ctx:spec m
  | Stx.List (kw :: mod_id :: clauses) when Stx.is_sym "only-in" kw ->
      let m = record_and_visit mod_id in
      List.iter
        (fun c ->
          match Stx.to_list c with
          | Some [ orig; new_id ] when Stx.is_id new_id ->
              bind_export_as m ~ext_name:(Stx.sym_exn orig) ~as_id:new_id
          | _ -> (
              match Stx.view c with
              | Stx.Id n -> bind_export_as m ~ext_name:(Stx.Symbol.name n) ~as_id:c
              | _ -> err_stx c "only-in: bad clause %s" (Stx.to_string c)))
        clauses
  | _ -> err_stx spec "require: bad require spec %s" (Stx.to_string spec)

let () = Expander.require_handler := handle_require

(* -- compiling a module ------------------------------------------------------------ *)

let resolve_exn id =
  match Binding.resolve id with
  | Some b -> b
  | None -> err_stx id "%s: unbound identifier in module compilation" (Stx.sym_exn id)

let parse_provide_spec (spec : Stx.t) : export list =
  match Stx.view spec with
  | Stx.Id name -> [ { ext_name = Stx.Symbol.name name; binding = resolve_exn spec } ]
  | Stx.List (kw :: clauses) when Stx.is_sym "rename-out" kw ->
      List.map
        (fun c ->
          match Stx.to_list c with
          | Some [ internal; ext ] ->
              { ext_name = Stx.sym_exn ext; binding = resolve_exn internal }
          | _ -> err_stx c "rename-out: bad clause %s" (Stx.to_string c))
        clauses
  | _ -> err_stx spec "provide: bad provide spec %s" (Stx.to_string spec)

let core_kind (hd : Stx.t) : string option =
  match Binding.resolve hd with
  | None -> None
  | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)

(** A new, empty module record named [name], visited in the current
    compile-time store. *)
let fresh_module name =
  ignore (Ct_store.first_visit name);
  {
    mod_name = name;
    exports = [];
    export_index = None;
    body = [];
    ct_thunks = [];
    requires = [];
    instantiated = false;
    builtin = false;
  }

(** Run [k] in a fresh context for module [name] in language [lang] — the
    one setup that compiling, expanding and loading a module share: [name]
    on the cycle stack, fresh macro limits and a fresh compile-time store,
    [name] as the current module with its own requires list (seeded with
    [lang]), and a fresh module scope with the language's exports bound in
    it (§2.3).  [k] gets the module scope set and the requires list.  The
    enclosing compilation's requires and name are restored after: a file
    require compiles or loads its module {e during} the requiring module's
    expansion, so contexts nest.  [?span] times everything after the
    language check. *)
let in_module_context ?span ~name ~lang (k : Scope.Set.t -> string list ref -> 'a) : 'a =
  check_cycle lang;
  if not (is_declared lang) then err "#lang %s: unknown language" lang;
  Expander.with_fresh_limits @@ fun () ->
  Binding.new_compilation ();
  let enter () =
    with_compiling name @@ fun () ->
    Ct_store.with_fresh_store @@ fun () ->
    let d = dyn () in
    let saved_requires = d.cur_requires and saved_name = d.cur_module_name in
    let requires = ref [ lang ] in
    d.cur_requires <- requires;
    d.cur_module_name <- name;
    Fun.protect ~finally:(fun () ->
        d.cur_requires <- saved_requires;
        d.cur_module_name <- saved_name)
    @@ fun () ->
    let scopes = Scope.Set.singleton (Scope.fresh ()) in
    let lang_mod = find lang in
    visit lang_mod;
    bind_exports ~ctx:(Stx.id ~scopes "module-ctx") lang_mod;
    k scopes requires
  in
  match span with None -> enter () | Some s -> Trace.span s ~detail:name enter

(* Expand a module body in the module context [scopes]: wrap it in the
   language's #%module-begin and expand down to
   (#%plain-module-begin core-form ...). *)
let expand_body ~name ~scopes (body : Datum.annot list) : Stx.t list =
  let forms = List.map (Stx.of_datum ~scopes) body in
  let wrapped = Stx.list (Stx.id ~scopes "#%module-begin" :: forms) in
  Trace.span "expand" ~detail:name @@ fun () ->
  let w = Expander.partial_expand wrapped in
  match Stx.view w with
  | Stx.List (hd :: forms) when Stx.is_id hd -> (
      match core_kind hd with
      | Some "#%plain-module-begin" -> Expander.expand_module_body forms
      | _ -> err_stx w "module body did not expand to #%%plain-module-begin")
  | _ -> err_stx wrapped "module body did not expand to #%%plain-module-begin"

(** Split [source]'s [#lang] line and read its body with the recovering
    reader: a source with parse errors raises all of them as one
    {!Diagnostic.Failed} batch, located in file [name]. *)
let read_source ~name (source : string) : string * Datum.annot list =
  match Reader.split_lang_line source with
  | None -> err "module %s: source must start with #lang <language>" name
  | Some (lang, rest) -> (
      match Reader.read_all_recovering ~file:name rest with
      | body, [] -> (lang, body)
      | _, errs ->
          raise
            (Diagnostic.Failed
               (List.map (fun (m, loc) -> Diagnostic.error ~phase:Diagnostic.Reader ~loc m) errs)))

(** Expand a module's source to core forms without compiling it — the
    view a whole-module analysis gets (paper §2.2, §4). *)
let expand_source ~name (source : string) : Stx.t list =
  let lang, body = read_source ~name source in
  in_module_context ~name ~lang (fun scopes _ -> expand_body ~name ~scopes body)

(** Compile a module from its body forms (datums) in language [lang]. *)
let compile_module ~name ~lang (body : Datum.annot list) : t =
  in_module_context ~span:"compile-module" ~name ~lang @@ fun scopes requires ->
  Metrics.count "module.compiles";
  (* [module.compiles] counts full (expand + typecheck + compile) module
     compilations.  Since the separate-compilation layer landed it is no
     longer the whole story: a file module acquired from the artifact
     store bumps [module.cache_hits] (in [Liblang_compiled.Loader])
     instead, so the two counters reconcile in [--profile] output —
     compiles + cache_hits = modules acquired — and a warm cache shows up
     as compiles = 0.  Re-declaring a module by the same name still
     re-expands it eagerly; that residual cache-less work is what
     [module.reexpansions] surfaces. *)
  if is_declared name then Metrics.count "module.reexpansions";
  let core_forms = expand_body ~name ~scopes body in
  (* walk the fully-expanded module and compile each form *)
  reset_internals name;
  let m = fresh_module name in
  let compile_form (form : Stx.t) =
    match Stx.view form with
    | Stx.List (hd :: rest) when Stx.is_id hd -> (
        match core_kind hd with
        | Some "define-values" -> (
            match rest with
            | [ ids; rhs ] ->
                let ids = Option.get (Stx.to_list ids) in
                let globals =
                  List.map
                    (fun id ->
                      let b = resolve_exn id in
                      record_internal ~mod_name:name (Stx.sym_exn id) b;
                      Namespace.global_of b)
                    ids
                in
                let ast = Compile.compile_expr rhs in
                (match (globals, ast) with
                | [ g ], Ast.Lambda l when l.Ast.l_name = "" -> l.Ast.l_name <- g.Ast.g_name
                | _ -> ());
                m.body <- CDef (globals, code ast) :: m.body
            | _ -> err "define-values: bad form after expansion")
        | Some "define-syntaxes" -> ()
        | Some "begin-for-syntax" ->
            let thunks =
              List.map
                (fun e ->
                  let ast = Compile.compile_expr e in
                  fun () -> ignore (Interp.eval_top ast))
                rest
            in
            m.ct_thunks <- m.ct_thunks @ thunks
        | Some "#%provide" ->
            List.iter (fun spec -> m.exports <- m.exports @ parse_provide_spec spec) rest
        | Some "#%require" -> ()
        | _ -> m.body <- CExpr (code (Compile.compile_expr form)) :: m.body)
    | _ -> m.body <- CExpr (code (Compile.compile_expr form)) :: m.body
  in
  (Trace.span "compile" ~detail:name @@ fun () -> List.iter compile_form core_forms);
  m.body <- List.rev m.body;
  m.requires <- List.rev !requires;
  register m;
  !compiled_hook m ~lang ~scopes ~core_forms;
  m

(** Declare a module from full source text beginning with [#lang <name>]. *)
let declare ~name (source : string) : t =
  let lang, body = read_source ~name source in
  compile_module ~name ~lang body

(** Declare and run. Returns the module. *)
let declare_and_run ~name source =
  let m = declare ~name source in
  instantiate m;
  m

(* -- builtin (host-defined) modules -------------------------------------------------- *)

(** Construct a module whose bindings are provided by the host language:
    [values] become immutable globals, [macros] become transformers,
    [reexports] alias existing bindings (e.g. the core forms).  Returns the
    module and a [ctx_id] function for building identifiers that resolve in
    the module's definition context — native macros use it for their
    templates. *)
let declare_builtin ~name ?(values : (string * Value.value) list = [])
    ?(macros : (string * Denote.transformer) list = [])
    ?(reexports : (string * Binding.t) list = [])
    ?(ct_thunks : (unit -> unit) list = []) () : t * (string -> Stx.t) =
  let sc = Scope.fresh () in
  let scopes = Scope.Set.singleton sc in
  let ctx_id n = Stx.id ~scopes n in
  let exports = ref [] in
  List.iter
    (fun (n, v) ->
      let id = ctx_id n in
      let b = Binding.bind id in
      Denote.set b Denote.DVar;
      Namespace.define_immutable b v;
      exports := { ext_name = n; binding = b } :: !exports)
    values;
  List.iter
    (fun (n, t) ->
      let id = ctx_id n in
      let b = Binding.bind id in
      Denote.set b (Denote.DMacro t);
      exports := { ext_name = n; binding = b } :: !exports)
    macros;
  List.iter
    (fun (n, b) ->
      let id = ctx_id n in
      Binding.add id b;
      exports := { ext_name = n; binding = b } :: !exports)
    reexports;
  let m =
    {
      mod_name = name;
      exports = List.rev !exports;
      export_index = None;
      body = [];
      ct_thunks;
      requires = [];
      instantiated = true;
      builtin = true;
    }
  in
  register m;
  (m, ctx_id)

(** Add late exports to a builtin module (used to assemble layered
    languages). *)
let add_builtin_exports (m : t) ~(ctx_id : string -> Stx.t)
    ?(values : (string * Value.value) list = [])
    ?(macros : (string * Denote.transformer) list = [])
    ?(reexports : (string * Binding.t) list = []) () =
  List.iter
    (fun (n, v) ->
      let b = Binding.bind (ctx_id n) in
      Denote.set b Denote.DVar;
      Namespace.define_immutable b v;
      m.exports <- m.exports @ [ { ext_name = n; binding = b } ])
    values;
  List.iter
    (fun (n, t) ->
      let b = Binding.bind (ctx_id n) in
      Denote.set b (Denote.DMacro t);
      m.exports <- m.exports @ [ { ext_name = n; binding = b } ])
    macros;
  List.iter
    (fun (n, b) ->
      Binding.add (ctx_id n) b;
      m.exports <- m.exports @ [ { ext_name = n; binding = b } ])
    reexports

(* -- sessions (compile server / REPL isolation) --------------------------------- *)

(** A session: private registry/internals tables layered over the
    domain-local split, so two compile-server connections (or REPLs)
    declaring conflicting module names never observe each other's
    bindings.  [fresh_session] clones this domain's current tables —
    builtins and anything preloaded included — with the same record-clone
    discipline as the domain-spawn split (mutable visit/instantiate
    marks stay per-session; immutable content is shared).
    [with_session] installs a session's tables for the extent of [f];
    mutations made inside persist in the session for its next request. *)
type session = {
  s_registry : (string, t) Hashtbl.t;
  s_internals : (string, (string, Binding.t) Hashtbl.t) Hashtbl.t;
}

let fresh_session () : session =
  let internals = internals () in
  let internals_copy = Hashtbl.create (max 32 (Hashtbl.length internals)) in
  Hashtbl.iter (fun k tbl -> Hashtbl.replace internals_copy k (Hashtbl.copy tbl)) internals;
  { s_registry = clone_registry (registry ()); s_internals = internals_copy }

let with_session (s : session) (f : unit -> 'a) : 'a =
  let saved_r = Domain.DLS.get registry_key and saved_i = Domain.DLS.get internals_key in
  Domain.DLS.set registry_key s.s_registry;
  Domain.DLS.set internals_key s.s_internals;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set registry_key saved_r;
      Domain.DLS.set internals_key saved_i)
    f

(** Forget [name] — and every alias of the same module record, so a stale
    alias can never resurrect a dropped module.  The resolver's
    incremental invalidation uses this to evict the dirty cone of an
    edit. *)
let forget name =
  let registry = registry () in
  (match Hashtbl.find_opt registry name with
  | None -> ()
  | Some m ->
      Hashtbl.iter
        (fun n m' -> if m' == m then Hashtbl.remove registry n)
        (Hashtbl.copy registry));
  Hashtbl.remove (internals ()) name

(** Clear the instantiate marks of [m]'s non-builtin require closure, so
    a long-lived session can re-run a program: the next [instantiate]
    re-evaluates every module body, exactly as a fresh process would
    (compile-time state is not replayed again; globals are redefined).
    The whole closure is walked, whether or not [m] itself has run: a
    program whose requires ran under another program runs them again. *)
let reset_instantiated (m : t) =
  let seen = Hashtbl.create 16 in
  let rec walk m =
    if (not m.builtin) && not (Hashtbl.mem seen m.mod_name) then begin
      Hashtbl.add seen m.mod_name ();
      m.instantiated <- false;
      List.iter (fun r -> Option.iter walk (find_opt r)) m.requires
    end
  in
  walk m

(** Testing hook: forget declared modules (builtin modules must be
    re-registered by their libraries). *)
let reset_user_modules_for_tests () =
  let registry = registry () in
  let internals = internals () in
  Hashtbl.iter
    (fun name m ->
      if not m.builtin then begin
        Hashtbl.remove registry name;
        Hashtbl.remove internals name
      end)
    (Hashtbl.copy registry)
