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

type compiled_form =
  | CDef of Ast.global list * Ast.t
  | CExpr of Ast.t
  | CLazy of compiled_form Lazy.t
      (** a deferred body compilation, forced on first instantiation.  The
          artifact loader defers compiling [define-values] right-hand
          sides and top-level expressions: importers only need a loaded
          module's exports, macros and compile-time declarations to
          compile against it, so a load on the compile-only path (e.g. a
          parallel-build worker replaying a dependency) skips the
          expensive re-binding pass over the core forms entirely.  A
          [CLazy] is only ever forced by the domain that owns the module
          record (instantiation happens on the acquiring domain), so
          [Lazy.force] is single-domain here. *)

type t = {
  mod_name : string;
  mutable exports : export list;
  mutable body : compiled_form list;
  mutable ct_thunks : (unit -> unit) list;
  mutable requires : string list;
  mutable instantiated : bool;
  mutable visited_stores : int list;
  builtin : bool;
}

(* The module registry is domain-local, seeded at domain spawn with a
   copy of the parent's table in which every module {e record} is cloned
   (preserving alias sharing via physical identity): [visit] and
   [instantiate_at] mutate [visited_stores] / [instantiated] on registry
   records, and those per-compilation marks must stay private to the
   worker.  Clones still share immutable content — bindings, compiled
   bodies, the globals referenced from [body] — so builtin modules work
   unchanged in workers.  Store ids are globally unique (atomic counter in
   [Ct_store]), so a cloned record's inherited [visited_stores] list can
   never falsely match a store created in the child domain. *)
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

(** Register an existing module under an additional name. *)
let alias m name = Hashtbl.replace (registry ()) name m

(* -- module-level internals (for separate compilation) -------------------------- *)

(* module key -> (defined name -> binding): every module-level
   [define-values] binding of the module, including unexported ones.  The
   separate-compilation layer uses this to re-link serialized cross-module
   references to internal bindings — e.g. the typed boundary's
   [defensive-*] definitions, which a typed module's export indirection
   (§6.2) splices into untyped clients without ever exporting them. *)
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

(** The module (other than [excluding]) whose module-level definition
    [name] is exactly the binding [b], if any — the owner a serialized
    cross-module reference must be re-linked against. *)
let find_internal_owner ?excluding name (b : Binding.t) : string option =
  Hashtbl.fold
    (fun mod_name tbl acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if excluding = Some mod_name then None
          else (
            match Hashtbl.find_opt tbl name with
            | Some b' when Binding.equal b b' -> Some mod_name
            | _ -> None))
    (internals ()) None

(* -- visiting: replaying compile-time declarations (§5) ----------------------- *)

let rec visit (m : t) =
  let sid = Ct_store.store_id () in
  if not (List.mem sid m.visited_stores) then begin
    m.visited_stores <- sid :: m.visited_stores;
    List.iter (fun r -> visit (find r)) m.requires;
    List.iter (fun thunk -> thunk ()) m.ct_thunks
  end

(* -- instantiation: running a module ------------------------------------------- *)

(* The evaluation backend used to instantiate modules; the benchmark harness
   swaps in {!Liblang_runtime.Naive.eval_top} for its comparison series. *)
let evaluator : (Ast.t -> Value.value) ref = ref Interp.eval_top

let rec run_form = function
  | CLazy l -> run_form (Lazy.force l)
  | CExpr ast -> ignore (!evaluator ast)
  | CDef (globals, ast) -> (
      let v = !evaluator ast in
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

(** Make every export of [m] visible in the lexical context of [ctx]:
    each external name is bound, with [ctx]'s scopes, as an alias of the
    original binding — imported identifiers keep their identity (§5). *)
let export_binding (m : t) (ext_name : string) : Binding.t =
  match List.find_opt (fun e -> String.equal e.ext_name ext_name) m.exports with
  | None -> err "module %s provides no binding named %s" m.mod_name ext_name
  | Some e -> e.binding

(** Bind one export of [m] under the identifier [as_id] (using [as_id]'s own
    lexical context). *)
let bind_export_as (m : t) ~(ext_name : string) ~(as_id : Stx.t) =
  Binding.add as_id (export_binding m ext_name)

let bind_exports ~(ctx : Stx.t) (m : t) =
  List.iter
    (fun e ->
      let id = Stx.id ~scopes:(Stx.scopes ctx) e.ext_name in
      Binding.add id e.binding)
    m.exports

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
let set_current_requires r = (dyn ()).cur_requires <- r
let current_module_name () = (dyn ()).cur_module_name
let set_current_module_name n = (dyn ()).cur_module_name <- n

(** File-based module resolution hook, installed by the separate
    compilation layer ([Liblang_compiled.Resolver]): resolves a
    [(require "path.scm")] spec to a module loaded/compiled from disk,
    registered under its canonical path. *)
let file_require_handler : (path:string -> loc:Srcloc.t -> t) ref =
  ref (fun ~path ~loc ->
      err_at loc
        "require: file-based module resolution is not installed (require of %S)" path)

(** Observer of successful module compilations, invoked with the module's
    fully-expanded core forms; the artifact store persists them so a later
    session can skip expansion and typechecking entirely. *)
let compiled_hook : (t -> lang:string -> core_forms:Stx.t list -> unit) ref =
  ref (fun _ ~lang:_ ~core_forms:_ -> ())

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

(* Expand a whole module body (already wrapped in the language's
   #%module-begin) down to (#%plain-module-begin core-form ...). *)
let expand_module_top (wrapped : Stx.t) : Stx.t list =
  let w = Expander.partial_expand wrapped in
  match Stx.view w with
  | Stx.List (hd :: forms) when Stx.is_id hd -> (
      match core_kind hd with
      | Some "#%plain-module-begin" -> Expander.expand_module_body forms
      | _ -> err_stx w "module body did not expand to #%%plain-module-begin")
  | _ -> err_stx wrapped "module body did not expand to #%%plain-module-begin"

(* Set up a module's lexical context (fresh store, language imports) and
   expand its body to core forms; shared by compilation and the
   expansion-inspection entry point. *)
let expand_in_language ~name ~lang (body : Datum.annot list) (k : Stx.t list -> 'a) : 'a =
  check_cycle lang;
  if not (is_declared lang) then err "#lang %s: unknown language" lang;
  Expander.with_fresh_limits @@ fun () ->
  with_compiling name @@ fun () ->
  Ct_store.with_fresh_store (fun () ->
      let sc = Scope.fresh () in
      let ctx = Stx.id ~scopes:(Scope.Set.singleton sc) "module-ctx" in
      let lang_mod = find lang in
      visit lang_mod;
      bind_exports ~ctx lang_mod;
      let forms = List.map (Stx.of_datum ~scopes:(Scope.Set.singleton sc)) body in
      let mb = Stx.id ~scopes:(Stx.scopes ctx) "#%module-begin" in
      let wrapped = Stx.list (mb :: forms) in
      k
        (Trace.span "expand" ~detail:name @@ fun () -> expand_module_top wrapped))

(** Expand a module's body to core forms without compiling it — the view a
    whole-module analysis gets (paper §2.2, §4). *)
let expand_source ~name (source : string) : Stx.t list =
  match Reader.split_lang_line source with
  | None -> err "module %s: source must start with #lang <language>" name
  | Some (lang, rest) ->
      let saved = current_module_name () in
      set_current_module_name name;
      Fun.protect ~finally:(fun () -> set_current_module_name saved) @@ fun () ->
      expand_in_language ~name ~lang (Reader.read_all ~file:name rest) (fun forms -> forms)

(** Compile a module from its body forms (datums) in language [lang]. *)
let compile_module ~name ~lang (body : Datum.annot list) : t =
  check_cycle lang;
  if not (is_declared lang) then err "#lang %s: unknown language" lang;
  Expander.with_fresh_limits @@ fun () ->
  Trace.span "compile-module" ~detail:name @@ fun () ->
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
  with_compiling name @@ fun () ->
  Ct_store.with_fresh_store (fun () ->
      let requires = ref [ lang ] in
      (* save the enclosing compilation's recording state: a file require
         compiles its module {e during} the requiring module's expansion,
         so compilations nest *)
      let saved_requires = current_requires () in
      set_current_requires requires;
      let saved_name = current_module_name () in
      set_current_module_name name;
      Fun.protect
        ~finally:(fun () ->
          set_current_module_name saved_name;
          set_current_requires saved_requires)
      @@ fun () ->
      let sc = Scope.fresh () in
      let ctx = Stx.id ~scopes:(Scope.Set.singleton sc) "module-ctx" in
      (* the language's exports form the initial environment (§2.3) *)
      let lang_mod = find lang in
      visit lang_mod;
      bind_exports ~ctx lang_mod;
      let forms = List.map (Stx.of_datum ~scopes:(Scope.Set.singleton sc)) body in
      let mb = Stx.id ~scopes:(Stx.scopes ctx) "#%module-begin" in
      let wrapped = Stx.list (mb :: forms) in
      let core_forms =
        Trace.span "expand" ~detail:name @@ fun () -> expand_module_top wrapped
      in
      (* walk the fully-expanded module and compile each form *)
      reset_internals name;
      let m =
        {
          mod_name = name;
          exports = [];
          body = [];
          ct_thunks = [];
          requires = [];
          instantiated = false;
          visited_stores = [ Ct_store.store_id () ];
          builtin = false;
        }
      in
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
                    | [ g ], Ast.Lambda l when l.Ast.l_name = "" ->
                        l.Ast.l_name <- g.Ast.g_name
                    | _ -> ());
                    m.body <- CDef (globals, ast) :: m.body
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
            | _ -> m.body <- CExpr (Compile.compile_expr form) :: m.body)
        | _ -> m.body <- CExpr (Compile.compile_expr form) :: m.body
      in
      (Trace.span "compile" ~detail:name @@ fun () -> List.iter compile_form core_forms);
      m.body <- List.rev m.body;
      m.requires <- List.rev !requires;
      register m;
      !compiled_hook m ~lang ~core_forms;
      m)

(** Declare a module from full source text beginning with [#lang <name>]. *)
let declare ~name (source : string) : t =
  match Reader.split_lang_line source with
  | None -> err "module %s: source must start with #lang <language>" name
  | Some (lang, rest) -> compile_module ~name ~lang (Reader.read_all ~file:name rest)

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
      body = [];
      ct_thunks;
      requires = [];
      instantiated = true;
      visited_stores = [];
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
    (compile-time state is not replayed again; globals are redefined). *)
let rec reset_instantiated (m : t) =
  if (not m.builtin) && m.instantiated then begin
    m.instantiated <- false;
    List.iter
      (fun r -> match find_opt r with Some d -> reset_instantiated d | None -> ())
      m.requires
  end

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
