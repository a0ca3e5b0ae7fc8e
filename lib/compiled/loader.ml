(** Reconstructing a live module from a compiled artifact — the §5 replay
    path.  No macro runs and the typechecker never does, but each deferred
    body (below) takes one expander pass.

    The artifact's body is the module's fully-expanded core forms, so
    loading is exactly the back half of {!Modsys.compile_module}: set up a
    fresh lexical context with the language's (and each require's) exports
    bound, then walk the core forms once —

    - [#%require] re-binds the required module's exports (the required
      module itself was already resolved by {!Resolver} while validating
      the artifact's transitive digests);
    - [define-values] binds each id now, but {e defers} compiling its
      right-hand side to first instantiation ({!Modsys.CLazy}).  Then the
      rhs takes its one pass through the expander: the forms are already
      core, so the pass expands nothing, but it re-binds local binders
      hygienically, which the textual serialization cannot preserve.
      Only the instantiating domain ever needs the result; compile-only
      consumers — importers, parallel-build workers replaying a
      dependency — skip the pass entirely;
    - [define-syntaxes] re-evaluates the (already fully expanded)
      transformer expression and installs the macro — this is how a typed
      module's export indirections (§6.2) come back to life;
    - [begin-for-syntax] forms are the serialized compile-time
      declarations of §5 (e.g. Typed Racket's [typed:declare-type] calls):
      each is compiled once and becomes a regenerated [ct_thunk], replayed
      by [visit] into every later compilation that requires the module.
      Closures are never read from disk — only core syntax is.

    Loading bumps [module.cache_hits] (the cache-aware sibling of
    [module.compiles]: their sum is the number of modules this session
    acquired by any means) and never [module.compiles] — that is the
    counter the warm-path acceptance test pins to zero. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Ast = Liblang_runtime.Ast
module Interp = Liblang_runtime.Interp
module Expander = Liblang_expander.Expander
module Compile = Liblang_expander.Compile
module Denote = Liblang_expander.Denote
module Namespace = Liblang_expander.Namespace
module Ct_store = Liblang_expander.Ct_store
module Modsys = Liblang_modules.Modsys
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Datum = Liblang_reader.Datum
module Lower = Liblang_backend.Lower
module Vm = Liblang_backend.Vm
module Il = Liblang_backend.Il

let err = Modsys.err

(* -- bytecode priming -----------------------------------------------------

   Parse the artifact's optional [(bytecode (unboxing B) (form I CODE|interp) ...)]
   section into a body-index table.  Entirely best-effort: a malformed
   section yields an empty table and the VM lowers afresh at first
   evaluation — never an error (the integrity trailer already vouches
   for undamaged bytes; this guards shape skew). *)
type bc_entry = BCode of Datum.annot | BInterp

let parse_bytecode (bc : Datum.annot option) : bool * (int, bc_entry) Hashtbl.t =
  let table = Hashtbl.create 8 in
  match bc with
  | None -> (true, table)
  | Some bc -> (
      match bc.Datum.d with
      | Datum.List (_tag :: flag :: entries) ->
          let unboxing =
            match flag.Datum.d with
            | Datum.List [ k; { d = Datum.Atom (Datum.Bool b); _ } ]
              when Datum.is_sym "unboxing" k ->
                b
            | _ -> true
          in
          List.iter
            (fun (e : Datum.annot) ->
              match e.Datum.d with
              | Datum.List
                  [ k; { d = Datum.Atom (Datum.Int i); _ }; payload ]
                when Datum.is_sym "form" k -> (
                  match payload.Datum.d with
                  | Datum.Atom (Datum.Sym "interp") ->
                      Hashtbl.replace table i BInterp
                  | _ -> Hashtbl.replace table i (BCode payload))
              | _ -> ())
            entries;
          (unboxing, table)
      | _ -> (true, table))

(* Decode-and-prime for one deferred body form.  The [vm.load] fault
   site models bytecode deserialization failure; injected faults and
   decode errors alike degrade to lowering afresh at first eval. *)
let prime_form ~unboxing (table : (int, bc_entry) Hashtbl.t) ix (ast : Ast.t) : unit =
  match Hashtbl.find_opt table ix with
  | None -> ()
  | Some BInterp -> Liblang_backend.Vm.prime_fallback ast ~unboxing
  | Some (BCode d) -> (
      match
        Liblang_fault.Fault.check "vm.load";
        Lower.code_of_datum ast d
      with
      | code -> Vm.prime ast ~unboxing code
      | exception (Il.Decode_error _ | Liblang_fault.Fault.Injected _) ->
          Metrics.count "vm.load_failures")

let resolve_exn id =
  match Binding.resolve id with
  | Some b -> b
  | None ->
      err "%s: unbound identifier while loading compiled module (stale artifact?)"
        (Stx.sym_exn id)

(** Rebuild a {!Modsys.t} from [a]'s core forms and register it.  Every
    module [a] requires must already be declared (the resolver loads
    requires first, as part of validating transitive digests). *)
let load (a : Artifact.t) : Modsys.t =
  (* the [loader.replay] fault site: an injected error here is caught by
     the resolver's load wrapper and degrades to a recompile *)
  Liblang_fault.Fault.check "loader.replay";
  let name = a.Artifact.mod_name and lang = a.Artifact.lang in
  Modsys.check_cycle lang;
  if not (Modsys.is_declared lang) then err "#lang %s: unknown language" lang;
  Expander.with_fresh_limits @@ fun () ->
  Trace.span "load-module" ~detail:name @@ fun () ->
  Metrics.count "module.cache_hits";
  Modsys.with_compiling name @@ fun () ->
  Ct_store.with_fresh_store (fun () ->
      let requires = ref [ lang ] in
      (* loads nest inside an enclosing compilation (a require of a cached
         file module), so save and restore its recording state *)
      let saved_requires = Modsys.current_requires () in
      Modsys.set_current_requires requires;
      let saved_name = Modsys.current_module_name () in
      Modsys.set_current_module_name name;
      Fun.protect
        ~finally:(fun () ->
          Modsys.set_current_module_name saved_name;
          Modsys.set_current_requires saved_requires)
      @@ fun () ->
      let sc = Scope.fresh () in
      let scopes = Scope.Set.singleton sc in
      let ctx = Stx.id ~scopes "module-ctx" in
      let lang_mod = Modsys.find lang in
      Modsys.visit lang_mod;
      Modsys.bind_exports ~ctx lang_mod;
      let forms = List.map (Stx.of_datum ~scopes) a.Artifact.core_forms in
      (* pass A: process requires and forward-bind every module-level
         definition, so mutually recursive right-hand sides compile (the
         expander's pass 1 did the same during the original compilation) *)
      Modsys.reset_internals name;
      List.iter
        (fun (form : Stx.t) ->
          match Stx.view form with
          | Stx.List (hd :: rest) when Stx.is_id hd -> (
              match Modsys.core_kind hd with
              | Some "#%require" -> List.iter Modsys.handle_require rest
              | Some "define-values" -> (
                  match rest with
                  | [ ids; _ ] ->
                      let ids =
                        match Stx.to_list ids with
                        | Some ids -> ids
                        | None -> err "artifact: bad define-values in %s" name
                      in
                      List.iter
                        (fun id ->
                          let b = Binding.bind id in
                          Denote.set b Denote.DVar;
                          Modsys.record_internal ~mod_name:name (Stx.sym_exn id) b)
                        ids
                  | _ -> err "artifact: bad define-values in %s" name)
              | _ -> ())
          | _ -> ())
        forms;
      (* re-link serialized references to other modules' internal
         (unexported) bindings — the names a require cannot rebind.  A
         missing target means the owner was recompiled to a different
         shape by a cache-less session: fail, and the resolver degrades
         this artifact to a recompile. *)
      List.iter
        (fun (n, owner) ->
          match Modsys.find_internal ~mod_name:owner n with
          | Some b -> Binding.add (Stx.id ~scopes n) b
          | None ->
              err "artifact: link target %s in module %s no longer exists" n owner)
        a.Artifact.links;
      let m =
        {
          Modsys.mod_name = name;
          exports = [];
          body = [];
          ct_thunks = [];
          requires = [];
          instantiated = false;
          visited_stores = [ Ct_store.store_id () ];
          builtin = false;
        }
      in
      (* pass B: process each core form.  Transformers and compile-time
         declarations are re-evaluated eagerly — importers compile against
         them — but [define-values] right-hand sides and top-level
         expressions only matter at instantiation, so their (expensive)
         re-binding pass + AST compilation is deferred behind a
         [Modsys.CLazy], re-entering this load's compile-time store and
         module name when forced.  A compile-only consumer — an importer,
         or a parallel-build worker replaying a dependency's artifact —
         therefore never pays for the body at all. *)
      let store = Ct_store.current () in
      let bc_unboxing, bc_table = parse_bytecode a.Artifact.bytecode in
      let body_ix = ref 0 in
      let next_ix () =
        let i = !body_ix in
        incr body_ix;
        i
      in
      let defer (compile : unit -> Modsys.compiled_form) : Modsys.compiled_form =
        Modsys.CLazy
          (lazy
            (Ct_store.with_store store @@ fun () ->
             let saved = Modsys.current_module_name () in
             Modsys.set_current_module_name name;
             Fun.protect
               ~finally:(fun () -> Modsys.set_current_module_name saved)
               compile))
      in
      let defer_expr (form : Stx.t) : Modsys.compiled_form =
        let ix = next_ix () in
        defer (fun () ->
            let ast = Compile.compile_expr (Expander.expand_expr form) in
            prime_form ~unboxing:bc_unboxing bc_table ix ast;
            Modsys.CExpr ast)
      in
      let load_form (form : Stx.t) =
        match Stx.view form with
        | Stx.List (hd :: rest) when Stx.is_id hd -> (
            match Modsys.core_kind hd with
            | Some "define-values" -> (
                match rest with
                | [ ids; rhs ] ->
                    let ids = Option.get (Stx.to_list ids) in
                    let globals =
                      List.map (fun id -> Namespace.global_of (resolve_exn id)) ids
                    in
                    let ix = next_ix () in
                    let form =
                      defer (fun () ->
                          let ast = Compile.compile_expr (Expander.expand_expr rhs) in
                          (match (globals, ast) with
                          | [ g ], Ast.Lambda l when l.Ast.l_name = "" ->
                              l.Ast.l_name <- g.Ast.g_name
                          | _ -> ());
                          prime_form ~unboxing:bc_unboxing bc_table ix ast;
                          Modsys.CDef (globals, ast))
                    in
                    m.Modsys.body <- form :: m.Modsys.body
                | _ -> err "artifact: bad define-values in %s" name)
            | Some "define-syntaxes" -> (
                match rest with
                | [ ids; rhs ] -> (
                    match Stx.to_list ids with
                    | Some [ id ] ->
                        let t = Expander.eval_transformer_rhs ~name:(Stx.sym_exn id) rhs in
                        let b = Binding.bind id in
                        Denote.set b (Denote.DMacro t)
                    | _ -> err "artifact: bad define-syntaxes in %s" name)
                | _ -> err "artifact: bad define-syntaxes in %s" name)
            | Some "begin-for-syntax" ->
                (* the serialized §5 declarations: compile once, replay now
                   into the module's own (fresh) store — mirroring the
                   original compilation — and keep the thunk for [visit] *)
                let thunks =
                  List.map
                    (fun e ->
                      let ast = Compile.compile_expr (Expander.expand_expr e) in
                      fun () -> ignore (Interp.eval_top ast))
                    rest
                in
                List.iter (fun thunk -> thunk ()) thunks;
                m.Modsys.ct_thunks <- m.Modsys.ct_thunks @ thunks
            | Some "#%provide" ->
                List.iter
                  (fun spec ->
                    m.Modsys.exports <- m.Modsys.exports @ Modsys.parse_provide_spec spec)
                  rest
            | Some "#%require" -> ()
            | _ -> m.Modsys.body <- defer_expr form :: m.Modsys.body)
        | _ -> m.Modsys.body <- defer_expr form :: m.Modsys.body
      in
      List.iter load_form forms;
      m.Modsys.body <- List.rev m.Modsys.body;
      m.Modsys.requires <- List.rev !requires;
      Modsys.register m;
      m)
