(** Public facade of the platform: the API a language implementor or
    embedder programs against.

    - [run_string]: declare and run a [#lang] program, capturing its
      output.
    - [eval_expr]: evaluate a single expression in a given language's
      binding environment.
    - [expand_expr_string]: show the core-form expansion of an expression —
      what [local-expand] produces (paper §2.2).

    The underlying layers are re-exported for direct use. *)

module Reader = Liblang_reader.Reader
module Datum = Liblang_reader.Datum
module Srcloc = Liblang_reader.Srcloc
module Diagnostic = Liblang_diagnostics.Diagnostic
module Reporter = Liblang_diagnostics.Reporter
module Sources = Liblang_diagnostics.Sources
module Render = Liblang_diagnostics.Render
module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Value = Liblang_runtime.Value
module Numeric = Liblang_runtime.Numeric
module Ast = Liblang_runtime.Ast
module Interp = Liblang_runtime.Interp
module Naive = Liblang_runtime.Naive
module Il = Liblang_backend.Il
module Lower = Liblang_backend.Lower
module Vm = Liblang_backend.Vm
module Prims = Liblang_runtime.Prims
module Expander = Liblang_expander.Expander
module Compile = Liblang_expander.Compile
module Denote = Liblang_expander.Denote
module Ct_store = Liblang_expander.Ct_store
module Syntax_rules = Liblang_expander.Syntax_rules
module Contracts = Liblang_contracts.Contracts
module Modsys = Liblang_modules.Modsys
module Baselang = Liblang_modules.Baselang
module Compiled = Liblang_compiled.Compiled
module Types = Liblang_typed.Types
module Check = Liblang_typed.Check
module Zcfa = Liblang_analysis.Zcfa
module Facts = Liblang_analysis.Facts
module Optimize = Liblang_typed.Optimize
module Boundary = Liblang_typed.Boundary
module Typedlang = Liblang_typed.Typedlang
module Base_env = Liblang_typed.Base_env
module Langs = Liblang_langs.Langs
module Observe = Liblang_observe.Observe
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Json = Liblang_observe.Json
module Fault = Liblang_fault.Fault

let () =
  Baselang.init ();
  Typedlang.init ();
  Langs.init ();
  Compiled.init ()

(** Force initialization of the platform (registers the builtin languages).
    Call this first when using the aliased sub-modules directly. *)
let init () = ()

let anon_counter = ref 0

let fresh_module_name prefix =
  incr anon_counter;
  Printf.sprintf "%s-%d" prefix !anon_counter

(** Declare and instantiate a module from source text beginning with
    [#lang <language>]; returns everything the program printed. *)
let run_string ?name (source : string) : string =
  let name = match name with Some n -> n | None -> fresh_module_name "program" in
  let output, () =
    Prims.with_captured_output (fun () -> ignore (Modsys.declare_and_run ~name source))
  in
  output

(** Declare a module without running it (compile only — type errors in a
    typed module surface here). *)
let declare_string ?name (source : string) : Modsys.t =
  let name = match name with Some n -> n | None -> fresh_module_name "program" in
  Modsys.declare ~name source

(* A scratch lexical context with a language's exports in scope. *)
let in_lang_context ~(lang : string) (f : Scope.Set.t -> 'a) : 'a =
  Expander.reset_limits ();
  Liblang_expander.Ct_store.with_fresh_store (fun () ->
      let sc = Scope.fresh () in
      let scopes = Scope.Set.singleton sc in
      let ctx = Stx.id ~scopes "eval-ctx" in
      let m = Modsys.find lang in
      Modsys.visit m;
      Modsys.bind_exports ~ctx m;
      f scopes)

let read_one_stx ~scopes src =
  match Reader.read_one src with
  | Some d -> Stx.of_datum ~scopes d
  | None -> failwith "empty input"

(** Evaluate one expression in [lang]'s environment ([racket] by default). *)
let eval_expr ?(lang = "racket") (src : string) : Value.value =
  in_lang_context ~lang (fun scopes ->
      let stx = read_one_stx ~scopes src in
      !Modsys.evaluator (Compile.compile_expr (Expander.expand_expr stx)))

(** Expand one expression to core forms and render it — the view
    [local-expand] gives a language (§2.2). *)
let expand_expr_string ?(lang = "racket") (src : string) : string =
  in_lang_context ~lang (fun scopes ->
      let stx = read_one_stx ~scopes src in
      Stx.to_string (Expander.expand_expr stx))
