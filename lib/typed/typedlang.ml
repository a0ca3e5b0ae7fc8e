(** The typed sister language, assembled as an ordinary library (paper §3).

    Exports everything the base language does, overriding the binding forms
    with versions that record type annotations as syntax properties (§3.1),
    and adding [:], [ann], [require/typed], and a [#%module-begin] that
    splices the typechecker and the optimizer into the tool chain
    (figures 2 and 5, §6.2).

    Registered as the languages [typed/racket], [typed], and [simple-type]. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Value = Liblang_runtime.Value
module Expander = Liblang_expander.Expander
module Ct_store = Liblang_expander.Ct_store
module Denote = Liblang_expander.Denote
module Modsys = Liblang_modules.Modsys
module Baselang = Liblang_modules.Baselang
module Diagnostic = Liblang_diagnostics.Diagnostic
module Reporter = Liblang_diagnostics.Reporter

let err msg s = raise (Expander.Expand_error (msg, s))

let u = Baselang.bid
let sl = Stx.list

let annotate (id : Stx.t) (ty : Stx.t) : Stx.t =
  Stx.property_put Check.annotation_key ty id

let arrow_ty (doms : Stx.t list) (rng : Stx.t) : Stx.t = sl (doms @ [ Stx.id "->"; rng ])

(* -- parsing annotated binders ------------------------------------------------------ *)

(* A formal is either [x] or [x : T]; returns the (possibly annotated) id. *)
let parse_formal (f : Stx.t) : Stx.t * Stx.t option =
  match Stx.view f with
  | Stx.Id _ -> (f, None)
  | Stx.List [ x; colon; ty ] when Stx.is_id x && Stx.is_sym ":" colon -> (annotate x ty, Some ty)
  | _ -> err "expected a formal: x or [x : Type]" f

(* A binding clause is [x e] or [x : T e]. *)
let parse_clause (c : Stx.t) : Stx.t * Stx.t =
  match Stx.to_list c with
  | Some [ x; e ] when Stx.is_id x -> (x, e)
  | Some [ x; colon; ty; e ] when Stx.is_id x && Stx.is_sym ":" colon -> (annotate x ty, e)
  | _ -> err "expected a binding clause: [x e] or [x : Type e]" c

(* -- surface macros ------------------------------------------------------------------- *)

let m_define form =
  match Stx.to_list form with
  | Some [ _; x; colon; ty; rhs ] when Stx.is_id x && Stx.is_sym ":" colon ->
      (* (define x : T rhs) *)
      sl ~loc:(Stx.loc form) [ u "define-values"; sl [ annotate x ty ]; rhs ]
  | Some [ _; x; rhs ] when Stx.is_id x ->
      sl ~loc:(Stx.loc form) [ u "define-values"; sl [ x ]; rhs ]
  | Some (_ :: header :: rest) -> (
      (* (define (f formal ...) [: R] body ...) *)
      match Stx.view header with
      | Stx.DotList _ -> err "define: rest arguments are not supported in typed code" header
      | Stx.List (fname :: formals) when Stx.is_id fname -> (
          let formals = List.map parse_formal formals in
          let formal_ids = List.map fst formals in
          let build ret_ty body =
            let fname =
              match (ret_ty, List.map snd formals) with
              | Some rng, tys when List.for_all Option.is_some tys ->
                  annotate fname (arrow_ty (List.map Option.get tys) rng)
              | _ -> fname
            in
            sl ~loc:(Stx.loc form)
              [
                u "define-values";
                sl [ fname ];
                sl ((u "#%plain-lambda") :: sl formal_ids :: body);
              ]
          in
          match rest with
          | colon :: ret_ty :: body when Stx.is_sym ":" colon && body <> [] ->
              build (Some ret_ty) body
          | body when body <> [] -> build None body
          | _ -> err "define: bad syntax" form)
      | _ -> err "define: bad syntax" form)
  | _ -> err "define: bad syntax" form

let m_lambda form =
  match Stx.to_list form with
  | Some (_ :: formals :: body) when body <> [] -> (
      match Stx.view formals with
      | Stx.List fs ->
          let ids = List.map (fun f -> fst (parse_formal f)) fs in
          sl ~loc:(Stx.loc form) ((u "#%plain-lambda") :: sl ids :: body)
      | _ -> err "lambda: typed code does not support rest arguments" formals)
  | _ -> err "lambda: bad syntax" form

(* typed let: plain, annotated clauses, and the named form with an optional
   return annotation: (let loop : R ([x : T e] ...) body ...) *)
let rec m_let form =
  match Stx.to_list form with
  | Some (_ :: name :: colon :: ret_ty :: clauses :: body)
    when Stx.is_id name && Stx.is_sym ":" colon && body <> [] ->
      build_named_let form name (Some ret_ty) clauses body
  | Some (_ :: name :: clauses :: body)
    when Stx.is_id name && (match Stx.view clauses with Stx.List _ -> true | _ -> false)
         && body <> []
         && not (Stx.is_sym ":" name) ->
      (* distinguish named let from plain let: plain let's second element is
         the clause list, which is not an identifier *)
      build_named_let form name None clauses body
  | Some (_ :: clauses :: body) when body <> [] ->
      let parsed =
        match Stx.to_list clauses with
        | Some cs -> List.map parse_clause cs
        | None -> err "let: bad bindings" clauses
      in
      sl ~loc:(Stx.loc form)
        ((u "let-values")
        :: sl (List.map (fun (x, e) -> sl [ sl [ x ]; e ]) parsed)
        :: body)
  | _ -> err "let: bad syntax" form

and build_named_let form name ret_ty clauses body =
  let parsed =
    match Stx.to_list clauses with
    | Some cs -> List.map (fun c -> (parse_clause c, c)) cs
    | None -> err "let: bad bindings" clauses
  in
  let ids = List.map (fun ((x, _), _) -> x) parsed in
  let inits = List.map (fun ((_, e), _) -> e) parsed in
  let name =
    match ret_ty with
    | Some rng ->
        let arg_tys =
          List.map
            (fun ((x, _), c) ->
              match Stx.property_get Check.annotation_key x with
              | Some ty -> ty
              | None -> err "named let with a return type needs annotated bindings" c)
            parsed
        in
        annotate name (arrow_ty arg_tys rng)
    | None -> name
  in
  sl ~loc:(Stx.loc form)
    [
      u "letrec-values";
      sl [ sl [ sl [ name ]; sl ((u "#%plain-lambda") :: sl ids :: body) ] ];
      sl (name :: inits);
    ]

let m_let_colon form =
  (* let: is the same surface form; reuse *)
  m_let form

(* typed let*: sequential annotated clauses as nested let-values *)
let m_let_star form =
  match Stx.to_list form with
  | Some (_ :: clauses :: body) when body <> [] ->
      let parsed =
        match Stx.to_list clauses with
        | Some cs -> List.map parse_clause cs
        | None -> err "let*: bad bindings" clauses
      in
      List.fold_right
        (fun (x, e) acc -> sl [ u "let-values"; sl [ sl [ sl [ x ]; e ] ]; acc ])
        parsed
        (match body with [ e ] -> e | es -> sl ((u "begin") :: es))
  | _ -> err "let*: bad syntax" form

let m_colon form =
  (* (: id Type) — record a pending declaration (§4.4 first pass); the
     checker picks it up when the definition is seen *)
  match Stx.to_list form with
  | Some [ _; id; ty ] when Stx.is_id id ->
      (try Check.declare_pending (Stx.sym_exn id) (Types.of_stx ty)
       with Types.Parse_error (m, _) -> err m ty);
      sl [ u "begin"; sl [ u "void" ] ]
  | Some (_ :: id :: colon :: tys) when Stx.is_id id && Stx.is_sym ":" colon && tys <> [] ->
      (* (: f : T ... -> R) — TR's curried-colon shorthand *)
      let ty = sl tys in
      (try Check.declare_pending (Stx.sym_exn id) (Types.of_stx ty)
       with Types.Parse_error (m, _) -> err m ty);
      sl [ u "begin"; sl [ u "void" ] ]
  | _ -> err ": bad syntax (expects (: id Type))" form

let m_ann form =
  match Stx.to_list form with
  | Some [ _; e; ty ] ->
      Stx.property_put "type-ascription" ty
        (sl ~loc:(Stx.loc form) [ Expander.core_id "#%expression"; e ])
  | _ -> err "ann: bad syntax" form

let m_define_type form =
  match Stx.to_list form with
  | Some [ _; name; body ] when Stx.is_id name ->
      let name_s = Stx.sym_exn name in
      (* register the name before parsing so the definition may be
         self-referential (§4.4: complex declarations, first pass) *)
      Types.define_name name_s Types.Any;
      let ty =
        try Types.of_stx body with Types.Parse_error (m, _) -> err ("define-type: " ^ m) form
      in
      Types.define_name name_s ty;
      (* persist across compilations, like type declarations (§5) *)
      sl ~loc:(Stx.loc form)
        [
          Expander.core_id "begin-for-syntax";
          sl
            [
              Expander.core_id "#%plain-app";
              u "typed:define-type";
              sl [ u "quote"; name ];
              sl [ u "quote"; body ];
            ];
        ]
  | _ -> err "define-type: bad syntax (expects (define-type Name Type))" form

(* -- the driver (figure 2) -------------------------------------------------------------- *)

let m_module_begin form =
  match Stx.to_list form with
  | Some (_ :: forms) -> (
      (* the flag is set before the module's contents expand (§6.2) *)
      Boundary.set_typed_context ();
      let wrapped = sl ((Expander.core_id "#%plain-module-begin") :: forms) in
      let expanded = Expander.local_expand wrapped Expander.ModuleBegin in
      match Stx.view expanded with
      | Stx.List (mb :: core_forms) ->
          (* Check with a dedicated reporter so the checker accumulates
             every type error in the module (multi-error recovery); on any
             error, deliver the whole batch at once.  The reporter is
             uninstalled before the optimizer runs, so its internal
             type queries keep their fail-fast behavior. *)
          let reporter = Reporter.create () in
          (try Reporter.with_reporter reporter (fun () -> Check.check_module core_forms)
           with Check.Type_error (m, s) ->
             (* belt and braces: a type error that escaped recovery *)
             Reporter.report reporter (Check.diagnostic_of m s));
          if Reporter.has_errors reporter then
            raise (Diagnostic.Failed (Reporter.diagnostics reporter));
          let optimized = Optimize.optimize_module core_forms in
          let rewritten = Boundary.rewrite_provides optimized in
          Stx.rewrap expanded (Stx.List (mb :: rewritten))
      | _ -> err "internal error: bad module-begin expansion" form)
  | _ -> err "#%module-begin: bad syntax" form

(* -- language assembly -------------------------------------------------------------------- *)

let overridden = [ "define"; "lambda"; "λ"; "let"; "let*"; "#%module-begin" ]

let typed_mod, tid =
  (* phase-1 helpers live in the base module so generated code can always
     reach them *)
  Modsys.add_builtin_exports Baselang.racket_mod ~ctx_id:Baselang.bid
    ~values:Boundary.phase1_values ();
  let reexports =
    List.filter_map
      (fun (e : Modsys.export) ->
        if List.mem e.Modsys.ext_name overridden then None
        else Some (e.Modsys.ext_name, e.Modsys.binding))
      (Modsys.find "racket").Modsys.exports
  in
  let native name f = (name, Denote.Native (name, f)) in
  Modsys.declare_builtin ~name:"typed/racket" ~reexports
    ~macros:
      [
        native "define" m_define;
        native "define:" m_define;
        native "lambda" m_lambda;
        native "λ" m_lambda;
        native "lambda:" m_lambda;
        native "let" m_let;
        native "let:" m_let_colon;
        native "let*" m_let_star;
        native ":" m_colon;
        native "ann" m_ann;
        native "require/typed" Boundary.m_require_typed;
        native "define-type" m_define_type;
        native "#%module-begin" m_module_begin;
      ]
    ()

let () =
  Modsys.alias typed_mod "typed";
  Modsys.alias typed_mod "simple-type"

(** Force linking/initialization of the typed language. *)
let init () = ignore (typed_mod, tid)
