(** The typechecker (paper §4, figure 3): a whole-module, context-sensitive
    analysis over fully-expanded core forms.

    The type environment is the identifier-keyed table of the paper: a
    mutable, binding-uid-keyed table living in the compile-time store (so a
    fresh one exists per compilation, and [begin-for-syntax] declarations
    from required modules repopulate it — §5).  Annotations arrive
    out-of-band as syntax properties placed by the surface macros (§3.1). *)

module Stx = Liblang_stx.Stx
module Binding = Liblang_stx.Binding
module Value = Liblang_runtime.Value
module Ct_store = Liblang_expander.Ct_store
module Denote = Liblang_expander.Denote
module Diagnostic = Liblang_diagnostics.Diagnostic
module Reporter = Liblang_diagnostics.Reporter
open Types

exception Type_error of string * Stx.t

let terr s fmt = Printf.ksprintf (fun m -> raise (Type_error (m, s))) fmt

(* -- multi-error recovery -------------------------------------------------

   When an ambient {!Reporter} is installed (the typed language's
   module-begin driver installs one), type errors are {e accumulated}
   rather than raised: the checker emits a located diagnostic, synthesizes
   a recovery type, and keeps going, so one compilation reports every type
   error in the module.  Without a reporter (direct library use) the legacy
   fail-fast [Type_error] exception is preserved. *)

let diagnostic_of (m : string) (s : Stx.t) : Diagnostic.t =
  Diagnostic.error ~phase:Diagnostic.Typecheck ~loc:(Stx.loc s) m
    ~notes:[ Diagnostic.note ("in: " ^ Diagnostic.truncated (Stx.to_string s)) ]

(* Emit into the ambient reporter, or raise if none is installed. *)
let soft_err (s : Stx.t) fmt =
  Printf.ksprintf
    (fun m ->
      if not (Reporter.emit (diagnostic_of m s)) then raise (Type_error (m, s)))
    fmt

(** The syntax-property key under which annotations travel (§3.1). *)
let annotation_key = "type-annotation"

(** Forms carrying this property are skipped by the checker — the moral
    equivalent of the paper's [begin-ignored] (Fig. 4). *)
let ignore_key = "typed-ignore"

(* -- the type environment ------------------------------------------------------ *)

let types_table () = Ct_store.uid_table "typed:types"

let add_type (b : Binding.t) (t : Types.t) =
  Hashtbl.replace (types_table ()) b.Binding.uid (Value.of_datum (Types.to_datum t))

let lookup_type (b : Binding.t) : Types.t option =
  match Hashtbl.find_opt (types_table ()) b.Binding.uid with
  | None -> None
  | Some v -> Some (Types.of_datum (Value.to_datum v))

(* (: id T) declarations, recorded as the module body expands and read
   when the definition is checked; keyed by symbol name (module-level
   names are unique).  They live in the compilation's compile-time store,
   so a module compiled meanwhile — a require, or a module on another
   domain — neither sees nor clears them. *)
let decl_key name = "typed:decl " ^ name

let declare_pending name (t : Types.t) =
  Ct_store.set (decl_key name) (Value.of_datum (Types.to_datum t))

let pending_decl name : Types.t option =
  Option.map (fun v -> Types.of_datum (Value.to_datum v)) (Ct_store.get (decl_key name))

(* -- annotations ----------------------------------------------------------------- *)

(** Read a binder's type: its [type-annotation] syntax property, or a
    pending [(: id T)] declaration. *)
let type_of_id (id : Stx.t) : Types.t option =
  match Stx.property_get annotation_key id with
  | Some ty_stx -> (
      try Some (Types.of_stx ty_stx)
      with Types.Parse_error (m, _) -> terr id "%s" m)
  | None -> pending_decl (Stx.sym_exn id)

let resolve_exn (id : Stx.t) : Binding.t =
  match Binding.resolve id with
  | Some b -> b
  | None -> terr id "%s: unbound identifier" (Stx.sym_exn id)

let core_kind (hd : Stx.t) : string option =
  match Binding.resolve hd with
  | None -> None
  | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)

let is_ignored (s : Stx.t) = Option.is_some (Stx.property_get ignore_key s)

(* -- types of literals -------------------------------------------------------------- *)

module Datum = Liblang_reader.Datum

let rec type_of_datum (d : Datum.t) : Types.t =
  match d with
  | Datum.Atom (Datum.Int _) -> Integer
  | Datum.Atom (Datum.Float _) -> Float
  | Datum.Atom (Datum.Cpx _) -> FloatComplex
  | Datum.Atom (Datum.Bool _) -> Boolean
  | Datum.Atom (Datum.Str _) -> String_
  | Datum.Atom (Datum.Sym _) -> Symbol
  | Datum.Atom (Datum.Char _) -> Char_
  | Datum.List [] -> Null
  | Datum.List xs -> ListT (List.map (fun a -> type_of_datum a.Datum.d) xs)
  | Datum.DotList (xs, tl) ->
      List.fold_right
        (fun a acc -> Pairof (type_of_datum a.Datum.d, acc))
        xs
        (type_of_datum tl.Datum.d)
  | Datum.Vec [] -> Vectorof Any
  | Datum.Vec (x :: xs) ->
      Vectorof
        (List.fold_left
           (fun acc a -> join acc (type_of_datum a.Datum.d))
           (type_of_datum x.Datum.d)
           xs)

(* -- occurrence typing (simplified) ----------------------------------------------------
   Typed Racket's full system (Tobin-Hochstadt & Felleisen 2010) tracks
   logical propositions; we implement the common special case the paper's
   idioms rely on: [(if (pred x) then else)] narrows the type of the
   variable [x] in each branch.  Narrowing is skipped for variables that
   are ever [set!] (the standard soundness condition). *)

(* Variables that are [set!] anywhere in the module under analysis may not
   be narrowed (their type at the branch could differ from the table). *)
let assigned_table () = Ct_store.uid_table "typed:assigned"

let rec record_assignments (s : Stx.t) : unit =
  match Stx.view s with
  | Stx.List (hd :: rest) when Stx.is_id hd -> (
      match core_kind hd with
      | Some "set!" -> (
          (match rest with
          | x :: _ when Stx.is_id x -> (
              match Binding.resolve x with
              | Some b -> Hashtbl.replace (assigned_table ()) b.Binding.uid Value.Void
              | None -> ())
          | _ -> ());
          List.iter record_assignments rest)
      | Some ("quote" | "quote-syntax") -> ()
      | _ -> List.iter record_assignments rest)
  | Stx.List xs -> List.iter record_assignments xs
  | _ -> ()

let is_assigned (b : Binding.t) = Hashtbl.mem (assigned_table ()) b.Binding.uid

(* predicate name -> the type it tests for *)
let predicate_types =
  [
    ("flonum?", Float);
    ("exact-integer?", Integer);
    ("fixnum?", Integer);
    ("real?", Real);
    ("number?", Number);
    ("complex?", Number);
    ("boolean?", Boolean);
    ("string?", String_);
    ("symbol?", Symbol);
    ("char?", Char_);
    ("void?", Void_);
  ]

(* [restrict t p]: the type of a value known to be [t] that passed the test
   for [p]; [remove t p]: ... that failed it.  Both conservative. *)
let rec restrict t p =
  let t = Types.unfold t in
  if subtype t p then t
  else
    match t with
    | Union ms -> (
        match List.filter (fun m -> overlaps m p) ms with
        | [] -> p
        | [ m ] -> restrict m p
        | ms -> List.fold_left (fun acc m -> join acc (restrict m p)) (restrict (List.hd ms) p) (List.tl ms))
    | _ -> p

and remove t p =
  let t' = Types.unfold t in
  match t' with
  | Union ms -> (
      match List.filter (fun m -> not (subtype m p)) ms with
      | [] -> t
      | [ m ] -> m
      | ms -> Union ms)
  | _ -> t

and overlaps a b = subtype a b || subtype b a

(* pair?/null? narrow the list spine *)
let narrow_pairness t =
  let view = Types.unfold t in
  let rec split v =
    (* returns (pair-part option, non-pair part option) *)
    match Types.unfold v with
    | Listof a -> (Some (Pairof (a, Listof a)), Some Null)
    | Null -> (None, Some Null)
    | Pairof _ as p -> (Some p, None)
    | ListT [] -> (None, Some Null)
    | ListT (x :: xs) -> (Some (Pairof (x, ListT xs)), None)
    | Any -> (Some (Pairof (Any, Any)), Some Any)
    | Union ms ->
        List.fold_left
          (fun (ps, ns) m ->
            let p, n = split m in
            let merge a b = match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (join a b) in
            (merge ps p, merge ns n))
          (None, None) ms
    | other -> (None, Some other)
  in
  split view

let narrowing_by_predicate (pred_name : string) (t : Types.t) : (Types.t * Types.t) option =
  match pred_name with
  | "pair?" -> (
      match narrow_pairness t with
      | Some p, Some n -> Some (p, n)
      | Some p, None -> Some (p, t)
      | None, Some n -> Some (t, n)
      | None, None -> None)
  | "null?" | "empty?" -> (
      match narrow_pairness t with
      | Some p, Some n -> Some (n, p)
      | _ -> None)
  | _ -> (
      match List.assoc_opt pred_name predicate_types with
      | Some p -> Some (restrict t p, remove t p)
      | None -> None)

(* recognize [(pred x)] and [(not (pred x))] in core form *)
let rec narrowing_of (cond : Stx.t) : (Binding.t * Types.t * Types.t) option =
  match Stx.view cond with
  | Stx.List [ app; pred; x ]
    when Stx.is_id app && core_kind app = Some "#%plain-app" && Stx.is_id pred && Stx.is_id x
    -> (
      match Binding.resolve pred with
      | None -> None
      | Some pb -> (
          Base_env.ensure_initialized ();
          match Base_env.prim_name_of pb with
          | Some "not" -> None
          | Some name -> (
              match Binding.resolve x with
              | None -> None
              | Some xb when is_assigned xb -> None
              | Some xb -> (
                  match lookup_type xb with
                  | None -> None
                  | Some t -> (
                      match narrowing_by_predicate name t with
                      | Some (then_t, else_t) -> Some (xb, then_t, else_t)
                      | None -> None)))
          | None -> None))
  | Stx.List [ app; notp; inner ]
    when Stx.is_id app && core_kind app = Some "#%plain-app" && Stx.is_id notp -> (
      match Binding.resolve notp with
      | Some nb when Base_env.prim_name_of nb = Some "not" -> (
          match narrowing_of inner with
          | Some (b, then_t, else_t) -> Some (b, else_t, then_t)
          | None -> None)
      | _ -> None)
  | _ -> None

(** Run [f] with [b]'s type temporarily narrowed to [t]. *)
let with_narrowed (b : Binding.t) (t : Types.t) (f : unit -> 'a) : 'a =
  let table = types_table () in
  let saved = Hashtbl.find_opt table b.Binding.uid in
  Hashtbl.replace table b.Binding.uid (Value.of_datum (Types.to_datum t));
  Fun.protect
    ~finally:(fun () ->
      match saved with
      | Some v -> Hashtbl.replace table b.Binding.uid v
      | None -> Hashtbl.remove table b.Binding.uid)
    f

(* -- the checker (figure 3) ----------------------------------------------------------- *)

let rec typecheck ?(expect : Types.t option) (s : Stx.t) : Types.t =
  let t = infer ?expect s in
  match expect with
  | Some ex when not (subtype t ex) ->
      soft_err s "wrong type: expected %s, got %s" (to_string ex) (to_string t);
      (* error recovery: trust the annotation, so one mistake does not
         cascade into spurious downstream errors *)
      ex
  | _ -> t

and infer ?expect (s : Stx.t) : Types.t =
  if is_ignored s then Any
  else
    match Stx.view s with
    | Stx.Id _ -> type_of_ref ?expect s
    | Stx.List (hd :: args) when Stx.is_id hd -> (
        match core_kind hd with
        | Some kind -> infer_core ?expect kind s args
        | None -> terr s "non-core form reached the typechecker (internal error)")
    | _ -> terr s "cannot typecheck this form"

and type_of_ref ?expect (id : Stx.t) : Types.t =
  let b = resolve_exn id in
  match lookup_type b with
  | Some t -> t
  | None -> (
      Base_env.ensure_initialized ();
      match Base_env.lookup b with
      | Some (Base_env.Mono t) -> t
      | Some (Base_env.Special rule) -> (
          (* an overloaded primitive in higher-order position: if the
             context expects a function type, validate the primitive at
             those domain types (instantiating the overloading) *)
          match expect with
          | Some (Fun (doms, rng) as ft) -> (
              match rule doms with
              | r when subtype r rng -> ft
              | _ -> fallback_ho id b
              | exception Base_env.Rule_error _ -> fallback_ho id b)
          | _ -> fallback_ho id b)
      | None -> terr id "untyped variable: %s" (Stx.sym_exn id))

and fallback_ho id b =
  match Base_env.ho_fallback b with
  | Some t -> t
  | None ->
      terr id "%s: primitive needs annotation when used in higher-order position"
        (Stx.sym_exn id)

and infer_core ?expect kind (s : Stx.t) (args : Stx.t list) : Types.t =
  match (kind, args) with
  | "quote", [ d ] -> type_of_datum (Stx.to_datum d)
  | "quote-syntax", [ _ ] -> Any
  | "if", [ c; t; e ] -> (
      ignore (typecheck c);
      match narrowing_of c with
      | Some (b, then_t, else_t) ->
          let t1 = with_narrowed b then_t (fun () -> typecheck ?expect t) in
          let t2 = with_narrowed b else_t (fun () -> typecheck ?expect e) in
          join t1 t2
      | None ->
          let t1 = typecheck ?expect t in
          let t2 = typecheck ?expect e in
          join t1 t2)
  | "begin", (_ :: _) ->
      let rec go = function
        | [ last ] -> typecheck ?expect last
        | e :: rest ->
            ignore (typecheck e);
            go rest
        | [] -> assert false
      in
      go args
  | "#%expression", [ e ] -> (
      match Stx.property_get "type-ascription" s with
      | Some ty_stx ->
          let t = Types.of_stx ty_stx in
          ignore (typecheck ~expect:t e);
          t
      | None -> typecheck ?expect e)
  | "#%plain-lambda", (formals :: body) when body <> [] -> infer_lambda ?expect s formals body
  | ("let-values" | "letrec-values"), (clauses :: body) when body <> [] ->
      let recursive = String.equal kind "letrec-values" in
      let clauses =
        match Stx.to_list clauses with Some cs -> cs | None -> terr s "bad let clauses"
      in
      let parsed =
        List.map
          (fun c ->
            match Stx.to_list c with
            | Some [ ids; rhs ] -> (
                match Stx.to_list ids with
                | Some [ id ] -> (id, rhs)
                | _ -> terr c "multiple values are not supported in typed code")
            | _ -> terr c "bad binding clause")
          clauses
      in
      (* annotated bindings are visible to every right-hand side when
         recursive (the two-pass discipline of §4.4) *)
      if recursive then
        List.iter
          (fun (id, _) ->
            match type_of_id id with
            | Some t -> add_type (resolve_exn id) t
            | None -> ())
          parsed;
      List.iter
        (fun (id, rhs) ->
          match type_of_id id with
          | Some t ->
              ignore (typecheck ~expect:t rhs);
              add_type (resolve_exn id) t
          | None ->
              let t = typecheck rhs in
              add_type (resolve_exn id) t)
        parsed;
      let rec go = function
        | [ last ] -> typecheck ?expect last
        | e :: rest ->
            ignore (typecheck e);
            go rest
        | [] -> assert false
      in
      go body
  | "set!", [ x; e ] ->
      let tx = type_of_ref x in
      ignore (typecheck ~expect:tx e);
      Void_
  | "#%plain-app", (op :: operands) -> infer_app s op operands
  | _, _ -> terr s "%s: unexpected form in typed code" kind

and infer_lambda ?expect (s : Stx.t) (formals : Stx.t) (body : Stx.t list) : Types.t =
  let ids =
    match Stx.view formals with
    | Stx.List ids -> ids
    | Stx.Id _ | Stx.DotList _ -> terr formals "rest arguments are not supported in typed code"
    | _ -> terr formals "bad formals"
  in
  let expected_doms, expected_rng =
    match expect with
    | Some (Fun (doms, rng)) when List.length doms = List.length ids ->
        (* an expected range of Any means: infer the body's type *)
        (List.map Option.some doms, if Types.equal rng Any then None else Some rng)
    | _ -> (List.map (fun _ -> None) ids, None)
  in
  let dom_types =
    List.map2
      (fun id exp_dom ->
        let t =
          match (type_of_id id, exp_dom) with
          | Some t, _ -> t
          | None, Some t -> t
          | None, None ->
              terr id "missing type annotation for argument %s" (Stx.sym_exn id)
        in
        add_type (resolve_exn id) t;
        t)
      ids expected_doms
  in
  let rec go = function
    | [ last ] -> typecheck ?expect:expected_rng last
    | e :: rest ->
        ignore (typecheck e);
        go rest
    | [] -> terr s "empty body"
  in
  let rng = go body in
  Fun (dom_types, rng)

and infer_app (s : Stx.t) (op : Stx.t) (operands : Stx.t list) : Types.t =
  Base_env.ensure_initialized ();
  let special_rule =
    if Stx.is_id op then
      match Binding.resolve op with
      | Some b when Option.is_none (lookup_type b) -> (
          match Base_env.lookup b with Some (Base_env.Special f) -> Some f | _ -> None)
      | _ -> None
    else None
  in
  let prim_name =
    if Stx.is_id op then
      match Binding.resolve op with Some b -> Base_env.prim_name_of b | None -> None
    else None
  in
  match special_rule with
  | Some rule -> (
      let argtys =
        List.map Types.unfold (check_special_args (Option.value prim_name ~default:"") operands)
      in
      (* Any is the dynamic type: an overloaded primitive applied to a
         dynamic argument yields a dynamic result (and never triggers the
         optimizer) *)
      if List.exists (Types.equal Any) argtys then Any
      else try rule argtys with Base_env.Rule_error m -> terr s "%s" m)
  | None -> (
      match Types.unfold (typecheck op) with
      | Any ->
          List.iter (fun a -> ignore (typecheck a)) operands;
          Any
      | Fun (doms, rng) ->
          if List.length doms <> List.length operands then
            terr s "wrong number of arguments: expected %d, got %d" (List.length doms)
              (List.length operands);
          List.iter2 (fun d a -> ignore (typecheck ~expect:d a)) doms operands;
          rng
      | t -> terr op "not a function type: %s" (to_string t))

(* Bidirectional checking of arguments to overloaded higher-order
   primitives: the function argument's domain comes from the collection's
   element type, so unannotated lambdas work in [(map (lambda (x) …) l)]
   and the comprehension forms built on it. *)
and check_special_args (name : string) (operands : Stx.t list) : Types.t list =
  let elem_of t =
    match Base_env.listof_view (Types.unfold t) with Some e -> e | None -> Any
  in
  match (name, operands) with
  | ("map" | "for-each" | "filter" | "andmap" | "ormap" | "count"), f :: lists when lists <> [] ->
      let ltys = List.map (fun l -> typecheck l) lists in
      let doms = List.map elem_of ltys in
      let ft = typecheck ~expect:(Fun (doms, Any)) f in
      ft :: ltys
  | ("foldl" | "foldr"), [ f; init; l ] ->
      let it = typecheck init in
      let lt = typecheck l in
      let ft = typecheck ~expect:(Fun ([ elem_of lt; it ], Any)) f in
      [ ft; it; lt ]
  | "sort", [ l; f ] ->
      let lt = typecheck l in
      let e = elem_of lt in
      let ft = typecheck ~expect:(Fun ([ e; e ], Any)) f in
      [ lt; ft ]
  | ("build-list" | "build-vector"), [ n; f ] ->
      let nt = typecheck n in
      let ft = typecheck ~expect:(Fun ([ Integer ], Any)) f in
      [ nt; ft ]
  | "vector-map", [ f; v ] ->
      let vt = typecheck v in
      let e = match Types.unfold vt with Vectorof e -> e | _ -> Any in
      let ft = typecheck ~expect:(Fun ([ e ], Any)) f in
      [ ft; vt ]
  | _ -> List.map (fun a -> typecheck a) operands

(* -- the module-level driver (figure 2 / §4.4) ----------------------------------------- *)

let definition_parts (form : Stx.t) : (Stx.t * Stx.t) option =
  match Stx.view form with
  | Stx.List [ hd; ids; rhs ] when Stx.is_id hd && core_kind hd = Some "define-values" -> (
      match Stx.to_list ids with Some [ id ] -> Some (id, rhs) | _ -> None)
  | _ -> None

let check_top_form (form : Stx.t) : unit =
  if is_ignored form then ()
  else
    match Stx.view form with
    | Stx.List (hd :: _) when Stx.is_id hd -> (
        match core_kind hd with
        | Some "define-values" -> (
            match definition_parts form with
            | Some (id, rhs) -> (
                let b = resolve_exn id in
                match lookup_type b with
                | Some t -> ignore (typecheck ~expect:t rhs)
                | None ->
                    let t = typecheck rhs in
                    add_type b t)
            | None -> terr form "define-values: multiple values are not supported in typed code")
        | Some ("define-syntaxes" | "begin-for-syntax" | "#%provide" | "#%require") -> ()
        | _ -> ignore (typecheck form))
    | _ -> ignore (typecheck form)

(** Typecheck a fully-expanded module body: pass A records every annotated
    definition (enabling mutual recursion and forward references — §4.4);
    pass B checks each form. *)
let check_module (forms : Stx.t list) : unit =
  Liblang_observe.Trace.span "typecheck" @@ fun () ->
  Liblang_observe.Metrics.countn "typecheck.forms" (List.length forms);
  Base_env.ensure_initialized ();
  (* With a reporter installed, a failed form is reported and skipped so
     the remaining forms are still checked — one invocation reports every
     type error in the module, in source order. *)
  let contained f form =
    match f form with
    | () -> ()
    | exception Type_error (m, s) when Reporter.installed () ->
        ignore (Reporter.emit (diagnostic_of m s))
  in
  List.iter record_assignments forms;
  List.iter
    (contained (fun form ->
         if not (is_ignored form) then
           match definition_parts form with
           | Some (id, _) -> (
               match type_of_id id with
               | Some t -> add_type (resolve_exn id) t
               | None -> ())
           | None -> ()))
    forms;
  List.iter (contained check_top_form) forms

(** The type of an expression, for the optimizer's queries; relies on the
    type environment already populated by checking. *)
let type_of_expr (s : Stx.t) : Types.t = typecheck s
