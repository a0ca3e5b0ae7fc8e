(** The hygienic macro expander (paper §2).

    [expand_expr] reduces any expression to the core grammar of the paper's
    figure 1; [expand_module_body] runs the two-pass module-body expansion
    that [#%plain-module-begin] triggers; [local_expand] is the key API that
    lets a language analyze arbitrary code without knowing about user macros
    (§2.2).  Transformers are either host-language (OCaml) functions,
    [syntax-rules] macros, or phase-1 object-language procedures. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Value = Liblang_runtime.Value
module Interp = Liblang_runtime.Interp

exception Expand_error of string * Stx.t

let err msg s = raise (Expand_error (msg, s))

(* -- core bindings --------------------------------------------------------- *)

let core_scope = Scope.fresh ()

let core_form_names =
  [
    "#%plain-lambda";
    "if";
    "begin";
    "let-values";
    "letrec-values";
    "set!";
    "quote";
    "quote-syntax";
    "#%plain-app";
    "#%expression";
    "define-values";
    "define-syntaxes";
    "begin-for-syntax";
    "#%provide";
    "#%require";
    "#%plain-module-begin";
    "#%app";
    "#%datum";
    "syntax-rules";
  ]

let core_scope_set = Scope.Set.singleton core_scope

(** An identifier carrying (only) the core scope; resolves to core forms. *)
let core_id ?(loc = Liblang_reader.Srcloc.none) name =
  Stx.id ~scopes:core_scope_set ~loc name

(** Like {!core_id} but from a pre-interned symbol — the hot paths
    ([#%datum]/[#%app] insertion) never re-hash a keyword string. *)
let core_id_sym ?(loc = Liblang_reader.Srcloc.none) sym =
  Stx.id_sym ~scopes:core_scope_set ~loc sym

let sym_datum = Stx.Symbol.intern "#%datum"
let sym_app = Stx.Symbol.intern "#%app"
let sym_plain_app = Stx.Symbol.intern "#%plain-app"
let sym_quote = Stx.Symbol.intern "quote"

let core_bindings : (string * Binding.t) list =
  List.map
    (fun name ->
      let b = Binding.bind (core_id name) in
      Denote.set b (Denote.DCore name);
      (name, b))
    core_form_names

(* -- helpers ---------------------------------------------------------------- *)

let resolve_id (s : Stx.t) : (Binding.t * Denote.denotation) option =
  match Binding.resolve s with
  | None -> None
  | Some b -> Some (b, Option.value (Denote.get b) ~default:Denote.DVar)

let head_of (s : Stx.t) : Stx.t option =
  match Stx.view s with
  | Stx.List (hd :: _) when Stx.is_id hd -> Some hd
  | _ -> None

(* Rebuild a list form, preserving location and syntax properties of the
   original — out-of-band information must survive rewriting (§3.1). *)
let relist (orig : Stx.t) (xs : Stx.t list) : Stx.t = Stx.rewrap orig (Stx.List xs)

let expect_list msg s = match Stx.to_list s with Some xs -> xs | None -> err msg s

let expect_id msg s = if Stx.is_id s then s else err msg s

(* -- fault containment --------------------------------------------------------

   Macro transformers are ordinary programs run at compile time (paper
   §2.1), so a library-defined language can diverge or blow the stack
   during expansion.  Two guards keep the expander total:

   - {e macro-step fuel}: every transformer application consumes one unit;
     a divergent macro exhausts the budget and is reported as a located
     diagnostic naming the macro and its use site.
   - {e recursion depth}: structural expansion of pathologically nested
     input is cut off before it can overflow the host stack.

   Both are per module: each module-compilation boundary (see Modsys) runs
   under {!with_fresh_limits}, and each pipeline run starts from
   {!reset_limits}. *)

let default_fuel = 100_000
let default_max_depth = 5_000

(* The limits are per-domain: each parallel-build worker expands under its
   own fuel budget and depth counter, so one worker's consumption can
   neither starve nor corrupt another's.  Workers inherit the defaults
   (every module boundary starts from a full budget anyway). *)
type limits = {
  budget : int;
  mutable fuel : int;
  max_depth : int;
  mutable depth : int;
}

let limits_key : limits Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { budget = default_fuel; fuel = default_fuel; max_depth = default_max_depth; depth = 0 })

let[@inline] limits () = Domain.DLS.get limits_key

(** Restore the fuel budget and depth counter.  Called at the start of
    each pipeline run. *)
let reset_limits () =
  let l = limits () in
  l.fuel <- l.budget;
  l.depth <- 0

(** Run [f] (one module's compilation) under a full fuel budget and a zero
    depth counter, then restore the enclosing compilation's fuel and depth.
    A [require] compiles its module in the middle of the requiring
    module's expansion; without the restore, the requiring module would
    carry on with whatever budget the nested one left. *)
let with_fresh_limits (f : unit -> 'a) : 'a =
  let l = limits () in
  let fuel = l.fuel and depth = l.depth in
  l.fuel <- l.budget;
  l.depth <- 0;
  Fun.protect
    ~finally:(fun () ->
      l.fuel <- fuel;
      l.depth <- depth)
    f

(* -- transformer application ------------------------------------------------- *)

(* The user-facing name of the macro being applied at use-site [s]. *)
let macro_name_of (t : Denote.transformer) (s : Stx.t) : string =
  match t with
  | Denote.Native (n, _) | Denote.Rules { Syntax_rules.name = n; _ } -> n
  | Denote.ObjProc _ -> (
      match Stx.view s with
      | Stx.Id n -> Stx.Symbol.name n
      | Stx.List (hd :: _) when Stx.is_id hd -> Stx.sym_exn hd
      | _ -> "#<phase-1 procedure>")

let contain_err name (s : Stx.t) what =
  err
    (Printf.sprintf "while expanding macro %s (invoked at %s): %s" name
       (Liblang_reader.Srcloc.to_string (Stx.loc s))
       what)
    s

let transform (t : Denote.transformer) (s : Stx.t) : Stx.t =
  let l = limits () in
  l.fuel <- l.fuel - 1;
  if l.fuel <= 0 then
    contain_err (macro_name_of t s) s
      (Printf.sprintf
         "macro expansion exhausted its fuel budget of %d steps (expansion probably diverges)"
         l.budget);
  let intro = Scope.fresh () in
  let input = Stx.flip_scope intro s in
  let output =
    match t with
    | Denote.Native (_, f) -> f input
    | Denote.Rules sr -> (
        try Syntax_rules.apply sr input
        with Syntax_rules.Bad_syntax (m, stx) -> raise (Expand_error (m, stx)))
    | Denote.ObjProc proc -> (
        match Interp.apply1 proc (Value.StxV input) with
        | Value.StxV out -> out
        | v ->
            err
              (Printf.sprintf "transformer returned %s instead of syntax" (Value.write_string v))
              s
        | exception Interp.Out_of_fuel ->
            contain_err (macro_name_of t s) s
              "compile-time evaluation exhausted its fuel budget (the transformer probably \
               diverges)"
        | exception Stack_overflow ->
            contain_err (macro_name_of t s) s
              "compile-time evaluation overflowed the stack (runaway recursion in the \
               transformer)")
  in
  Stx.flip_scope intro output

(* Observability wrapper around [transform]: each application is an
   [expand.macro.<m>] span (per-transformer wall time in the profile tree;
   at trace verbosity 2, the CLI's [-vv], its enter/exit carry the syntax
   before and after the step), plus per-macro application counts and
   compile-time fuel attribution.  When neither a metrics collector nor a
   trace sink is installed this is a load-and-branch on top of
   [transform]. *)
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

let apply_transformer (t : Denote.transformer) (s : Stx.t) : Stx.t =
  if not (Metrics.installed () || Trace.installed ()) then transform t s
  else begin
    let name = macro_name_of t s in
    let key = "expand.macro." ^ name in
    let interp_fuel0 = !(Interp.fuel ()) in
    let output =
      Trace.span ~level:2 key
        ~fields:(fun () ->
          [ ("loc", Liblang_reader.Srcloc.to_string (Stx.loc s)); ("before", Stx.to_string s) ])
        ~result:(fun out -> [ ("after", Stx.to_string out) ])
        (fun () -> transform t s)
    in
    if Metrics.installed () then begin
      Metrics.count key;
      (* compile-time evaluation steps burned inside the transformer: only
         phase-1 (object-language) procedures consume interpreter fuel *)
      let burned = interp_fuel0 - !(Interp.fuel ()) in
      if burned > 0 then Metrics.countn ("expand.fuel." ^ name) burned
    end;
    output
  end

let stx_flush_depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(** The hygiene engine (lib/stx) keeps plain monotonic int counters for its
    hot paths — per-domain resolver cache hits/misses/scanned entries and
    lazy scope pushes — so the expander's inner loop never hashes a metric
    name.  This wrapper flushes the deltas accumulated during [f] into the
    ambient collector as the ["expand.resolve_hits"]/
    ["expand.resolve_misses"]/["expand.resolve_scanned"]/
    ["stx.scope_pushes"] metrics (plus interning gauges); it is a no-op
    without a collector.

    The bracket is {e reentrant per domain}: pipeline entry points nest
    (e.g. [run_file] over a module whose requires route back through
    [compile_file]-style machinery, or a [-j 1] build running its tasks on
    the calling domain inside an outer profiled run), and if both the outer
    and the inner bracket flushed, the inner delta window would land twice
    in the merged [--profile].  Only the outermost bracket of each domain
    flushes.

    The per-domain deltas (resolver hits/misses/scanned) flush on every
    domain; the {e process-wide} gauges (scope pushes, interned symbols /
    scope sets) flush only from the main domain — concurrent worker
    windows overlap the main window, so per-worker deltas of a shared
    counter would double-count. *)
let with_stx_counters (f : unit -> 'a) : 'a =
  if not (Metrics.installed ()) then f ()
  else begin
    let depth = Domain.DLS.get stx_flush_depth_key in
    if !depth > 0 then f () (* nested bracket: let the outermost flush *)
    else begin
      incr depth;
      let h0 = Binding.resolve_hits ()
      and m0 = Binding.resolve_misses ()
      and r0 = Binding.resolve_scanned ()
      and p0 = !Stx.scope_pushes
      and sy0 = Stx.Symbol.interned_count ()
      and sc0 = Scope.Set.interned_count () in
      Fun.protect
        ~finally:(fun () ->
          decr depth;
          Metrics.countn "expand.resolve_hits" (Binding.resolve_hits () - h0);
          Metrics.countn "expand.resolve_misses" (Binding.resolve_misses () - m0);
          Metrics.countn "expand.resolve_scanned" (Binding.resolve_scanned () - r0);
          if Domain.is_main_domain () then begin
            Metrics.countn "stx.scope_pushes" (!Stx.scope_pushes - p0);
            Metrics.countn "stx.symbols_interned" (Stx.Symbol.interned_count () - sy0);
            Metrics.countn "stx.scope_sets_interned"
              (Scope.Set.interned_count () - sc0)
          end)
        f
    end
  end

(* -- expression expansion ------------------------------------------------------ *)

type stops = Binding.t list

let in_stops (stops : stops) (b : Binding.t) = List.exists (Binding.equal b) stops

let rec expand_expr ?(stops : stops = []) (s : Stx.t) : Stx.t =
  let l = limits () in
  let d = l.depth in
  if d >= l.max_depth then
    err
      (Printf.sprintf
         "expansion recursion too deep (limit %d): nesting exceeds the expander's depth guard"
         l.max_depth)
      s;
  l.depth <- d + 1;
  match expand_expr_at ~stops s with
  | v ->
      l.depth <- d;
      v
  | exception e ->
      l.depth <- d;
      raise e

and expand_expr_at ~(stops : stops) (s : Stx.t) : Stx.t =
  match Stx.view s with
  | Stx.Id _ -> (
      match resolve_id s with
      | Some (b, _) when in_stops stops b -> s
      | Some (_, Denote.DMacro t) -> expand_expr_at ~stops (apply_transformer t s)
      | Some (_, Denote.DCore name) -> err (Printf.sprintf "%s: bad use of core form" name) s
      | Some (_, Denote.DVar) -> s
      | None -> err (Printf.sprintf "%s: unbound identifier" (Stx.sym_exn s)) s)
  | Stx.Atom _ -> expand_datum ~stops s
  | Stx.List [] -> err "missing procedure expression" s
  | Stx.List (hd :: args) when Stx.is_id hd -> (
      match resolve_id hd with
      | Some (b, _) when in_stops stops b -> s
      | Some (_, Denote.DMacro t) -> expand_expr_at ~stops (apply_transformer t s)
      | Some (_, Denote.DCore name) -> expand_core ~stops name s hd args
      | Some (_, Denote.DVar) | None -> expand_app ~stops s)
  | Stx.List _ -> expand_app ~stops s
  | Stx.DotList _ -> err "unexpected dotted list in expression position" s
  | Stx.Vec _ -> expand_datum ~stops s

(* Implicit #%datum: self-evaluating literals consult the context's #%datum
   binding, so a language can reinterpret literals. *)
and expand_datum ~stops (s : Stx.t) : Stx.t =
  let datum_id = Stx.id_sym ~scopes:(Stx.scopes s) sym_datum in
  match resolve_id datum_id with
  | Some (_, Denote.DMacro t) ->
      expand_expr ~stops (apply_transformer t (relist s [ datum_id; s ]))
  | _ -> relist s [ core_id_sym ~loc:(Stx.loc s) sym_quote; s ]

(* Implicit #%app: applications consult the context's #%app binding, so a
   language can reinterpret application (e.g. a lazy language). *)
and expand_app ~stops (s : Stx.t) : Stx.t =
  let elems = expect_list "application: bad syntax" s in
  let app_id = Stx.id_sym ~scopes:(Stx.scopes s) sym_app in
  match resolve_id app_id with
  | Some (_, Denote.DMacro t) ->
      expand_expr ~stops (apply_transformer t (relist s (app_id :: elems)))
  | _ ->
      relist s
        (core_id_sym ~loc:(Stx.loc s) sym_plain_app :: List.map (expand_expr ~stops) elems)

and expand_core ~stops name (s : Stx.t) (hd : Stx.t) (args : Stx.t list) : Stx.t =
  match (name, args) with
  | "quote", [ _ ] | "quote-syntax", [ _ ] -> s
  | ("quote" | "quote-syntax"), _ -> err (name ^ ": bad syntax") s
  | "if", [ c; t; e ] ->
      relist s [ hd; expand_expr ~stops c; expand_expr ~stops t; expand_expr ~stops e ]
  | "if", _ -> err "if: bad syntax (expects 3 subexpressions)" s
  | "begin", (_ :: _) -> relist s (hd :: List.map (expand_expr ~stops) args)
  | "begin", [] -> err "begin: empty body" s
  | "#%expression", [ e ] -> relist s [ hd; expand_expr ~stops e ]
  | "#%plain-app", (_ :: _) -> relist s (hd :: List.map (expand_expr ~stops) args)
  | "#%plain-app", [] -> err "#%plain-app: missing procedure" s
  | "#%app", (f :: rest) ->
      relist s
        (core_id_sym ~loc:(Stx.loc s) sym_plain_app
        :: List.map (expand_expr ~stops) (f :: rest))
  | "set!", [ x; e ] ->
      let x = expect_id "set!: expects an identifier" x in
      (match resolve_id x with
      | Some (_, Denote.DVar) -> ()
      | Some (_, Denote.DMacro _) -> err "set!: cannot mutate a syntactic binding" x
      | Some (_, Denote.DCore _) -> err "set!: cannot mutate a core form" x
      | None -> err (Printf.sprintf "set!: unbound identifier %s" (Stx.sym_exn x)) x);
      relist s [ hd; x; expand_expr ~stops e ]
  | "#%plain-lambda", (formals :: body) when body <> [] ->
      let sc = Scope.fresh () in
      let formals = Stx.add_scope sc formals in
      let bind_formal id =
        let id = expect_id "lambda: expects identifiers as formals" id in
        let b = Binding.bind id in
        Denote.set b Denote.DVar;
        id
      in
      let formals =
        match Stx.view formals with
        | Stx.Id _ ->
            ignore (bind_formal formals);
            formals
        | Stx.List ids -> relist formals (List.map bind_formal ids)
        | Stx.DotList (ids, tl) ->
            Stx.rewrap formals (Stx.DotList (List.map bind_formal ids, bind_formal tl))
        | _ -> err "lambda: bad formals" formals
      in
      let body = List.map (fun e -> expand_expr ~stops (Stx.add_scope sc e)) body in
      relist s (hd :: formals :: body)
  | "#%plain-lambda", _ -> err "lambda: bad syntax" s
  | ("let-values" | "letrec-values"), (clauses :: body) when body <> [] ->
      let recursive = String.equal name "letrec-values" in
      let clauses = expect_list (name ^ ": bad binding clauses") clauses in
      let sc = Scope.fresh () in
      let parse_clause c =
        match Stx.to_list c with
        | Some [ ids; rhs ] ->
            let ids = expect_list (name ^ ": bad binding clause") ids in
            (List.map (expect_id (name ^ ": expects identifiers")) ids, rhs, c)
        | _ -> err (name ^ ": bad binding clause") c
      in
      let parsed = List.map parse_clause clauses in
      (* letrec: scope rhs too, before binding *)
      let parsed =
        List.map
          (fun (ids, rhs, c) ->
            let ids = List.map (Stx.add_scope sc) ids in
            let rhs = if recursive then Stx.add_scope sc rhs else rhs in
            (ids, rhs, c))
          parsed
      in
      List.iter
        (fun (ids, _, _) ->
          List.iter
            (fun id ->
              let b = Binding.bind id in
              Denote.set b Denote.DVar)
            ids)
        parsed;
      let clauses' =
        List.map
          (fun (ids, rhs, c) -> relist c [ relist c ids; expand_expr ~stops rhs ])
          parsed
      in
      let body = List.map (fun e -> expand_expr ~stops (Stx.add_scope sc e)) body in
      relist s (hd :: relist s clauses' :: body)
  | ("let-values" | "letrec-values"), _ -> err (name ^ ": bad syntax") s
  | "syntax-rules", _ -> err "syntax-rules: only allowed as a transformer expression" s
  | ( ("define-values" | "define-syntaxes" | "begin-for-syntax" | "#%provide" | "#%require"
      | "#%plain-module-begin" | "#%datum"),
      _ ) ->
      err (name ^ ": not allowed in an expression context") s
  | _ -> err (name ^ ": bad syntax") s

(* -- phase 1: evaluating transformer expressions -------------------------------- *)

and eval_expr (s : Stx.t) : Value.value =
  let expanded = expand_expr s in
  let ast = Compile.compile_expr expanded in
  match Interp.eval_top ast with
  | v -> v
  | exception Interp.Out_of_fuel ->
      err "compile-time evaluation exhausted its fuel budget (probably divergent)" s
  | exception Stack_overflow ->
      err "compile-time evaluation overflowed the stack (runaway recursion)" s

and eval_transformer_rhs ~name (rhs : Stx.t) : Denote.transformer =
  let is_syntax_rules =
    match head_of rhs with
    | Some hd -> (
        match resolve_id hd with
        | Some (_, Denote.DCore "syntax-rules") -> true
        | None -> Stx.is_sym "syntax-rules" hd
        | _ -> false)
    | None -> false
  in
  if is_syntax_rules then Denote.Rules (Syntax_rules.parse ~name rhs)
  else
    match eval_expr rhs with
    | (Value.Closure _ | Value.Prim _) as proc -> Denote.ObjProc proc
    | v ->
        err
          (Printf.sprintf "define-syntaxes: transformer must be a procedure, got %s"
             (Value.write_string v))
          rhs

(* -- module-body expansion (two passes, §4.2) -------------------------------------- *)

(* The module system (a higher layer) installs the actual require handler;
   it must make the required module's exports visible to [spec]'s context
   and return unit. *)
let require_handler : (Stx.t -> unit) ref =
  ref (fun spec -> err "#%require: no module system installed" spec)

(* Partial expansion: apply macros until the head is a core form or a
   variable; used by pass 1 to discover definitions. *)
let rec partial_expand (s : Stx.t) : Stx.t =
  match Stx.view s with
  | Stx.List (hd :: _) when Stx.is_id hd -> (
      match resolve_id hd with
      | Some (_, Denote.DMacro t) -> partial_expand (apply_transformer t s)
      | _ -> s)
  | Stx.Id _ -> (
      match resolve_id s with
      | Some (_, Denote.DMacro t) -> partial_expand (apply_transformer t s)
      | _ -> s)
  | _ -> s

type mod_form =
  | MDefine of Stx.t * Stx.t list * Stx.t  (** original form, ids, rhs *)
  | MDefineSyntaxes of Stx.t
  | MBeginForSyntax of Stx.t * Stx.t list  (** original, expanded phase-1 forms *)
  | MProvide of Stx.t
  | MRequire of Stx.t
  | MExpr of Stx.t

let expand_module_body (forms : Stx.t list) : Stx.t list =
  (* pass 1: uncover definitions, requires, provides *)
  let acc = ref [] in
  let rec pass1 (form : Stx.t) =
    let form = partial_expand form in
    match Stx.view form with
    | Stx.List (hd :: rest) when Stx.is_id hd -> (
        match resolve_id hd with
        | Some (_, Denote.DCore "begin") -> List.iter pass1 rest
        | Some (_, Denote.DCore "define-values") -> (
            match rest with
            | [ ids; rhs ] ->
                let ids = expect_list "define-values: bad syntax" ids in
                let ids = List.map (expect_id "define-values: expects identifiers") ids in
                List.iter
                  (fun id ->
                    let b = Binding.bind id in
                    Denote.set b Denote.DVar)
                  ids;
                acc := MDefine (form, ids, rhs) :: !acc
            | _ -> err "define-values: bad syntax" form)
        | Some (_, Denote.DCore "define-syntaxes") -> (
            match rest with
            | [ ids; rhs ] ->
                let ids = expect_list "define-syntaxes: bad syntax" ids in
                let ids = List.map (expect_id "define-syntaxes: expects identifiers") ids in
                (match ids with
                | [ id ] ->
                    let t = eval_transformer_rhs ~name:(Stx.sym_exn id) rhs in
                    let b = Binding.bind id in
                    Denote.set b (Denote.DMacro t)
                | _ -> err "define-syntaxes: expects exactly one identifier" form);
                acc := MDefineSyntaxes form :: !acc
            | _ -> err "define-syntaxes: bad syntax" form)
        | Some (_, Denote.DCore "begin-for-syntax") ->
            let expanded = List.map expand_expr rest in
            List.iter
              (fun e ->
                match Interp.eval_top (Compile.compile_expr e) with
                | _ -> ()
                | exception Interp.Out_of_fuel ->
                    err
                      "begin-for-syntax: compile-time evaluation exhausted its fuel budget \
                       (probably divergent)"
                      e
                | exception Stack_overflow ->
                    err "begin-for-syntax: compile-time evaluation overflowed the stack" e)
              expanded;
            acc := MBeginForSyntax (form, expanded) :: !acc
        | Some (_, Denote.DCore "#%provide") -> acc := MProvide form :: !acc
        | Some (_, Denote.DCore "#%require") ->
            List.iter (fun spec -> !require_handler spec) rest;
            acc := MRequire form :: !acc
        | _ -> acc := MExpr form :: !acc)
    | _ -> acc := MExpr form :: !acc
  in
  List.iter pass1 forms;
  (* pass 2: fully expand deferred right-hand sides and expressions *)
  let finish = function
    | MDefine (form, ids, rhs) ->
        let rhs' = expand_expr rhs in
        relist form
          [ core_id ~loc:(Stx.loc form) "define-values"; relist form ids; rhs' ]
        |> Stx.copy_properties ~src:form
    | MDefineSyntaxes form -> form
    | MBeginForSyntax (form, expanded) ->
        relist form (core_id ~loc:(Stx.loc form) "begin-for-syntax" :: expanded)
    | MProvide form -> form
    | MRequire form -> form
    | MExpr form -> expand_expr form |> Stx.copy_properties ~src:form
  in
  List.map finish (List.rev !acc)

(* -- local-expand (§2.2) -------------------------------------------------------------- *)

type local_context = Expression | ModuleBegin

(** The paper's [local-expand].  In [Expression] context, [stops] lists
    identifiers at which expansion should stop (an empty list means: expand
    fully to core forms).  In [ModuleBegin] context the argument must be a
    [#%plain-module-begin] form, and the whole two-pass module-body
    expansion runs — this is what the Typed Racket driver (Fig. 2) uses. *)
let local_expand ?(stops : Stx.t list = []) (s : Stx.t) (ctx : local_context) : Stx.t =
  match ctx with
  | Expression ->
      let stop_bindings = List.filter_map Binding.resolve stops in
      expand_expr ~stops:stop_bindings s
  | ModuleBegin -> (
      match Stx.view s with
      | Stx.List (hd :: forms) when Stx.is_id hd -> (
          match resolve_id hd with
          | Some (_, Denote.DCore "#%plain-module-begin") ->
              relist s (hd :: expand_module_body forms)
          | _ -> err "local-expand: module-begin context expects #%plain-module-begin" s)
      | _ -> err "local-expand: module-begin context expects #%plain-module-begin" s)

(* -- phase-1 primitives for object-language macros -------------------------------------- *)

let phase1_prims : (string * Value.value) list =
  let mk name fn = (name, Value.prim name fn) in
  [
    mk "local-expand" (function
      | [ Value.StxV s ] -> Value.StxV (local_expand s Expression)
      | [ Value.StxV s; Value.Sym "expression"; stop_list ] ->
          let stops =
            List.map
              (function
                | Value.StxV id -> id
                | v -> Value.error "local-expand: bad stop list entry %s" (Value.write_string v))
              (Value.to_list stop_list)
          in
          Value.StxV (local_expand ~stops s Expression)
      | _ -> Value.error "local-expand: expects a syntax object");
    mk "make-stx-list" (function
      | [ Value.StxV ctx; parts ] ->
          let stxs =
            List.map
              (function
                | Value.StxV s -> s
                | v ->
                    Value.error "make-stx-list: expects syntax parts, got %s"
                      (Value.write_string v))
              (Value.to_list parts)
          in
          Value.StxV (Stx.list ~loc:(Stx.loc ctx) stxs)
      | _ -> Value.error "make-stx-list: expects a context and a list of syntax objects");
  ]
