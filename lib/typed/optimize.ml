(** The type-driven optimizer (paper §7, figure 5).

    A source-to-source pass over typechecked core forms.  Uses of generic
    operations whose operand types were proved [Float] (or [Float-Complex])
    rewrite to the unsafe type-specialized primitives; accesses to values
    whose pair/vector shape is proved rewrite to tag-check-free accessors.
    The unsafe primitives additionally signal the backend's unboxing
    (see {!Liblang_runtime.Interp}). *)

module Stx = Liblang_stx.Stx
module Binding = Liblang_stx.Binding
module Denote = Liblang_expander.Denote
module Baselang = Liblang_modules.Baselang
module Zcfa = Liblang_analysis.Zcfa
module Facts = Liblang_analysis.Facts
open Types

(** Optimization levels, for the ablation benchmarks:
    - [O0]: no rewriting (typecheck only);
    - [O1]: rewrite, but the backend's float unboxing is disabled
      separately via {!Liblang_runtime.Interp.unboxing_enabled};
    - [O2]: full (default). *)
let enabled = ref true

(* rewrite statistics, for tests and reporting — domain-local so parallel
   compilations don't race on the table (each worker's rule firings also
   land in that worker's own metrics collector and merge on join) *)
let stats_key : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let[@inline] stats () = Domain.DLS.get stats_key

let count what =
  let stats = stats () in
  Hashtbl.replace stats what (1 + Option.value (Hashtbl.find_opt stats what) ~default:0);
  (* mirror each rule firing into the ambient metrics collector so
     [--profile] reports the rewrite histogram per run *)
  if Liblang_observe.Metrics.installed () then
    Liblang_observe.Metrics.count ("optimize." ^ what)

(* a flow-fact-driven rule firing: the per-rule histogram entry plus a
   flat counter the perf canary and the bench gates assert on *)
let count_cfa what metric =
  count what;
  Liblang_observe.Metrics.count metric

let stats_alist () =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) (stats ()) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_stats () = Hashtbl.reset (stats ())
let stat what = Option.value (Hashtbl.find_opt (stats ()) what) ~default:0
let total_rewrites () = Hashtbl.fold (fun _ n acc -> acc + n) (stats ()) 0

(* flow facts for the module being optimized, produced by {!Zcfa} at the
   top of [optimize_module] — domain-local for the same reason as [stats] *)
let facts_key : Facts.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] facts () = Domain.DLS.get facts_key

let u name = Baselang.bid name
let sl = Stx.list

let prim_name_of (op : Stx.t) : string option =
  if not (Stx.is_id op) then None
  else
    match Binding.resolve op with
    | Some b when Option.is_none (Check.lookup_type b) -> Base_env.prim_name_of b
    | _ -> None

let type_of (e : Stx.t) : Types.t option =
  try Some (Types.unfold (Check.type_of_expr e))
  with Check.Type_error _ | Types.Parse_error _ -> None

(* Any is the dynamic type: subtype is permissive on it, so every guard
   here must exclude it explicitly — the optimizer may only fire on types
   the checker actually proved. *)
let proved_subtype t sub = (not (equal t Any)) && subtype t sub

let is_float e = match type_of e with Some Float -> true | _ -> false

let is_cpx_able e =
  match type_of e with
  | Some t -> proved_subtype t FloatComplex || proved_subtype t Real
  | None -> false

let has_cpx es =
  List.exists
    (fun e -> match type_of e with Some t -> proved_subtype t FloatComplex | None -> false)
    es

let float_lit f =
  sl [ u "quote"; Stx.atom (Liblang_reader.Datum.Float f) ]

let fold_binary op_id args =
  match args with
  | first :: rest -> List.fold_left (fun acc e -> sl [ u "#%plain-app"; op_id; acc; e ]) first rest
  | [] -> assert false

let fl_binops = [ ("+", "unsafe-fl+"); ("-", "unsafe-fl-"); ("*", "unsafe-fl*"); ("/", "unsafe-fl/"); ("min", "unsafe-flmin"); ("max", "unsafe-flmax") ]
let fl_cmps = [ ("<", "unsafe-fl<"); (">", "unsafe-fl>"); ("<=", "unsafe-fl<="); (">=", "unsafe-fl>="); ("=", "unsafe-fl=") ]

let fl_unops =
  [
    ("abs", "unsafe-flabs");
    ("sqrt", "unsafe-flsqrt");
    ("sin", "unsafe-flsin");
    ("cos", "unsafe-flcos");
    ("tan", "unsafe-fltan");
    ("atan", "unsafe-flatan");
    ("exp", "unsafe-flexp");
    ("log", "unsafe-fllog");
    ("floor", "unsafe-flfloor");
    ("ceiling", "unsafe-flceiling");
    ("round", "unsafe-flround");
    ("truncate", "unsafe-fltruncate");
  ]

let cpx_binops = [ ("+", "unsafe-c+"); ("-", "unsafe-c-"); ("*", "unsafe-c*"); ("/", "unsafe-c/") ]

let core_kind (hd : Stx.t) : string option =
  match Binding.resolve hd with
  | None -> None
  | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)

let rec optimize (s : Stx.t) : Stx.t =
  if (not !enabled) || Option.is_some (Stx.property_get Check.ignore_key s) then s
  else
    match Stx.view s with
    | Stx.List (hd :: args) when Stx.is_id hd -> (
        match core_kind hd with
        | Some "#%plain-app" -> (
            match args with
            | op :: operands -> optimize_app s hd op operands
            | [] -> s)
        | Some ("quote" | "quote-syntax") -> s
        | Some "if" -> (
            match args with
            | [ c; t; e ] -> (
                let c' = optimize c in
                (* propagate the checker's occurrence-typing narrowing, so
                   e.g. (car l) after a null? test specializes *)
                match Check.narrowing_of c with
                | Some (b, then_t, else_t) ->
                    let t' = Check.with_narrowed b then_t (fun () -> optimize t) in
                    let e' = Check.with_narrowed b else_t (fun () -> optimize e) in
                    Stx.rewrap s (Stx.List [ hd; c'; t'; e' ])
                | None -> Stx.rewrap s (Stx.List [ hd; c'; optimize t; optimize e ]))
            | _ -> Stx.rewrap s (Stx.List (hd :: List.map optimize args)))
        | Some ("begin" | "#%expression" | "set!") ->
            Stx.rewrap s (Stx.List (hd :: List.map optimize args))
        | Some "#%plain-lambda" -> (
            match args with
            | formals :: body ->
                Stx.rewrap s (Stx.List (hd :: formals :: List.map optimize body))
            | [] -> s)
        | Some ("let-values" | "letrec-values") -> (
            match args with
            | clauses :: body ->
                let clauses, body =
                  (* opt:closure-unbox applies to non-recursive bindings
                     only: in a letrec the call could run before the
                     right-hand sides finish evaluating *)
                  if core_kind hd = Some "let-values" then unbox_clauses clauses body
                  else (clauses, body)
                in
                let clauses' =
                  match Stx.to_list clauses with
                  | Some cs ->
                      let opt_clause c =
                        match Stx.to_list c with
                        | Some [ ids; rhs ] -> Stx.rewrap c (Stx.List [ ids; optimize rhs ])
                        | _ -> c
                      in
                      Stx.rewrap clauses (Stx.List (List.map opt_clause cs))
                  | None -> clauses
                in
                Stx.rewrap s (Stx.List (hd :: clauses' :: List.map optimize body))
            | [] -> s)
        | Some "define-values" -> (
            match args with
            | [ ids; rhs ] -> Stx.rewrap s (Stx.List [ hd; ids; optimize rhs ])
            | _ -> s)
        | Some ("define-syntaxes" | "begin-for-syntax" | "#%provide" | "#%require") -> s
        | _ -> s)
    | _ -> s

and optimize_app (s : Stx.t) (app_hd : Stx.t) (op : Stx.t) (operands : Stx.t list) : Stx.t =
  let default () =
    let s' = Stx.rewrap s (Stx.List (app_hd :: op :: List.map optimize operands)) in
    (* opt:direct-call — the analysis proved a unique callee here, so mark
       the rebuilt node; Compile turns the property into [Ast.DirectApp]
       and the backend into a known-arity call *)
    match facts () with
    | Some facts -> (
        match Facts.direct_callee facts s with
        | Some c when c.Facts.callee_arity = List.length operands ->
            count_cfa "opt:direct-call" "opt.direct_calls";
            Stx.property_put "analysis:direct-call"
              (Stx.atom (Liblang_reader.Datum.Sym c.Facts.callee_name))
              s'
        | _ -> s')
    | None -> s'
  in
  let proved_inbounds tbl_lookup =
    match facts () with Some facts -> tbl_lookup facts s | None -> false
  in
  match prim_name_of op with
  | None -> default ()
  | Some name -> (
      let all_float = operands <> [] && List.for_all is_float operands in
      let opt_operands () = List.map optimize operands in
      match (name, operands, all_float) with
      (* float specialization (figure 5) *)
      | _, _ :: _ :: _, true when List.mem_assoc name fl_binops ->
          count ("fl:" ^ name);
          fold_binary (u (List.assoc name fl_binops)) (opt_operands ())
      | "-", [ x ], true ->
          count "fl:-";
          sl [ u "#%plain-app"; u "unsafe-fl-"; float_lit 0.0; optimize x ]
      | "/", [ x ], true ->
          count "fl:/";
          sl [ u "#%plain-app"; u "unsafe-fl/"; float_lit 1.0; optimize x ]
      | _, [ _; _ ], true when List.mem_assoc name fl_cmps ->
          count ("fl:" ^ name);
          sl ((u "#%plain-app") :: u (List.assoc name fl_cmps) :: opt_operands ())
      | _, [ _ ], true when List.mem_assoc name fl_unops ->
          count ("fl:" ^ name);
          sl ((u "#%plain-app") :: u (List.assoc name fl_unops) :: opt_operands ())
      | "expt", [ _; _ ], true ->
          count "fl:expt";
          sl ((u "#%plain-app") :: u "unsafe-flexpt" :: opt_operands ())
      | "add1", [ x ], true ->
          count "fl:add1";
          sl [ u "#%plain-app"; u "unsafe-fl+"; optimize x; float_lit 1.0 ]
      | "sub1", [ x ], true ->
          count "fl:sub1";
          sl [ u "#%plain-app"; u "unsafe-fl-"; optimize x; float_lit 1.0 ]
      (* float-complex specialization (§7.2's arity-raising analogue) *)
      | _, _ :: _ :: _, _
        when List.mem_assoc name cpx_binops
             && List.for_all is_cpx_able operands
             && has_cpx operands ->
          count ("cpx:" ^ name);
          fold_binary (u (List.assoc name cpx_binops)) (opt_operands ())
      | "magnitude", [ x ], _ when type_of x = Some FloatComplex ->
          count "cpx:magnitude";
          sl [ u "#%plain-app"; u "unsafe-magnitude"; optimize x ]
      | "real-part", [ x ], _ when type_of x = Some FloatComplex ->
          count "cpx:real-part";
          sl [ u "#%plain-app"; u "unsafe-real-part"; optimize x ]
      | "imag-part", [ x ], _ when type_of x = Some FloatComplex ->
          count "cpx:imag-part";
          sl [ u "#%plain-app"; u "unsafe-imag-part"; optimize x ]
      | ("exact->inexact" | "exact->float"), [ x ], _
        when (match type_of x with Some t -> proved_subtype t Integer | None -> false) ->
          count "fl:fx->fl";
          sl [ u "#%plain-app"; u "unsafe-fx->fl"; optimize x ]
      | "make-rectangular", [ _; _ ], true ->
          count "cpx:make-rectangular";
          sl ((u "#%plain-app") :: u "unsafe-make-rectangular" :: opt_operands ())
      (* tag-check elimination (§3.2, the [first] example) *)
      | ("car" | "first"), [ x ], _ when pair_shaped x ->
          count "pair:car";
          sl [ u "#%plain-app"; u "unsafe-car"; optimize x ]
      | ("cdr" | "rest"), [ x ], _ when pair_shaped x ->
          count "pair:cdr";
          sl [ u "#%plain-app"; u "unsafe-cdr"; optimize x ]
      (* vector specialization — the flow-proved in-bounds arms must come
         first, or the type-only rewrite claims the site *)
      | "vector-ref", [ v; i ], _
        when proved_inbounds Facts.ref_inbounds && vector_shaped v && integer_typed i ->
          count_cfa "vec:ref!" "opt.vec_unchecked";
          sl [ u "#%plain-app"; u "unchecked-vector-ref"; optimize v; optimize i ]
      | "vector-set!", [ v; i; x ], _
        when proved_inbounds Facts.set_inbounds && vector_shaped v && integer_typed i ->
          count_cfa "vec:set!" "opt.vec_unchecked";
          sl [ u "#%plain-app"; u "unchecked-vector-set!"; optimize v; optimize i; optimize x ]
      | "vector-ref", [ v; i ], _ when vector_shaped v && integer_typed i ->
          count "vec:ref";
          sl [ u "#%plain-app"; u "unsafe-vector-ref"; optimize v; optimize i ]
      | "vector-set!", [ v; i; x ], _ when vector_shaped v && integer_typed i ->
          count "vec:set";
          sl [ u "#%plain-app"; u "unsafe-vector-set!"; optimize v; optimize i; optimize x ]
      | "vector-length", [ v ], _ when vector_shaped v ->
          count "vec:length";
          sl [ u "#%plain-app"; u "unsafe-vector-length"; optimize v ]
      | _ -> default ())

(* opt:closure-unbox — a clause [(f) (lambda (x ...) body ...)] whose
   lambda the analysis proved single-use in operator position inlines at
   its unique call site as (let-values ([(x) arg] ...) body ...), and the
   clause (with its per-iteration closure allocation) disappears.  Free
   variables keep their meaning because fully-expanded bindings are
   uid-addressed: the call site sits lexically inside the defining scope,
   so every free reference of [body] still resolves, shadow-free. *)
and unbox_clauses (clauses : Stx.t) (body : Stx.t list) : Stx.t * Stx.t list =
  match (facts (), Stx.to_list clauses) with
  | Some facts, Some cs ->
      let kept = ref [] and body = ref body in
      List.iter
        (fun c ->
          match unbox_clause facts c !body with
          | Some body' -> body := body'
          | None -> kept := c :: !kept)
        cs;
      if List.length !kept = List.length cs then (clauses, !body)
      else (Stx.rewrap clauses (Stx.List (List.rev !kept)), !body)
  | _ -> (clauses, body)

and unbox_clause (facts : Facts.t) (c : Stx.t) (body : Stx.t list) : Stx.t list option =
  match Stx.to_list c with
  | Some [ ids; rhs ] when Facts.lambda_unboxable facts rhs -> (
      match (Stx.to_list ids, Stx.view rhs) with
      | Some [ fid ], Stx.List (_ :: formals :: lam_body) when Stx.is_id fid -> (
          match (Binding.resolve fid, Stx.to_list formals) with
          | Some b, Some params when List.for_all Stx.is_id params ->
              let replaced = ref false in
              let body' =
                List.map (subst_call b.Binding.uid params lam_body replaced) body
              in
              if !replaced then begin
                count_cfa "opt:closure-unbox" "opt.closure_unbox";
                Some body'
              end
              else None
          | _ -> None)
      | _ -> None)
  | _ -> None

and subst_call uid (params : Stx.t list) (lam_body : Stx.t list) (replaced : bool ref)
    (s : Stx.t) : Stx.t =
  if !replaced then s
  else
    match Stx.view s with
    | Stx.List (hd :: rest) when Stx.is_id hd -> (
        match core_kind hd with
        | Some ("quote" | "quote-syntax") -> s
        | Some "#%plain-app" -> (
            match rest with
            | op :: args
              when Stx.is_id op
                   && (match Binding.resolve op with
                      | Some b -> b.Binding.uid = uid
                      | None -> false)
                   && List.length args = List.length params ->
                replaced := true;
                let clause p a = sl [ sl [ p ]; a ] in
                Stx.rewrap s
                  (Stx.List
                     (u "let-values" :: sl (List.map2 clause params args) :: lam_body))
            | _ -> subst_children uid params lam_body replaced s hd rest)
        | _ -> subst_children uid params lam_body replaced s hd rest)
    | Stx.List (hd :: rest) -> subst_children uid params lam_body replaced s hd rest
    | _ -> s

and subst_children uid params lam_body replaced s hd rest =
  let items = hd :: rest in
  let items' = List.map (subst_call uid params lam_body replaced) items in
  (* rebuild only the spine above the replaced call site: everywhere else
     the original node must survive physically intact, because the facts
     table is keyed on node identity and later flow-driven rewrites still
     have to find their proofs *)
  if List.for_all2 ( == ) items items' then s else Stx.rewrap s (Stx.List items')

and pair_shaped e =
  match type_of e with Some (ListT (_ :: _)) | Some (Pairof _) -> true | _ -> false

and vector_shaped e = match type_of e with Some (Vectorof _) -> true | _ -> false
and integer_typed e = match type_of e with Some t -> proved_subtype t Integer | None -> false

(** Optimize every form of a typechecked module body.  When both the
    optimizer and the analysis are enabled, a 0CFA pass over the module
    runs first and its facts drive the [opt:*] and [vec:*!] rewrite
    classes; with analysis disabled (ablation) only the type-driven
    rules fire. *)
let optimize_module (forms : Stx.t list) : Stx.t list =
  Liblang_observe.Trace.span "optimize" @@ fun () ->
  let facts =
    if !enabled && !Zcfa.enabled then Some (Zcfa.analyze_module forms) else None
  in
  Domain.DLS.set facts_key facts;
  Fun.protect ~finally:(fun () -> Domain.DLS.set facts_key None) @@ fun () ->
  List.map optimize forms
