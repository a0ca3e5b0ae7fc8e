(** The artifact writer: a compiled module's core forms as datums whose
    names alone fix their bindings (paper §5; Racket's compiled linklets
    store resolved names for the same reason).

    A syntax object's identifier means a binding through its scope set,
    and scope sets do not survive serialization.  So each binding the body
    mentions gets one {e written name}, unique in the module, that can mean
    only that binding in the loader's module context (the module scope,
    the language's and the requires' exports, the module's definitions
    under their written names, and the [links] aliases):

    - a module-level definition, or a free reference, whose source name
      already means it from the module scope keeps that name;
    - any other module-level definition (one a macro introduced) gets a
      fresh name: its source name, or that name with a [_N] suffix, that
      nothing is bound to in the module scope;
    - any other free reference gets an {e alias}, recorded in [links] as
      (alias, owner module, name in owner): the owner is the module that
      defines the binding (its internals are keyed by written name) or a
      builtin module that exports it.  The alias is made the same way
      from the name in the owner, not from the reference's own symbol,
      which is the owner's written name when the owner was loaded from
      its artifact and its source name when it was compiled in the same
      session.  A reference with no owner makes the module uncacheable;
    - a local binder keeps its source name unless another binding already
      took it or it names a core form, and gets a [_N] suffix otherwise.

    Renamed binders are listed in [renames] with their source names, so a
    procedure is still shown under the name its source gave it.

    The loader replays [define-syntaxes] right-hand sides and
    [begin-for-syntax] forms through the expander in the module context,
    so the names in them must fix their bindings too.  In a transformer's
    right-hand side, every identifier that a binding fixes is written
    under that binding's name, except a [syntax-rules] pattern variable,
    [...] and [_], which the pattern gives their meaning, and what [quote]
    holds.  In [begin-for-syntax], so is every identifier [quote-syntax]
    holds.  What [quasiquote] holds outside its [unquote]s is data too.
    An identifier nothing binds is written as it is.  Elsewhere
    the contents of [quote] and [quote-syntax] are data and are never
    renamed.  [#%require] specs are written as they are, except that a
    require binder a macro introduced is left out, since the loader would
    bind it in the module scope.
    Each form goes out with its load class ({!Artifact.form_class}), for
    the artifact's index.
    Everything depends only on the module's own forms and on what its
    module context binds, so an unchanged module writes the same bytes in
    every session and on every domain. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Datum = Liblang_reader.Datum
module Denote = Liblang_expander.Denote
module Expander = Liblang_expander.Expander
module Modsys = Liblang_modules.Modsys

type kind = Def | Local | Free

(* One binding the body mentions, with its source name, the core form it
   denotes (if any) and, once named, its written name. *)
type info = {
  b : Binding.t;
  src : string;
  core : string option;
  mutable kind : kind;
  mutable written : string;
}

module ITbl = Hashtbl.Make (Int)

(* The body with each walked identifier replaced by its binding's info. *)
type node =
  | Id of info
  | Provided of info * string  (** a [#%provide]d identifier and its external name *)
  | Data of Datum.t
  | List of node list
  | Dot of node list * node

type t = {
  forms : (Artifact.form_class * Datum.annot) list;  (** each form with its load class *)
  links : (string * string * string) list;  (** (alias, owner module, name in owner) *)
  renames : (string * string) list;  (** (written name, source name) of renamed binders *)
  defs : (string * Binding.t) list;
      (** the module's [define-values] bindings by written name, in order *)
}

exception Uncacheable of string

let uncacheable fmt = Printf.ksprintf (fun m -> raise (Uncacheable m)) fmt

(** Write [forms], the core forms of module [mod_name] whose module
    context has scope set [scopes] and which requires [requires] (its
    language first).  [Error reason] when some reference has no owner the
    loader could link it to. *)
let write ~mod_name ~(requires : string list) ~(scopes : Scope.Set.t) (forms : Stx.t list) :
    (t, string) result =
  let infos : info ITbl.t = ITbl.create 64 in
  let order = ref [] and value_defs = ref [] in
  (* a binder fixes its binding's kind, whenever a reference noted it
     first; a reference to a binding not seen yet is free until then *)
  let note kind (id : Stx.t) : info =
    let b =
      match Binding.resolve id with
      | Some b -> b
      | None -> uncacheable "%s: unbound reference" (Stx.sym_exn id)
      | exception Binding.Ambiguous _ -> uncacheable "%s: ambiguous reference" (Stx.sym_exn id)
    in
    match ITbl.find_opt infos b.Binding.uid with
    | Some i ->
        if kind <> Free then i.kind <- kind;
        i
    | None ->
        let core = match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None in
        let i = { b; src = Stx.sym_exn id; core; kind; written = "" } in
        ITbl.add infos b.Binding.uid i;
        order := i :: !order;
        i
  in
  let data (s : Stx.t) = Data (Stx.to_datum s) in
  let binder kind (id : Stx.t) = if Stx.is_id id then Id (note kind id) else data id in
  let binders kind (ids : Stx.t) =
    match Stx.view ids with
    | Stx.Id _ -> binder kind ids
    | Stx.List xs -> List (List.map (binder kind) xs)
    | Stx.DotList (xs, tl) -> Dot (List.map (binder kind) xs, binder kind tl)
    | _ -> data ids
  in
  (* a form's head: its node and the core form it names, if any *)
  let head (hd : Stx.t) =
    let i = note Free hd in
    (Id i, i.core)
  in
  let core_of (hd : Stx.t) =
    match Binding.resolve hd with
    | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)
    | None | (exception Binding.Ambiguous _) -> None
  in
  (* Syntax the loader hands to the expander again: each identifier a
     binding fixes, other than those [keep] names, under its binding's
     written name; what [quote] holds as it is, and what [quasiquote]
     holds outside its [unquote]s. *)
  let rec replayed ~keep (s : Stx.t) : node =
    match Stx.view s with
    | Stx.Id n when List.mem (Stx.Symbol.name n) keep -> data s
    | Stx.Id _ -> (
        match Binding.resolve s with
        | None -> data s
        | Some _ | (exception Binding.Ambiguous _) -> Id (note Free s))
    | Stx.List (hd :: _) when Stx.is_id hd && core_of hd = Some "quote" -> data s
    | Stx.List [ hd; e ] when Stx.is_sym "quasiquote" hd -> List [ data hd; quasi ~keep 1 e ]
    | Stx.List xs -> List (List.map (replayed ~keep) xs)
    | Stx.DotList (xs, tl) -> Dot (List.map (replayed ~keep) xs, replayed ~keep tl)
    | Stx.Atom _ | Stx.Vec _ -> data s
  and quasi ~keep depth (s : Stx.t) : node =
    match Stx.view s with
    | Stx.List [ hd; e ] when Stx.is_sym "unquote" hd || Stx.is_sym "unquote-splicing" hd ->
        List [ data hd; (if depth = 1 then replayed ~keep e else quasi ~keep (depth - 1) e) ]
    | Stx.List [ hd; e ] when Stx.is_sym "quasiquote" hd -> List [ data hd; quasi ~keep (depth + 1) e ]
    | Stx.List xs -> List (List.map (quasi ~keep depth) xs)
    | Stx.DotList (xs, tl) -> Dot (List.map (quasi ~keep depth) xs, quasi ~keep depth tl)
    | Stx.Id _ | Stx.Atom _ | Stx.Vec _ -> data s
  in
  (* A [syntax-rules] clause: the pattern as it is, and the template with
     the pattern's variables kept. *)
  let rec pattern_vars ~literals acc (p : Stx.t) =
    match Stx.view p with
    | Stx.Id n ->
        let n = Stx.Symbol.name n in
        if n = "..." || n = "_" || List.mem n literals then acc else n :: acc
    | Stx.List xs | Stx.Vec xs -> List.fold_left (pattern_vars ~literals) acc xs
    | Stx.DotList (xs, tl) -> pattern_vars ~literals (List.fold_left (pattern_vars ~literals) acc xs) tl
    | Stx.Atom _ -> acc
  in
  let transformer (rhs : Stx.t) : node =
    match Stx.view rhs with
    | Stx.List (hd :: lits :: clauses) when Stx.is_id hd && core_of hd = Some "syntax-rules" ->
        let literals = List.filter_map Stx.sym (Option.value (Stx.to_list lits) ~default:[]) in
        let clause c =
          match Stx.to_list c with
          | Some [ pat; tmpl ] ->
              let keep = "..." :: "_" :: pattern_vars ~literals [] pat in
              List [ data pat; replayed ~keep tmpl ]
          | _ -> data c
        in
        List (replayed ~keep:[] hd :: data lits :: List.map clause clauses)
    | _ -> replayed ~keep:[] rhs
  in
  (* [p1]: inside [begin-for-syntax], where [quote-syntax] holds syntax
     the loader's expander resolves again *)
  let rec expr ~p1 (s : Stx.t) : node =
    match Stx.view s with
    | Stx.Id _ -> Id (note Free s)
    | Stx.List (hd :: args) when Stx.is_id hd -> form ~p1 (head hd) args
    | Stx.List xs -> List (List.map (expr ~p1) xs)
    | Stx.DotList (xs, tl) -> Dot (List.map (expr ~p1) xs, expr ~p1 tl)
    | Stx.Atom _ | Stx.Vec _ -> data s
  and form ~p1 (h, core) args =
    match (core, args) with
    | Some "quote-syntax", _ when p1 -> List (h :: List.map (replayed ~keep:[]) args)
    | Some ("quote" | "quote-syntax"), _ -> List (h :: List.map data args)
    | Some "#%plain-lambda", formals :: body ->
        List (h :: binders Local formals :: List.map (expr ~p1) body)
    | Some ("let-values" | "letrec-values"), clauses :: body ->
        let clause c =
          match Stx.to_list c with
          | Some [ ids; rhs ] -> List [ binders Local ids; expr ~p1 rhs ]
          | _ -> data c
        in
        let clauses =
          match Stx.to_list clauses with Some cs -> List (List.map clause cs) | None -> data clauses
        in
        List (h :: clauses :: List.map (expr ~p1) body)
    | _ -> List (h :: List.map (expr ~p1) args)
  in
  let provide_spec (spec : Stx.t) =
    match Stx.view spec with
    | Stx.Id n -> Provided (note Free spec, Stx.Symbol.name n)
    | Stx.List (kw :: clauses) when Stx.is_sym "rename-out" kw ->
        let clause c =
          match Stx.to_list c with
          | Some [ internal; ext ] when Stx.is_id internal -> List [ Id (note Free internal); data ext ]
          | _ -> uncacheable "rename-out: bad clause %s" (Stx.to_string c)
        in
        List (data kw :: List.map clause clauses)
    | _ -> uncacheable "provide: bad spec %s" (Stx.to_string spec)
  in
  (* The loader replays a require in the module scope, so a require
     binder a macro introduced would capture the module's own names
     there.  Such binders are left out — the spec still loads and visits
     its module — and every reference through them becomes a link. *)
  let in_module_scope (s : Stx.t) = Scope.Set.equal (Stx.scopes s) scopes in
  let require_spec (spec : Stx.t) =
    match Stx.view spec with
    | Stx.List (kw :: mod_id :: clauses) when Stx.is_sym "only-in" kw ->
        let binder c = match Stx.to_list c with Some [ _; new_id ] -> new_id | _ -> c in
        List
          (data kw :: data mod_id
          :: List.filter_map (fun c -> if in_module_scope (binder c) then Some (data c) else None) clauses)
    | _ when in_module_scope spec -> data spec
    | _ -> List [ Data (Datum.Atom (Datum.Sym "only-in")); data spec ]
  in
  let top (s : Stx.t) : Artifact.form_class * node =
    match Stx.view s with
    | Stx.List (hd :: args) when Stx.is_id hd -> (
        let ((h, core) as hc) = head hd in
        match (core, args) with
        | Some "define-values", [ ids; rhs ] ->
            let ids = binders Def ids in
            (match ids with
            | List xs -> List.iter (function Id i -> value_defs := i :: !value_defs | _ -> ()) xs
            | _ -> ());
            (Artifact.Define_values, List [ h; ids; expr ~p1:false rhs ])
        | Some "define-syntaxes", [ ids; rhs ] ->
            (Artifact.Read_at_load, List [ h; binders Def ids; transformer rhs ])
        | Some "begin-for-syntax", es -> (Artifact.Read_at_load, List (h :: List.map (expr ~p1:true) es))
        | Some "#%require", specs -> (Artifact.Read_at_load, List (h :: List.map require_spec specs))
        | Some "#%provide", specs -> (Artifact.Read_at_load, List (h :: List.map provide_spec specs))
        | _ -> (Artifact.Expression, form ~p1:false hc args))
    | _ -> (Artifact.Expression, expr ~p1:false s)
  in
  match List.map top forms with
  | exception Uncacheable m -> Error m
  | nodes -> (
      let infos = List.rev !order in
      let taken : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      (* what [n] means from the module scope *)
      let at_module n =
        match Binding.resolve (Stx.id ~scopes n) with
        | Some b -> `Bound b
        | None -> `Unbound
        | exception Binding.Ambiguous _ -> `Ambiguous
      in
      let claim i n =
        i.written <- n;
        Hashtbl.replace taken n ()
      in
      let fresh ~module_level src =
        let ok n =
          (not (Hashtbl.mem taken n))
          &&
          if module_level then at_module n = `Unbound
          else not (List.mem n Expander.core_form_names)
        in
        let rec go k =
          let n = src ^ "_" ^ string_of_int k in
          if ok n then n else go (k + 1)
        in
        if ok src then src else go 1
      in
      (* names that already mean their binding from the module scope *)
      List.iter
        (fun i ->
          if i.kind <> Local then
            match at_module i.src with
            | `Bound b when Binding.equal b i.b -> claim i i.src
            | _ -> ())
        infos;
      List.iter (fun i -> if i.kind = Def && i.written = "" then claim i (fresh ~module_level:true i.src)) infos;
      match
        List.filter_map
          (fun i ->
            if i.kind = Free && i.written = "" then begin
              let owner, name =
                match Modsys.find_internal_owner ~excluding:mod_name i.b with
                | Some o -> o
                | None -> (
                    match Modsys.find_builtin_export ~prefer:requires i.b with
                    | Some o -> o
                    | None -> uncacheable "%s: reference with no owner module" i.src)
              in
              claim i (fresh ~module_level:true name);
              Some (i.written, owner, name)
            end
            else None)
          infos
      with
      | exception Uncacheable m -> Error m
      | links ->
          List.iter (fun i -> if i.kind = Local then claim i (fresh ~module_level:false i.src)) infos;
          let sym = Datum.sym and dlist = Datum.list in
          (* datums are immutable: every occurrence of a binding shares one *)
          let written : Datum.annot ITbl.t = ITbl.create 64 in
          List.iter (fun i -> ITbl.replace written i.b.Binding.uid (sym i.written)) infos;
          let rec emit = function
            | Id i -> ITbl.find written i.b.Binding.uid
            | Provided (i, ext) ->
                if String.equal i.written ext then sym ext
                else dlist [ sym "rename-out"; dlist [ sym i.written; sym ext ] ]
            | Data d -> { Datum.d; loc = Liblang_reader.Srcloc.none }
            | List xs -> dlist (List.map emit xs)
            | Dot ([], tl) -> emit tl (* a dotted list with no elements is its tail *)
            | Dot (xs, tl) ->
                { Datum.d = Datum.DotList (List.map emit xs, emit tl); loc = Liblang_reader.Srcloc.none }
          in
          Ok
            {
              forms = List.map (fun (cls, n) -> (cls, emit n)) nodes;
              links;
              renames =
                List.filter_map
                  (fun i ->
                    if i.kind <> Free && not (String.equal i.written i.src) then Some (i.written, i.src)
                    else None)
                  infos;
              defs = List.rev_map (fun i -> (i.written, i.b)) !value_defs;
            })
