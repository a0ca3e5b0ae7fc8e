(** Safe cross-module integration (paper §6).

    - [require/typed] (Fig. 4): imports an untyped binding under a fresh
      name, declares its type, and defines the public name as a
      contract-wrapped version.
    - Export rewriting (§6.2): every typed export becomes an indirection
      macro choosing the raw binding in typed client compilations (where the
      [typed-context?] flag is set in the client's fresh compile-time store)
      and the contract-protected binding in untyped ones.
    - [type->contract]: types compile to contract-constructing syntax. *)

module Stx = Liblang_stx.Stx
module Scope = Liblang_stx.Scope
module Binding = Liblang_stx.Binding
module Value = Liblang_runtime.Value
module Ct_store = Liblang_expander.Ct_store
module Expander = Liblang_expander.Expander
module Denote = Liblang_expander.Denote
module Baselang = Liblang_modules.Baselang
module Modsys = Liblang_modules.Modsys
open Types

exception Boundary_error of string * Stx.t

let berr s fmt = Printf.ksprintf (fun m -> raise (Boundary_error (m, s))) fmt

let u = Baselang.bid
let sl = Stx.list
let app xs = sl ((u "#%plain-app") :: xs)

let fresh_id name = Stx.id ~scopes:(Scope.Set.singleton (Scope.fresh ())) name

let mark_ignored (s : Stx.t) =
  Stx.property_put Check.ignore_key (Stx.str_ "yes") s

(* -- the typed-context? flag (§6.2) ------------------------------------------------ *)

let flag_key = "typed:context"

let set_typed_context () = Ct_store.set flag_key (Value.Bool true)

let in_typed_context () =
  match Ct_store.get flag_key with Some (Value.Bool true) -> true | _ -> false

(* -- type->contract ------------------------------------------------------------------ *)

let rec type_to_contract_d (depth : int) (t : Types.t) : Stx.t =
  let type_to_contract t = type_to_contract_d depth t in
  match t with
  | Name n ->
      (* unfold named (possibly recursive) types a bounded number of times,
         then fall back to any/c; see DESIGN.md *)
      if depth >= 3 then u "any/c" else type_to_contract_d (depth + 1) (Types.resolve_name n)
  | Any -> u "any/c"
  | Integer -> u "integer-contract"
  | Float -> u "flonum-contract"
  | FloatComplex -> u "float-complex-contract"
  | Real -> app [ u "or-contract"; u "integer-contract"; u "flonum-contract" ]
  | Number -> u "number-contract"
  | Boolean -> u "boolean-contract"
  | String_ -> u "string-contract"
  | Symbol -> u "symbol-contract"
  | Char_ -> u "char-contract"
  | Void_ -> u "void-contract"
  | Null -> u "null-contract"
  | Listof e -> app [ u "listof-contract"; type_to_contract e ]
  | ListT es ->
      List.fold_right
        (fun e acc -> app [ u "pair-contract"; type_to_contract e; acc ])
        es (u "null-contract")
  | Pairof (a, d) -> app [ u "pair-contract"; type_to_contract a; type_to_contract d ]
  | Vectorof e -> app [ u "vectorof-contract"; type_to_contract e ]
  | Union ts ->
      if List.exists is_function ts then
        raise (Types.Parse_error ("cannot convert a union containing function types to a contract", Liblang_reader.Srcloc.none))
      else app ((u "or-contract") :: List.map type_to_contract ts)
  | Fun (doms, rng) ->
      app
        [
          u "arrow-contract";
          app ((u "list") :: List.map type_to_contract doms);
          type_to_contract rng;
        ]

let type_to_contract (t : Types.t) : Stx.t = type_to_contract_d 0 t

(* -- phase-1 primitives ----------------------------------------------------------------- *)

let declare_type_prim =
  Value.prim "typed:declare-type" (function
    | [ Value.StxV id; ty ] ->
        (match Binding.resolve id with
        | Some b ->
            Hashtbl.replace (Check.types_table ()) b.Binding.uid ty
        | None -> Value.error "typed:declare-type: unbound identifier %s" (Stx.to_string id));
        Value.Void
    | _ -> Value.error "typed:declare-type: expects an identifier and a type datum")

let make_export_transformer_prim =
  Value.prim "typed:make-export-transformer" (function
    | [ Value.StxV real; Value.StxV defensive ] ->
        Value.prim "export-transformer" (function
          | [ Value.StxV form ] ->
              let chosen = if in_typed_context () then real else defensive in
              let out =
                match Stx.view form with
                | Stx.Id _ -> chosen
                | Stx.List (_ :: rest) -> Stx.rewrap form (Stx.List (chosen :: rest))
                | _ -> Value.error "export transformer: bad use"
              in
              Value.StxV out
          | _ -> Value.error "export transformer: expects syntax")
    | _ -> Value.error "typed:make-export-transformer: expects two identifiers")

let lookup_type_prim =
  Value.prim "typed:lookup-type" (function
    | [ Value.StxV id ] -> (
        match Binding.resolve id with
        | Some b -> (
            match Hashtbl.find_opt (Check.types_table ()) b.Binding.uid with
            | Some v -> v
            | None -> Value.Bool false)
        | None -> Value.Bool false)
    | _ -> Value.error "typed:lookup-type: expects an identifier")

let typed_context_prim =
  Value.prim "typed-context?" (fun _ -> Value.Bool (in_typed_context ()))

let define_type_prim =
  Value.prim "typed:define-type" (function
    | [ Value.Sym name; body ] ->
        (* as [define-type] itself: the name first, so a recursive body
           parses; ranked as an import, so the requiring module's own
           definition of the name stands *)
        Types.define_name ~import:true name Types.Any;
        Types.define_name ~import:true name (Types.of_datum (Value.to_datum body));
        Value.Void
    | _ -> Value.error "typed:define-type: expects a name and a type datum")

let phase1_values =
  [
    ("typed:declare-type", declare_type_prim);
    ("typed:define-type", define_type_prim);
    ("typed:make-export-transformer", make_export_transformer_prim);
    ("typed:lookup-type", lookup_type_prim);
    ("typed-context?", typed_context_prim);
  ]

(* -- require/typed (figure 4) -------------------------------------------------------------- *)

let quote_ty (t : Types.t) : Stx.t =
  sl
    [
      u "quote";
      Stx.of_datum { Liblang_reader.Datum.d = Types.to_datum t; loc = Liblang_reader.Srcloc.none };
    ]

let quote_sym (name : string) : Stx.t = sl [ u "quote"; Stx.id name ]

(* A require/typed target is either a registry module (identifier) or a
   file module (string path, resolved by the separate-compilation layer);
   the blame party names it either way. *)
let is_mod_spec (s : Stx.t) =
  match Stx.view s with
  | Stx.Id _ -> true
  | Stx.Atom (Liblang_reader.Datum.Str _) -> true
  | _ -> false

let mod_spec_label (s : Stx.t) : string =
  match Stx.view s with
  | Stx.Id n -> Stx.Symbol.name n
  | Stx.Atom (Liblang_reader.Datum.Str p) -> p
  | _ -> Stx.to_string s

(* Quote the blame party: a symbol for registry modules, a string for file
   paths (both are accepted by the contract primitive). *)
let quote_party (s : Stx.t) : Stx.t =
  match Stx.view s with
  | Stx.Atom (Liblang_reader.Datum.Str _) -> sl [ u "quote"; s ]
  | _ -> quote_sym (mod_spec_label s)

(** Expand one [(id Ty)] clause of [require/typed] into the three stages of
    figure 4. *)
let require_typed_clause ~(mod_id : Stx.t) (id : Stx.t) (ty_stx : Stx.t) : Stx.t list =
  let ty =
    try Types.of_stx ty_stx with Types.Parse_error (m, _) -> berr ty_stx "require/typed: %s" m
  in
  let unsafe_id = fresh_id ("unsafe-" ^ Stx.sym_exn id) in
  let this_mod = Modsys.current_module_name () in
  [
    (* stage 1: import under a fresh name *)
    sl
      [
        Expander.core_id "#%require";
        sl [ Stx.id "only-in"; mod_id; sl [ id; unsafe_id ] ];
      ];
    (* stage 3 (emitted before stage 2 so the binding exists when the
       declaration is evaluated): the protected definition, invisible to the
       typechecker *)
    mark_ignored
      (sl
         [
           Expander.core_id "define-values";
           sl [ id ];
           app
             [
               u "contract";
               type_to_contract ty;
               unsafe_id;
               quote_party mod_id;
               quote_sym this_mod;
             ];
         ]);
    (* stage 2: declare the type *)
    sl
      [
        Expander.core_id "begin-for-syntax";
        app [ u "typed:declare-type"; sl [ Expander.core_id "quote-syntax"; id ]; quote_ty ty ];
      ];
  ]

let m_require_typed (form : Stx.t) : Stx.t =
  match Stx.to_list form with
  | Some (_ :: mod_id :: clauses) when is_mod_spec mod_id && clauses <> [] ->
      let expand_clause c =
        match Stx.to_list c with
        | Some [ id; ty ] when Stx.is_id id -> require_typed_clause ~mod_id id ty
        | _ -> berr c "require/typed: expected [id Type]"
      in
      sl ~loc:(Stx.loc form) ((u "begin") :: List.concat_map expand_clause clauses)
  | _ -> berr form "require/typed: bad syntax"

(* -- export rewriting (§5 + §6.2) ------------------------------------------------------------ *)

let core_kind (hd : Stx.t) : string option =
  match Binding.resolve hd with
  | None -> None
  | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)

(** Rewrite one provided identifier into: the compile-time type declaration
    (§5), the defensive (contracted) definition, the indirection macro, and
    the renaming provide (§6.2). *)
let rewrite_one_provide (n : Stx.t) : Stx.t list =
  let name = Stx.sym_exn n in
  let b =
    match Binding.resolve n with
    | Some b -> b
    | None -> berr n "provide: unbound identifier %s" name
  in
  (match Denote.get b with
  | Some (Denote.DMacro _) ->
      berr n "provide: macros may not escape typed modules (§6.3): %s" name
  | _ -> ());
  let ty =
    match Check.lookup_type b with
    | Some t -> t
    | None -> berr n "provide: no type recorded for %s" name
  in
  let this_mod = Modsys.current_module_name () in
  let defensive = fresh_id ("defensive-" ^ name) in
  let export = fresh_id ("export-" ^ name) in
  [
    (* the §5 declaration: replayed into every requiring compilation *)
    sl
      [
        Expander.core_id "begin-for-syntax";
        app [ u "typed:declare-type"; sl [ Expander.core_id "quote-syntax"; n ]; quote_ty ty ];
      ];
    (* stage 1: the defensive version *)
    mark_ignored
      (sl
         [
           Expander.core_id "define-values";
           sl [ defensive ];
           app
             [
               u "contract";
               type_to_contract ty;
               n;
               quote_sym this_mod;
               quote_sym "untyped-client";
             ];
         ]);
    (* stage 2: the indirection *)
    sl
      [
        Expander.core_id "define-syntaxes";
        sl [ export ];
        app
          [
            u "typed:make-export-transformer";
            sl [ Expander.core_id "quote-syntax"; n ];
            sl [ Expander.core_id "quote-syntax"; defensive ];
          ];
      ];
    (* stage 3: provide the indirection under the original name *)
    sl [ Expander.core_id "#%provide"; sl [ Stx.id "rename-out"; sl [ export; n ] ] ];
  ]

let rewrite_provides (forms : Stx.t list) : Stx.t list =
  (* generated forms go at the end of the module, after every definition:
     the module is re-expanded, and a provide written above its definition
     must not make the compile-time declaration run before the definition
     re-binds the identifier *)
  let rewritten = ref [] in
  let rest =
    List.filter
      (fun form ->
        match Stx.view form with
        | Stx.List (hd :: specs) when Stx.is_id hd && core_kind hd = Some "#%provide" ->
            List.iter
              (fun spec ->
                match Stx.view spec with
                | Stx.Id _ -> rewritten := !rewritten @ rewrite_one_provide spec
                | _ -> berr spec "typed provide: only plain identifiers are supported")
              specs;
            false
        | _ -> true)
      forms
  in
  rest @ !rewritten
