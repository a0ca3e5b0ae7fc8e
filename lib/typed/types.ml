(** The type grammar of the typed sister language (paper §3–4).

    A numeric hierarchy matching the runtime tower
    (Integer, Float ⊂ Real ⊂ Number; Float-Complex ⊂ Number), booleans,
    strings, symbols, chars, lists, pairs, vectors, function types, and
    finite unions.  Types serialize to datums so that compiled modules can
    persist their type environment (§5). *)

module Stx = Liblang_stx.Stx
module Datum = Liblang_reader.Datum
module Value = Liblang_runtime.Value
module Ct_store = Liblang_expander.Ct_store

type t =
  | Any
  | Integer
  | Float
  | FloatComplex
  | Real
  | Number
  | Boolean
  | String_
  | Symbol
  | Char_
  | Void_
  | Null
  | Listof of t
  | ListT of t list  (** fixed-length list: [(List T ...)] *)
  | Pairof of t * t
  | Vectorof of t
  | Fun of t list * t
  | Union of t list
  | Name of string
      (** a named (possibly recursive) type introduced by [define-type];
          resolved through the compile-time store ({!resolve_name}) *)

exception Parse_error of string * Liblang_reader.Srcloc.t

(* Internal raises carry no location; {!of_stx} attaches the syntax
   object's srcloc on the way out so the diagnostics engine can point at
   the offending type expression. *)
let perr msg = raise (Parse_error (msg, Liblang_reader.Srcloc.none))

(* -- printing ----------------------------------------------------------------- *)

let rec to_string = function
  | Any -> "Any"
  | Integer -> "Integer"
  | Float -> "Float"
  | FloatComplex -> "Float-Complex"
  | Real -> "Real"
  | Number -> "Number"
  | Boolean -> "Boolean"
  | String_ -> "String"
  | Symbol -> "Symbol"
  | Char_ -> "Char"
  | Void_ -> "Void"
  | Null -> "Null"
  | Listof t -> "(Listof " ^ to_string t ^ ")"
  | ListT ts -> "(List" ^ String.concat "" (List.map (fun t -> " " ^ to_string t) ts) ^ ")"
  | Pairof (a, d) -> "(Pairof " ^ to_string a ^ " " ^ to_string d ^ ")"
  | Vectorof t -> "(Vectorof " ^ to_string t ^ ")"
  | Fun (doms, rng) ->
      "(" ^ String.concat " " (List.map to_string doms) ^ " -> " ^ to_string rng ^ ")"
  | Union ts -> "(U" ^ String.concat "" (List.map (fun t -> " " ^ to_string t) ts) ^ ")"
  | Name n -> n

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* -- parsing from syntax / datums --------------------------------------------------- *)

(* the store key of named type [name] *)
let name_key name = "typed:type " ^ name

let base_types =
  [
    ("Any", Any);
    ("Integer", Integer);
    ("Exact-Integer", Integer);
    ("Natural", Integer);
    ("Float", Float);
    ("Flonum", Float);
    ("Float-Complex", FloatComplex);
    ("Real", Real);
    ("Number", Number);
    ("Complex", Number);
    ("Boolean", Boolean);
    ("String", String_);
    ("Symbol", Symbol);
    ("Char", Char_);
    ("Void", Void_);
    ("Null", Null);
  ]

let rec of_datum (d : Datum.t) : t =
  match d with
  | Datum.Atom (Datum.Sym s) -> (
      match List.assoc_opt s base_types with
      | Some t -> t
      | None ->
          if Option.is_some (Ct_store.get (name_key s)) then Name s
          else perr ("unknown type: " ^ s))
  | Datum.List xs -> (
      let ds = List.map (fun a -> a.Datum.d) xs in
      match ds with
      | [ Datum.Atom (Datum.Sym "Listof"); e ] -> Listof (of_datum e)
      | Datum.Atom (Datum.Sym "List") :: es -> ListT (List.map of_datum es)
      | [ Datum.Atom (Datum.Sym "Pairof"); a; d ] -> Pairof (of_datum a, of_datum d)
      | [ Datum.Atom (Datum.Sym "Vectorof"); e ] -> Vectorof (of_datum e)
      | Datum.Atom (Datum.Sym "U") :: es -> (
          match List.map of_datum es with
          | [] -> perr "empty union type"
          | [ t ] -> t
          | ts -> Union ts)
      | [ Datum.Atom (Datum.Sym "Rec"); _; _ ] ->
          perr "use define-type for recursive types"
      | Datum.Atom (Datum.Sym "->") :: rest -> (
          match List.rev (List.map of_datum rest) with
          | rng :: doms_rev -> Fun (List.rev doms_rev, rng)
          | [] -> perr "bad function type")
      | _ -> (
          (* infix arrow: (T ... -> R), possibly with several arrows for
             curried shapes — only the last arrow splits *)
          let is_arrow = function Datum.Atom (Datum.Sym "->") -> true | _ -> false in
          match List.rev ds with
          | rng :: arrow :: doms_rev when is_arrow arrow ->
              Fun (List.rev_map of_datum doms_rev, of_datum rng)
          | _ -> perr ("bad type syntax: " ^ Datum.to_string d)))
  | _ -> perr ("bad type syntax: " ^ Datum.to_string d)

let of_stx (s : Stx.t) : t =
  try of_datum (Stx.to_datum s)
  with Parse_error (m, loc) when Liblang_reader.Srcloc.is_none loc ->
    raise (Parse_error (m, Stx.loc s))

(* -- serialization (§5): types as datums ---------------------------------------------- *)

let atom_sym s = { Datum.d = Datum.Atom (Datum.Sym s); loc = Liblang_reader.Srcloc.none }
let dlist xs = Datum.List xs
let annot d = { Datum.d; loc = Liblang_reader.Srcloc.none }

let rec to_datum (t : t) : Datum.t =
  match t with
  | Any | Integer | Float | FloatComplex | Real | Number | Boolean | String_ | Symbol | Char_
  | Void_ | Null ->
      Datum.Atom (Datum.Sym (to_string t))
  | Listof e -> dlist [ atom_sym "Listof"; annot (to_datum e) ]
  | ListT es -> dlist (atom_sym "List" :: List.map (fun e -> annot (to_datum e)) es)
  | Pairof (a, d) -> dlist [ atom_sym "Pairof"; annot (to_datum a); annot (to_datum d) ]
  | Vectorof e -> dlist [ atom_sym "Vectorof"; annot (to_datum e) ]
  | Union ts -> dlist (atom_sym "U" :: List.map (fun e -> annot (to_datum e)) ts)
  | Fun (doms, rng) ->
      dlist (atom_sym "->" :: List.map (fun e -> annot (to_datum e)) (doms @ [ rng ]))
  | Name n -> Datum.Atom (Datum.Sym n)

(* -- named types (define-type) ------------------------------------------------------ *)

(* A [define-type] name lives in the compile-time store of the compilation
   that sees it (§5), as a datum beside the type environment
   ([Check.types_table]): the module's own [define-type] puts it there,
   and so does the [typed:define-type] replay of each module it requires.
   So a name means what the module and its requires say, whatever else
   the process compiled.  As for bindings, the module's own definition
   outranks every import of the name, in either order, and among imports
   the later one wins.  Self-reference is allowed: resolution is lazy. *)
let own_key name = "typed:own-type " ^ name

let define_name ?(import = false) name t =
  if not (import && Option.is_some (Ct_store.get (own_key name))) then begin
    if not import then Ct_store.set (own_key name) (Value.Bool true);
    Ct_store.set (name_key name) (Value.of_datum (to_datum t))
  end

let resolve_name name =
  match Ct_store.get (name_key name) with
  | Some v -> of_datum (Value.to_datum v)
  | None -> perr ("unknown type name: " ^ name)

(* -- equality & subtyping -------------------------------------------------------- *)

let rec equal a b =
  match (a, b) with
  | Name x, Name y -> String.equal x y
  | Listof x, Listof y | Vectorof x, Vectorof y -> equal x y
  | ListT xs, ListT ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Pairof (a1, d1), Pairof (a2, d2) -> equal a1 a2 && equal d1 d2
  | Fun (ds1, r1), Fun (ds2, r2) ->
      List.length ds1 = List.length ds2 && List.for_all2 equal ds1 ds2 && equal r1 r2
  | Union xs, Union ys ->
      List.length xs = List.length ys
      && List.for_all (fun x -> List.exists (equal x) ys) xs
      && List.for_all (fun y -> List.exists (equal y) xs) ys
  | _ -> a = b

let rec subtype_assume assume a b =
  equal a b
  ||
  let subtype a b =
    match (a, b) with
    | Name x, Name y -> List.mem (x, y) assume || subtype_assume ((x, y) :: assume) a b
    | _ -> subtype_assume assume a b
  in
  match (a, b) with
  | Name x, Name y when List.mem (x, y) assume -> true
  | Name x, _ -> subtype_assume ((x, to_string b) :: assume) (resolve_name x) b
  | _, Name y -> subtype_assume ((to_string a, y) :: assume) a (resolve_name y)
  | _, Any -> true
  | Any, _ -> true (* Any is the dynamic type: see DESIGN.md *)
  | Integer, (Real | Number) -> true
  | Float, (Real | Number) -> true
  | Real, Number -> true
  | FloatComplex, Number -> true
  | Union xs, _ -> List.for_all (fun x -> subtype x b) xs
  | _, Union ys -> List.exists (fun y -> subtype a y) ys
  | Null, Listof _ -> true
  | ListT xs, Listof t -> List.for_all (fun x -> subtype x t) xs
  | ListT (x :: xs), Pairof (pa, pd) -> subtype x pa && subtype (ListT xs) pd
  | ListT [], Null -> true
  | ListT _, ListT _ -> false (* lengths differ; equal case handled above *)
  | Listof x, Listof y -> subtype x y
  | Pairof (a1, d1), Pairof (a2, d2) -> subtype a1 a2 && subtype d1 d2
  | Pairof (a1, d1), Listof t -> subtype a1 t && subtype d1 (Listof t)
  | Vectorof x, Vectorof y -> equal x y (* mutable: invariant *)
  | Fun (ds1, r1), Fun (ds2, r2) ->
      List.length ds1 = List.length ds2
      && List.for_all2 (fun d2 d1 -> subtype d2 d1) ds2 ds1
      && subtype r1 r2
  | _ -> false

and subtype a b = subtype_assume [] a b

(* Least upper bound within this finite grammar; used to join [if]
   branches. *)
let join a b =
  match (a, b) with
  | Any, _ | _, Any -> Any (* the dynamic type absorbs *)
  | _ -> (
  if subtype a b then b
  else if subtype b a then a
  else
    match (a, b) with
    | (Integer | Float | Real), (Integer | Float | Real) -> Real
    | (Integer | Float | Real | FloatComplex | Number), (Integer | Float | Real | FloatComplex | Number)
      ->
        Number
    | Union xs, Union ys -> Union (xs @ List.filter (fun y -> not (List.exists (equal y) xs)) ys)
    | Union xs, t | t, Union xs -> if List.exists (equal t) xs then Union xs else Union (t :: xs)
    | _ -> Union [ a; b ])

(* -- convenience -------------------------------------------------------------------- *)

let is_function = function Fun _ -> true | _ -> false

(** Resolve through named types to a structural head (bounded, in case of a
    degenerate self-referential definition). *)
let unfold t =
  let rec go n t = if n = 0 then t else match t with Name x -> go (n - 1) (resolve_name x) | t -> t in
  go 16 t
