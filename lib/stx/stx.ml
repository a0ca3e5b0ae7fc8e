(** Syntax objects: Racket's attributed ASTs (paper §2.2).  A syntax object
    pairs a datum with lexical context (a scope set), a source location, and
    a table of syntax properties — the out-of-band channel that lets separate
    language extensions communicate without interfering (the paper's
    [syntax-property-put] / [syntax-property-get]).

    {1 Lazy scope propagation}

    The naive sets-of-scopes implementation deep-copies the whole syntax
    tree on every [add_scope]/[remove_scope]/[flip_scope] — which makes
    macro expansion O(n²) on macro-heavy programs, because every macro step
    flips an introduction scope over its entire input and output.  This
    module instead uses Racket's actual strategy: a scope operation is O(1)
    at the root — it updates the root's own (hash-consed) scope set and
    records a {e pending delta} for the children — and the delta is pushed
    one level down only when a node's children are actually inspected
    (through {!view}).  Subtrees that are never looked at again are never
    copied.

    A push costs O(1) when a node's children share one pending delta and
    one scope set — the shape of a freshly read artifact body, and of any
    deep subtree under nested binders: composing onto an empty pending
    delta returns the delta itself, and applying a delta to a scope set
    goes through a one-entry memo keyed by the physical (delta, set) pair,
    so only the first child of such a run pays [length delta] set
    operations.

    Invariants:
    - [scopes] is always accurate for the node itself;
    - [pending] is the composed delta that still has to be applied to the
      node's children (and transitively below);
    - forcing ({!view}) mutates the node in place — semantically
      transparent, since the forced form denotes the same syntax.

    Syntax properties are carried, not scoped: scope operations do not
    touch [props] (they never did; properties are out-of-band data). *)

module Datum = Liblang_reader.Datum
module Srcloc = Liblang_reader.Srcloc
module Symbol = Liblang_symbol.Symbol

type t = {
  mutable e : e;  (** access through {!view}, never directly *)
  mutable scopes : Scope.Set.t;
  loc : Srcloc.t;
  mutable props : (string * t) list;
  mutable pending : delta;  (** scope ops not yet pushed to children of [e] *)
}

and e =
  | Id of Symbol.t         (** identifier (interned) *)
  | Atom of Datum.atom     (** non-symbol atom *)
  | List of t list
  | DotList of t list * t
  | Vec of t list

(** One pending scope operation.  A delta is a normalized association list
    (each scope at most once), so application order within it is
    irrelevant. *)
and op = OAdd | ORemove | OFlip

and delta = (Scope.t * op) list

(* -- observability ---------------------------------------------------------

   [scope_pushes] counts child-node materializations performed by {!view}
   (the work the lazy representation actually does); the pipeline reports
   it as the ["stx.scope_pushes"] metric.  A plain int ref keeps the hot
   path free of hashing even when no collector is installed. *)

let scope_pushes = ref 0

(* -- deltas ----------------------------------------------------------------- *)

let apply_op op sc set =
  match op with
  | OAdd -> Scope.Set.add sc set
  | ORemove -> Scope.Set.remove sc set
  | OFlip -> Scope.Set.flip sc set

let rec apply_delta (d : delta) (set : Scope.Set.t) : Scope.Set.t =
  match d with [] -> set | (sc, op) :: rest -> apply_delta rest (apply_op op sc set)

(* [assq]/[remove_assq] on scope identity: deltas are tiny (almost always
   one entry), and the polymorphic-compare versions showed up in profiles
   of the expansion inner loop. *)
let rec delta_find (d : delta) (sc : Scope.t) : op option =
  match d with
  | [] -> None
  | (sc', op) :: rest -> if Scope.equal sc sc' then Some op else delta_find rest sc

let rec delta_remove (d : delta) (sc : Scope.t) : delta =
  match d with
  | [] -> []
  | ((sc', _) as hd) :: rest ->
      if Scope.equal sc sc' then rest else hd :: delta_remove rest sc

(* Compose [first] (applied earlier) with one later op on scope [sc]. *)
let compose1 (first : delta) (sc : Scope.t) (op : op) : delta =
  match delta_find first sc with
  | None -> (sc, op) :: first
  | Some prev -> (
      let rest = delta_remove first sc in
      match op with
      | OAdd -> (sc, OAdd) :: rest
      | ORemove -> (sc, ORemove) :: rest
      | OFlip -> (
          (* flip after add pins the scope absent; after remove, present;
             after flip, the two cancel *)
          match prev with
          | OAdd -> (sc, ORemove) :: rest
          | ORemove -> (sc, OAdd) :: rest
          | OFlip -> rest))

(* Composing onto an empty delta returns [later] itself: a normalized
   delta's ops commute, so the fold would only rebuild it in reverse.
   Sharing it keeps a whole subtree's pending deltas physically equal,
   which is what the apply memo below keys on. *)
let compose (first : delta) (later : delta) : delta =
  match first with
  | [] -> later
  | _ -> List.fold_left (fun acc (sc, op) -> compose1 acc sc op) first later

(* A one-entry, per-domain memo of [apply_delta], keyed by the physical
   (delta, set) pair.  Forcing a subtree pushes one shared delta onto
   siblings that share one scope set (a freshly read artifact body is all
   one set), so after the first child every push is a hit instead of
   [length d] set operations. *)
type memo = { mutable m_delta : delta; mutable m_set : Scope.Set.t; mutable m_out : Scope.Set.t }

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { m_delta = []; m_set = Scope.Set.empty; m_out = Scope.Set.empty })

let apply_delta_memo (d : delta) (set : Scope.Set.t) : Scope.Set.t =
  let m = Domain.DLS.get memo_key in
  if m.m_delta == d && m.m_set == set then m.m_out
  else begin
    let out = apply_delta d set in
    m.m_delta <- d;
    m.m_set <- set;
    m.m_out <- out;
    out
  end

(* -- constructors -------------------------------------------------------- *)

let mk ?(scopes = Scope.Set.empty) ?(loc = Srcloc.none) ?(props = []) e =
  { e; scopes; loc; props; pending = [] }

let id_sym ?scopes ?loc ?props s = mk ?scopes ?loc ?props (Id s)
let id ?scopes ?loc ?props name = id_sym ?scopes ?loc ?props (Symbol.intern name)
let atom ?scopes ?loc a = mk ?scopes ?loc (Atom a)
let int_ ?loc n = atom ?loc (Datum.Int n)
let bool_ ?loc b = atom ?loc (Datum.Bool b)
let str_ ?loc s = atom ?loc (Datum.Str s)
let list ?scopes ?loc ?props xs = mk ?scopes ?loc ?props (List xs)

(* -- forcing (one level) --------------------------------------------------- *)

let has_children = function Id _ | Atom _ -> false | List _ | DotList _ | Vec _ -> true

(* A copy of child [c] with delta [d] applied: [d] lands on [c]'s own scope
   set immediately (it is hash-consed, so usually a cheap cons-table hit)
   and is queued for [c]'s own children. *)
let push_delta (d : delta) (c : t) : t =
  incr scope_pushes;
  {
    e = c.e;
    scopes = apply_delta_memo d c.scopes;
    loc = c.loc;
    props = c.props;
    pending = (if has_children c.e then compose c.pending d else []);
  }

(** The node's structure, with any pending scope delta pushed one level
    down first.  This is the only sound way to inspect children. *)
let view (s : t) : e =
  match s.pending with
  | [] -> s.e
  | d ->
      let e' =
        match s.e with
        | (Id _ | Atom _) as e -> e
        | List xs -> List (List.map (push_delta d) xs)
        | DotList (xs, tl) -> DotList (List.map (push_delta d) xs, push_delta d tl)
        | Vec xs -> Vec (List.map (push_delta d) xs)
      in
      s.e <- e';
      s.pending <- [];
      e'

(* -- accessors ------------------------------------------------------------- *)

let scopes (s : t) = s.scopes
let loc (s : t) = s.loc
let props (s : t) = s.props

(** A node with [orig]'s scopes, location, and properties but structure
    [e] — the hygienic "rebuild this form" helper (supersedes the record
    update [{ orig with e }]).  The new children are taken as already
    correct: no pending delta applies to them. *)
let rewrap (orig : t) (e : e) : t =
  { e; scopes = orig.scopes; loc = orig.loc; props = orig.props; pending = [] }

(** Same node with a different source location (pending delta preserved). *)
let with_loc (loc : Srcloc.t) (s : t) : t =
  { e = s.e; scopes = s.scopes; loc; props = s.props; pending = s.pending }

(* -- conversions ----------------------------------------------------------- *)

let rec of_datum ?(scopes = Scope.Set.empty) (a : Datum.annot) : t =
  let e =
    match a.Datum.d with
    | Datum.Atom (Datum.Sym s) -> Id (Symbol.intern s)
    | Datum.Atom x -> Atom x
    | Datum.List xs -> List (List.map (of_datum ~scopes) xs)
    | Datum.DotList (xs, tl) -> DotList (List.map (of_datum ~scopes) xs, of_datum ~scopes tl)
    | Datum.Vec xs -> Vec (List.map (of_datum ~scopes) xs)
  in
  { e; scopes; loc = a.Datum.loc; props = []; pending = [] }

let rec to_datum (s : t) : Datum.t =
  match s.e with
  (* [to_datum] ignores scopes entirely, so pending deltas need not be
     pushed — read the raw structure *)
  | Id sym -> Datum.Atom (Datum.Sym (Symbol.name sym))
  | Atom a -> Datum.Atom a
  | List xs -> Datum.List (List.map to_annot xs)
  (* a macro can build a dotted list with no elements, such as the
     formals of [(define (f . xs) ...)]; as a datum that is its tail,
     which is also how it must print to read back *)
  | DotList ([], tl) -> to_datum tl
  | DotList (xs, tl) -> Datum.DotList (List.map to_annot xs, to_annot tl)
  | Vec xs -> Datum.Vec (List.map to_annot xs)

and to_annot s = { Datum.d = to_datum s; loc = s.loc }

(** [datum_to_syntax ~ctx d] converts a raw datum to syntax, taking lexical
    context (scopes) and source location from [ctx] — Racket's
    [datum->syntax]. *)
let datum_to_syntax ~ctx (d : Datum.t) : t =
  of_datum ~scopes:ctx.scopes { Datum.d; loc = ctx.loc }

let to_string s = Datum.to_string (to_datum s)
let pp fmt s = Format.pp_print_string fmt (to_string s)

(* -- scope operations ------------------------------------------------------ *)

(* O(1): update this node's own set, queue the delta for the children. *)
let scope_op (op : op) (sc : Scope.t) (s : t) : t =
  {
    e = s.e;
    scopes = apply_op op sc s.scopes;
    loc = s.loc;
    props = s.props;
    pending = (if has_children s.e then compose1 s.pending sc op else []);
  }

let add_scope sc s = scope_op OAdd sc s
let remove_scope sc s = scope_op ORemove sc s
let flip_scope sc s = scope_op OFlip sc s

(** Eagerly rebuild the tree with [f] applied to every node's scope set.
    Forces all pending deltas; only for cold paths and tests — the lazy
    [add/remove/flip_scope] are the fast path. *)
let rec map_scopes f s =
  let e =
    match view s with
    | (Id _ | Atom _) as e -> e
    | List xs -> List (List.map (map_scopes f) xs)
    | DotList (xs, tl) -> DotList (List.map (map_scopes f) xs, map_scopes f tl)
    | Vec xs -> Vec (List.map (map_scopes f) xs)
  in
  { e; scopes = f s.scopes; loc = s.loc; props = s.props; pending = [] }

(* -- identifier accessors -------------------------------------------------- *)

let is_id s = match s.e with Id _ -> true | _ -> false
let symbol s = match s.e with Id sym -> Some sym | _ -> None
let sym s = match s.e with Id sym -> Some (Symbol.name sym) | _ -> None

let symbol_exn s =
  match s.e with
  | Id sym -> sym
  | _ -> invalid_arg ("Stx.symbol_exn: not an identifier: " ^ to_string s)

let sym_exn s = Symbol.name (symbol_exn s)

(** [to_list] flattens a syntax list; Racket's [syntax->list].  Returns
    [None] for non-lists and improper lists. *)
let to_list s = match view s with List xs -> Some xs | _ -> None

(* Identifier-name tests never intern the probe (probing with arbitrary
   strings must not grow the symbol table). *)
let is_sym name s =
  match s.e with Id sym -> String.equal (Symbol.name sym) name | _ -> false

let has_sym (target : Symbol.t) s =
  match s.e with Id sym -> Symbol.equal sym target | _ -> false

(* -- syntax properties ---------------------------------------------------- *)

let property_get key s = List.assoc_opt key s.props

let property_put key v s =
  {
    e = s.e;
    scopes = s.scopes;
    loc = s.loc;
    props = (key, v) :: List.remove_assoc key s.props;
    pending = s.pending;
  }

(** Copy all properties of [src] onto [dst]; convenient when a macro rewrites
    a form but must preserve out-of-band annotations. *)
let copy_properties ~src dst =
  List.fold_left (fun acc (k, v) -> property_put k v acc) dst src.props

(* -- structural equality (ignoring scopes, locations, properties) -------- *)

(** Structural equality of the underlying datums, computed directly on the
    syntax trees — no intermediate [Datum.t] is materialized (the old
    implementation allocated two full datum trees per comparison, which is
    the [free-identifier=?] fallback path of every [syntax-rules] literal
    match).  Scope deltas are irrelevant to the answer, so nothing is
    forced. *)
let rec equal_datum a b =
  a == b
  ||
  match (a.e, b.e) with
  | Id i, Id j -> Symbol.equal i j
  | Id i, Atom (Datum.Sym s) | Atom (Datum.Sym s), Id i -> String.equal (Symbol.name i) s
  | Atom x, Atom y -> Datum.atom_equal x y
  | List xs, List ys | Vec xs, Vec ys -> equal_datum_list xs ys
  | DotList (xs, xt), DotList (ys, yt) -> equal_datum_list xs ys && equal_datum xt yt
  | _ -> false

and equal_datum_list xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal_datum x y && equal_datum_list xs ys
  | _ -> false
