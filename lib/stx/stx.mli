(** Syntax objects: attributed ASTs (paper §2.2).

    A syntax object pairs a datum with lexical context (a scope set), a
    source location, and a table of {e syntax properties} — the out-of-band
    channel that lets separate language extensions communicate without
    interfering ([syntax-property-put] / [syntax-property-get] in the
    paper).

    The representation is {e lazy}: scope operations
    ([add_scope]/[remove_scope]/[flip_scope]) are O(1) at the root and
    record a pending delta that {!view} pushes one level down on access —
    so a macro step no longer deep-copies its whole input and output.  The
    type is therefore abstract: inspect structure with {!view}, read
    context with {!scopes}/{!loc}, rebuild forms with {!rewrap}. *)

module Datum = Liblang_reader.Datum
module Srcloc = Liblang_reader.Srcloc
module Symbol = Liblang_symbol.Symbol

type t

type e =
  | Id of Symbol.t         (** identifier (interned symbol) *)
  | Atom of Datum.atom     (** non-symbol atom *)
  | List of t list
  | DotList of t list * t
  | Vec of t list

(** {1 Inspection} *)

(** The node's structure, with any pending scope delta pushed one level
    down first.  Always use this (never a raw field) to look at children. *)
val view : t -> e

val scopes : t -> Scope.Set.t
val loc : t -> Srcloc.t
val props : t -> (string * t) list

(** {1 Construction} *)

val mk : ?scopes:Scope.Set.t -> ?loc:Srcloc.t -> ?props:(string * t) list -> e -> t
val id : ?scopes:Scope.Set.t -> ?loc:Srcloc.t -> ?props:(string * t) list -> string -> t

(** Like {!id} but from an already-interned symbol (hot paths). *)
val id_sym : ?scopes:Scope.Set.t -> ?loc:Srcloc.t -> ?props:(string * t) list -> Symbol.t -> t

val atom : ?scopes:Scope.Set.t -> ?loc:Srcloc.t -> Datum.atom -> t
val int_ : ?loc:Srcloc.t -> int -> t
val bool_ : ?loc:Srcloc.t -> bool -> t
val str_ : ?loc:Srcloc.t -> string -> t
val list : ?scopes:Scope.Set.t -> ?loc:Srcloc.t -> ?props:(string * t) list -> t list -> t

(** [rewrap orig e] is a node with [orig]'s scopes, location, and
    properties but structure [e] — the "rebuild this form" helper. *)
val rewrap : t -> e -> t

(** [with_loc loc s]: the same syntax with source location [loc]. *)
val with_loc : Srcloc.t -> t -> t

(** {1 Conversions} *)

val of_datum : ?scopes:Scope.Set.t -> Datum.annot -> t
val to_datum : t -> Datum.t
val to_annot : t -> Datum.annot

(** [datum_to_syntax ~ctx d] converts a raw datum to syntax, taking lexical
    context (scopes) and source location from [ctx] — Racket's
    [datum->syntax]. *)
val datum_to_syntax : ctx:t -> Datum.t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Scope operations (hygiene)} *)

(** Eager deep rebuild with [f] over every scope set (forces all pending
    deltas); cold paths and tests only. *)
val map_scopes : (Scope.Set.t -> Scope.Set.t) -> t -> t

(** O(1): updates the root's scope set and queues a pending delta for the
    children (pushed lazily by {!view}).  Each later push onto a child
    costs O(1) when siblings share one pending delta and one scope set,
    and one set operation per scope in the delta otherwise. *)
val add_scope : Scope.t -> t -> t

val remove_scope : Scope.t -> t -> t

(** [flip_scope] adds the scope where absent and removes it where present;
    applied to a transformer's input and output, it distinguishes
    macro-introduced syntax from use-site syntax. *)
val flip_scope : Scope.t -> t -> t

(** Child-node materializations performed by {!view} so far (monotonic;
    reported as the ["stx.scope_pushes"] metric). *)
val scope_pushes : int ref

(** {1 Accessors} *)

val is_id : t -> bool
val symbol : t -> Symbol.t option
val symbol_exn : t -> Symbol.t
val sym : t -> string option
val sym_exn : t -> string

(** Racket's [syntax->list]: [None] for non-lists and improper lists. *)
val to_list : t -> t list option

(** [is_sym name s]: is [s] the identifier [name]?  Never interns [name]. *)
val is_sym : string -> t -> bool

(** [has_sym sym s]: like {!is_sym} but O(1) against a pre-interned symbol. *)
val has_sym : Symbol.t -> t -> bool

(** {1 Syntax properties (the out-of-band channel, §3.1)} *)

val property_get : string -> t -> t option
val property_put : string -> t -> t -> t

(** Copy all properties of [src] onto the second argument; used when a
    rewrite must preserve out-of-band annotations. *)
val copy_properties : src:t -> t -> t

(** {1 Comparison} *)

(** Structural equality of the underlying datums (ignores scopes,
    locations, and properties); allocation-free — no datum trees are
    materialized. *)
val equal_datum : t -> t -> bool
