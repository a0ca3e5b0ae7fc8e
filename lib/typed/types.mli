(** The type grammar of the typed sister language (paper §3–4).

    A numeric hierarchy matching the runtime tower (Integer, Float ⊂ Real ⊂
    Number; Float-Complex ⊂ Number), booleans, strings, symbols, chars,
    lists, pairs, vectors, function types, finite unions, the dynamic type
    [Any], and named (possibly recursive) types.  Types serialize to datums
    so compiled modules can persist their type environment (§5). *)

module Stx = Liblang_stx.Stx
module Datum = Liblang_reader.Datum

type t =
  | Any
      (** the dynamic type: a supertype {e and} subtype of everything (the
          gradual-typing stand-in for occurrence typing; see DESIGN.md) *)
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
      (** a named (possibly recursive) type introduced by [define-type] *)

exception Parse_error of string * Liblang_reader.Srcloc.t
(** Bad type syntax; the location points at the offending type expression
    when parsed from syntax ({!of_stx}), and is [Srcloc.none] when parsed
    from a bare datum. *)

(** {1 Named types}

    A [define-type] name lives in the current compile-time store
    ({!Liblang_expander.Ct_store}), filled by the module's own definitions
    and by the replay of those of the modules it requires. *)

(** Define a type name in the current store.  With [~import:true] (the
    replay of a required module's definition) it ranks as an import: it
    replaces an earlier import of the name but never the module's own
    definition, which replaces any import. *)
val define_name : ?import:bool -> string -> t -> unit
val resolve_name : string -> t

(** Resolve through named types to a structural head (bounded). *)
val unfold : t -> t

(** {1 Printing and equality} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** {1 Subtyping and joins} *)

(** Coinductive on named types; [Any] is permissive in both directions. *)
val subtype : t -> t -> bool

(** Least upper bound within this grammar; used to join [if] branches. *)
val join : t -> t -> t

(** {1 Parsing and serialization (§5)} *)

val base_types : (string * t) list
val of_datum : Datum.t -> t
val of_stx : Stx.t -> t
val to_datum : t -> Datum.t

(** {1 Convenience} *)

val is_function : t -> bool
