(** The compile-time environment: what each binding means to the expander.

    A binding carries its own denotation ({!Binding.denotation}), so since
    bindings are globally fresh (§5) every module and phase sees one
    meaning per binding, and the meaning dies with the binding. *)

module Binding = Liblang_stx.Binding
module Stx = Liblang_stx.Stx
module Value = Liblang_runtime.Value

type transformer =
  | Native of string * (Stx.t -> Stx.t)
      (** a transformer implemented in the host language (OCaml) — the
          analogue of a Racket macro implemented in Racket *)
  | Rules of Syntax_rules.t  (** a [syntax-rules] macro from object code *)
  | ObjProc of Value.value
      (** an object-language phase-1 procedure: applied to the use-site
          syntax object, returns syntax *)

type denotation =
  | DVar  (** a (module-level or local) variable *)
  | DCore of string  (** a core form; the string is the dispatch key *)
  | DMacro of transformer

type Binding.slot += Denotes of denotation

(* [DVar] is by far the most common denotation: share its slot. *)
let var = Denotes DVar

let set (b : Binding.t) (d : denotation) =
  Binding.set_denotation b (match d with DVar -> var | d -> Denotes d)

let get (b : Binding.t) : denotation option =
  match Binding.denotation b with Denotes d -> Some d | _ -> None

let transformer_name = function
  | Native (n, _) -> n
  | Rules sr -> sr.Syntax_rules.name
  | ObjProc _ -> "#<phase-1 procedure>"
