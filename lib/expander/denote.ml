(** The compile-time environment: what each binding means to the expander.

    Keyed by binding uid — since bindings are globally fresh (§5), a single
    table serves every module and phase. *)

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

module ITbl = Hashtbl.Make (Int)

(* Domain-local, seeded at domain spawn with a copy of the parent's table:
   workers see every denotation established before the spawn (builtins, core
   forms) and record their own privately; the main domain re-acquires worker
   output by replaying artifacts. *)
let table_key : denotation ITbl.t Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:ITbl.copy (fun () -> ITbl.create 1024)

let[@inline] table () = Domain.DLS.get table_key

let set (b : Binding.t) (d : denotation) = ITbl.replace (table ()) b.Binding.uid d
let get (b : Binding.t) : denotation option = ITbl.find_opt (table ()) b.Binding.uid

let transformer_name = function
  | Native (n, _) -> n
  | Rules sr -> sr.Syntax_rules.name
  | ObjProc _ -> "#<phase-1 procedure>"
