(** The runtime namespace: module-level variables, keyed by binding uid.

    A binding imported from another module keeps its identity (§5), so the
    importing module's references reach the exporting module's global cell
    with no extra indirection. *)

module Binding = Liblang_stx.Binding
module Ast = Liblang_runtime.Ast
module Value = Liblang_runtime.Value

(* Domain-local, seeded at domain spawn with a shallow copy of the
   parent's table.  The copy shares the [Ast.global] records themselves —
   builtin primitives installed before the spawn resolve to the very same
   cells in every worker; cells a worker creates for its own module-level
   definitions stay private to that worker. *)
let table_key : (int, Ast.global) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Hashtbl.copy (fun () -> Hashtbl.create 1024)

let[@inline] table () = Domain.DLS.get table_key

(** The global cell for a binding, created on demand. *)
let global_of (b : Binding.t) : Ast.global =
  let table = table () in
  match Hashtbl.find_opt table b.Binding.uid with
  | Some g -> g
  | None ->
      let g = Ast.global b.Binding.name in
      Hashtbl.add table b.Binding.uid g;
      g

(** Install an immutable (non-[set!]-able) value, e.g. a primitive. *)
let define_immutable (b : Binding.t) (v : Value.value) =
  let g = Ast.global ~mutable_:false b.Binding.name in
  g.Ast.g_val <- v;
  Hashtbl.replace (table ()) b.Binding.uid g

let lookup_value (b : Binding.t) : Value.value option =
  match Hashtbl.find_opt (table ()) b.Binding.uid with
  | Some g when g.Ast.g_val != Value.Undefined -> Some g.Ast.g_val
  | _ -> None
