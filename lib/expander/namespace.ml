(** The runtime namespace: module-level variables.

    A binding carries its own global cell ({!Binding.cell}).  A binding
    imported from another module keeps its identity (§5), so the importing
    module's references reach the exporting module's global cell with no
    extra indirection, and the cell dies with the binding. *)

module Binding = Liblang_stx.Binding
module Ast = Liblang_runtime.Ast
module Value = Liblang_runtime.Value

type Binding.slot += Global of Ast.global

(** The global cell for a binding, created on demand. *)
let global_of (b : Binding.t) : Ast.global =
  match Binding.cell b with
  | Global g -> g
  | _ ->
      let g = Ast.global b.Binding.name in
      Binding.set_cell b (Global g);
      g

(** Install an immutable (non-[set!]-able) value, e.g. a primitive. *)
let define_immutable (b : Binding.t) (v : Value.value) =
  let g = Ast.global ~mutable_:false b.Binding.name in
  g.Ast.g_val <- v;
  Binding.set_cell b (Global g)
