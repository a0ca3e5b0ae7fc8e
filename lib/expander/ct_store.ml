(** The compile-time store: per-compilation mutable state for phase-1 code.

    The paper (§5, §6.2) leans on Racket's guarantee that "each module is
    compiled with a fresh store": mutations made by compile-time code during
    one compilation are invisible to other compilations.  Languages keep
    their compile-time state here (e.g. Typed Racket's type environment and
    its [typed-context?] flag); the module compiler installs a fresh store
    around each module compilation and replays required modules'
    compile-time declarations into it. *)

module Value = Liblang_runtime.Value

type t = {
  visited : (string, unit) Hashtbl.t;  (** the modules visited into this store *)
  vals : (string, Value.value) Hashtbl.t;
  tables : (string, (int, Value.value) Hashtbl.t) Hashtbl.t;
      (** named tables keyed by binding uid — e.g. a type environment *)
}

let create () : t = { visited = Hashtbl.create 8; vals = Hashtbl.create 32; tables = Hashtbl.create 4 }

(* The ambient store is per-domain: each parallel-build worker compiles with
   its own store stack, which is exactly the "fresh store per compilation"
   guarantee extended to domains. *)
let current_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())

let[@inline] current () : t = Domain.DLS.get current_key

(** Run [f] with [store] as the ambient store (restoring the previous one
    after).  The artifact loader uses this to re-enter a module's
    load-time store when a deferred body compilation is forced at
    instantiation time. *)
let with_store (store : t) f =
  let saved = current () in
  Domain.DLS.set current_key store;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

let with_fresh_store f = with_store (create ()) f

(** Record that module [name] is visited into the current store; [false]
    if it already was.  The mark lives in the store, so it goes with the
    compilation that made it. *)
let first_visit name =
  let cur = current () in
  (not (Hashtbl.mem cur.visited name))
  && begin
       Hashtbl.replace cur.visited name ();
       true
     end
let get key = Hashtbl.find_opt (current ()).vals key
let set key v = Hashtbl.replace (current ()).vals key v

(** A named, binding-uid-keyed table in the current store, created on first
    access.  Typed Racket's type environment is [uid_table "typed:types"]. *)
let uid_table name : (int, Value.value) Hashtbl.t =
  let cur = current () in
  match Hashtbl.find_opt cur.tables name with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      Hashtbl.add cur.tables name t;
      t
