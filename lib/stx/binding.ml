(** The global binding table of the sets-of-scopes expander.

    A binding associates (name, scope set) with a binding record carrying a
    globally unique id.  The paper relies on exactly this property (§5):
    "identifiers in Racket are given globally fresh names that are stable
    across modules during the expansion process", so an identifier-keyed
    table (here: a uid-keyed table) gives cross-module type environments for
    free.

    Performance shape (this is the expander's innermost loop — every
    identifier the expander, the typechecker, or [free-identifier=?] looks
    at goes through {!resolve}):

    - the table is keyed by {e interned symbol id} (int hashing, no string
      traversal);
    - resolution is {e memoized} per (symbol id, scope-set representative
      id) — scope sets are hash-consed, so the pair is two ints.  The cache
      for a symbol is invalidated whenever a binding for that symbol is
      added;
    - the subset scan takes a single pass, and when exactly one candidate
      matches (the overwhelmingly common case) the ambiguity total-order
      check is skipped entirely.

    Domain story: the table, the resolver cache and the hit/miss counters
    are {e domain-local} ([Domain.DLS]), seeded at domain spawn with a
    shallow copy of the parent's table.  This is deliberate — [resolve] is
    far too hot to put behind a shared mutex, and the separate-compilation
    model (paper §5) already makes worker domains pure artifact producers
    whose binding-table growth never needs to be seen by other domains:
    artifacts serialize names and datums, never uids or scope ids, and the
    main domain re-acquires modules by replaying artifacts into its own
    tables.  Binding {e uids} stay globally fresh (an atomic counter) so a
    record that does travel — e.g. a builtin binding present in every
    domain's seeded copy — means the same thing everywhere. *)

module Symbol = Liblang_symbol.Symbol

exception Ambiguous of Stx.t

type t = { uid : int; name : string }

let uid_counter = Atomic.make 0

let fresh name = { uid = 1 + Atomic.fetch_and_add uid_counter 1; name }

let equal a b = a.uid = b.uid
let compare a b = Int.compare a.uid b.uid
let to_string b = Printf.sprintf "%s.%d" b.name b.uid

module STbl = Hashtbl.Make (struct
  type t = Symbol.t

  let equal = Symbol.equal
  let hash = Symbol.hash
end)

(* -- the domain-local state -------------------------------------------------

   [table]: symbol id -> list of (scope set, binding).

   [cache]: symbol id -> (scope-set id -> resolution).  Both keys are ints;
   the scope-set id is stable because sets are hash-consed.  [add] drops the
   symbol's entire sub-table, which is exactly the set of results the new
   binding can change.  Ambiguity (a raise) is not cached — it is the rare
   error path.

   The hit/miss counters are plain mutable ints so the hot path never hashes
   a metric name; the pipeline reports deltas as ["expand.resolve_hits"] /
   ["expand.resolve_misses"]. *)

type state = {
  table : (Scope.Set.t * t) list STbl.t;
  mutable cache : (int, t option) Hashtbl.t STbl.t;
  mutable hits : int;
  mutable misses : int;
}

(* Entry lists are immutable (add replaces the whole list), so a shallow
   table copy is a faithful snapshot — the same property the bench
   harness's snapshot/restore relies on. *)
let state_key : state Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun (parent : state) ->
      { table = STbl.copy parent.table; cache = STbl.create 1024; hits = 0; misses = 0 })
    (fun () ->
      { table = STbl.create 1024; cache = STbl.create 1024; hits = 0; misses = 0 })

let[@inline] state () = Domain.DLS.get state_key

let resolve_hits () = (state ()).hits
let resolve_misses () = (state ()).misses

(** [add id b] records that [id]'s name, with [id]'s scope set, refers to
    [b].  Adding twice with the same name and scope set replaces (supports
    redefinition at a REPL-like top level). *)
let add (id : Stx.t) (b : t) =
  let st = state () in
  let sym = Stx.symbol_exn id in
  let scopes = Stx.scopes id in
  let existing = Option.value (STbl.find_opt st.table sym) ~default:[] in
  let existing = List.filter (fun (ss, _) -> not (Scope.Set.equal ss scopes)) existing in
  STbl.replace st.table sym ((scopes, b) :: existing);
  STbl.remove st.cache sym

(** Bind [id] to a fresh binding and return it. *)
let bind (id : Stx.t) : t =
  let b = fresh (Stx.sym_exn id) in
  add id b;
  b

(* The uncached resolution: one pass to find the candidate with the largest
   scope set and count the matches; the inclusion total-order check runs
   only when more than one candidate matched. *)
let resolve_scan (entries : (Scope.Set.t * t) list) (scopes : Scope.Set.t) (id : Stx.t) :
    t option =
  let best = ref None in
  let matched = ref 0 in
  List.iter
    (fun (ss, b) ->
      if Scope.Set.subset ss scopes then begin
        incr matched;
        match !best with
        | None -> best := Some (ss, b)
        | Some (ss', _) -> if Scope.Set.cardinal ss > Scope.Set.cardinal ss' then best := Some (ss, b)
      end)
    entries;
  match !best with
  | None -> None
  | Some (best_ss, b) ->
      if
        !matched = 1
        || List.for_all
             (fun (ss, _) -> (not (Scope.Set.subset ss scopes)) || Scope.Set.subset ss best_ss)
             entries
      then Some b
      else raise (Ambiguous id)

(** Resolve a reference to a binding: among all bindings for the name whose
    scope set is a subset of the reference's, take the one with the largest
    scope set.  Raises {!Ambiguous} when the candidates aren't totally
    ordered by inclusion (the classic hygiene error). *)
let resolve (id : Stx.t) : t option =
  let st = state () in
  let sym = Stx.symbol_exn id in
  let scopes = Stx.scopes id in
  match STbl.find_opt st.table sym with
  | None | Some [] -> None
  | Some ((_ :: _ :: _) as entries) -> (
      (* Two or more candidate binders: the scan (and its ambiguity check)
         is worth caching.  Macro-introduced references carry a fresh
         introduction scope on every transformer application, so their set
         ids never recur — but for multi-binder symbols the scan repeats
         over the same entries and the cache pays for itself. *)
      let per_sym =
        match STbl.find_opt st.cache sym with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            STbl.add st.cache sym tbl;
            tbl
      in
      let key = Scope.Set.id scopes in
      match Hashtbl.find_opt per_sym key with
      | Some r ->
          st.hits <- st.hits + 1;
          r
      | None ->
          st.misses <- st.misses + 1;
          let r = resolve_scan entries scopes id in
          Hashtbl.add per_sym key r;
          r)
  | Some [ (ss, b) ] ->
      (* Exactly one binder: a single subset test is cheaper than a cache
         probe, let alone an insert.  Not counted as hit or miss — the
         cache is not involved. *)
      if Scope.Set.subset ss scopes then Some b else None

(** Racket's [free-identifier=?]: do two identifiers refer to the same
    binding?  Unbound identifiers compare by name. *)
let free_identifier_eq (a : Stx.t) (b : Stx.t) =
  match (resolve a, resolve b) with
  | Some ba, Some bb -> equal ba bb
  | None, None -> Symbol.equal (Stx.symbol_exn a) (Stx.symbol_exn b)
  | _ -> false

(** Testing hook: forget all bindings.  Only used by the test suite to get
    reproducible resolution scenarios. *)
let reset_for_tests () =
  let st = state () in
  STbl.reset st.table;
  STbl.reset st.cache

(* -- measurement isolation --------------------------------------------------

   The bench harness expands throwaway modules (fresh names, never
   instantiated) purely to time expansion.  Each such expansion appends
   binders to the per-name entry lists, and every later resolution of a
   shared name (loop, i, n, ...) scans those lists — so timing expansion
   would slow down everything measured after it.  Snapshot/restore brackets
   the throwaway work.  Entry lists are immutable (add replaces the list),
   so a shallow table copy is a faithful snapshot.  Both operate on the
   calling domain's state. *)

type snapshot = (Scope.Set.t * t) list STbl.t

let snapshot () : snapshot = STbl.copy (state ()).table

let restore (s : snapshot) =
  let st = state () in
  STbl.reset st.table;
  STbl.iter (fun k v -> STbl.replace st.table k v) s;
  STbl.reset st.cache
