(** The global binding table of the sets-of-scopes expander.

    A binding associates (name, scope set) with a record carrying a
    globally unique id.  The paper relies on exactly this property (§5):
    "identifiers in Racket are given globally fresh names that are stable
    across modules during the expansion process", so identifier-keyed
    tables (type environments, namespaces) work across modules with no
    extra plumbing.

    Binders are indexed by (symbol id, anchor), where the anchor is the
    largest scope of the binder's set, so resolving a reference probes
    only the anchors of its own scope set; imports are {e bulk} entries
    (a scope set plus the provider's export index), one per [require].
    The cost of a resolution therefore does not grow with the number of
    modules the process has compiled.  {!resolve} is memoized per
    (symbol id, scope-set representative id), with invalidation on {!add}
    and {!add_bulk} — see docs/architecture.md, "hygiene internals".

    The tables, cache and counters are domain-local, seeded at
    domain spawn with a copy of the parent's tables; binding uids remain
    globally fresh across domains (see docs/architecture.md, "Parallelism
    & domain-safety"). *)

exception Ambiguous of Stx.t
(** raised by {!resolve} when candidate bindings are not totally ordered by
    scope-set inclusion — the classic hygiene error *)

type t = { uid : int; name : string }

val fresh : string -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string

(** [add id b] records that [id]'s name, under [id]'s scope set, refers to
    [b], as a definition.  A definition outranks every import of the name
    with the same scope set, added before or after it.  Re-adding a
    definition with the same name and scope set replaces it (supports
    module-level redefinition).  Invalidates the resolver cache for that
    name. *)
val add : Stx.t -> t -> unit

(** [add_import id b] is {!add} for one imported name (a renaming
    [only-in]): it ranks as an import, like an {!add_bulk} entry, so a
    definition with the same scope set outranks it, and among imports the
    later one wins. *)
val add_import : Stx.t -> t -> unit

(** Bind [id] to a fresh binding and return it. *)
val bind : Stx.t -> t

type exports
(** A provider's export index: name -> binding.  Immutable once built, so
    one index serves every {!add_bulk} of the same export list, in any
    domain. *)

(** Index an export list.  A name listed twice maps to its last
    occurrence. *)
val exports : (string * t) list -> exports

(** [add_bulk scopes ex] makes every name [ex] provides refer, under
    [scopes], to its export — one entry, not one {!add} per name.  It
    ranks as an import: an import added later with the same scope set
    shadows it for the names both supply, it shadows earlier imports the
    same way, and a definition with the same scope set outranks it
    whenever it was added.  Invalidates the resolver cache for the names
    [ex] provides. *)
val add_bulk : Scope.Set.t -> exports -> unit

(** Resolve a reference: among all bindings for the name whose scope set is
    a subset of the reference's, the one with the largest scope set.
    Memoized for names with more than one binder (a name with one binder
    costs one subset test); when exactly one candidate matches, the
    ambiguity total-order check is skipped. *)
val resolve : Stx.t -> t option

(** Racket's [free-identifier=?]: do two identifiers refer to the same
    binding?  Unbound identifiers compare by name. *)
val free_identifier_eq : Stx.t -> Stx.t -> bool

(** Resolver-cache hit/miss counts for the calling domain (monotonic plain
    ints — the hot path never hashes a metric name).  The pipeline reports
    deltas as the ["expand.resolve_hits"] / ["expand.resolve_misses"]
    metrics; the parallel build driver flushes each worker's deltas into
    that worker's collector before merge-on-join. *)
val resolve_hits : unit -> int

val resolve_misses : unit -> int

(** Entries, explicit and bulk, that cache misses have tested, for the
    calling domain; reported like the hit/miss counts, as
    ["expand.resolve_scanned"]. *)
val resolve_scanned : unit -> int

(** Testing hook: forget all bindings (and the resolver cache). *)
val reset_for_tests : unit -> unit
