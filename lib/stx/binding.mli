(** Bindings and the binders of the sets-of-scopes expander.

    A binding associates (name, scope set) with a record carrying a
    globally unique id.  The paper relies on exactly this property (§5):
    "identifiers in Racket are given globally fresh names that are stable
    across modules during the expansion process".  A binding also carries
    what it means to the expander ({!denotation}) and its runtime global
    cell ({!cell}), so neither needs a table keyed by its id.

    A binder lives in the table of its {e anchor}, the largest scope of
    its set (see {!Scope}), so resolving a reference probes only the
    anchors in its own scope set; imports are {e bulk} entries (a scope
    set plus the provider's export index), one per [require], anchored the
    same way.  A binder is therefore reachable only from syntax that holds
    its anchor, and dies with it.  {!resolve} is memoized per (name, scope
    set), with invalidation on {!add} and {!add_bulk} — see
    docs/architecture.md, "Hygiene internals".

    Per-name state is domain-local, seeded at domain spawn with a copy of
    the parent's; binding uids remain globally fresh across domains (see
    docs/architecture.md, "Parallelism & domain-safety").  A domain writes
    the fields of the scopes and bindings it created, and keeps what it
    adds to another domain's in tables of its own. *)

exception Ambiguous of Stx.t
(** raised by {!resolve} when candidate bindings are not totally ordered by
    scope-set inclusion — the classic hygiene error *)

(** A binding's denotation or cell: {!Unset} until a layer above sets
    one; [Denote] and [Namespace] add their constructors. *)
type slot = ..

type slot += Unset

type t = private {
  uid : int;
  name : string;
  owner : int;  (** the domain that created it ({!Scope.this_domain}) *)
  mutable denotation : slot;
  mutable cell : slot;
}

val fresh : string -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string

(** What the binding means to the expander, as the calling domain sees
    it. *)
val denotation : t -> slot

(** Set it: in the binding itself when the calling domain created it, in
    a table of the calling domain's otherwise. *)
val set_denotation : t -> slot -> unit

(** The binding's runtime cell, as the calling domain sees it. *)
val cell : t -> slot

val set_cell : t -> slot -> unit

(** [add id b] records that [id]'s name, under [id]'s scope set, refers to
    [b], as a definition.  A definition outranks every import of the name
    with the same scope set, added before or after it.  Re-adding a
    definition with the same name and scope set replaces it (supports
    module-level redefinition).  Invalidates the cached resolutions of
    that name. *)
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
    whenever it was added.  Invalidates the cached resolutions of the
    names [ex] provides. *)
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

(** A module compilation, load or expansion starts in the calling
    domain: a name's resolver cache started two compilations ago is
    dropped at its next lookup. *)
val new_compilation : unit -> unit

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

(** Binder entries, explicit and bulk, anchored on the scopes of the
    calling domain's live scope sets, plus those its own tables hold
    (diagnostics and tests; walks the cons table). *)
val live_entries : unit -> int
