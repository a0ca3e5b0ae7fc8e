(** Scopes for the sets-of-scopes hygiene model (Flatt 2016).

    A scope is a heap record; binders and references carry sets of them,
    and a reference resolves to the binder whose scope set is the largest
    subset of the reference's.  A scope owns what is anchored on it (see
    {!Binding}): a binder lives in the table of the largest scope of its
    set, so the binder is reachable exactly as long as some syntax or
    module that could still refer to it holds that scope.

    Scope sets are {e hash-consed} through a cons table that holds them
    weakly: a set no syntax holds any more is collected.  {!Set.equal} is
    a pointer comparison in the common case, and {!Set.subset} is a
    sorted-array merge with O(1) early exits. *)

(** What a scope anchors; {!Binding} adds its constructor. *)
type table = ..

type table += Unanchored

type t

val fresh : unit -> t

(** Unique and increasing: a later scope has a larger id. *)
val id : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string

(** The domain that created the scope; only it writes the scope's
    table. *)
val owner : t -> int

val table : t -> table
val set_table : t -> table -> unit

(** A token for the calling domain, unique for the process's lifetime:
    the [owner] of every scope and binding the domain creates. *)
val this_domain : unit -> int

module Set : sig
  type elt = t
  type t

  val empty : t
  val singleton : elt -> t
  val of_list : elt list -> t

  val add : elt -> t -> t
  val remove : elt -> t -> t

  (** Symmetric difference with a single scope: used when applying a
      transformer's introduction scope to its result. *)
  val flip : elt -> t -> t

  val mem : elt -> t -> bool
  val subset : t -> t -> bool
  val union : t -> t -> t

  (** Same elements: pointer equality when both come from the cons table
      at once, a hash comparison first otherwise. *)
  val equal : t -> t -> bool

  (** Total order on the representative ids (not structural). *)
  val compare : t -> t -> int

  (** The unique id of this representative: no other set, live or
      collected, ever had it.  Interning the same elements again returns
      the same representative while it is in the cons table. *)
  val id : t -> int

  (** Cached structural hash. *)
  val hash : t -> int

  val cardinal : t -> int

  (** The largest scope in the set.  Raises [Invalid_argument] on the
      empty set. *)
  val max_elt : t -> elt

  val is_empty : t -> bool
  val elements : t -> elt list
  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val to_string : t -> string

  (** Number of set representatives made so far, process-wide
      (monotonic: a set that is interned again after it left the cons
      table counts again). *)
  val interned_count : unit -> int

  (** Sets in the calling domain's cons table that are still alive
      (diagnostics and tests; walks the table).  The GC clears a set that
      nothing holds at its next collection. *)
  val live_count : unit -> int

  (** Apply [f] to every live set in the calling domain's cons table
      (diagnostics and tests). *)
  val iter_live : (t -> unit) -> unit

  (** Statistics of each shard of the calling domain's cons table,
      counting live sets only, by home slot (diagnostics and tests). *)
  val shard_stats : unit -> Hashtbl.statistics array
end
