(** Scopes for the sets-of-scopes hygiene model (Flatt 2016).

    A scope is an opaque token; binders and references carry sets of them,
    and a reference resolves to the binder whose scope set is the largest
    subset of the reference's.

    Scope sets are {e hash-consed}: each distinct set has one live
    representative with a unique {!Set.id}, so {!Set.equal} is pointer
    comparison, {!Set.subset} is a sorted-array merge with O(1) early
    exits, and (symbol, set-id) pairs key {!Binding}'s resolver cache. *)

type t = int

val fresh : unit -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string

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

  (** Pointer equality — sets are hash-consed. *)
  val equal : t -> t -> bool

  (** Total order on the unique representative ids (not structural). *)
  val compare : t -> t -> int

  (** The unique id of this set's representative; stable for the process
      lifetime, usable as a memoization key. *)
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

  (** Number of distinct scope sets interned so far. *)
  val interned_count : unit -> int

  (** Bucket statistics of each shard of the calling domain's cons table
      (diagnostics and tests). *)
  val shard_stats : unit -> Hashtbl.statistics array
end
