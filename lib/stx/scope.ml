(** Scopes for the sets-of-scopes hygiene model (Flatt 2016).  A scope is an
    opaque token; binders and references carry sets of them, and a reference
    resolves to the binder whose scope set is the largest subset of the
    reference's.

    Scope {e sets} are hash-consed: every distinct set of scopes has exactly
    one live representative, carrying a unique id, a cached hash, and a
    sorted-array backing.  Consequences, all load-bearing for expansion
    performance:

    - set equality is pointer equality (one instruction);
    - [subset] is a linear sorted-array merge with an O(1) size-based early
      exit (and an O(1) pointer-equality fast path);
    - the unique [id] doubles as a memoization key — {!Binding}'s resolver
      cache is keyed by (symbol id, scope-set id).

    The cons table is split into 16 shards.  A shard's hash table picks
    its bucket from the low bits of a set's hash, so the shard index is
    taken from the top bits of a multiplicative mix of that hash instead:
    if the low bits did both jobs, each shard would use one bucket in
    sixteen, and its chains would grow with every set the process
    interned.  The set hash multiplies each element in (FNV-1a over
    ints), so sets of nearby scopes, the common case, spread over the
    buckets rather than sharing hash values.

    The cons table only grows; the number of distinct scope sets in an
    expansion is bounded by the binding structure of the program, which is
    the usual compiler trade-off.

    Domain safety: scope tokens and set ids come from atomics, while the
    cons table and the single-op memo are {e domain-local} ([Domain.DLS])
    and therefore lock-free.  A worker domain starts with a copy of its
    parent's cons table, so canonicity is per-domain: pointer-equality
    [equal] holds within a domain (which is where all hot comparisons
    happen), sets inherited from the parent keep their representatives,
    and the content-based [subset]/[union] fallbacks cover the cold
    cross-domain cases.  Set ids stay process-unique (one atomic), so the
    (symbol id, set id) resolver-cache key never collides across
    domains. *)

type t = int

let counter = Atomic.make 0

let fresh () = 1 + Atomic.fetch_and_add counter 1

let compare : t -> t -> int = Int.compare
let equal : t -> t -> bool = Int.equal
let to_string (s : t) = "sc" ^ string_of_int s

module Set = struct
  type elt = t

  type t = {
    id : int;  (** unique per distinct set; stable for the process lifetime *)
    elems : int array;  (** strictly increasing *)
    hash : int;  (** cached structural hash of [elems] *)
  }

  (* FNV-1a over whole elements, then the high bits folded into the low
     ones, which pick the bucket. *)
  let hash_elems (a : int array) : int =
    let h = ref 5381 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001B3
    done;
    (!h lxor (!h lsr 32)) land max_int

  (* -- the cons table ------------------------------------------------------ *)

  module Key = struct
    type t = int array

    let equal a b =
      a == b
      ||
      let la = Array.length a in
      la = Array.length b
      &&
      let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
      go (la - 1)

    let hash = hash_elems
  end

  module Tbl = Hashtbl.Make (Key)

  (* The cons table is {e domain-local} ([Domain.DLS]), seeded at spawn
     with a copy of the parent's tables.  Interning is therefore lock-free
     — this is the hottest operation in expansion, and a shared gated
     table measurably serializes a domain pool.  Per-domain canonicity is
     sound because scope sets never cross domains at runtime: a worker
     inherits every representative the parent had already interned (so
     sets reachable from split-copied state — core bindings, builtin
     modules — stay pointer-canonical), and sets it interns afresh are
     only ever compared against cross-domain sets by [subset]/[union],
     which fall back to content merges when the pointer fast path misses.
     Set ids still come off one process-wide atomic, so ids remain
     globally unique and (symbol id, set id) memo keys never collide
     across domains.  The [n_shards] split bounds per-table rehash cost. *)
  let n_shards = 16

  (* A shard's [Tbl] picks its bucket from the hash's low bits, so the
     shard index must come from other bits: taking it from the low four
     would leave every shard using one bucket in sixteen.  The top bits of
     a Fibonacci product depend on every bit of the hash. *)
  let shard_of (h : int) = ((h * 0x1E3779B97F4A7C15) lsr 59) land (n_shards - 1)

  let shards_key : t Tbl.t array Domain.DLS.key =
    Domain.DLS.new_key
      ~split_from_parent:(fun shards -> Array.map Tbl.copy shards)
      (fun () -> Array.init n_shards (fun _ -> Tbl.create 4096))

  let next_id = Atomic.make 0

  (** Number of distinct scope sets interned so far, process-wide
      (diagnostics; content-equal sets interned by two domains count
      twice, as they are distinct representatives). *)
  let interned_count () = Atomic.get next_id

  (* [elems] must be strictly increasing and must never be mutated after
     this call. *)
  let hashcons (elems : int array) : t =
    let h = hash_elems elems in
    let table = (Domain.DLS.get shards_key).(shard_of h) in
    match Tbl.find_opt table elems with
    | Some s -> s
    | None ->
        let s = { id = Atomic.fetch_and_add next_id 1; elems; hash = h } in
        Tbl.add table elems s;
        s

  let empty = hashcons [||]

  (** Per-shard statistics of the calling domain's cons table. *)
  let shard_stats () = Array.map Tbl.stats (Domain.DLS.get shards_key)

  (* -- single-op memo --------------------------------------------------------

     [(set id, scope, op)] → result set.  Lazy scope propagation pushes the
     same one-scope delta onto many sibling nodes that share one interned
     scope set, so the same (set, scope) pair recurs constantly; this memo
     turns the repeat applications from an O(n) array copy + rehash into a
     three-int table hit.  Both tables only grow, bounded by the number of
     distinct (set, scope) pairs the expansion touches. *)

  module OpKey = struct
    type nonrec t = int * elt * int

    let equal ((a, b, c) : t) ((x, y, z) : t) = a = x && b = y && c = z
    let hash ((a, b, c) : t) = (((a * 0x01000193) lxor b) * 0x01000193) lxor c
  end

  module OpTbl = Hashtbl.Make (OpKey)

  (* Domain-local: a pure cache over the shared cons table (values are
     canonical representatives), so per-domain memoization is sound and
     needs no locking.  Workers start with an empty memo and warm it as
     they expand. *)
  let op_table_key : t OpTbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> OpTbl.create 4096)

  (* Below this cardinality the array copy + rehash is cheaper than the
     memo probe + insert, so small sets go straight to the cons table. *)
  let memo_threshold = 8

  let memo_op (sid : int) (x : elt) (tag : int) (compute : unit -> t) : t =
    let op_table = Domain.DLS.get op_table_key in
    let key = (sid, x, tag) in
    match OpTbl.find_opt op_table key with
    | Some r -> r
    | None ->
        let r = compute () in
        OpTbl.add op_table key r;
        r

  (* -- O(1) observers ------------------------------------------------------ *)

  let id (s : t) = s.id
  let hash (s : t) = s.hash
  let equal (a : t) (b : t) = a == b
  let compare (a : t) (b : t) = Int.compare a.id b.id
  let cardinal (s : t) = Array.length s.elems
  let is_empty (s : t) = Array.length s.elems = 0

  let max_elt (s : t) =
    let n = Array.length s.elems in
    if n = 0 then invalid_arg "Scope.Set.max_elt: empty set" else s.elems.(n - 1)

  (* -- membership / modification ------------------------------------------- *)

  (* Position of [x] in [a], or the insertion point encoded as [-(i+1)]. *)
  let search (a : int array) (x : int) : int =
    let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = a.(mid) in
      if v = x then found := mid else if v < x then lo := mid + 1 else hi := mid - 1
    done;
    if !found >= 0 then !found else - !lo - 1

  let mem (x : elt) (s : t) = search s.elems x >= 0

  let add_build (s : t) (i : int) (x : elt) : t =
    let at = -i - 1 in
    let n = Array.length s.elems in
    let out = Array.make (n + 1) x in
    Array.blit s.elems 0 out 0 at;
    Array.blit s.elems at out (at + 1) (n - at);
    hashcons out

  let add (x : elt) (s : t) : t =
    let i = search s.elems x in
    if i >= 0 then s
    else if Array.length s.elems < memo_threshold then add_build s i x
    else memo_op s.id x 0 (fun () -> add_build s i x)

  let remove_build (s : t) (i : int) : t =
    let n = Array.length s.elems in
    let out = Array.make (n - 1) 0 in
    Array.blit s.elems 0 out 0 i;
    Array.blit s.elems (i + 1) out i (n - 1 - i);
    hashcons out

  let remove (x : elt) (s : t) : t =
    let i = search s.elems x in
    if i < 0 then s
    else if Array.length s.elems < memo_threshold then remove_build s i
    else memo_op s.id x 1 (fun () -> remove_build s i)

  (** Symmetric difference on a single scope: used when applying a macro's
      introduction scope to its result (scopes present are removed, absent
      are added), which distinguishes macro-introduced syntax from syntax
      that came in through the macro's input. *)
  let flip (x : elt) (s : t) = if mem x s then remove x s else add x s

  let singleton (x : elt) = hashcons [| x |]

  (** [subset a b]: pointer-equal sets are subsets in O(1); larger-than
    rules out in O(1); otherwise a linear merge over the sorted arrays. *)
  let subset (a : t) (b : t) : bool =
    a == b
    || begin
         let la = Array.length a.elems and lb = Array.length b.elems in
         la <= lb
         &&
         let i = ref 0 and j = ref 0 and ok = ref true in
         while !ok && !i < la do
           if !j >= lb || a.elems.(!i) < b.elems.(!j) then ok := false
           else if a.elems.(!i) = b.elems.(!j) then begin
             incr i;
             incr j
           end
           else incr j;
           (* early exit: not enough room left in b for the rest of a *)
           if !ok && la - !i > lb - !j then ok := false
         done;
         !ok
       end

  let union (a : t) (b : t) : t =
    if a == b || is_empty b then a
    else if is_empty a then b
    else begin
      let la = Array.length a.elems and lb = Array.length b.elems in
      let tmp = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la || !j < lb do
        let v =
          if !j >= lb then (
            let v = a.elems.(!i) in
            incr i;
            v)
          else if !i >= la then (
            let v = b.elems.(!j) in
            incr j;
            v)
          else
            let x = a.elems.(!i) and y = b.elems.(!j) in
            if x < y then (
              incr i;
              x)
            else if y < x then (
              incr j;
              y)
            else (
              incr i;
              incr j;
              x)
        in
        tmp.(!k) <- v;
        incr k
      done;
      hashcons (Array.sub tmp 0 !k)
    end

  let elements (s : t) = Array.to_list s.elems
  let iter f (s : t) = Array.iter f s.elems
  let fold f (s : t) acc = Array.fold_left (fun acc x -> f x acc) acc s.elems

  let of_list (l : elt list) : t =
    let a = Array.of_list (List.sort_uniq Int.compare l) in
    hashcons a

  let to_string s = "{" ^ String.concat "," (List.map to_string (elements s)) ^ "}"
end
