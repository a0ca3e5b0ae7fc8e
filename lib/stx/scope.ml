(** Scopes for the sets-of-scopes hygiene model (Flatt 2016).  A scope is a
    heap record; binders and references carry sets of them, and a
    reference resolves to the binder whose scope set is the largest subset
    of the reference's.

    {1 Who owns what}

    Following Racket's expander, a scope owns the binders anchored on it
    ({!Binding} keeps each binder in the table of the largest scope of its
    set).  Syntax holds scope sets, sets hold their scopes, scopes hold
    their binders, and a module holds the syntax its macros need.  So once
    nothing holds a module's syntax any more — the compile server dropped
    the module's old version — its scopes, binders and bindings are
    garbage, and nothing here keeps them alive.

    Scope {e sets} are hash-consed: a set carries a unique id, a cached
    hash and a sorted-array backing, and interning the same elements again
    while the set is in the cons table returns it.  Consequences:

    - [equal] is one pointer comparison in the common case, and otherwise
      a hash comparison before any element is looked at;
    - [subset] is a linear sorted-array merge with an O(1) size-based early
      exit (and an O(1) pointer-equality fast path);
    - siblings that share a set share one record, which is what the lazy
      propagation memo in {!Stx} keys on.

    {1 The cons table holds its sets weakly}

    The cons table is split into 16 shards.  Each shard is two generations
    of open-addressing tables of weak pointers, sized by how many of
    their sets stay alive (see [turn]), so the table keeps no set alive,
    and its size does not grow with the sets the process ever interned.
    A set that drops out of the table while syntax still holds it stays a
    valid set: interning its elements again makes a second representative
    with another id, which [equal], [subset] and {!Binding}'s caches
    (keyed by contents) treat as the same set.  A shard's table picks its
    home slot from the low bits of a set's hash, so the shard index is
    taken from the top bits of a multiplicative mix of that hash instead:
    if the low bits did both jobs, each shard would use one home slot in
    sixteen.  The set hash multiplies each element's id in (FNV-1a over
    ints), so sets of nearby scopes, the common case, spread over the
    slots.

    {1 Domains}

    Scope ids and set ids come from atomics, while the cons table is
    {e domain-local} ([Domain.DLS]) and therefore lock-free.  A worker
    domain starts with a copy of its parent's cons table, so sets inherited
    from the parent keep their representatives, and the content-based
    [equal]/[subset]/[union] cover the cold cross-domain cases.  Every
    scope records the domain that created it ({!this_domain}); only that
    domain writes its table, so a worker reads what its parent built and
    never writes it.  Sets are immutable. *)

type table = ..
type table += Unanchored

type t = { id : int; owner : int; mutable table : table }

let counter = Atomic.make 0
let domains = Atomic.make 0

(* No [split_from_parent]: every domain draws its own token on first use. *)
let domain_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.fetch_and_add domains 1)

let[@inline] this_domain () = Domain.DLS.get domain_key

let fresh () = { id = 1 + Atomic.fetch_and_add counter 1; owner = this_domain (); table = Unanchored }

let[@inline] id (s : t) = s.id
let compare (a : t) (b : t) = Int.compare a.id b.id
let equal (a : t) (b : t) = a == b
let to_string (s : t) = "sc" ^ string_of_int s.id
let owner (s : t) = s.owner
let[@inline] table (s : t) = s.table
let set_table (s : t) (tb : table) = s.table <- tb

module Set = struct
  type elt = t

  type t = {
    id : int;  (** unique per representative, never reused *)
    elems : elt array;  (** strictly increasing ids *)
    hash : int;  (** cached structural hash of [elems] *)
  }

  (* FNV-1a over whole element ids, then the high bits folded into the low
     ones, which pick the bucket. *)
  let hash_elems (a : elt array) : int =
    let h = ref 5381 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i).id) * 0x100000001B3
    done;
    (!h lxor (!h lsr 32)) land max_int

  let same_elems (a : elt array) (b : elt array) =
    a == b
    ||
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) == b.(i) && go (i - 1)) in
    go (la - 1)

  (* -- the cons table ------------------------------------------------------

     Each shard holds two generations, each an open-addressing table: slot
     [i] of [slots] holds a weak pointer to a set, and [hashes.(i)] its
     hash, or [-1] for a slot never used.  A probe walks from the hash's
     home slot to the first unused one and calls [Weak.get] only on a
     hash match.  A set is added to the young generation; a set found in
     the old one is added to the young one too.  When half the young
     generation's slots are used, the old generation is dropped and the
     young one becomes old.  So a set the GC has not yet collected holds
     a slot only until two turns pass without it being interned again,
     however long the GC takes to reach it.

     The new young generation is sized by how many sets of the dropped
     one were still alive: twice the slots when more than a quarter were
     (up to [max_slots]), half when fewer than one in sixteen were (down
     to [min_slots]).  A short run keeps a small table; a compile server's
     worker, whose large minor heap lets many dead sets look alive, tops
     out at [max_slots]. *)

  type generation = { slots : t Weak.t; hashes : int array; mutable used : int }
  type shard = { mutable young : generation; mutable old : generation }

  let n_shards = 16
  let min_slots = 256
  let max_slots = 4096

  let new_generation n = { slots = Weak.create n; hashes = Array.make n (-1); used = 0 }
  let new_shard () = { young = new_generation min_slots; old = new_generation min_slots }

  (* A worker's copy: fresh weak arrays holding the same sets. *)
  let copy_generation (g : generation) =
    let n = Array.length g.hashes in
    let slots = Weak.create n in
    Weak.blit g.slots 0 slots 0 n;
    { slots; hashes = Array.copy g.hashes; used = g.used }

  (* A shard's table picks its home slot from the hash's low bits, so the
     shard index must come from other bits: taking it from the low four
     would leave every shard using one slot in sixteen as a home.  The
     top bits of a Fibonacci product depend on every bit of the hash. *)
  let shard_of (h : int) = ((h * 0x1E3779B97F4A7C15) lsr 59) land (n_shards - 1)

  let shards_key : shard array Domain.DLS.key =
    Domain.DLS.new_key
      ~split_from_parent:
        (Array.map (fun sh -> { young = copy_generation sh.young; old = copy_generation sh.old }))
      (fun () -> Array.init n_shards (fun _ -> new_shard ()))

  let next_id = Atomic.make 0

  let interned_count () = Atomic.get next_id

  let rec find (g : generation) (elems : elt array) (h : int) (i : int) =
    let hi = g.hashes.(i) in
    if hi < 0 then None
    else if hi = h then
      match Weak.get g.slots i with
      | Some s as found when same_elems s.elems elems -> found
      | _ -> find g elems h ((i + 1) land (Array.length g.hashes - 1))
    else find g elems h ((i + 1) land (Array.length g.hashes - 1))

  let find_in (g : generation) (elems : elt array) (h : int) =
    find g elems h (h land (Array.length g.hashes - 1))

  let put (g : generation) (s : t) =
    let mask = Array.length g.hashes - 1 in
    let rec free i = if g.hashes.(i) < 0 then i else free ((i + 1) land mask) in
    let i = free (s.hash land mask) in
    Weak.set g.slots i (Some s);
    g.hashes.(i) <- s.hash;
    g.used <- g.used + 1

  (* Drop the old generation and make the young one old; the dropped
     generation's arrays are cleared and reused when its size stays. *)
  let turn (sh : shard) =
    let g = sh.old in
    let n = Array.length g.hashes in
    let live = ref 0 in
    Array.iteri (fun i h -> if h >= 0 && Weak.check g.slots i then incr live) g.hashes;
    let n' =
      if 4 * !live > n then min max_slots (2 * n)
      else if 16 * !live < n then max min_slots (n / 2)
      else n
    in
    let young =
      if n' = n then begin
        Weak.fill g.slots 0 n None;
        Array.fill g.hashes 0 n (-1);
        g.used <- 0;
        g
      end
      else new_generation n'
    in
    sh.old <- sh.young;
    sh.young <- young

  let add_young (sh : shard) (s : t) =
    if 2 * (sh.young.used + 1) > Array.length sh.young.hashes then turn sh;
    put sh.young s

  (* [elems] must be strictly increasing and must never be mutated after
     this call. *)
  let hashcons (elems : elt array) : t =
    let h = hash_elems elems in
    let sh = (Domain.DLS.get shards_key).(shard_of h) in
    match find_in sh.young elems h with
    | Some s -> s
    | None -> (
        match find_in sh.old elems h with
        | Some s ->
            add_young sh s;
            s
        | None ->
            let s = { id = Atomic.fetch_and_add next_id 1; elems; hash = h } in
            add_young sh s;
            s)

  let empty = hashcons [||]

  let iter_live (f : t -> unit) =
    Array.iter
      (fun sh ->
        let seen = Hashtbl.create 64 in
        List.iter
          (fun g ->
            Array.iteri
              (fun i h ->
                if h >= 0 then
                  match Weak.get g.slots i with
                  | Some s when not (Hashtbl.mem seen s.id) ->
                      Hashtbl.add seen s.id ();
                      f s
                  | _ -> ())
              g.hashes)
          [ sh.young; sh.old ])
      (Domain.DLS.get shards_key)

  let live_count () =
    let n = ref 0 in
    iter_live (fun _ -> incr n);
    !n

  (* A home slot's "bucket" is the run of live sets whose hash picks it,
     so the statistics read like a chained table's. *)
  let shard_stats () =
    Array.map
      (fun sh ->
        let n = max (Array.length sh.young.hashes) (Array.length sh.old.hashes) in
        let lengths = Array.make n 0 in
        List.iter
          (fun g ->
            Array.iteri
              (fun i h ->
                if h >= 0 && Weak.check g.slots i then
                  lengths.(h land (n - 1)) <- lengths.(h land (n - 1)) + 1)
              g.hashes)
          [ sh.young; sh.old ];
        let longest = Array.fold_left max 0 lengths in
        let histogram = Array.make (longest + 1) 0 in
        Array.iter (fun k -> histogram.(k) <- histogram.(k) + 1) lengths;
        {
          Hashtbl.num_bindings = Array.fold_left ( + ) 0 lengths;
          num_buckets = n;
          max_bucket_length = longest;
          bucket_histogram = histogram;
        })
      (Domain.DLS.get shards_key)

  (* -- O(1) observers ------------------------------------------------------ *)

  let id (s : t) = s.id
  let hash (s : t) = s.hash
  let equal (a : t) (b : t) = a == b || (a.hash = b.hash && same_elems a.elems b.elems)
  let compare (a : t) (b : t) = Int.compare a.id b.id
  let cardinal (s : t) = Array.length s.elems
  let is_empty (s : t) = Array.length s.elems = 0

  let max_elt (s : t) =
    let n = Array.length s.elems in
    if n = 0 then invalid_arg "Scope.Set.max_elt: empty set" else s.elems.(n - 1)

  (* -- membership / modification ------------------------------------------- *)

  (* Position of [x] in [a], or the insertion point encoded as [-(i+1)]. *)
  let search (a : elt array) (x : elt) : int =
    let x = x.id in
    let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = a.(mid).id in
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
    if i >= 0 then s else add_build s i x

  let remove_build (s : t) (i : int) : t =
    let n = Array.length s.elems in
    let out = Array.sub s.elems 0 (n - 1) in
    Array.blit s.elems (i + 1) out i (n - 1 - i);
    hashcons out

  let remove (x : elt) (s : t) : t =
    let i = search s.elems x in
    if i < 0 then s else remove_build s i

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
           let x = a.elems.(!i).id in
           if !j >= lb || x < b.elems.(!j).id then ok := false
           else if x = b.elems.(!j).id then begin
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
      let tmp = Array.make (la + lb) a.elems.(0) in
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
            if x.id < y.id then (
              incr i;
              x)
            else if y.id < x.id then (
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
    let a = Array.of_list (List.sort_uniq (fun (x : elt) y -> Int.compare x.id y.id) l) in
    hashcons a

  let to_string s = "{" ^ String.concat "," (List.map to_string (elements s)) ^ "}"
end
