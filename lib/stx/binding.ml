(** Bindings and the binders of the sets-of-scopes expander.

    A binding associates (name, scope set) with a binding record carrying a
    globally unique id.  The paper relies on exactly this property (§5):
    "identifiers in Racket are given globally fresh names that are stable
    across modules during the expansion process", so a table keyed by
    binding gives cross-module type environments for free.  The record
    also carries its denotation and its global cell (set by [Denote] and
    [Namespace]), so looking either up costs a field read, not a hash
    lookup.

    {1 Who holds a binder}

    As in Racket's expander, nothing here is a process-wide table that
    only grows:

    - a binder lives in the table of its {e anchor}, the largest scope of
      its set ({!Scope.table}).  A binder can only match a reference
      whose set contains its anchor, so resolution probes the anchors of
      the reference's own set — usually one or two — however many modules
      the process has compiled;
    - a [require] or a module's language records one {e bulk} entry (the
      context's scope set plus the provider's export index), anchored the
      same way, instead of one binder per exported name;
    - resolution is {e memoized} per name, keyed by the reference's scope
      set (its contents, so a second representative of a set shares the
      entry).  Adding an entry for a name drops the name's cache; a bulk
      add drops those of every name the provider exports; and a cache is
      dropped two module compilations after it started;
    - a name that only one entry ever supplied skips the cache: one subset
      test is cheaper than a probe.  That entry is held weakly: once its
      anchor dies, no live syntax can resolve to it.

    What the domain state holds is the binders anchored on the empty
    scope set, and per name a count, the weak sole entry and the cache.
    Recompiling a module adds every name it defines and every name its
    language exports, and a cache outlives two compilations in no case,
    so the caches never carry one version of a module into the next.

    {1 Domains}

    The per-name state, the empty set's binders and the counters are
    {e domain-local} ([Domain.DLS]), seeded at domain spawn with a copy of
    the parent's, minus the caches.  Scopes and bindings are shared
    records: a worker reads everything its parent built, which is how it
    sees the builtins and the core forms.  It never writes a record
    another domain created: a binder it anchors on another domain's scope,
    and a denotation or cell it gives another domain's binding, go to
    tables of its own instead.  Separate compilation (paper §5) keeps
    those tables small: artifacts serialize names and datums, never uids
    or scopes, and the main domain re-acquires a worker's modules by
    loading their artifacts.  Binding {e uids} stay globally fresh (an
    atomic counter).  Export indexes are immutable once built, so domains
    share them. *)

module Symbol = Liblang_symbol.Symbol

exception Ambiguous of Stx.t

type slot = ..
type slot += Unset

type t = { uid : int; name : string; owner : int; mutable denotation : slot; mutable cell : slot }

let uid_counter = Atomic.make 0

let fresh name =
  {
    uid = 1 + Atomic.fetch_and_add uid_counter 1;
    name;
    owner = Scope.this_domain ();
    denotation = Unset;
    cell = Unset;
  }

let equal a b = a.uid = b.uid
let compare a b = Int.compare a.uid b.uid
let to_string b = Printf.sprintf "%s.%d" b.name b.uid

module STbl = Hashtbl.Make (struct
  type t = Symbol.t

  let equal = Symbol.equal
  let hash = Symbol.hash
end)

(* Scope ids are handed out in sequence, so they hash as themselves. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

(* Another domain's scopes and bindings, weakly, by identity. *)
module Foreign_scopes = Ephemeron.K1.Make (struct
  type t = Scope.t

  let equal = ( == )
  let hash = Scope.id
end)

module Foreign_bindings = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash b = b.uid
end)

(* -- entries -----------------------------------------------------------------

   Every entry carries a stamp from a per-domain counter.  When two entries
   that can supply a name have the same scope set, the larger stamp wins.
   A definition's stamp is offset by [definition_rank], so a module-level
   definition outranks every import of its name in the same context,
   whichever came first.  Among imports the later one wins: a [require]
   shadows the module's language, and a second [require] the first. *)

type entry = { scopes : Scope.Set.t; binding : t; stamp : int }

let definition_rank = 1 lsl 48

let no_entry =
  {
    scopes = Scope.Set.empty;
    binding = { uid = 0; name = ""; owner = -1; denotation = Unset; cell = Unset };
    stamp = -1;
  }

type exports = t STbl.t

(* [soles]: the entries this import made the only one of their names
   (see [name]); the bulk holds them, so they live as long as it does. *)
type bulk = { bulk_scopes : Scope.Set.t; provides : exports; bulk_stamp : int; soles : entry list }

(* What one anchor holds: its binders by name, newest first (a short
   association list, a table once it names more than [few_names]), and
   its bulk entries, newest first. *)
type anchored = { mutable binders : binders; mutable bulks : bulk list }
and binders = Few of int * (Symbol.t * entry list) list | Many of entry list STbl.t

type Scope.table += Anchored of anchored

let few_names = 8
let new_anchored () = { binders = Few (0, []); bulks = [] }

let find_binders (a : anchored) (sym : Symbol.t) : entry list =
  match a.binders with
  | Few (_, l) ->
      let rec go = function [] -> [] | (s, es) :: rest -> if s = sym then es else go rest in
      go l
  | Many t -> ( match STbl.find t sym with es -> es | exception Not_found -> [])

let set_binders (a : anchored) (sym : Symbol.t) (es : entry list) =
  match a.binders with
  | Few (n, l) when List.mem_assoc sym l -> a.binders <- Few (n, (sym, es) :: List.remove_assoc sym l)
  | Few (n, l) when n < few_names -> a.binders <- Few (n + 1, (sym, es) :: l)
  | Few (_, l) ->
      let t = STbl.create (4 * few_names) in
      List.iter (fun (s, es) -> STbl.replace t s es) l;
      STbl.replace t sym es;
      a.binders <- Many t
  | Many t -> STbl.replace t sym es

let copy_anchored (a : anchored) =
  { binders = (match a.binders with Few _ as f -> f | Many t -> Many (STbl.copy t)); bulks = a.bulks }

(* A name's resolution cache: scope set -> resolution, keyed by the
   set's contents, so two representatives of one set share an entry. *)
module Resolved = Hashtbl.Make (struct
  type t = Scope.Set.t

  let equal = Scope.Set.equal
  let hash = Scope.Set.hash
end)

(* What the domain knows about one name: how many entries have ever been
   able to supply it (explicit binders plus bulk entries whose provider
   exports it), the entry itself, weakly, while there has only been one,
   and the resolver cache of (scope set -> resolution) with the
   compilation it was started in ({!new_compilation}).  Every add for
   the name drops the cache, and so does a lookup two compilations
   later: a name that is only looked up, never bound again, must not
   keep the scope sets of every module it was looked up in.  Ambiguity
   (a raise) is not cached — it is the rare error path. *)
type name = {
  mutable count : int;
  sole : entry Weak.t;
  mutable cache : t option Resolved.t option;
  mutable cache_compilation : int;
}

(* Shared by every name nothing binds; never mutated. *)
let no_name = { count = 0; sole = Weak.create 1; cache = None; cache_compilation = 0 }

(* A binding's denotation and cell as another domain gave them. *)
type slots = { f_denotation : slot; f_cell : slot }

(* -- the domain-local state -------------------------------------------------

   [names]: symbol id -> [name] ([no_name] if unbound); symbol ids are
   dense, so this is an array.
   [unscoped]: the binders and bulks of the empty scope set, which has no
   scope to anchor them.
   [foreign], [foreign_slots]: what this domain added to records another
   domain created (see the header); each flag says whether its table was
   ever used, so the common case never probes it.

   The counters are plain mutable ints so the hot path never hashes a
   metric name; the pipeline reports deltas as ["expand.resolve_hits"] /
   ["expand.resolve_misses"] / ["expand.resolve_scanned"]. *)

type state = {
  mutable names : name array;
  unscoped : anchored;
  foreign : anchored Foreign_scopes.t;
  mutable has_foreign : bool;
  foreign_slots : slots Foreign_bindings.t;
  mutable has_foreign_slots : bool;
  mutable stamp : int;
  mutable compilation : int;
  mutable hits : int;
  mutable misses : int;
  mutable scanned : int;
}

(* Runs on the parent at spawn.  Overlay values are never mutated in
   place (an add replaces them), so shallow copies of those tables are
   faithful; [name] records are mutable and are copied, minus their
   caches. *)
let copy_state (st : state) =
  let copy_name n =
    if n == no_name then n
    else
      let sole = Weak.create 1 in
      Weak.blit n.sole 0 sole 0 1;
      { count = n.count; sole; cache = None; cache_compilation = 0 }
  in
  {
    names = Array.map copy_name st.names;
    unscoped = copy_anchored st.unscoped;
    foreign = Foreign_scopes.copy st.foreign;
    has_foreign = st.has_foreign;
    foreign_slots = Foreign_bindings.copy st.foreign_slots;
    has_foreign_slots = st.has_foreign_slots;
    stamp = st.stamp;
    compilation = st.compilation;
    hits = 0;
    misses = 0;
    scanned = 0;
  }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:copy_state (fun () ->
      {
        names = [||];
        unscoped = new_anchored ();
        foreign = Foreign_scopes.create 16;
        has_foreign = false;
        foreign_slots = Foreign_bindings.create 16;
        has_foreign_slots = false;
        stamp = 0;
        compilation = 0;
        hits = 0;
        misses = 0;
        scanned = 0;
      })

let[@inline] state () = Domain.DLS.get state_key

let new_compilation () =
  let st = state () in
  st.compilation <- st.compilation + 1

let resolve_hits () = (state ()).hits
let resolve_misses () = (state ()).misses
let resolve_scanned () = (state ()).scanned

let next_stamp st =
  st.stamp <- st.stamp + 1;
  st.stamp

(* -- denotations and cells ------------------------------------------------------ *)

let foreign_slots st b =
  match Foreign_bindings.find_opt st.foreign_slots b with
  | Some s -> s
  | None -> { f_denotation = Unset; f_cell = Unset }

let denotation (b : t) : slot =
  let st = state () in
  if st.has_foreign_slots then
    match (foreign_slots st b).f_denotation with Unset -> b.denotation | d -> d
  else b.denotation

let cell (b : t) : slot =
  let st = state () in
  if st.has_foreign_slots then match (foreign_slots st b).f_cell with Unset -> b.cell | c -> c
  else b.cell

let set_foreign_slots b f =
  let st = state () in
  Foreign_bindings.replace st.foreign_slots b (f (foreign_slots st b));
  st.has_foreign_slots <- true

let set_denotation (b : t) (d : slot) =
  if b.owner = Scope.this_domain () then b.denotation <- d
  else set_foreign_slots b (fun s -> { s with f_denotation = d })

let set_cell (b : t) (c : slot) =
  if b.owner = Scope.this_domain () then b.cell <- c
  else set_foreign_slots b (fun s -> { s with f_cell = c })

(* -- adding entries -------------------------------------------------------------- *)

(* The mutable record for [sym], created on first use. *)
let name_for_update st (sym : Symbol.t) : name =
  let len = Array.length st.names in
  if sym >= len then begin
    let names = Array.make (max (sym + 1) (2 * len)) no_name in
    Array.blit st.names 0 names 0 len;
    st.names <- names
  end;
  let n = st.names.(sym) in
  if n != no_name then n
  else
    let n = { count = 0; sole = Weak.create 1; cache = None; cache_compilation = 0 } in
    st.names.(sym) <- n;
    n

(* One more entry can supply [n]'s name; [e] is it if it is the first. *)
let count_entry (n : name) (e : entry) =
  n.count <- n.count + 1;
  if n.count = 1 then Weak.set n.sole 0 (Some e) else if n.count = 2 then Weak.set n.sole 0 None;
  n.cache <- None

(* Run [f] on the anchor of [scopes], where an add must go: the empty
   set's table, the largest scope's own table if this domain created that
   scope, and this domain's overlay for it otherwise. *)
let update_anchor st (scopes : Scope.Set.t) (f : anchored -> unit) =
  if Scope.Set.is_empty scopes then f st.unscoped
  else
    let sc = Scope.Set.max_elt scopes in
    if Scope.owner sc = Scope.this_domain () then
      match Scope.table sc with
      | Anchored a -> f a
      | _ ->
          let a = new_anchored () in
          Scope.set_table sc (Anchored a);
          f a
    else begin
      let a =
        match Foreign_scopes.find_opt st.foreign sc with
        | Some a -> copy_anchored a
        | None -> new_anchored ()
      in
      f a;
      Foreign_scopes.replace st.foreign sc a;
      st.has_foreign <- true
    end

(* Record that [id]'s name, with [id]'s scope set, refers to [b], as a
   definition ([rank] = [definition_rank]) or an import ([rank] = 0).  An
   entry of the same rank with the same scope set is replaced (supports
   redefinition at a REPL-like top level); one of the other rank stays, and
   the stamps decide between them. *)
let add_ranked ~rank (id : Stx.t) (b : t) =
  let st = state () in
  let sym = Stx.symbol_exn id in
  let scopes = Stx.scopes id in
  let e = { scopes; binding = b; stamp = rank + next_stamp st } in
  let n = name_for_update st sym in
  (* an equal scope set has the same anchor, so it is in this short list *)
  let same e' = Scope.Set.equal e'.scopes scopes && (e'.stamp >= definition_rank) = (rank > 0) in
  update_anchor st scopes (fun a ->
      let existing = find_binders a sym in
      if List.exists same existing then begin
        set_binders a sym (e :: List.filter (fun e' -> not (same e')) existing);
        if n.count = 1 then Weak.set n.sole 0 (Some e);
        n.cache <- None
      end
      else begin
        set_binders a sym (e :: existing);
        count_entry n e
      end)

let add id b = add_ranked ~rank:definition_rank id b
let add_import id b = add_ranked ~rank:0 id b

(** Bind [id] to a fresh binding and return it. *)
let bind (id : Stx.t) : t =
  let b = fresh (Stx.sym_exn id) in
  add id b;
  b

(* -- bulk entries ------------------------------------------------------------ *)

let exports (l : (string * t) list) : exports =
  let ix = STbl.create (List.length l) in
  List.iter (fun (name, b) -> STbl.replace ix (Symbol.intern name) b) l;
  ix

(** [add_bulk scopes ex]: every name [ex] provides refers, under [scopes],
    to its export.  One entry however many names; only the cached
    resolutions of those names are invalidated. *)
let add_bulk (scopes : Scope.Set.t) (ex : exports) =
  let st = state () in
  let stamp = next_stamp st in
  let soles = ref [] in
  STbl.iter
    (fun sym b ->
      let n = name_for_update st sym in
      if n.count = 0 then begin
        let e = { scopes; binding = b; stamp } in
        soles := e :: !soles;
        count_entry n e
      end
      else count_entry n no_entry)
    ex;
  update_anchor st scopes (fun a ->
      a.bulks <- { bulk_scopes = scopes; provides = ex; bulk_stamp = stamp; soles = !soles } :: a.bulks)

(* -- resolution -------------------------------------------------------------- *)

(* Every entry tested counts towards ["expand.resolve_scanned"]. *)
let rec matching_explicit st scopes acc = function
  | [] -> acc
  | e :: rest ->
      st.scanned <- st.scanned + 1;
      matching_explicit st scopes (if Scope.Set.subset e.scopes scopes then e :: acc else acc) rest

let rec matching_bulk st sym scopes acc = function
  | [] -> acc
  | bk :: rest ->
      st.scanned <- st.scanned + 1;
      let acc =
        if Scope.Set.subset bk.bulk_scopes scopes then
          match STbl.find bk.provides sym with
          | b -> { scopes = bk.bulk_scopes; binding = b; stamp = bk.bulk_stamp } :: acc
          | exception Not_found -> acc
        else acc
      in
      matching_bulk st sym scopes acc rest

(* The entries for [sym] in anchor [a] whose scope sets are subsets of
   [scopes], consed onto [acc]; a matching bulk entry becomes an entry of
   the binding it provides. *)
let anchored_candidates st sym scopes (a : anchored) acc =
  let acc = matching_explicit st scopes acc (find_binders a sym) in
  matching_bulk st sym scopes acc a.bulks

let candidates_at st sym scopes (sc : Scope.t) acc =
  let acc =
    match Scope.table sc with Anchored a -> anchored_candidates st sym scopes a acc | _ -> acc
  in
  if st.has_foreign then
    match Foreign_scopes.find_opt st.foreign sc with
    | Some a -> anchored_candidates st sym scopes a acc
    | None -> acc
  else acc

(* The uncached resolution: probe the empty set's anchor and each scope of
   the reference's set, take the candidate with the largest scope set (the
   largest stamp, among equal sets), and check the inclusion total order
   only when more than one candidate matched. *)
let resolve_scan st (sym : Symbol.t) (scopes : Scope.Set.t) (id : Stx.t) : t option =
  let cands =
    Scope.Set.fold
      (fun sc acc -> candidates_at st sym scopes sc acc)
      scopes
      (anchored_candidates st sym scopes st.unscoped [])
  in
  match cands with
  | [] -> None
  | [ e ] -> Some e.binding
  | e :: rest ->
      let better b e =
        let ce = Scope.Set.cardinal e.scopes and cb = Scope.Set.cardinal b.scopes in
        if ce > cb || (Scope.Set.equal e.scopes b.scopes && e.stamp > b.stamp) then e else b
      in
      let best = List.fold_left better e rest in
      if List.for_all (fun e -> Scope.Set.subset e.scopes best.scopes) cands then Some best.binding
      else raise (Ambiguous id)

(** Resolve a reference to a binding: among all bindings for the name whose
    scope set is a subset of the reference's, take the one with the largest
    scope set.  Raises {!Ambiguous} when the candidates aren't totally
    ordered by inclusion (the classic hygiene error). *)
let resolve (id : Stx.t) : t option =
  let st = state () in
  let sym = Stx.symbol_exn id in
  let n = if sym < Array.length st.names then st.names.(sym) else no_name in
  match n.count with
  | 0 -> None
  | 1 -> (
      (* Exactly one entry ever: a single subset test is cheaper than a
         cache probe, let alone an insert.  Not counted as hit or miss —
         the cache is not involved.  A collected entry was anchored on a
         scope no live syntax holds, so nothing can resolve to it. *)
      match Weak.get n.sole 0 with
      | Some e when Scope.Set.subset e.scopes (Stx.scopes id) -> Some e.binding
      | _ -> None)
  | _ -> (
      (* Two or more entries: the probe (and its ambiguity check) is worth
         caching.  Macro-introduced references carry a fresh introduction
         scope on every transformer application, so their sets never
         recur — but for multi-entry names the same references recur and
         the cache pays for itself. *)
      let scopes = Stx.scopes id in
      let cache =
        match n.cache with
        | Some c when st.compilation - n.cache_compilation < 2 -> c
        | _ ->
            let c = Resolved.create 8 in
            n.cache <- Some c;
            n.cache_compilation <- st.compilation;
            c
      in
      match Resolved.find cache scopes with
      | r ->
          st.hits <- st.hits + 1;
          r
      | exception Not_found ->
          st.misses <- st.misses + 1;
          let r = resolve_scan st sym scopes id in
          Resolved.add cache scopes r;
          r)

(** Racket's [free-identifier=?]: do two identifiers refer to the same
    binding?  Unbound identifiers compare by name. *)
let free_identifier_eq (a : Stx.t) (b : Stx.t) =
  match (resolve a, resolve b) with
  | Some ba, Some bb -> equal ba bb
  | None, None -> Symbol.equal (Stx.symbol_exn a) (Stx.symbol_exn b)
  | _ -> false

let live_entries () =
  let st = state () in
  let seen = ITbl.create 1024 in
  let count (a : anchored) =
    let explicit =
      match a.binders with
      | Few (_, l) -> List.fold_left (fun k (_, es) -> k + List.length es) 0 l
      | Many t -> STbl.fold (fun _ es k -> k + List.length es) t 0
    in
    explicit + List.length a.bulks
  in
  let total = ref (count st.unscoped) in
  Scope.Set.iter_live (fun s ->
      Scope.Set.iter
        (fun sc ->
          if not (ITbl.mem seen (Scope.id sc)) then begin
            ITbl.add seen (Scope.id sc) ();
            match Scope.table sc with Anchored a -> total := !total + count a | _ -> ()
          end)
        s);
  !total
