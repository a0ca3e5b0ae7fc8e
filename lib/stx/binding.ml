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

    - binders are indexed by (symbol id, {e anchor}), the anchor being the
      largest scope in the binder's set.  A binder can only match a
      reference whose set contains its anchor, so resolution probes the
      anchors of the reference's own set — usually one or two — however
      many modules the process has compiled;
    - a [require] or a module's language records one {e bulk} entry (the
      context's scope set plus the provider's export index) instead of one
      binder per exported name;
    - resolution is {e memoized} per (symbol id, scope-set id) — scope sets
      are hash-consed, so the pair is two ints.  Adding a binder drops the
      cached results of its name; a bulk add drops those of every name the
      provider exports;
    - a name with exactly one binder skips the cache: one subset test is
      cheaper than a probe.

    Domain story: the tables, the resolver cache and the counters are
    {e domain-local} ([Domain.DLS]), seeded at domain spawn with a copy of
    the parent's tables.  This is deliberate — [resolve] is far too hot to
    put behind a shared mutex, and the separate-compilation model (paper
    §5) already makes worker domains pure artifact producers whose
    binding-table growth never needs to be seen by other domains:
    artifacts serialize names and datums, never uids or scope ids, and the
    main domain re-acquires modules by replaying artifacts into its own
    tables.  Binding {e uids} stay globally fresh (an atomic counter) so a
    record that does travel — e.g. a builtin binding present in every
    domain's seeded copy — means the same thing everywhere.  Export
    indexes are immutable once built, so domains share them. *)

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

(* Set ids and scopes are handed out in sequence, so they hash as
   themselves. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

module KTbl = Hashtbl.Make (struct
  type t = Symbol.t * int

  let equal ((s, a) : t) ((s', a') : t) = s = s' && a = a'
  let hash ((s, a) : t) = (s * 0x9E3779B1) + a
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

type exports = t STbl.t

type bulk = { bulk_scopes : Scope.Set.t; provides : exports; bulk_stamp : int }

(* What the table knows about one name: how many entries can supply it
   (explicit binders plus bulk entries whose provider exports it), the
   entry itself while there is only one, and the resolver cache of
   (scope-set id -> resolution).  Ambiguity (a raise) is not cached — it
   is the rare error path. *)
type name = {
  mutable count : int;
  mutable sole : entry;
  mutable cache : t option ITbl.t option;
}

let no_entry = { scopes = Scope.Set.empty; binding = { uid = 0; name = "" }; stamp = -1 }

(* Shared by every name nothing binds; never mutated. *)
let no_name = { count = 0; sole = no_entry; cache = None }

(* The anchor of the empty set: scopes are numbered from 1. *)
let empty_anchor = 0

let anchor (s : Scope.Set.t) = if Scope.Set.is_empty s then empty_anchor else Scope.Set.max_elt s

(* -- the domain-local state -------------------------------------------------

   [names]: symbol id -> [name] ([no_name] if unbound); symbol ids are
   dense, so this is an array.
   [explicit]: (symbol id, anchor) -> binders, newest first.
   [bulks]: anchor -> bulk entries, newest first.

   The counters are plain mutable ints so the hot path never hashes a
   metric name; the pipeline reports deltas as ["expand.resolve_hits"] /
   ["expand.resolve_misses"] / ["expand.resolve_scanned"]. *)

type state = {
  mutable names : name array;
  explicit : entry list KTbl.t;
  bulks : bulk list ITbl.t;
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable scanned : int;
}

(* Entry lists are immutable (an add replaces the whole list), so shallow
   table copies are faithful; [name] records are mutable and are copied,
   minus their caches. *)
let copy_state (st : state) =
  {
    names = Array.map (fun n -> if n == no_name then n else { n with cache = None }) st.names;
    explicit = KTbl.copy st.explicit;
    bulks = ITbl.copy st.bulks;
    stamp = st.stamp;
    hits = 0;
    misses = 0;
    scanned = 0;
  }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:copy_state (fun () ->
      {
        names = [||];
        explicit = KTbl.create 1024;
        bulks = ITbl.create 256;
        stamp = 0;
        hits = 0;
        misses = 0;
        scanned = 0;
      })

let[@inline] state () = Domain.DLS.get state_key

let resolve_hits () = (state ()).hits
let resolve_misses () = (state ()).misses
let resolve_scanned () = (state ()).scanned

let next_stamp st =
  st.stamp <- st.stamp + 1;
  st.stamp

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
    let n = { count = 0; sole = no_entry; cache = None } in
    st.names.(sym) <- n;
    n

(* One more entry can supply [n]'s name. *)
let count_entry (n : name) (e : entry) =
  n.count <- n.count + 1;
  if n.count = 1 then n.sole <- e;
  n.cache <- None

(* Record that [id]'s name, with [id]'s scope set, refers to [b], as a
   definition ([rank] = [definition_rank]) or an import ([rank] = 0).  An
   entry of the same rank with the same scope set is replaced (supports
   redefinition at a REPL-like top level); one of the other rank stays, and
   the stamps decide between them. *)
let add_ranked ~rank (id : Stx.t) (b : t) =
  let st = state () in
  let sym = Stx.symbol_exn id in
  let scopes = Stx.scopes id in
  let key = (sym, anchor scopes) in
  let e = { scopes; binding = b; stamp = rank + next_stamp st } in
  let existing = Option.value (KTbl.find_opt st.explicit key) ~default:[] in
  let n = name_for_update st sym in
  (* an equal scope set has the same anchor, so it is in this short list *)
  let same e' = Scope.Set.equal e'.scopes scopes && (e'.stamp >= definition_rank) = (rank > 0) in
  if List.exists same existing then begin
    KTbl.replace st.explicit key (e :: List.filter (fun e' -> not (same e')) existing);
    if n.count = 1 then n.sole <- e;
    n.cache <- None
  end
  else begin
    KTbl.replace st.explicit key (e :: existing);
    count_entry n e
  end

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
    resolutions of those names are dropped. *)
let add_bulk (scopes : Scope.Set.t) (ex : exports) =
  let st = state () in
  let a = anchor scopes in
  let stamp = next_stamp st in
  let existing = Option.value (ITbl.find_opt st.bulks a) ~default:[] in
  ITbl.replace st.bulks a ({ bulk_scopes = scopes; provides = ex; bulk_stamp = stamp } :: existing);
  STbl.iter
    (fun sym b ->
      let n = name_for_update st sym in
      count_entry n (if n.count = 0 then { scopes; binding = b; stamp } else no_entry))
    ex

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

(* The entries for [sym] stored under anchor [a] whose scope sets are
   subsets of [scopes], consed onto [acc]; a matching bulk entry becomes an
   entry of the binding it provides. *)
let candidates_at st sym scopes (a : int) acc =
  let acc =
    match KTbl.find st.explicit (sym, a) with
    | es -> matching_explicit st scopes acc es
    | exception Not_found -> acc
  in
  match ITbl.find st.bulks a with
  | bulks -> matching_bulk st sym scopes acc bulks
  | exception Not_found -> acc

(* The uncached resolution: probe the empty set's anchor and each scope of
   the reference's set, take the candidate with the largest scope set (the
   largest stamp, among equal sets), and check the inclusion total order
   only when more than one candidate matched. *)
let resolve_scan st (sym : Symbol.t) (scopes : Scope.Set.t) (id : Stx.t) : t option =
  let cands =
    Scope.Set.fold
      (fun a acc -> candidates_at st sym scopes a acc)
      scopes
      (candidates_at st sym scopes empty_anchor [])
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
  | 1 ->
      (* Exactly one binder: a single subset test is cheaper than a cache
         probe, let alone an insert.  Not counted as hit or miss — the
         cache is not involved. *)
      if Scope.Set.subset n.sole.scopes (Stx.scopes id) then Some n.sole.binding else None
  | _ -> (
      (* Two or more candidate binders: the probe (and its ambiguity
         check) is worth caching.  Macro-introduced references carry a
         fresh introduction scope on every transformer application, so
         their set ids never recur — but for multi-binder names the same
         references recur and the cache pays for itself. *)
      let scopes = Stx.scopes id in
      let cache =
        match n.cache with
        | Some c -> c
        | None ->
            let c = ITbl.create 8 in
            n.cache <- Some c;
            c
      in
      let key = Scope.Set.id scopes in
      match ITbl.find cache key with
      | r ->
          st.hits <- st.hits + 1;
          r
      | exception Not_found ->
          st.misses <- st.misses + 1;
          let r = resolve_scan st sym scopes id in
          ITbl.add cache key r;
          r)

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
  st.names <- [||];
  KTbl.reset st.explicit;
  ITbl.reset st.bulks
