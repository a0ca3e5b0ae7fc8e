(** Interned symbols: the expansion front end's identifier currency.

    Every identifier name is interned once into a global table and
    represented as a dense integer id from then on, so symbol equality and
    hashing are O(1) int operations instead of string traversals.  The
    reader interns at token creation (sharing one canonical string per
    distinct name), {!Liblang_stx.Stx} stores ids in syntax objects, and
    {!Liblang_stx.Binding} keys its binding table and resolver cache by id.

    Ids are process-local and never serialized: compiled artifacts
    (lib/compiled) flatten syntax back to datums, whose symbols are plain
    strings, so on-disk formats are stable across sessions while in-memory
    comparisons stay O(1).

    The table only grows (symbols are never forgotten); that is the usual
    compiler trade-off — the set of distinct identifier names in a workload
    is small and bounded by the source text.

    Domain safety: interning is shared across domains (one id per name,
    process-wide), guarded by a mutex gated on {!Liblang_parallel.Parallel}
    — a plain call single-domain, a lock only while a domain pool runs.
    {!name} is lock-free in all modes: [count] is an atomic published with
    release semantics {e after} the slot (and, on growth, the fresh array)
    is in place, so any id a domain can legitimately hold reads its string
    without synchronization. *)

module Parallel = Liblang_parallel.Parallel

type t = int

(* string -> id; reads and writes both go under [mu] while a pool is
   active (OCaml's Hashtbl is not safe against concurrent resize). *)
let table : (string, int) Hashtbl.t = Hashtbl.create 4096
let mu = Mutex.create ()

(* id -> canonical string, growable.  Publication order (enforced by the
   atomics' SC semantics): grown array installed, slot filled, then count
   bumped — so a reader that observes [i < count] observes slot [i]. *)
let names : string array Atomic.t = Atomic.make (Array.make 1024 "")
let count = Atomic.make 0

let name (i : t) : string =
  if i < 0 || i >= Atomic.get count then
    invalid_arg "Symbol.name: not an interned symbol id";
  (Atomic.get names).(i)

let intern_locked (s : string) : t =
  match Hashtbl.find table s with
  | i -> i
  | exception Not_found ->
      let i = Atomic.get count in
      let arr = Atomic.get names in
      let arr =
        if i = Array.length arr then begin
          let bigger = Array.make (2 * i) "" in
          Array.blit arr 0 bigger 0 i;
          Atomic.set names bigger;
          bigger
        end
        else arr
      in
      arr.(i) <- s;
      Hashtbl.add table s i;
      Atomic.set count (i + 1);
      i

(* [with_gate] spelled out, so the common no-pool call allocates no closure *)
let intern (s : string) : t =
  if Parallel.active () then Parallel.with_lock mu (fun () -> intern_locked s)
  else intern_locked s

(** Intern [s] and return its canonical string, so equal names share one
    allocation (the reader calls this on every symbol token). *)
let canon (s : string) : string = name (intern s)

let equal : t -> t -> bool = Int.equal
let compare : t -> t -> int = Int.compare
let hash (i : t) : int = i
let to_string = name

(** Number of distinct symbols interned so far (diagnostics/metrics). *)
let interned_count () = Atomic.get count
