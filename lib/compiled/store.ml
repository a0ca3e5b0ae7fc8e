(** The content-addressed on-disk artifact store ([.liblang-cache/] by
    default, or any [--cache-dir]).

    Layout: one file per module key, [<dir>/<md5hex(key)>.lart], where the
    key is the module's canonical absolute path.  The {e identity} of an
    artifact is the digest its integrity trailer records, of everything
    before the trailer; dependents record that digest, so any change to a
    module's compiled form — directly via its source, or transitively via
    one of its requires — changes the digests up the whole require chain
    and invalidates exactly the dependents (docs/compilation.md has the
    invalidation table).  An artifact is hashed once when it is written
    and once when it is read, to verify its trailer.

    Observability: every consultation bumps one of [cache.hits],
    [cache.misses] (no artifact) or [cache.stale] (artifact unusable, with
    the reason as a [-v] trace note), and reads/writes run inside
    [artifact-read]/[artifact-write] trace spans.  Any unusable artifact —
    corrupt, truncated, version-skewed, stale — degrades to a recompile;
    it is never an error. *)

module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Parallel = Liblang_parallel.Parallel
module Fault = Liblang_fault.Fault

let default_dir = ".liblang-cache"

type t = {
  dir : string;
  digests : (string, string) Hashtbl.t;
      (** module key -> digest of its current (validated or just-written)
          artifact, memoized for this session; dependents consult this to
          record / check transitive digests *)
  mu : Mutex.t;
      (** guards [digests] and [key_locks] while a domain pool is active
          (gated — single-domain runs skip it entirely) *)
  key_locks : (string, Mutex.t) Hashtbl.t;
      (** per-module-key advisory locks, created on demand: parallel-build
          workers racing to acquire the same uncompiled module serialize on
          the key, so the loser sees the winner's fresh artifact (one
          write + one cache hit) instead of compiling it a second time *)
  corrupt_reads : (string, int) Hashtbl.t;
      (** module key -> consecutive corrupt reads this session (guarded by
          [mu]); at {!quarantine_threshold} the artifact is renamed to
          [.bad] instead of being re-read forever (docs/robustness.md) *)
}

let contains_sub ~(sub : string) (s : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

(* Remove temp files stranded by previously killed processes (a crash
   between the temp write and the rename leaves [<name>.lart.tmp.<pid>.<dom>]
   behind forever).  Everything present when the store is {e opened}
   predates this process's own writes, so sweeping unconditionally is
   safe for ourselves; a racing sibling process can lose at most one
   in-flight temp file, which costs it one artifact write — a failure
   mode the write path already tolerates (and the next cold read heals). *)
let sweep_tmp (dir : string) : unit =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun name ->
          if contains_sub ~sub:".lart.tmp." name then begin
            match Sys.remove (Filename.concat dir name) with
            | () ->
                Metrics.count "cache.tmp_swept";
                Trace.event "cache-tmp-swept" [ ("file", name) ]
            | exception Sys_error _ -> ()
          end)
        entries

(** Open (creating if needed) a store rooted at [dir]; sweeps temp files
    stranded by crashed predecessors. *)
let create ?(dir = default_dir) () : t =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with Unix.Unix_error _ -> ());
  sweep_tmp dir;
  {
    dir;
    digests = Hashtbl.create 16;
    mu = Mutex.create ();
    key_locks = Hashtbl.create 16;
    corrupt_reads = Hashtbl.create 4;
  }

(* [digests] is read and written by every domain that consults the store;
   all accesses below go through this gate. *)
let[@inline] locked (s : t) f = Parallel.with_gate s.mu f

(** Run [f] holding [key]'s advisory lock (a no-op outside parallel
    builds).  Lock acquisition follows require edges, which are acyclic
    (the cycle check raises first), so nested holds cannot deadlock.
    Contention is surfaced as the [cache.lock_waits] metric. *)
let with_key_lock (s : t) (key : string) (f : unit -> 'a) : 'a =
  Fault.check "store.lock";
  if not (Parallel.active ()) then f ()
  else begin
    let m =
      Parallel.with_lock s.mu (fun () ->
          match Hashtbl.find_opt s.key_locks key with
          | Some m -> m
          | None ->
              let m = Mutex.create () in
              Hashtbl.add s.key_locks key m;
              m)
    in
    if not (Mutex.try_lock m) then begin
      Metrics.count "cache.lock_waits";
      Atomic.incr Parallel.lock_waits;
      Mutex.lock m
    end;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  end

let artifact_path (s : t) (key : string) : string =
  Filename.concat s.dir (Digest_util.key_file key ^ ".lart")

(* The digest the trailer of the file at [path] records, read from the
   file's last bytes; [None] when it cannot be read or has no trailer. *)
let trailer_of_file (path : string) : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let k = Artifact.trailer_length + 1 in
      match
        let n = in_channel_length ic in
        if n < k then ""
        else begin
          seek_in ic (n - k);
          really_input_string ic k
        end
      with
      | tail -> Artifact.trailer_digest tail
      | exception (Sys_error _ | End_of_file) -> None)

(** The identity of [key]'s artifact: memoized from a read or a write
    this session, else the digest its trailer records on disk (a
    dependent may consult a store instance that never itself read
    [key]'s artifact — the module having been satisfied from the
    resolver's session memo).  [None] if the module has no artifact, or
    one with no trailer. *)
let current_digest (s : t) (key : string) : string option =
  match locked s (fun () -> Hashtbl.find_opt s.digests key) with
  | Some d -> Some d
  | None -> (
      match trailer_of_file (artifact_path s key) with
      | Some d ->
          locked s (fun () -> Hashtbl.replace s.digests key d);
          Some d
      | None -> None)

let forget_digest (s : t) (key : string) =
  locked s (fun () -> Hashtbl.remove s.digests key)

(* -- the ambient store ------------------------------------------------------ *)

(** The store consulted by the file resolver; [None] disables caching
    (every file module is compiled from source).  The slot is domain-local
    but split with {e identity}: a worker spawned while a store is active
    shares that very store instance — that sharing (plus the gated mutex
    above) is what makes the artifact store the inter-domain communication
    channel of a parallel build. *)
let active_key : t option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:(fun v -> v) (fun () -> None)

let[@inline] active () : t option = Domain.DLS.get active_key

let with_store (s : t option) (f : unit -> 'a) : 'a =
  let saved = active () in
  Domain.DLS.set active_key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set active_key saved) f

(* -- reading ----------------------------------------------------------------- *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* After this many corrupt reads of one key, stop re-reading the bytes
   forever: rename them aside as a [.bad] post-mortem.  Two, not one —
   a single corrupt read may race an in-flight write from a sibling
   process; persistent corruption is what quarantine is for. *)
let quarantine_threshold = 2

(* Record a corrupt read of [key]; at the threshold, quarantine the file
   (rename to [.bad]) so subsequent reads see [Missing] and the recompile
   path heals the store, while the damaged bytes survive for post-mortem.
   Returns [reason] so call sites stay one-liners. *)
let note_corrupt (s : t) ~(key : string) ~(path : string)
    (reason : Artifact.invalid) : Artifact.invalid =
  let n =
    locked s (fun () ->
        let n =
          (match Hashtbl.find_opt s.corrupt_reads key with Some n -> n | None -> 0) + 1
        in
        Hashtbl.replace s.corrupt_reads key n;
        n)
  in
  if n >= quarantine_threshold then begin
    match Sys.rename path (path ^ ".bad") with
    | () ->
        locked s (fun () ->
            Hashtbl.remove s.digests key;
            Hashtbl.remove s.corrupt_reads key);
        Metrics.count "cache.quarantined";
        Trace.event "cache-quarantined"
          [ ("module", key); ("file", Filename.basename path ^ ".bad") ]
    | exception Sys_error _ -> ()
  end;
  reason

(** Read [key]'s artifact as far as its header, verifying its integrity
    trailer over the whole text first (a torn or bit-flipped artifact is
    caught before — or instead of — parsing).  An artifact recorded for
    other source text than [source_digest] is [Stale_source]
    ({!Artifact.read_header}); its requires are the resolver's to check
    (it owns recursive require resolution) before it reads the body with
    {!read_body}.  Repeatedly corrupt artifacts are quarantined (see
    {!note_corrupt}). *)
let read_header (s : t) ~(key : string) ~(source_digest : string) :
    (Artifact.header, Artifact.invalid) result =
  Fault.check_deadline ();
  let path = artifact_path s key in
  if not (Sys.file_exists path) then Error Artifact.Missing
  else
    Trace.span "artifact-read" ~detail:key @@ fun () ->
    match Fault.check "store.read" with
    | exception Fault.Injected _ -> Error (Artifact.Unreadable "injected I/O fault")
    | () -> (
        match slurp path with
        | exception Sys_error m -> Error (Artifact.Unreadable m)
        | text -> (
            match Artifact.verify_integrity text with
            | Ok () -> (
                match Artifact.read_header ~source_digest text with
                | Error (Artifact.Corrupt _ as r) -> Error (note_corrupt s ~key ~path r)
                | r -> r)
            | Error integrity_reason -> (
                (* distinguish old-format artifacts (which predate the
                   trailer) from damage: version skew must never surface
                   as corrupt, and must not feed quarantine *)
                match Artifact.read_header text with
                | Error (Artifact.Version_skew _ as r) -> Error r
                | _ -> Error (note_corrupt s ~key ~path integrity_reason))))

(** Read the body of [h], [key]'s artifact as {!read_header} left it: the
    forms read at load ({!Artifact.read_body}).  On success also memoizes
    the artifact's identity, its trailer's digest. *)
let read_body (s : t) ~(key : string) (h : Artifact.header) : (Artifact.t, Artifact.invalid) result =
  Trace.span "artifact-read" ~detail:key @@ fun () ->
  match Artifact.read_body h with
  | Error (Artifact.Corrupt _ as r) -> Error (note_corrupt s ~key ~path:(artifact_path s key) r)
  | Error reason -> Error reason
  | Ok a ->
      locked s (fun () ->
          Hashtbl.replace s.digests key a.Artifact.digest;
          Hashtbl.remove s.corrupt_reads key);
      Ok a

(* -- writing ----------------------------------------------------------------- *)

(** Persist [a]'s text under its module key (atomically: write to a
    temp file in the cache dir, then rename).  Memoizes its identity
    digest so dependents compiled later in this session record it.  A
    failed write is reported as a [-v] trace note and otherwise ignored —
    a read-only cache dir must never break compilation.

    Fault sites: [store.write] (mode [torn@k] persists only the first [k]
    bytes — the torn artifact lands at the {e final} path, as after a
    crash between write and fsync) and [store.rename] (an injected error
    strands the temp file exactly as a kill would; the next
    {!create}'s sweep collects it). *)
let write (s : t) (a : Artifact.t) : unit =
  Trace.span "artifact-write" ~detail:a.Artifact.mod_name @@ fun () ->
  Fault.check_deadline ();
  let path = artifact_path s a.Artifact.mod_name in
  (* the temp name carries pid {e and} domain id: two domains of one
     process racing on a key must not share a temp file *)
  let tmp =
    path ^ ".tmp." ^ string_of_int (Unix.getpid ()) ^ "."
    ^ string_of_int (Domain.self () :> int)
  in
  match
    let full = Artifact.to_string a in
    let cut = Fault.torn_write "store.write" in
    let text =
      match cut with
      | Some k when k < String.length full -> String.sub full 0 k
      | _ -> full
    in
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
    Fault.check "store.rename";
    Sys.rename tmp path;
    cut
  with
  | None ->
      locked s (fun () ->
          Hashtbl.replace s.digests a.Artifact.mod_name a.Artifact.digest;
          Hashtbl.remove s.corrupt_reads a.Artifact.mod_name);
      Metrics.count "cache.writes"
  | Some _ ->
      (* a torn artifact landed at the final path: nobody may trust a
         memoized digest for it, and it must not count as a clean write *)
      forget_digest s a.Artifact.mod_name;
      Trace.event "cache-write-torn" [ ("module", a.Artifact.mod_name) ]
  | exception Sys_error m ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Trace.event "cache-write-failed" [ ("module", a.Artifact.mod_name); ("error", m) ]
  | exception Fault.Injected (site, _) ->
      (* an injected failure at/before the rename: leave the temp file
         stranded, exactly as a crash would — the next store open sweeps
         it, and this session proceeds uncached for this module *)
      Trace.event "cache-write-failed"
        [ ("module", a.Artifact.mod_name); ("error", "injected fault at " ^ site) ]

(* -- counters ----------------------------------------------------------------- *)

let count_hit () = Metrics.count "cache.hits"
let count_miss () = Metrics.count "cache.misses"

let count_stale key (reason : Artifact.invalid) =
  Metrics.count "cache.stale";
  Trace.event "cache-stale"
    [ ("module", key); ("reason", Artifact.invalid_to_string reason) ]
