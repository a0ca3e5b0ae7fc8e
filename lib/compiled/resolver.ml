(** The file-based module resolver: [(require "path.scm")] loads, compiles
    and registers modules from disk.

    Canonicalization: a required path is resolved relative to the
    {e requiring} file's directory (or the process working directory at
    the top level) and normalized to an absolute path — the module's
    {e key}, under which it is registered, recorded in dependents'
    [requires] lists, and addressed in the artifact store.

    Cycle detection reuses the module system's require-cycle machinery:
    every in-progress file load pushes its key onto
    [Modsys.compiling_stack], so [a.scm -> b.scm -> a.scm] surfaces as the
    same "cyclic require" diagnostic (with the full path chain) as
    registry-module cycles.

    With a {!Store} active, each file consults its artifact first:
    requires recorded in the artifact are resolved (recursively) {e before}
    the artifact is trusted, and their current artifact digests must match
    the recorded ones — that is the transitive-invalidation check.  Any
    unusable artifact degrades to a compile from source, after which a
    fresh artifact is written. *)

module Modsys = Liblang_modules.Modsys
module Stx = Liblang_stx.Stx
module Srcloc = Liblang_reader.Srcloc
module Sources = Liblang_diagnostics.Sources
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

(* -- path canonicalization --------------------------------------------------- *)

(* Directory of the file currently being loaded (innermost first); the
   base for resolving relative require paths.  Domain-local: each
   parallel-build worker resolves relative to its own load nest (workers
   are handed absolute keys, so an empty initial stack is correct). *)
let dir_stack_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let[@inline] dir_stack () = Domain.DLS.get dir_stack_key

let base_dir () = match !(dir_stack ()) with d :: _ -> d | [] -> Sys.getcwd ()

let with_dir d f =
  let dir_stack = dir_stack () in
  dir_stack := d :: !dir_stack;
  Fun.protect ~finally:(fun () -> dir_stack := List.tl !dir_stack) f

(** Lexically normalize [path] to an absolute path (collapse [.] and
    [..]; no symlink resolution, so the same text always yields the same
    key). *)
let normalize (path : string) : string =
  let path =
    if Filename.is_relative path then Filename.concat (base_dir ()) path else path
  in
  let parts = String.split_on_char '/' path in
  let rec go acc = function
    | [] -> List.rev acc
    | "" :: rest | "." :: rest -> go acc rest
    | ".." :: rest -> go (match acc with _ :: tl -> tl | [] -> []) rest
    | p :: rest -> go (p :: acc) rest
  in
  "/" ^ String.concat "/" (go [] parts)

(** Canonicalize [path] to the one true module key: lexical normalization
    first (so the result is deterministic for nonexistent files), then
    symlink resolution via [realpath] when the file — or at least its
    directory — exists.  Every consumer of module identity must go
    through here: [Build.scan_file]'s textual require scan, the server's
    mtime/digest invalidation, and the resolver itself all agree on keys
    only because they share this helper — a [./]-prefixed or symlinked
    spelling of the same file must never yield a second cache key. *)
let canonicalize (path : string) : string =
  let lex = normalize path in
  match Unix.realpath lex with
  | p -> p
  | exception Unix.Unix_error _ -> (
      (* file not (yet) on disk: canonicalize the directory so a later
         require of the created file lands on the same key *)
      match Unix.realpath (Filename.dirname lex) with
      | d -> Filename.concat d (Filename.basename lex)
      | exception Unix.Unix_error _ -> lex)

(** The canonical module key for a require of [path] from the current
    load context. *)
let module_key (path : string) : string = canonicalize path

(* -- session state ------------------------------------------------------------ *)

(* key -> (source digest, module): file modules already acquired this
   session.  A re-require only reuses the entry while the source is
   unchanged on disk and the module is still registered (tests reset the
   registry); otherwise the file is re-acquired and re-registered.

   Domain-local with a {e fresh} (empty) table in spawned workers — not a
   copy: a copied entry would hand the worker the parent's live module
   record, whose mutable visit/instantiate marks must stay per-domain
   (the worker's registry holds clones).  Workers re-acquire what they
   need from the artifact store, which is warm by construction. *)
let loaded_key : (string, string * Modsys.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let[@inline] loaded () = Domain.DLS.get loaded_key

(* key -> (mtime, size, source digest): the stat fast path.  When a file's
   (mtime, size) pair is unchanged since the digest was last computed, the
   digest is trusted without re-reading the bytes — this is what makes a
   warm compile-server request O(stat) per module.  Same caveat as make:
   a same-second, same-size rewrite is invisible (ext4 nanosecond mtimes
   make that window vanishingly small).  Domain-local and fresh in
   workers, like [loaded]. *)
let stat_memo_key : (string, float * int * string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let[@inline] stat_memo () = Domain.DLS.get stat_memo_key

(** Run [f] with the given session tables installed as this domain's
    [loaded] / stat-memo state (restored after).  The compile-server's
    session layer swaps a per-connection pair in around each request, so
    concurrent sessions never share acquisition memos; see
    [Liblang_server.Session]. *)
let with_session_tables ~(loaded : (string, string * Modsys.t) Hashtbl.t)
    ~(stats : (string, float * int * string) Hashtbl.t) (f : unit -> 'a) : 'a =
  let saved_l = Domain.DLS.get loaded_key and saved_s = Domain.DLS.get stat_memo_key in
  Domain.DLS.set loaded_key loaded;
  Domain.DLS.set stat_memo_key stats;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set loaded_key saved_l;
      Domain.DLS.set stat_memo_key saved_s)
    f

(* key -> source digest for files the resolver is compiling right now;
   the Modsys compiled_hook persists artifacts only for these
   (inline/test modules are not files and are never cached).
   Domain-local: tracks the calling domain's in-progress compiles. *)
let cacheable_key : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let[@inline] cacheable () = Domain.DLS.get cacheable_key

(** Forget all session state (loaded files and registered user modules) —
    the test/bench hook for simulating a fresh process, so a warm run
    actually exercises the artifact store. *)
let reset_session () =
  Hashtbl.reset (loaded ());
  Hashtbl.reset (stat_memo ());
  Modsys.reset_user_modules_for_tests ()

(* -- compiling and loading ----------------------------------------------------- *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The source text of the file module [key]; a file that cannot be read
    is a module error at [loc] (the require that named it). *)
let read_key ?(loc = Srcloc.none) (key : string) : string =
  match slurp key with
  | s -> s
  | exception Sys_error m ->
      Metrics.count "module.file_require_errors";
      Modsys.err_at loc "require: cannot read module file %s: %s" key m

let compile_from_source ~key ~source : Modsys.t =
  Sources.register ~file:key source;
  let cacheable = cacheable () in
  Hashtbl.replace cacheable key (Digest_util.of_string source);
  Fun.protect
    ~finally:(fun () -> Hashtbl.remove cacheable key)
    (fun () -> Modsys.declare ~name:key source)

(** Resolve, validate (recursively) and load [key]'s artifact; [None]
    (with the cache counters bumped) when the file must be compiled from
    source instead. *)
let rec try_artifact (store : Store.t) ~key ~source_digest : Modsys.t option =
  let stale reason =
    Store.forget_digest store key;
    Store.count_stale key reason;
    None
  in
  (* a changed source or require is rejected from the header, before
     the body parses *)
  match Store.read_header store ~key ~source_digest with
  | Error Artifact.Missing ->
      Store.count_miss ();
      None
  | Error reason -> stale reason
  | Ok header -> (
      (* transitive invalidation: every required file module must
         re-resolve to an artifact whose digest matches the recorded
         one; required builtins must (still) exist *)
      let check_require = function
        | Artifact.Builtin n ->
            if Modsys.is_declared n && (Modsys.find n).Modsys.builtin then None
            else Some (Artifact.Stale_require n)
        | Artifact.File (rkey, rdigest) -> (
            match require_key rkey with
            | _m -> (
                match Store.current_digest store rkey with
                | Some d when String.equal d rdigest -> None
                | _ -> Some (Artifact.Stale_require rkey))
            | exception Modsys.Module_error _ ->
                (* e.g. a require recorded in a corrupt artifact that now
                   cycles or points at a missing file: treat as stale and
                   recompile this module from source, which will surface
                   the real diagnostic (or succeed, if the artifact lied) *)
                Some (Artifact.Stale_require rkey))
      in
      match List.find_map check_require header.Artifact.art.Artifact.requires with
      | Some reason -> stale reason
      | None -> (
          match Store.read_body store ~key header with
          | Error reason -> stale reason
          | Ok a -> (
              (* the artifact is valid; if rebuilding a live module from
                 it still fails (e.g. a link target vanished because its
                 module was recompiled by a cache-less session), degrade
                 to a recompile — an unusable artifact is never an error *)
              match Loader.load a with
              | m ->
                  Store.count_hit ();
                  Some m
              | exception e -> stale (Artifact.Load_failed (Printexc.to_string e)))))

(** Acquire the file module for [key] (an absolute, normalized path):
    reuse it if already acquired and unchanged, else load it from a valid
    artifact, else compile it from source. *)
and require_key ?(loc = Srcloc.none) (key : string) : Modsys.t =
  (* cooperative deadline checkpoint: every module acquisition passes
     through here, bounding how far a task can run past its budget *)
  Liblang_fault.Fault.check_deadline ();
  Modsys.check_cycle ~loc key;
  let loaded = loaded () in
  let stat_memo = stat_memo () in
  let st = match Unix.stat key with s -> Some s | exception Unix.Unix_error _ -> None in
  (* stat fast path: (mtime, size) unchanged since this session digested
     the file, and the module is still loaded+registered — return it
     without reading a byte.  The warm-server steady state. *)
  let stat_hit =
    match (st, Hashtbl.find_opt stat_memo key) with
    | Some st, Some (mt, sz, d) when Float.equal st.Unix.st_mtime mt && st.Unix.st_size = sz
      -> (
        match Hashtbl.find_opt loaded key with
        | Some (d', m) when String.equal d' d && Modsys.is_declared key -> Some m
        | _ -> None)
    | _ -> None
  in
  match stat_hit with
  | Some m ->
      Metrics.count "module.stat_hits";
      m
  | None -> (
  let source = read_key ~loc key in
  let source_digest = Digest_util.of_string source in
  (match st with
  | Some st -> Hashtbl.replace stat_memo key (st.Unix.st_mtime, st.Unix.st_size, source_digest)
  | None -> ());
  match Hashtbl.find_opt loaded key with
  | Some (d, m) when String.equal d source_digest && Modsys.is_declared key -> m
  | _ ->
      Modsys.with_compiling key @@ fun () ->
      with_dir (Filename.dirname key) @@ fun () ->
      let m =
        match Store.active () with
        | None -> compile_from_source ~key ~source
        | Some store ->
            (* Per-key advisory lock: parallel workers racing on an
               uncompiled module serialize here, so the loser re-reads the
               winner's fresh artifact (one write + one cache hit for the
               whole pool).  No-op outside parallel builds. *)
            Store.with_key_lock store key @@ fun () -> (
            match try_artifact store ~key ~source_digest with
            | Some m -> m
            | None -> compile_from_source ~key ~source)
      in
      Hashtbl.replace loaded key (source_digest, m);
      m)

(** The [Modsys.file_require_handler]: resolve a [(require "path")] spec
    against the requiring file's directory. *)
let require_path ~(path : string) ~(loc : Srcloc.t) : Modsys.t =
  require_key ~loc (module_key path)

(* -- incremental invalidation (compile server) --------------------------------- *)

(** Drop from the session every loaded module whose source changed on disk
    (or vanished) — and, transitively, every loaded dependent: the dirty
    cone of the edit.  Dropped modules are forgotten from the module
    registry too, so the next acquisition re-resolves them — dependents
    whose own sources are unchanged typically replay from freshly written
    artifacts rather than recompiling.  Unchanged modules keep their
    loaded records, registry entries and stat memos: this is what makes a
    server edit-recompile touch only the cone.  Returns the number of
    modules dropped.  The compile server calls this at the top of every
    [compile]/[run]/[expand] request (see docs/server.md). *)
let invalidate_changed () : int =
  let loaded = loaded () in
  let stat_memo = stat_memo () in
  let changed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key (d, _m) ->
      let current =
        match Unix.stat key with
        | exception Unix.Unix_error _ -> None
        | st -> (
            match Hashtbl.find_opt stat_memo key with
            | Some (mt, sz, d')
              when Float.equal st.Unix.st_mtime mt && st.Unix.st_size = sz ->
                Some d'
            | _ -> (
                match slurp key with
                | s ->
                    let d' = Digest_util.of_string s in
                    Hashtbl.replace stat_memo key (st.Unix.st_mtime, st.Unix.st_size, d');
                    Some d'
                | exception Sys_error _ -> None))
      in
      match current with
      | Some d' when String.equal d' d -> ()
      | _ -> Hashtbl.replace changed key ())
    loaded;
  (* close over dependents: a loaded module requiring anything in the
     changed set is itself dirty (fixpoint; graphs are small) *)
  let grew = ref true in
  while !grew do
    grew := false;
    Hashtbl.iter
      (fun key (_d, m) ->
        if
          (not (Hashtbl.mem changed key))
          && List.exists (Hashtbl.mem changed) m.Modsys.requires
        then begin
          Hashtbl.replace changed key ();
          grew := true
        end)
      loaded
  done;
  Hashtbl.iter
    (fun key () ->
      Hashtbl.remove loaded key;
      Hashtbl.remove stat_memo key;
      Modsys.forget key)
    changed;
  Hashtbl.length changed

(* -- persisting artifacts ------------------------------------------------------ *)

(** The [Modsys.compiled_hook]: persist an artifact for every successful
    file-module compilation while a store is active.  A module is only
    cacheable when each of its requires is a builtin or itself has a
    current artifact (so the transitive digest chain is complete), and
    when {!Writer} can give every reference in its body a name the loader
    can link; otherwise it is skipped with a [-v] trace note.  Once
    written, the module's internals are keyed by written name, the names
    an importer's artifact links against. *)
let on_compiled (m : Modsys.t) ~(lang : string) ~(scopes : Liblang_stx.Scope.Set.t)
    ~(core_forms : Stx.t list) : unit =
  match (Store.active (), Hashtbl.find_opt (cacheable ()) m.Modsys.mod_name) with
  | None, _ | _, None -> ()
  | Some store, Some source_digest -> (
      let key = m.Modsys.mod_name in
      let require_refs =
          List.map
            (fun r ->
              match Modsys.find_opt r with
              | Some rm when rm.Modsys.builtin -> Some (Artifact.Builtin r)
              | _ -> (
                  match Store.current_digest store r with
                  | Some d -> Some (Artifact.File (r, d))
                  | None -> None))
            m.Modsys.requires
      in
      let skip reason = Trace.event "cache-skip" [ ("module", key); ("reason", reason) ] in
      if List.mem None require_refs then skip "requires a module with no artifact"
      else
        match Writer.write ~mod_name:key ~requires:m.Modsys.requires ~scopes core_forms with
        | Error reason -> skip reason
        | Ok w ->
            Modsys.set_internals ~mod_name:key w.Writer.defs;
            Store.write store
              (Artifact.of_compiled ~mod_name:key ~lang ~source_digest
                 ~requires:(List.filter_map Fun.id require_refs)
                 ~exports:(List.map (fun e -> e.Modsys.ext_name) m.Modsys.exports)
                 ~links:w.Writer.links ~renames:w.Writer.renames ~core_forms:w.Writer.forms ()))

(* -- installation --------------------------------------------------------------- *)

let installed = ref false

(** Install the resolver into the module system (idempotent); called by
    the platform's [init]. *)
let install () =
  if not !installed then begin
    installed := true;
    Modsys.file_require_handler := require_path;
    Modsys.compiled_hook := on_compiled
  end
