(** Separate compilation (paper §5, scaled to disk): the file-based module
    resolver and the content-addressed compiled-artifact store.

    - {!Resolver} makes [(require "path.scm")] work: the path is resolved
      relative to the requiring file, compiled (or loaded from its
      artifact) and registered under its canonical absolute path, with
      require cycles across files reported through the module system's
      existing cycle machinery.
    - {!Store} is the on-disk cache ([.liblang-cache/] or [--cache-dir]):
      one artifact per module, validated by format version, source digest
      and the digests of its requires' artifacts (transitive
      invalidation); anything unusable degrades to a recompile.
    - {!Artifact} is the serialized format; {!Writer} writes a module's
      core forms so that each name alone fixes its binding; {!Loader}
      rebuilds a live module from them without re-running expansion or
      the typechecker, regenerating [ct_thunks] from the serialized §5
      declarations.

    See docs/compilation.md for the format table, the invalidation rules
    and a worked [liblang compile] example. *)

module Digest_util = Digest_util
module Artifact = Artifact
module Writer = Writer
module Store = Store
module Loader = Loader
module Resolver = Resolver
module Build = Build
module Genproj = Genproj

(** Install the file resolver and artifact hooks into the module system
    (idempotent). *)
let init () = Resolver.install ()

(** Run [f] with an artifact store rooted at [dir] active: file modules
    resolved while [f] runs are loaded from (and persisted to) the
    store. *)
let with_cache_dir (dir : string) (f : unit -> 'a) : 'a =
  Store.with_store (Some (Store.create ~dir ())) f

(** Compile (without instantiating) the module in [path] and everything
    it requires, through the resolver — and so through the artifact store
    when one is active.  Returns the module. *)
let compile_file (path : string) : Liblang_modules.Modsys.t =
  Resolver.require_key (Resolver.module_key path)

(** Expand (without compiling) the module in [path] to core forms.  Like
    {!compile_file}, it names the module by its canonical key and
    resolves its requires from its own directory, through the artifact
    store when one is active. *)
let expand_file (path : string) : Liblang_stx.Stx.t list =
  let key = Resolver.module_key path in
  let source = Resolver.read_key key in
  Liblang_diagnostics.Sources.register ~file:key source;
  Resolver.with_dir (Filename.dirname key) (fun () ->
      Liblang_modules.Modsys.expand_source ~name:key source)

(** Test/bench hook: forget session state so the next [compile_file]
    exercises the artifact store as a fresh process would. *)
let reset_session () = Resolver.reset_session ()
