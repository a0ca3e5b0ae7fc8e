(** Tests for separate compilation (lib/compiled/): the file-based module
    resolver, the content-addressed artifact store, §5 replay from
    artifacts, robustness against unusable artifacts, and exact dependent
    invalidation.

    Every test works in a fresh temp directory with its own cache dir and
    calls [Compiled.reset_session] to simulate a fresh process, so a
    "warm" run really exercises the on-disk store.  Counters are pinned
    via a fresh metrics collector: [module.compiles] is the
    expand-and-compile path, [module.cache_hits] the artifact replay path
    (their sum is the number of modules acquired). *)

open Test_util
module Core = Liblang_core.Core
module Compiled = Core.Compiled
module Modsys = Core.Modsys
module Prims = Core.Prims
module Metrics = Core.Metrics
module Observe = Core.Observe

(* -- temp project dirs -------------------------------------------------------- *)

let fresh_dir () = fresh_dir "compiled"

(* -- running through the resolver --------------------------------------------- *)

(** Compile+instantiate [path] as a fresh process would (session state
    reset first), through a store at [cache] if given; return captured
    output and the metrics collector. *)
let run_measured ?cache path : string * Metrics.t =
  let c = Metrics.create () in
  Compiled.reset_session ();
  let go () =
    let m = Compiled.compile_file path in
    Modsys.instantiate m
  in
  let out, () =
    Prims.with_captured_output (fun () ->
        Observe.with_ctx
          { Observe.metrics = Some c; trace = None }
          (fun () ->
            match cache with None -> go () | Some dir -> Compiled.with_cache_dir dir go))
  in
  (out, c)

let run_file ?cache path : string = fst (run_measured ?cache path)

(** Same, expecting an error: {!Test_util.error_of}. *)
let run_file_err ?cache path = error_of "output" (fun () -> run_file ?cache path)

let compiles c = Metrics.get c "module.compiles"
let hits c = Metrics.get c "module.cache_hits"
let stale c = Metrics.get c "cache.stale"

(* Every way of running a file: uncached; then cold, warm and with each
   program's own artifacts dropped, through one store; then -j 2 through a
   second store. *)
let modes dir =
  let store = Filename.concat dir "cache" in
  Matrix.
    [
      in_process Uncached;
      in_process (Cold store);
      in_process (Warm store);
      in_process (Edited store);
      in_process ~jobs:2 (Cold (Filename.concat dir "cache-j2"));
    ]

(* -- the file resolver (no cache) --------------------------------------------- *)

let file_require_basic () =
  let dir = fresh_dir () in
  write_file (Filename.concat dir "lib.scm")
    "#lang racket\n(provide double)\n(define (double x) (* 2 x))\n";
  write_file (Filename.concat dir "main.scm")
    "#lang racket\n(require \"lib.scm\")\n(display (double 21))\n";
  check_s "file require output" "42" (run_file (Filename.concat dir "main.scm"))

let file_require_relative_nesting () =
  (* requires resolve relative to the requiring file, not the cwd *)
  let dir = fresh_dir () in
  let sub = Filename.concat dir "sub" in
  (try Unix.mkdir sub 0o755 with Unix.Unix_error _ -> ());
  write_file (Filename.concat sub "inner.scm") "#lang racket\n(provide n)\n(define n 7)\n";
  write_file (Filename.concat sub "mid.scm")
    "#lang racket\n(provide n)\n(require \"inner.scm\")\n";
  write_file (Filename.concat dir "main.scm")
    "#lang racket\n(require \"sub/mid.scm\")\n(display n)\n";
  check_s "nested relative require" "7" (run_file (Filename.concat dir "main.scm"))

let file_require_missing () =
  let dir = fresh_dir () in
  write_file (Filename.concat dir "main.scm") "#lang racket\n(require \"nope.scm\")\n";
  let msg = run_file_err (Filename.concat dir "main.scm") in
  check_b "missing file is a module diagnostic" true
    (contains msg "cannot read module file")

let file_require_cycle () =
  let dir = fresh_dir () in
  write_file (Filename.concat dir "a.scm") "#lang racket\n(require \"b.scm\")\n";
  write_file (Filename.concat dir "b.scm") "#lang racket\n(require \"a.scm\")\n";
  let msg = run_file_err (Filename.concat dir "a.scm") in
  check_b "cross-file cycle detected" true (contains msg "cyclic require")

(* -- the warm path ------------------------------------------------------------- *)

(* A three-module project: main requires dep and other. *)
let project () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  write_file (Filename.concat dir "dep.scm")
    "#lang racket\n(provide inc)\n(define (inc x) (+ x 1))\n";
  write_file (Filename.concat dir "other.scm")
    "#lang racket\n(provide ten)\n(define ten 10)\n";
  write_file (Filename.concat dir "main.scm")
    "#lang racket\n(require \"dep.scm\")\n(require \"other.scm\")\n(display (inc ten))\n";
  (dir, cache, Filename.concat dir "main.scm")

let warm_run_zero_compiles () =
  let _, cache, main = project () in
  let cold, c0 = run_measured ~cache main in
  check_s "cold output" "11" cold;
  check_i "cold compiles all three" 3 (compiles c0);
  check_i "cold hits nothing" 0 (hits c0);
  let warm, c1 = run_measured ~cache main in
  check_s "warm output identical" cold warm;
  check_i "warm compiles nothing" 0 (compiles c1);
  check_i "warm hits all three" 3 (hits c1)

let dependent_invalidation_exact () =
  let dir, cache, main = project () in
  let cold, _ = run_measured ~cache main in
  ignore (run_measured ~cache main);
  (* editing dep invalidates dep and main (its dependent) but not other *)
  write_file (Filename.concat dir "dep.scm")
    "#lang racket\n(provide inc)\n(define (inc x) (+ x 1))\n;; touched\n";
  let warm, c = run_measured ~cache main in
  check_s "output unchanged by the edit" cold warm;
  check_i "exactly dep and main recompile" 2 (compiles c);
  check_i "other still hits" 1 (hits c);
  check_b "staleness was counted" true (stale c >= 1);
  (* and the rewritten artifacts make the next run fully warm again *)
  let _, c2 = run_measured ~cache main in
  check_i "steady state: no compiles" 0 (compiles c2);
  check_i "steady state: all hits" 3 (hits c2)

(* -- robustness: unusable artifacts degrade to recompiles ---------------------- *)

(** Cold-compile a one-module project, mutate something ([mutate ~src
    ~art] gets the source path and its artifact path), then re-run warm:
    output must be byte-identical, the module must recompile, and the
    staleness must be counted (never an error).  When the source is left
    alone, the recompile must rewrite the cold artifact byte for byte. *)
let robustness name mutate =
  Alcotest.test_case name `Quick (fun () ->
      let dir = fresh_dir () in
      let cache = Filename.concat dir "cache" in
      let src = Filename.concat dir "m.scm" in
      let source = "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n" in
      write_file src source;
      let cold, c0 = run_measured ~cache src in
      check_i (name ^ ": cold compiles") 1 (compiles c0);
      let art = Matrix.artifact ~store:cache src in
      check_b (name ^ ": artifact written") true (Sys.file_exists art);
      let cold_art = read_file art in
      mutate ~src ~art;
      let warm, c = run_measured ~cache src in
      check_s (name ^ ": output byte-identical") cold warm;
      check_i (name ^ ": recompiled from source") 1 (compiles c);
      check_i (name ^ ": nothing loaded from cache") 0 (hits c);
      check_b (name ^ ": staleness counted") true (stale c >= 1);
      if String.equal (read_file src) source then
        check_s (name ^ ": recompiled artifact byte-identical") cold_art (read_file art);
      (* the recompile rewrote a good artifact *)
      let _, c2 = run_measured ~cache src in
      check_i (name ^ ": healed") 1 (hits c2))

let t_corrupt = robustness "corrupt artifact" (fun ~src:_ ~art ->
    write_file art "(this is ;; not an artifact")

let t_truncated = robustness "truncated artifact" (fun ~src:_ ~art ->
    let text = read_file art in
    write_file art (String.sub text 0 (String.length text / 2)))

(* replace the first occurrence of [needle] in [hay] with [repl] *)
let replace_first hay needle repl =
  let nh = String.length hay and nn = String.length needle in
  let rec find i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> hay
  | Some i -> String.sub hay 0 i ^ repl ^ String.sub hay (i + nn) (nh - i - nn)

(* the version field of an artifact written by this build *)
let version_field = Printf.sprintf "(version %d)" Compiled.Artifact.format_version

let t_version_skew = robustness "format version skew" (fun ~src:_ ~art ->
    let text = read_file art in
    let skewed = replace_first text version_field "(version 999)" in
    check_b "artifact records its version" true (text <> skewed);
    write_file art skewed)

(* Strip [text]'s integrity trailer line, returning the covered body. *)
let strip_trailer text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (String.starts_with ~prefix:";; integrity:" l))
  |> String.concat "\n"

(* Re-trailer [body] so it reads as a *valid* artifact again (the skew
   under test is structural, not damage). *)
let with_trailer body = body ^ ";; integrity: " ^ Compiled.Digest_util.of_string body ^ "\n"

(* A v4 artifact: the (bytecode ...) datum that format carried after the
   body, under a recomputed trailer so only the format differs.  The
   header is read first, so it is version skew — never "corrupt", which
   would feed quarantine — and the section is never parsed. *)
let t_v4_bytecode =
  robustness "v4 artifact (bytecode section) is version skew" (fun ~src:_ ~art ->
      let body = replace_first (strip_trailer (read_file art)) version_field "(version 4)" in
      let v4 =
        with_trailer
          (body ^ "(bytecode (unboxing #t) (form 0 ((f1) (f2) (cmp) (proto 0 #f \"\" 1 0 0 1 (15)))))\n")
      in
      (match Compiled.Artifact.of_string v4 with
      | Error (Compiled.Artifact.Version_skew 4) -> ()
      | Error r -> Alcotest.failf "v4 artifact read as: %s" (Compiled.Artifact.invalid_to_string r)
      | Ok _ -> Alcotest.fail "v4 artifact read as current");
      write_file art v4)

(* The source digest is checked from the header, before the body is
   read: an edit rejects a stale artifact for the price of one datum,
   even when its body would not parse at all. *)
let stale_before_body () =
  let module A = Compiled.Artifact in
  let text =
    A.to_string
      (A.of_compiled ~mod_name:"/m.scm" ~lang:"racket" ~source_digest:"d1" ~requires:[]
         ~exports:[] ~links:[] ~renames:[] ~core_forms:[] ())
  in
  let cut = replace_first (strip_trailer text) "(body" "(body (((" in
  check_b "body damaged" true (cut <> strip_trailer text);
  let is_stale = function Error A.Stale_source -> true | _ -> false in
  let is_corrupt = function Error (A.Corrupt _) -> true | _ -> false in
  check_b "intact artifact, right digest: ok" true (Result.is_ok (A.of_string ~source_digest:"d1" text));
  check_b "intact artifact, wrong digest: stale" true (is_stale (A.of_string ~source_digest:"d2" text));
  check_b "unparseable body, wrong digest: stale" true (is_stale (A.of_string ~source_digest:"d2" cut));
  check_b "unparseable body, right digest: corrupt" true (is_corrupt (A.of_string ~source_digest:"d1" cut));
  check_b "unparseable body, no digest: corrupt" true (is_corrupt (A.of_string cut))

let t_stale_source = robustness "stale source" (fun ~src ~art:_ ->
    write_file src "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n;; edited\n")

let stale_transitive_require () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  write_file (Filename.concat dir "dep.scm")
    "#lang racket\n(provide base)\n(define base 40)\n";
  let main = Filename.concat dir "main.scm" in
  write_file main "#lang racket\n(require \"dep.scm\")\n(display (+ base 2))\n";
  let cold, _ = run_measured ~cache main in
  (* editing dep changes its artifact digest; main's own source is
     untouched but its recorded require digest no longer matches *)
  write_file (Filename.concat dir "dep.scm")
    "#lang racket\n(provide base)\n(define base 40)\n;; touched\n";
  let warm, c = run_measured ~cache main in
  check_s "stale require: output byte-identical" cold warm;
  check_i "stale require: both recompile" 2 (compiles c);
  check_b "stale require: staleness counted" true (stale c >= 1)

(* A changed require is rejected from the header too: the dependent's
   requires are checked before its body is read, so a body that would
   not parse (under a recomputed trailer) leaves the artifact stale by
   its require, never corrupt, and never feeds quarantine. *)
let stale_require_before_body () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let dep = Filename.concat dir "dep.scm" and main = Filename.concat dir "main.scm" in
  write_file dep "#lang racket\n(provide base)\n(define base 40)\n";
  write_file main "#lang racket\n(require \"dep.scm\")\n(display (+ base 2))\n";
  let cold, _ = run_measured ~cache main in
  write_file dep "#lang racket\n(provide base)\n(define base 40)\n;; touched\n";
  let art = Matrix.artifact ~store:cache main in
  let text = strip_trailer (read_file art) in
  let cut = replace_first text "(body" "(body (((" in
  check_b "body damaged" true (cut <> text);
  write_file art (with_trailer cut);
  let store = Compiled.Store.create ~dir:cache () in
  let log = Filename.concat dir "trace.txt" in
  let c = Metrics.create () in
  Compiled.reset_session ();
  let out, () =
    Out_channel.with_open_text log (fun oc ->
        Prims.with_captured_output (fun () ->
            Observe.with_ctx
              { Observe.metrics = Some c; trace = Some (Core.Trace.make_sink oc) }
              (fun () ->
                Compiled.Store.with_store (Some store) (fun () ->
                    Modsys.instantiate (Compiled.compile_file main)))))
  in
  let trace = read_file log in
  check_s "output byte-identical" cold out;
  check_i "dep and main recompile" 2 (compiles c);
  check_b "stale by its require" true (contains trace "stale: required module changed");
  check_b "never read as corrupt" false (contains trace "corrupt");
  check_i "no corrupt read recorded" 0 (Hashtbl.length store.Compiled.Store.corrupt_reads)

(* -- §5 replay: the type environment comes back from the artifact -------------- *)

let typed_lib_source =
  "#lang typed/racket\n\
   (provide scale)\n\
   (: scale (Integer -> Integer))\n\
   (define (scale x) (* 10 x))\n"

(** A typed client compiled fresh against an artifact-loaded typed
    library still sees the library's types: the serialized
    [begin-for-syntax] declarations are replayed by [visit], not
    re-expanded. *)
let replay_types_from_artifact () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let lib = Filename.concat dir "lib.scm" in
  write_file lib typed_lib_source;
  (* cold-compile the library alone so its artifact exists *)
  Compiled.reset_session ();
  Compiled.with_cache_dir cache (fun () -> ignore (Compiled.compile_file lib));
  (* a new typed client: the library must replay from its artifact *)
  let client = Filename.concat dir "client.scm" in
  write_file client
    "#lang typed/racket\n\
     (require \"lib.scm\")\n\
     (define (main) : Integer (scale 4))\n\
     (display (main))\n";
  let out, c = run_measured ~cache client in
  check_s "typed client against replayed lib" "40" out;
  check_i "only the client compiles" 1 (compiles c);
  check_i "the lib replays from its artifact" 1 (hits c);
  (* the replayed type environment really typechecks: an ill-typed use
     of the replayed export is rejected at compile time *)
  let bad = Filename.concat dir "bad.scm" in
  write_file bad "#lang typed/racket\n(require \"lib.scm\")\n(display (scale \"nope\"))\n";
  let msg = run_file_err ~cache bad in
  check_b "ill-typed client still rejected" true (contains msg "typecheck")

(** The §6.2 boundary survives replay: an untyped client of a replayed
    typed module goes through the same defensive export indirection —
    same output on the good path, same blame on the bad path — whether
    the typed module was compiled from source or loaded from its
    artifact. *)
let replay_boundary_contracts () =
  let dir = fresh_dir () in
  ignore (file dir "lib.scm" typed_lib_source);
  let good = file dir "good.scm" "#lang racket\n(require \"lib.scm\")\n(display (scale 4))\n" in
  let bad = file dir "bad.scm" "#lang racket\n(require \"lib.scm\")\n(display (scale \"nope\"))\n" in
  match agree (modes dir) Matrix.[ Files [ good ]; Files [ bad ] ] with
  | [ (g : Matrix.outcome); b ] ->
      check_s "the good client runs" "" g.err;
      check_b "the contract blames the untyped client" true (contains b.err "contract violation")
  | _ -> Alcotest.fail "one outcome per program"

(* -- domain-parallel builds ----------------------------------------------------- *)

module Build = Compiled.Build
module Genproj = Compiled.Genproj
module Parallel = Liblang_parallel.Parallel
module Server = Liblang_server.Server

(** Sorted [(file, md5)] pairs for every artifact under [dir] — the
    byte-identity witness for determinism across job counts. *)
let dir_digests dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lart")
    |> List.sort compare
    |> List.map (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat dir f))))

(* small genproj instances: tower = copies * (2^depth + nvars) = 20 *)
let gen ~dir ~shape ~n = Genproj.generate ~dir ~shape ~n ~depth:4 ~nvars:4 ~copies:1 ()

let build_into ~jobs ~cache root : Build.result =
  Compiled.reset_session ();
  Compiled.with_cache_dir cache (fun () -> Build.build ~jobs [ root ])

(** [-j1] and [-jN] builds of the same generated project must write
    byte-identical artifact sets (serialization never leaks scope or
    binding uids), and the [-jN] cache must replay fully warm. *)
let parallel_determinism shape =
  let name = Genproj.shape_to_string shape in
  Alcotest.test_case (Printf.sprintf "determinism: -j1 = -j3 (%s)" name) `Quick
    (fun () ->
      let dir = fresh_dir () in
      let root, expected = gen ~dir ~shape ~n:6 in
      let c1 = Filename.concat dir "cache-j1" in
      let c3 = Filename.concat dir "cache-j3" in
      let r1 = build_into ~jobs:1 ~cache:c1 root in
      let r3 = build_into ~jobs:3 ~cache:c3 root in
      check_b (name ^ ": -j1 build ok") true (Build.ok r1);
      check_b (name ^ ": -j3 build ok") true (Build.ok r3);
      check_i (name ^ ": same modules scheduled") r1.Build.tasks r3.Build.tasks;
      check_i (name ^ ": all six artifacts written") 6
        (List.length (dir_digests c3));
      check_b (name ^ ": artifacts byte-identical across job counts") true
        (dir_digests c1 = dir_digests c3);
      (* the parallel cache replays fully warm with the right value *)
      let out, c = run_measured ~cache:c3 root in
      check_s (name ^ ": warm checksum") (string_of_int expected) (String.trim out);
      check_i (name ^ ": warm compiles nothing") 0 (compiles c);
      check_i (name ^ ": warm hits all six") 6 (hits c))

(** K domains racing on one store: all compile the same 6-module diamond,
    and each additionally compiles a private module (disjoint keys), all
    against a single shared cache dir.  The per-key advisory locks must
    yield exactly one artifact write per key — the losers block, then
    load the winner's artifact — and the store must end up fully usable
    (a warm rerun replays with zero compiles, so no torn [.lart]
    survives). *)
let concurrent_store_stress () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let root, expected = gen ~dir ~shape:Genproj.Diamond ~n:6 in
  let k = 4 in
  (* disjoint per-domain modules, each requiring the shared diamond base *)
  let solo i =
    let path = Filename.concat dir (Printf.sprintf "solo%d.scm" i) in
    write_file path
      (Printf.sprintf
         "#lang racket\n(require \"m5.scm\")\n(provide s%d)\n(define s%d (+ v5 %d))\n"
         i i i);
    path
  in
  let solos = List.init k solo in
  let collectors = Array.init k (fun _ -> Metrics.create ()) in
  Compiled.reset_session ();
  let store = Compiled.Store.create ~dir:cache () in
  (* share ONE store instance (the DLS slot splits by identity, exactly as
     the build driver's workers do); the pool holds the parallelism gate
     open, so the per-key locks are live while its domains race.  A racing
     [compile_file] that raises kills its worker: the death is recorded so
     the test fails rather than losing the job to a replacement. *)
  let m = Mutex.create () and deaths = ref [] in
  let stranded =
    Compiled.Store.with_store (Some store) (fun () ->
        let p =
          Parallel.Pool.create ~workers:k
            ~on_death:(fun e _ ->
              Mutex.protect m (fun () -> deaths := Printexc.to_string e :: !deaths))
            ~run:(fun slot ->
              Observe.with_ctx
                { Observe.metrics = Some collectors.(slot); trace = None }
                (fun () ->
                  ignore (Compiled.compile_file root);
                  ignore (Compiled.compile_file (List.nth solos slot))))
            ()
        in
        for slot = 0 to k - 1 do
          Parallel.Pool.submit p ~slot slot
        done;
        Parallel.Pool.stop p)
  in
  check_s "no racing compile raised" "" (String.concat "; " !deaths);
  check_i "no job stranded" 0 (List.length stranded);
  let total key =
    Array.fold_left (fun acc c -> acc + Metrics.get c key) 0 collectors
  in
  (* exactly one write per key: 6 shared + k disjoint *)
  check_i "exactly one artifact write per key" (6 + k) (total "cache.writes");
  check_i "one .lart file per key on disk" (6 + k) (List.length (dir_digests cache));
  (* every domain acquired its full closure one way or the other *)
  check_i "each domain acquired all its modules"
    (k * (6 + 1))
    (total "module.compiles" + total "module.cache_hits");
  check_b "losers loaded rather than recompiled" true (total "module.compiles" < k * 7);
  (* no torn artifacts: a fresh session replays everything byte-for-byte
     warm — any corrupt .lart would degrade to a recompile and show up
     in the compiles counter *)
  let out, c = run_measured ~cache root in
  check_s "warm checksum after the race" (string_of_int expected) (String.trim out);
  check_i "warm rerun: zero compiles" 0 (compiles c);
  check_i "warm rerun: all hits" 6 (hits c)

(* -- chaos: deterministic fault injection (docs/robustness.md) ------------------ *)

module Fault = Core.Fault

(** Parse [spec], install it for the duration of [f], uninstall after —
    even when [f] raises, so a failing check can't leak faults into the
    next test case. *)
let with_plan spec f =
  match Fault.parse spec with
  | Result.Error m -> Alcotest.failf "test plan %S did not parse: %s" spec m
  | Ok p -> Fault.with_plan p f

let plan_parse () =
  let ok spec =
    match Fault.parse spec with
    | Ok p -> p
    | Result.Error m -> Alcotest.failf "%S should parse: %s" spec m
  in
  let bad label spec = check_b label true (Result.is_error (Fault.parse spec)) in
  let p = ok "seed=7;deadline=2.5;store.read=error~0.25,store.write=torn@64" in
  check_i "plan seed" 7 p.Fault.seed;
  check_b "plan deadline" true (p.Fault.deadline = Some 2.5);
  check_i "plan rules" 2 (List.length p.Fault.rules);
  check_b "empty plan is valid (no rules)" true
    (match Fault.parse "seed=3" with Ok q -> q.Fault.rules = [] | _ -> false);
  bad "unknown site rejected" "store.zap=error";
  bad "unknown mode rejected" "store.read=explode";
  bad "probability out of range" "store.read=error~1.5";
  bad "non-numeric torn offset" "store.write=torn@x";
  bad "non-positive deadline" "deadline=0";
  bad "bare word" "whatever"

(** Whether the n-th arrival at a site fires is a pure function of
    (seed, site, n): two installs of the same spec produce the same
    firing pattern — the property that makes a chaos seed replayable. *)
let deterministic_decisions () =
  let pattern () =
    with_plan "seed=11;build.task=error~0.5" (fun () ->
        List.init 32 (fun _ ->
            match Fault.check "build.task" with
            | () -> false
            | exception Fault.Injected _ -> true))
  in
  let a = pattern () in
  check_b "same seed, same firing pattern" true (a = pattern ());
  check_b "p=0.5 fires sometimes" true (List.mem true a);
  check_b "p=0.5 passes sometimes" true (List.mem false a)

(** With no plan installed every hook is inert: no exception, no delay,
    no metric — the zero-cost-when-off contract. *)
let hooks_inert_when_off () =
  check_b "no ambient plan" false (Fault.active ());
  let c = Metrics.create () in
  Observe.with_ctx
    { Observe.metrics = Some c; trace = None }
    (fun () ->
      List.iter Fault.check Fault.sites;
      List.iter (fun s -> check_b (s ^ ": no torn cut") true (Fault.torn_write s = None)) Fault.sites;
      Fault.check_deadline ());
  check_i "nothing injected" 0 (Metrics.get c "fault.injected")

(** Opening a store sweeps tmp files stranded by a crashed writer, and
    only those — neighbouring artifacts are untouched. *)
let tmp_sweep_on_open () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  Unix.mkdir cache 0o755;
  let stranded = Filename.concat cache "deadbeef.lart.tmp.4242.0" in
  write_file stranded "half an artifact";
  let keeper = Filename.concat cache "deadbeef.lart" in
  write_file keeper "not a tmp file";
  let c = Metrics.create () in
  Observe.with_ctx
    { Observe.metrics = Some c; trace = None }
    (fun () -> ignore (Compiled.Store.create ~dir:cache ()));
  check_b "stranded tmp swept on open" false (Sys.file_exists stranded);
  check_b "non-tmp neighbour untouched" true (Sys.file_exists keeper);
  check_i "sweep counted" 1 (Metrics.get c "cache.tmp_swept")

(** Repeatedly-corrupt artifacts are quarantined: the second corrupt
    read renames the file to [.bad], later reads see [Missing], and a
    fresh run recompiles and heals. *)
let quarantine_after_repeated_corruption () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let src = Filename.concat dir "m.scm" in
  write_file src "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n";
  let cold, _ = run_measured ~cache src in
  let key = Compiled.Resolver.module_key src in
  let art = Matrix.artifact ~store:cache key in
  write_file art "(liblang-artifact garbage that parses as nothing";
  Compiled.reset_session ();
  let store = Compiled.Store.create ~dir:cache () in
  let source_digest = Compiled.Digest_util.of_string (read_file src) in
  let c = Metrics.create () in
  Observe.with_ctx
    { Observe.metrics = Some c; trace = None }
    (fun () ->
      let corrupt = function
        | Stdlib.Error (Compiled.Artifact.Corrupt _) -> true
        | _ -> false
      in
      let read () = Compiled.Store.read_header store ~key ~source_digest in
      check_b "first corrupt read reported" true (corrupt (read ()));
      check_b "second corrupt read reported" true (corrupt (read ()));
      check_b "third read finds nothing (quarantined)" true
        (read () = Stdlib.Error Compiled.Artifact.Missing));
  check_i "quarantine counted once" 1 (Metrics.get c "cache.quarantined");
  check_b "post-mortem kept as .bad" true (Sys.file_exists (art ^ ".bad"));
  check_b "corrupt artifact gone" false (Sys.file_exists art);
  (* and the degraded path still heals: recompile, identical output *)
  let warm, c2 = run_measured ~cache src in
  check_s "output identical after quarantine" cold warm;
  check_i "recompiled past the quarantine" 1 (compiles c2)

(* A parseable artifact whose body was flipped after the write: only the
   integrity trailer can tell.  Without it the flipped '9 would replay as
   '8 and print 64 — the byte-identical-output check inside [robustness]
   is what makes this a real test. *)
let t_bitflip =
  robustness "bit-flipped body caught by integrity trailer" (fun ~src:_ ~art ->
      let text = read_file art in
      let flipped = replace_first text "'9" "'8" in
      check_b "body contains the literal" true (text <> flipped);
      write_file art flipped)

(** A torn artifact write (cut mid-file by an injected fault) never
    poisons the cache: the cold run's output is unaffected, the torn
    bytes fail verification on the next read, and a warm run recompiles
    and heals byte-identically. *)
let torn_write_replayed () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let src = Filename.concat dir "m.scm" in
  write_file src "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n";
  let cold, c0 = with_plan "store.write=torn@40" (fun () -> run_measured ~cache src) in
  check_s "cold output unaffected by the torn write" "81" cold;
  check_b "the fault actually fired" true (Metrics.get c0 "fault.injected" >= 1);
  let warm, c1 = run_measured ~cache src in
  check_s "warm output byte-identical" cold warm;
  check_i "torn artifact not replayed" 1 (compiles c1);
  check_i "nothing loaded from the torn cache" 0 (hits c1);
  let _, c2 = run_measured ~cache src in
  check_i "healed: steady state replays" 1 (hits c2)

(** Injected read errors degrade to recompiles (never an error), and the
    store recovers as soon as the faults stop. *)
let injected_read_error_degrades () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let src = Filename.concat dir "m.scm" in
  write_file src "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n";
  let cold, _ = run_measured ~cache src in
  let warm, c = with_plan "store.read=error" (fun () -> run_measured ~cache src) in
  check_s "output identical under injected read errors" cold warm;
  check_i "read fault degrades to a recompile" 1 (compiles c);
  check_i "no cache hits under the fault" 0 (hits c);
  let _, c2 = run_measured ~cache src in
  check_i "store recovered once the faults stop" 1 (hits c2)

(** Every worker domain dying at spawn must not hang [Domain.join] or
    leave modules without outcomes; a fault-free rebuild then succeeds. *)
let worker_death_does_not_hang () =
  let dir = fresh_dir () in
  let root, expected = gen ~dir ~shape:Genproj.Diamond ~n:6 in
  let cache = Filename.concat dir "cache" in
  let r =
    with_test_alarm 30 (fun () ->
        with_plan "build.spawn=error" (fun () -> build_into ~jobs:3 ~cache root))
  in
  check_b "join returned with failures, not a hang" true (not (Build.ok r));
  check_b "worker deaths observed" true (r.Build.worker_deaths >= 1);
  check_i "every module still has an outcome"
    (List.length r.Build.graph)
    (List.length r.Build.outcomes);
  check_b "deaths surface as ordinary diagnostics" true
    (List.exists
       (fun (_, ds) ->
         List.exists
           (fun d -> contains (Core.Diagnostic.to_string d) "worker domain died")
           ds)
       (Build.failures r));
  let r2 = build_into ~jobs:3 ~cache root in
  check_b "fault-free rebuild succeeds" true (Build.ok r2);
  let out, _ = run_measured ~cache root in
  check_s "recovered build runs correctly" (string_of_int expected) (String.trim out)

(** A task stuck in an injected delay is killed by its cooperative
    wall-clock deadline and surfaces as a timeout diagnostic, never a
    hang. *)
let task_deadline_times_out () =
  let dir = fresh_dir () in
  let root, _ = gen ~dir ~shape:Genproj.Chain ~n:3 in
  let cache = Filename.concat dir "cache" in
  let r =
    with_test_alarm 30 (fun () ->
        with_plan "deadline=0.05;build.task=delay@400" (fun () ->
            build_into ~jobs:2 ~cache root))
  in
  check_b "deadline kills the delayed task" true (not (Build.ok r));
  check_b "timeout counted" true (r.Build.timeouts >= 1);
  check_b "timeout is an ordinary diagnostic" true
    (List.exists
       (fun (_, ds) ->
         List.exists (fun d -> contains (Core.Diagnostic.to_string d) "deadline") ds)
       (Build.failures r));
  let r2 = build_into ~jobs:2 ~cache root in
  check_b "recovers without the plan" true (Build.ok r2)

(** Transient faults are retried with a deterministic budget: 1 try + 2
    retries for the one task that runs; its dependents are poisoned, not
    attempted. *)
let transient_retries_counted () =
  let dir = fresh_dir () in
  let root, _ = gen ~dir ~shape:Genproj.Chain ~n:3 in
  let cache = Filename.concat dir "cache" in
  let r = with_plan "build.task=error" (fun () -> build_into ~jobs:1 ~cache root) in
  check_b "persistent task faults fail the build" true (not (Build.ok r));
  check_i "exactly two retries" 2 r.Build.retries;
  check_i "only the first task ran" 1 r.Build.tasks;
  let r2 = build_into ~jobs:1 ~cache root in
  check_b "clean rebuild succeeds" true (Build.ok r2)

(** Macro fuel and expansion depth are per module, however deep the
    require nesting: a serial chain of 20 at the generator's default macro
    depth compiles (each module fits the budget, the chain together does
    not), and a compile nested inside another hands the outer one back
    exactly the fuel and depth it had. *)
let fuel_is_per_module () =
  let dir = fresh_dir () in
  let root, expected = Genproj.generate ~dir ~shape:Genproj.Chain ~n:20 () in
  let l = Core.Expander.limits () in
  l.Core.Expander.fuel <- 1234;
  l.Core.Expander.depth <- 7;
  let out, c = run_measured root in
  check_s "serial chain of 20 prints the closed form" (string_of_int expected) out;
  check_i "every module compiled" 20 (compiles c);
  check_i "outer fuel restored" 1234 l.Core.Expander.fuel;
  check_i "outer depth restored" 7 l.Core.Expander.depth;
  Core.Expander.reset_limits ()

(** Path canonicalization: the textual require scan, the resolver and the
    server's invalidation must agree on one key per file, however it is
    spelled — [./]-prefixed, [dir/../dir]-indirected, or reached through a
    symlinked directory.  One helper ([Resolver.module_key], realpath-
    based) owns that; a second spelling of an already-loaded module must
    be a session memo hit, not a recompile. *)
let canonicalization_one_key_per_file () =
  let module Resolver = Compiled.Resolver in
  let dir = fresh_dir () in
  let real = Filename.concat dir "real" in
  (try Unix.mkdir real 0o755 with Unix.Unix_error _ -> ());
  write_file (Filename.concat real "lib.scm")
    "#lang racket\n(provide seven)\n(define seven 7)\n";
  let plain = Filename.concat real "lib.scm" in
  let dotted = Filename.concat dir "./real/./lib.scm" in
  let indirected = Filename.concat dir "real/../real/lib.scm" in
  check_s "./ spelling" (Resolver.module_key plain) (Resolver.module_key dotted);
  check_s "dir/../dir spelling" (Resolver.module_key plain)
    (Resolver.module_key indirected);
  let link = Filename.concat dir "link" in
  (match Unix.symlink real link with
  | () ->
      check_s "symlinked dir spelling" (Resolver.module_key plain)
        (Resolver.module_key (Filename.concat link "lib.scm"))
  | exception Unix.Unix_error _ -> () (* filesystem without symlinks *));
  (* a not-yet-existing path still canonicalizes through its parent *)
  check_s "nonexistent file keys through its dir"
    (Filename.concat (Resolver.module_key real) "future.scm")
    (Resolver.module_key (Filename.concat dir "./real/../real/future.scm"));
  (* and the resolver treats every spelling as one module: main requires
     the same file under two spellings — it must compile (and run) once *)
  write_file (Filename.concat dir "main.scm")
    "#lang racket\n(require \"real/lib.scm\")\n(require \"./real/../real/lib.scm\")\n(display seven)\n";
  let out, c = run_measured (Filename.concat dir "main.scm") in
  check_s "two spellings, one module" "7" out;
  check_i "compiled once" 2 (Metrics.get c "module.compiles")
(* main + lib *)

(* -- one path from a file to a module ---------------------------------------------- *)

(* Three parse errors in one file: every mode, -j 2 included, reports all
   three, labelled with the file's canonical path, for the file run
   directly and for the same file required by another — byte for byte
   alike. *)
let every_parse_error_reported () =
  let dir = fresh_dir () in
  let r = file dir "r.scm" "#lang racket\n(display 1))\n(display #<bad>)\n(display \"x)\n" in
  let m = file dir "m.scm" "#lang racket\n(require \"r.scm\")\n" in
  let key = Compiled.Resolver.module_key r in
  List.iter2
    (fun what (o : Matrix.outcome) ->
      List.iter
        (fun l -> check_b (what ^ ": the error at " ^ l) true (contains o.err (key ^ ":" ^ l)))
        [ "2:11"; "3:10"; "5:0" ];
      check_b (what ^ ": counted") true (contains o.err "3 errors generated"))
    [ "run"; "required" ]
    (agree (modes dir) [ Matrix.Files [ r ]; Matrix.Files [ m ] ])

(* A located diagnostic and a missing file render byte-identically in every
   mode, labelled with the canonical path. *)
let diagnostics_identical_across_modes () =
  let dir = fresh_dir () in
  let e2 = file dir "e2.scm" "#lang racket\n(display (no-such-fn 1))\n" in
  let nope = Filename.concat dir "nope.scm" in
  match agree (modes dir) [ Matrix.Files [ e2 ]; Matrix.Files [ nope ] ] with
  | [ (e : Matrix.outcome); n ] ->
      check_b "label is the canonical path" true
        (contains e.err (Compiled.Resolver.module_key e2 ^ ":2:10"));
      check_b "one missing-file text" true
        (contains n.err ("require: cannot read module file " ^ Compiled.Resolver.module_key nope))
  | _ -> Alcotest.fail "one outcome per program"

(* Later files on one command line may require earlier ones by basename,
   with or without a store. *)
let earlier_files_requirable_by_basename () =
  let dir = fresh_dir () in
  let a = file dir "a.scm" "#lang racket\n(provide x)\n(define x 42)\n" in
  let c = file dir "c.scm" "#lang racket\n(require a)\n(display x)\n" in
  (* a file named like a language does not take the language's name *)
  let lz = file dir "lazy.scm" "#lang racket\n(display 'l)\n" in
  let user = file dir "user.scm" "#lang lazy\n(display 'u)\n" in
  List.iter2
    (fun (what, want) (o : Matrix.outcome) -> check_s what want (o.out ^ o.err))
    [ ("c sees a's x", "42"); ("#lang lazy after lazy.scm", "lu") ]
    (agree (modes dir) Matrix.[ Files [ a; c ]; Files [ lz; user ] ])

(* Each file on the command line runs as a fresh program, its requires
   included, even when the session already ran it or one of its requires. *)
let second_run_prints_again () =
  let dir = fresh_dir () in
  let q = file dir "q.scm" "#lang racket\n(display \"q \")\n" in
  let p = file dir "p.scm" "#lang racket\n(require \"q.scm\")\n(display \"hi \")\n" in
  List.iter2
    (fun (what, want) (o : Matrix.outcome) -> check_s what want o.out)
    [
      ("printed twice", "q hi q hi ");
      ("a require runs again", "q hi q ");
      ("a require that ran runs again", "q q hi ");
    ]
    (agree (modes dir) Matrix.[ Files [ p; p ]; Files [ p; q ]; Files [ q; p ] ])

(* A [define-type] name means what the module and its requires define,
   whatever else the process compiled before.  A [(: g T)] declaration
   outlives a require that compiles a typed module before [g]'s
   definition is checked. *)
let type_names_follow_requires () =
  let dir = fresh_dir () in
  let ta =
    file dir "ta.scm"
      "#lang typed/racket\n(define-type Num Float)\n(provide half)\n\
       (: half (Num -> Num))\n(define (half x) (/ x 2.0))\n"
  in
  let tc = file dir "tc.scm" "#lang typed/racket\n(: v Num)\n(define v 2.0)\n(display v)\n" in
  let td =
    file dir "td.scm"
      "#lang typed/racket\n(require \"ta.scm\")\n(: w Num)\n(define w (half 4.0))\n(display w)\n"
  in
  let tg =
    file dir "tg.scm"
      "#lang typed/racket\n(: g (Integer -> Integer))\n(require \"ta.scm\")\n\
       (define (g x) (+ x 1))\n(display (g 1))\n"
  in
  match agree (modes dir) Matrix.[ Files [ tc ]; Files [ ta; tc ]; Files [ td ]; Files [ tg ] ] with
  | [ (alone : Matrix.outcome); after; client; declared ] ->
      check_b "tc alone: Num is unknown" true (contains alone.err "unknown type: Num");
      check_b "tc after ta: Num is still unknown" true (contains after.err "unknown type: Num");
      check_s "a client of ta knows Num" "2.0" client.out;
      check_s "a declaration survives a nested typed compile" "2" declared.out
  | _ -> Alcotest.fail "one outcome per program"

(* A self-referential [define-type] crosses a require: its replay into
   the client's compilation registers the name before parsing the body,
   as the definition itself does.  Typed and untyped clients, in every
   mode. *)
let recursive_type_across_require () =
  let dir = fresh_dir () in
  ignore
    (file dir "tree.scm"
       "#lang typed/racket\n(define-type Tree (U Null (Pairof Integer Tree)))\n\
        (provide tsum)\n(: tsum (Tree -> Integer))\n\
        (define (tsum t) (if (null? t) 0 (+ (car t) (tsum (cdr t)))))\n");
  let use = "(require \"tree.scm\")\n(display (tsum (cons 1 (cons 2 '()))))\n" in
  let typed = file dir "typed.scm" ("#lang typed/racket\n" ^ use) in
  let untyped = file dir "untyped.scm" ("#lang racket\n" ^ use) in
  match agree (modes dir) [ Matrix.Files [ typed; untyped ] ] with
  | [ o ] -> check_s "both clients print the sum" "33" (o.out ^ o.err)
  | _ -> Alcotest.fail "one outcome per program"

(* Two modules that define one name differently each typecheck by their
   own definition, one after the other and on a two-domain pool. *)
let type_names_per_module () =
  let dir = fresh_dir () in
  let definer name ty value =
    let uses =
      String.concat ""
        (List.init 60 (fun i ->
             Printf.sprintf "(: f%d (Num -> Num))\n(define (f%d x) x)\n(define v%d : Num (f%d v))\n"
               i i i i))
    in
    file dir name
      (Printf.sprintf "#lang typed/racket\n(define-type Num %s)\n(define v : Num %s)\n%s(display v)\n"
         ty value uses)
  in
  let n1 = definer "n1.scm" "Float" "1.5" and n2 = definer "n2.scm" "String" "\"s\"" in
  (match agree (modes dir) [ Matrix.Files [ n1; n2; n1 ] ] with
  | [ o ] -> check_s "serially" "1.5s1.5" (o.out ^ o.err)
  | _ -> Alcotest.fail "one outcome per program");
  for i = 1 to 8 do
    match
      Liblang_core.Pipeline.build_files ~jobs:2
        ~cache_dir:(Filename.concat dir (Printf.sprintf "cache-%d" i))
        [ n1; n2 ]
    with
    | Ok _ -> ()
    | Error ds ->
        Alcotest.failf "-j 2 build %d: %s" i (Liblang_core.Pipeline.render_errors ds)
  done

(* A module's own [define-type] outranks a required module's definition
   of the name, whichever comes first, as a module-level definition
   outranks every import of its name. *)
let own_type_outranks_import () =
  let dir = fresh_dir () in
  ignore (file dir "n1.scm" "#lang typed/racket\n(define-type Num Float)\n(define x : Num 1.5)\n");
  let before =
    file dir "before.scm"
      "#lang typed/racket\n(define-type Num String)\n(require \"n1.scm\")\n\
       (define s : Num \"x\")\n(display s)\n"
  and after =
    file dir "after.scm"
      "#lang typed/racket\n(require \"n1.scm\")\n(define-type Num String)\n\
       (define s : Num \"y\")\n(display s)\n"
  in
  match agree (modes dir) [ Matrix.Files [ before; after ] ] with
  | [ o ] -> check_s "both orders typecheck and print" "xy" (o.out ^ o.err)
  | _ -> Alcotest.fail "one outcome per program"

(* A macro template in an artifact keeps the meaning it had where the
   macro was made: [get-secret]'s [secret] is the definition its
   macro-defining macro introduced, not the provider's own [secret] —
   uncached, cold, warm, and with the client compiled from source against
   the provider's artifact (test/corpus/macro-secret.scm).  A quoted
   [secret] stays the symbol the source spelled, quasiquoted or not. *)
let macro_template_keeps_meaning () =
  let dir = fresh_dir () in
  ignore
    (file dir "lib.scm"
       "#lang racket\n\
        (define-syntax-rule (make-secret-macro get getq getqq) (begin (define secret 'macro-secret) \
        (define-syntax-rule (get) secret) (define-syntax-rule (getq) 'secret) \
        (define-syntax-rule (getqq) `(secret ,secret))))\n\
        (make-secret-macro get-secret get-quoted get-qq)\n(define secret 'user-secret)\n\
        (provide get-secret get-quoted get-qq)\n");
  let client =
    file dir "client.scm"
      "#lang racket\n(require \"lib.scm\")\n(display (list (get-secret) (get-quoted) (get-qq)))\n"
  in
  match agree (modes dir) [ Matrix.Files [ client ] ] with
  | [ o ] -> check_s "every mode" "(macro-secret secret (secret macro-secret))" o.out
  | _ -> Alcotest.fail "one outcome per program"

(* -- memory: what a recompile leaves behind ----------------------------------

   A module's scopes own its binders, the cons table holds scope sets
   weakly and a binding carries its own denotation and cell, so nothing
   keeps a module's expansion state once the module is gone.  Counts and
   words, never times, are gated; each is read after a full major
   collection. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Compiling one module 50 times, forgetting it in between, leaves as many
   live scope sets and binder entries as compiling it once. *)
let recompiles_leave_nothing () =
  let dir = fresh_dir () in
  let path =
    file dir "m.scm"
      "#lang racket\n(define-syntax-rule (twice e) (begin e e))\n\
       (define-syntax-rule (swap! a b) (let ([tmp a]) (set! a b) (set! b tmp)))\n\
       (define (f x) (let ([y (* 2 x)]) (let ([z (+ y 1)]) (list x y z))))\n\
       (define p 1)\n(define q 2)\n(twice (swap! p q))\n(provide f)\n"
  in
  let cycle () =
    Compiled.reset_session ();
    ignore (Compiled.compile_file path);
    Compiled.reset_session ();
    ignore (live_words ());
    (Core.Scope.Set.live_count (), Core.Binding.live_entries ())
  in
  let sets0, entries0 = cycle () in
  for i = 2 to 50 do
    let sets, entries = cycle () in
    if sets > sets0 + 64 || entries > entries0 + 64 then
      Alcotest.failf "cycle %d: %d live scope sets, %d binder entries (first cycle: %d, %d)" i
        sets entries sets0 entries0
  done

(* The daemon workload's project: a 12-module diamond, depth 6.  [run ()]
   runs it and checks its output; [write_edit k] rewrites one middle
   module as its original text plus edit [k]. *)
let daemon_project () =
  let dir = fresh_dir () in
  let n = 12 in
  let root, sum = Genproj.generate ~dir ~shape:Genproj.Diamond ~n ~depth:6 () in
  let files = Array.init n (fun i -> Filename.concat dir (Genproj.file_of i)) in
  let texts = Array.map read_file files in
  let cache = Filename.concat dir "cache" in
  let run () =
    match Prims.with_captured_output (fun () -> Liblang_core.Pipeline.run_file ~cache_dir:cache root) with
    | out, Ok _ -> check_s "output" (string_of_int sum) out
    | _, Error ds -> Alcotest.fail (Liblang_core.Pipeline.render_errors ds)
  in
  let rng = Random.State.make [| 24 |] in
  let write_edit k =
    let i = 1 + Random.State.int rng (n - 2) in
    write_file files.(i) (texts.(i) ^ Printf.sprintf "(define edit-rev %d)\n" k)
  in
  (run, write_edit)

(* An edit as the daemon sees one: drop what changed on disk, rerun. *)
let rerun_edited run =
  ignore (Compiled.Resolver.invalidate_changed ());
  run ()

(* The daemon workload's edits, in process: the project compiled once,
   then one middle module edited and the program rerun, [edits] times.
   [after k words] runs after edit [k], given the minor words that
   invalidating and rerunning allocated. *)
let replay_daemon_edits ~edits (after : int -> float -> unit) =
  let run, write_edit = daemon_project () in
  Compiled.reset_session ();
  run ();
  for k = 1 to edits do
    write_edit k;
    let w0 = Gc.minor_words () in
    rerun_edited run;
    after k (Gc.minor_words () -. w0)
  done

(* The live heap after edit 100 stays within 1.5x of the live heap after
   edit 10. *)
let edits_do_not_grow_the_heap () =
  let at10 = ref 0 and at100 = ref 0 in
  replay_daemon_edits ~edits:100 (fun k _ ->
      if k = 10 then at10 := live_words () else if k = 100 then at100 := live_words ());
  if float_of_int !at100 > 1.5 *. float_of_int !at10 then
    Alcotest.failf "live heap: %d words at edit 10, %d at edit 100" !at10 !at100

(* The median edit allocates under two limits.  The first is 565,000
   minor words plus 2%: an edit allocated 605,961 before a stale
   dependent was rejected from its artifact's header and syntax-rules
   patterns were built once, and 564,951 after.  The second is the
   compile server's worker nursery, which must hold an edit.  1M words
   is enough because the idle worker empties a nursery more than half
   full: it collects after each edit, so the warm runs before the next
   one (about 12k words each) leave it most of the nursery
   ([idle_worker_edits_do_not_collect]; docs/server.md, "Memory"). *)
let an_edit_fits_the_daemon_nursery () =
  let words = ref [] in
  replay_daemon_edits ~edits:21 (fun _ w -> words := w :: !words);
  let median = List.nth (List.sort Float.compare !words) 10 in
  let bound = 565_000. *. 1.02 in
  if median > bound then Alcotest.failf "an edit allocates %.0f minor words (bound %.0f)" median bound;
  let nursery = float_of_int Liblang_server.Server.worker_minor_heap_words in
  if median >= nursery then
    Alcotest.failf "an edit allocates %.0f minor words, more than the daemon worker's %.0f-word minor heap"
      median nursery

(* The daemon's traffic replayed on a pool worker that runs the server's
   [on_start] and idle hook, one job per request, as [liblang serve]'s
   worker does: the cold compile, then 20 edits with 9 warm runs before
   each, the worker going idle after every request.  The idle worker
   empties its nursery once it is more than half full, that is after
   each edit, so each edit starts with room for itself, and at most one
   minor collection in all may start inside an edit because the nursery
   filled.  The other kind
   ends a major cycle: OCaml 5 empties every nursery when a cycle
   completes, so an edit that completes one (every 3 to 5 edits here)
   counts a minor collection that no nursery size or hook avoids.
   Without the hook the warm runs and earlier edits leave the nursery
   anywhere from empty to full, and 7 to 9 of the 20 edits fill it.  Both counts are read around each edit, on the worker, while this
   domain sleeps without allocating. *)
let idle_worker_edits_do_not_collect () =
  let run, write_edit = daemon_project () in
  let failure = Atomic.make None and idles = Atomic.make 0 and filled = ref [] in
  let p =
    Parallel.Pool.create ~workers:1 ~on_start:Server.size_worker_heap
      ~on_idle:(fun () ->
        ignore (Server.empty_nursery_if_half_full ());
        Atomic.incr idles)
      ~on_death:(fun e _ -> Atomic.set failure (Some e))
      ~run:(fun f -> try f () with e -> Atomic.set failure (Some e))
      ()
  in
  (* one request: run [f] on the worker and wait until it has idled *)
  let request f =
    let idled = Atomic.get idles in
    Parallel.Pool.submit p f;
    while Atomic.get idles = idled && Atomic.get failure = None do
      Unix.sleepf 0.0005
    done
  in
  let collections () =
    let st = Gc.quick_stat () in
    (st.Gc.minor_collections, st.Gc.major_collections)
  in
  with_test_alarm 120 (fun () ->
      request (fun () ->
          Compiled.reset_session ();
          run ());
      for k = 1 to 20 do
        for _ = 1 to 9 do
          request run
        done;
        write_edit k;
        request (fun () ->
            let minor0, major0 = collections () in
            rerun_edited run;
            let minor1, major1 = collections () in
            filled := max 0 (minor1 - minor0 - (major1 - major0)) :: !filled)
      done;
      ignore (Parallel.Pool.stop p));
  Option.iter raise (Atomic.get failure);
  let inside = List.fold_left ( + ) 0 !filled in
  if inside > 1 then
    Alcotest.failf "the nursery filled inside %d of 20 edits (per edit, last first: %s)" inside
      (String.concat " " (List.map string_of_int !filled))

(* -- suite --------------------------------------------------------------------- *)

let t name f = Alcotest.test_case name `Quick f

(* Which import a name resolves to when several supply it: a later
   [require] shadows an earlier one and the language, a module-level
   definition shadows any import whether it comes before or after it, and
   a renaming [only-in] binds only the new name.  A definition never
   takes over the provider's binding, so the provider's own callers keep
   calling its definition.  A required macro's names keep meaning what
   they meant where the macro was defined, whatever the client defines.
   Each answer must hold in every mode. *)
let import_shadowing () =
  let dir = fresh_dir () in
  ignore
    (file dir "a.scm"
       "#lang racket\n(provide car cdr use-car car2 use-car2)\n\
        (define (car p) 'a-car)\n(define (cdr p) 'a-cdr)\n(define (use-car) (car 0))\n\
        (define (car2 p) 'a-car2)\n(define (use-car2) (car2 0))\n");
  ignore
    (file dir "lib.scm"
       "#lang racket\n(provide double quad)\n\
        (define (double x) (* 2 x))\n(define (quad x) (double (double x)))\n");
  ignore (file dir "b.scm" "#lang racket\n(provide car)\n(define (car p) 'b-car)\n");
  ignore (file dir "l.scm" "#lang racket\n(provide list)\n(define (list . xs) 'l-list)\n");
  ignore
    (file dir "mac.scm"
       "#lang racket\n(provide first-of call-helper)\n\
        (define-syntax-rule (first-of p) (car p))\n\
        (define (helper) 40)\n\
        (define-syntax-rule (call-helper) (helper))\n");
  let cases =
    [
      ( "two requires: the later wins",
        "#lang racket\n(require \"a.scm\")\n(require \"b.scm\")\n(display (car (cons 1 2)))\n",
        "b-car" );
      ( "a required name overrides the language's",
        "#lang racket\n(require \"l.scm\")\n(display (list 1 2))\n",
        "l-list" );
      ( "a definition before the require wins",
        "#lang racket\n(define (car p) 'own-car)\n(require \"a.scm\")\n\
         (display (list (car (cons 1 2)) (use-car)))\n",
        "(own-car a-car)" );
      ( "a definition after the require wins",
        "#lang racket\n(require \"a.scm\")\n(define (car p) 'own-car)\n\
         (display (list (car (cons 1 2)) (use-car)))\n",
        "(own-car a-car)" );
      ( "a definition before the require leaves the provider's callers theirs",
        "#lang racket\n(define (double x) 'user)\n(require \"lib.scm\")\n\
         (display (list (double 1) (quad 1)))\n",
        "(user 4)" );
      ( "a definition after the require leaves the provider's callers theirs",
        "#lang racket\n(require \"lib.scm\")\n(define (double x) 'user)\n\
         (display (list (double 1) (quad 1)))\n",
        "(user 4)" );
      ( "a definition before a renaming only-in wins",
        "#lang racket\n(define (x p) 'user)\n(require (only-in \"a.scm\" [car2 x] use-car2))\n\
         (display (list (x 1) (use-car2)))\n",
        "(user a-car2)" );
      ( "a definition after a renaming only-in wins",
        "#lang racket\n(require (only-in \"a.scm\" [car2 x] use-car2))\n(define (x p) 'user)\n\
         (display (list (x 1) (use-car2)))\n",
        "(user a-car2)" );
      ( "a renaming only-in keeps the language's name",
        "#lang racket\n(require (only-in \"a.scm\" [car acar]))\n(display (list (car (cons 1 2)) (acar 0)))\n",
        "(1 a-car)" );
      ( "free-identifier=? sees the renaming",
        "#lang racket\n(require (only-in \"a.scm\" [car acar]))\n\
         (define-syntax (fid stx)\n\
        \  (let ([xs (syntax->list stx)])\n\
        \    (if (free-identifier=? (cadr xs) (caddr xs)) #''yes #''no)))\n\
         (display (list (fid car acar) (fid cdr cdr)))\n",
        "(no yes)" );
      ( "a required macro's car is the language's, whatever the client defines",
        "#lang racket\n(require \"mac.scm\")\n(define (car p) 'own-car)\n(display (first-of (cons 1 2)))\n",
        "1" );
      ( "a required macro's helper is its module's, whatever the client defines",
        "#lang racket\n(require \"mac.scm\")\n(define (helper) 'own)\n(display (list (helper) (call-helper)))\n",
        "(own 40)" );
      ( "a macro's own require binds nothing the client defines",
        "#lang racket\n\
         (define-syntax-rule (def-a-car get) (begin (require \"a.scm\") (define (get p) (car p))))\n\
         (define (car p) 'own-car)\n(def-a-car a-car-of)\n(display (list (a-car-of (cons 1 2)) (car 0)))\n",
        "(a-car own-car)" );
      ( "a definition named like a core form leaves the language's macros theirs",
        "#lang racket\n(define (if a b c) 'my-if)\n\
         (define (g x) (cond [(> x 0) 'pos] [else 'nonpos]))\n(display (list (g 5) (if 1 2 3)))\n",
        "(pos my-if)" );
    ]
  in
  let programs =
    List.mapi (fun i (_, text, _) -> Matrix.Files [ file dir (Printf.sprintf "main%d.scm" i) text ]) cases
  in
  List.iter2
    (fun (what, _, want) (o : Matrix.outcome) -> check_s what want o.out)
    cases (agree (modes dir) programs)

(* A client's link alias is made from the name its owner knows the
   binding by, so the client's artifact is byte-identical whether its
   provider was compiled in the same session or loaded from the store.
   Here [get-secret]'s template names the [secret] its macro introduced,
   which the provider writes as [secret_1]. *)
let link_aliases_deterministic () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  ignore
    (file dir "lib.scm"
       "#lang racket\n\
        (define-syntax-rule (make-get get) (begin (define secret 'macro-secret) \
        (define-syntax-rule (get) secret)))\n\
        (make-get get-secret)\n(define secret 'user-secret)\n(provide get-secret)\n");
  let client = file dir "client.scm" "#lang racket\n(require \"lib.scm\")\n(display (get-secret))\n" in
  let art = Matrix.artifact ~store:cache client in
  let together, c = run_measured ~cache client in
  check_s "compiled together" "macro-secret" together;
  check_i "both compile" 2 (compiles c);
  let first = read_file art in
  check_b "the client links the macro's secret" true (contains first "secret_1");
  Sys.remove art;
  let apart, c = run_measured ~cache client in
  check_s "provider from the store" "macro-secret" apart;
  check_i "the provider loads from its artifact" 1 (hits c);
  check_s "client artifact byte-identical" first (read_file art)

(* A deferred range is read only when it runs, after the integrity
   trailer covered it and the index framed it, so one that does not read
   as one datum was written wrong: it is reported as a writer bug naming
   the module and the range, never as a corrupt artifact.  The damage
   here keeps every byte in its place, under a recomputed trailer: [sq]'s
   right-hand side loses a closing paren to a space. *)
let deferred_range_writer_bug () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let main = file dir "main.scm" "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n" in
  check_s "cold" "81" (run_file ~cache main);
  let key = Compiled.Resolver.module_key main in
  let art = Matrix.artifact ~store:cache key in
  let text = strip_trailer (read_file art) in
  let damaged = replace_first text "* x x)))" "* x x ))" in
  check_b "right-hand side damaged" true (damaged <> text);
  write_file art (with_trailer damaged);
  let store = Compiled.Store.create ~dir:cache () in
  Compiled.reset_session ();
  (match
     Prims.with_captured_output (fun () ->
         Compiled.Store.with_store (Some store) (fun () ->
             Modsys.instantiate (Compiled.compile_file main)))
   with
  | _ -> Alcotest.fail "a damaged right-hand side ran"
  | exception Compiled.Artifact.Writer_bug m ->
      check_b "names the module" true (contains m key);
      check_b "names the range" true (contains m "bytes"));
  check_i "never read as corrupt" 0 (Hashtbl.length store.Compiled.Store.corrupt_reads);
  check_b "the artifact stays" true (Sys.file_exists art)

(* The class the index records for a form must agree with what the
   form's head means at load.  A define-values recorded as an expression,
   under a recomputed trailer so that the text itself is intact, fails
   the load: the module recompiles and prints the same output. *)
let index_class_must_agree () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let main = file dir "main.scm" "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n" in
  check_s "cold" "81" (run_file ~cache main);
  let art = Matrix.artifact ~store:cache main in
  let text = strip_trailer (read_file art) in
  let entry = "(define define-values (sq) 7 27 68)" in
  check_b "the index records sq's define-values" true (contains text entry);
  write_file art (with_trailer (replace_first text entry "(expr define-values 7 68)"));
  let warm, c = run_measured ~cache main in
  check_s "same output" "81" warm;
  check_i "the module recompiles" 1 (compiles c);
  check_i "its artifact is stale" 1 (stale c)

(* A hostile cache location degrades to compiling, never to an error:
   any unusable store, like any unusable artifact, costs a recompile
   (docs/compilation.md).  There is no unwritable-permission case: a test
   may run as root, where chmod 0 is no barrier. *)
let hostile_cache_dirs () =
  List.iter
    (fun (what, prepare) ->
      let dir = fresh_dir () in
      let src =
        file dir "prog.scm"
          "#lang racket\n(define (tri n) (if (= n 0) 0 (+ n (tri (- n 1)))))\n(display (tri 7))\n"
      in
      let out, r =
        Prims.with_captured_output (fun () ->
            Liblang_core.Pipeline.run_file ~cache_dir:(prepare dir src) src)
      in
      check_b (what ^ ": runs") true (Result.is_ok r);
      check_s (what ^ ": prints its answer") "28" out)
    [
      (* mkdir fails, every write fails, reads find nothing *)
      ("a regular file", fun dir _ -> file dir "cache" "not a directory\n");
      (* reads find no artifact, and the write's rename fails *)
      ( "a directory at the artifact's path",
        fun dir src ->
          let cache = Filename.concat dir "cache" in
          Unix.mkdir cache 0o755;
          Unix.mkdir (Matrix.artifact ~store:cache src) 0o755;
          cache );
      (* the store's single mkdir cannot create a/b/c: every access misses *)
      ("a missing nested directory", fun dir _ -> Filename.concat dir "a/b/c");
    ]

(* -- the default path stays lean ------------------------------------------------ *)

let artifacts store = List.map (Filename.concat store) (Matrix.artifacts store)

let rec has_span name (s : Metrics.span) =
  s.Metrics.name = name || List.exists (has_span name) (Metrics.kids s)

let lowered c = List.exists (has_span "lower") (Metrics.spans c)

(* [path] compiled, or run, through the store [cache] as [liblang compile]
   or [run] in a fresh process would: the collector. *)
let fresh_compile cache path =
  Compiled.reset_session ();
  counted "compile" (fun observe -> Liblang_core.Pipeline.compile_file ~cache_dir:cache ~observe path)

let fresh_run cache path =
  Compiled.reset_session ();
  counted "run" (fun observe -> Liblang_core.Pipeline.run_file ~cache_dir:cache ~observe path)

(* Only the VM lowers to bytecode, at a form's first evaluation: a cold
   compile and a warm run of the examples, the typed float loop of
   floats.scm included, lower nothing, and no artifact carries a
   (bytecode ...) section (docs/backend.md). *)
let no_bytecode_on_the_default_path () =
  let cache = Filename.concat (fresh_dir ()) "cache" in
  let main = Filename.concat examples "main.scm" in
  let cold = fresh_compile cache main in
  let warm = fresh_run cache main in
  check_b "the cold compile lowers nothing" false (lowered cold);
  check_b "the warm run lowers nothing" false (lowered warm);
  check_i "the warm run loads every module" (List.length (artifacts cache)) (hits warm);
  List.iter
    (fun a ->
      if List.exists (String.starts_with ~prefix:"(bytecode") (String.split_on_char '\n' (read_file a)) then
        Alcotest.failf "%s carries a (bytecode ...) section" a)
    (artifacts cache)

(* An 8-module wide project compiled cold into a fresh store: its root
   and the store. *)
let wide_store () =
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let root, _ = Genproj.generate ~dir ~shape:Genproj.Wide ~n:8 () in
  ignore (fresh_compile cache root);
  (root, cache)

(* An artifact's names alone fix their bindings, so a warm run compiles
   each body form from its datum: no body goes through the expander, no
   scope is pushed, and a name resolves once per load, not once per
   occurrence (docs/compilation.md). *)
let warm_loads_skip_the_expander () =
  let root, cache = wide_store () in
  let c = fresh_run cache root in
  let resolutions = Metrics.get c "expand.resolve_hits" + Metrics.get c "expand.resolve_misses" in
  check_i "modules loaded" 8 (hits c);
  check_i "stx.scope_pushes" 0 (Metrics.get c "stx.scope_pushes");
  if resolutions > 100 * hits c then
    Alcotest.failf "%d resolutions for %d loaded modules, over 100 each" resolutions (hits c)

(* What a load reads of [artifact]: its header, the first two lines, and
   the ranges its index records as read at load, [(load START END LINE)]. *)
let load_time_bytes artifact =
  let text = read_file artifact in
  let nl = String.index text '\n' in
  let header = String.index_from text (nl + 1) '\n' in
  let index = String.sub text (nl + 1) (header - nl - 1) in
  List.fold_left
    (fun n entry -> n + Option.value ~default:0 (Scanf.sscanf_opt entry "load %d %d" (fun s e -> e - s)))
    header (String.split_on_char '(' index)

(* A warm compile parses no deferred body: define-values right-hand sides
   and expressions are read only when they run (docs/compilation.md). *)
let warm_compile_reads_no_deferred_body () =
  let root, cache = wide_store () in
  let c = fresh_compile cache root in
  let bound = List.fold_left (fun n a -> n + load_time_bytes a) 0 (artifacts cache) in
  check_i "compiles" 0 (compiles c);
  check_i "modules loaded" 8 (hits c);
  let read = Metrics.get c "reader.bytes" in
  if read > bound then
    Alcotest.failf "the warm compile parsed %d bytes, over the %d of headers and forms read at load" read
      bound

let suite =
  cleaning
  [
    t "file require: basic" file_require_basic;
    t "file require: relative to requiring file" file_require_relative_nesting;
    t "file require: missing file" file_require_missing;
    t "file require: cross-file cycle" file_require_cycle;
    t "canonicalization: one key per file" canonicalization_one_key_per_file;
    t "warm run: zero compiles, all hits" warm_run_zero_compiles;
    t "import shadowing holds cold and warm" import_shadowing;
    t "invalidation: exactly the dependents" dependent_invalidation_exact;
    t_corrupt;
    t_truncated;
    t_version_skew;
    t_v4_bytecode;
    t "stale source rejected before the body parses" stale_before_body;
    t_stale_source;
    t "store: a hostile cache dir degrades to compiling" hostile_cache_dirs;
    t "stale transitive require" stale_transitive_require;
    t "§5 replay: types from artifact" replay_types_from_artifact;
    t "§6.2 replay: boundary contracts" replay_boundary_contracts;
    parallel_determinism Genproj.Wide;
    parallel_determinism Genproj.Diamond;
    parallel_determinism Genproj.Chain;
    t "concurrent store: K domains, one cache" concurrent_store_stress;
    t "fault plan: parse + reject" plan_parse;
    t "fault plan: decisions are deterministic" deterministic_decisions;
    t "fault hooks: inert when off" hooks_inert_when_off;
    t "store: tmp sweep on open" tmp_sweep_on_open;
    t "store: quarantine after repeated corruption" quarantine_after_repeated_corruption;
    t_bitflip;
    t "store: torn write heals by recompiling" torn_write_replayed;
    t "store: injected read errors degrade" injected_read_error_degrades;
    t "build: worker death does not hang join" worker_death_does_not_hang;
    t "build: per-task deadline times out" task_deadline_times_out;
    t "build: transient retries counted" transient_retries_counted;
    t "expander: macro fuel is per module" fuel_is_per_module;
    t "one path: every parse error, in every mode" every_parse_error_reported;
    t "one path: diagnostics identical in every mode" diagnostics_identical_across_modes;
    t "one path: earlier files requirable by basename" earlier_files_requirable_by_basename;
    t "one path: a second run prints again" second_run_prints_again;
    t "type names follow the require graph" type_names_follow_requires;
    t "type names: each module its own definition" type_names_per_module;
    t "type names: a recursive type across a require" recursive_type_across_require;
    t "type names: a module's own definition outranks an import's" own_type_outranks_import;
    t "a macro template keeps its meaning in an artifact" macro_template_keeps_meaning;
    t "memory: 50 recompiles leave no scope sets or binders behind" recompiles_leave_nothing;
    t "memory: 100 edits do not grow the live heap" edits_do_not_grow_the_heap;
    t "memory: an edit fits the daemon worker's minor heap" an_edit_fits_the_daemon_nursery;
    t "stale require rejected before the body parses" stale_require_before_body;
    t "link aliases do not depend on how the owner was acquired" link_aliases_deterministic;
    t "a deferred range that does not read is a writer bug" deferred_range_writer_bug;
    t "an index class that disagrees with the form fails the load" index_class_must_agree;
    t "default path: no bytecode, cold or warm" no_bytecode_on_the_default_path;
    t "warm run: bodies skip the expander" warm_loads_skip_the_expander;
    t "warm compile: no deferred body is parsed" warm_compile_reads_no_deferred_body;
    t "memory: an idle daemon worker keeps its edits free of minor collections"
      idle_worker_edits_do_not_collect;
  ]
