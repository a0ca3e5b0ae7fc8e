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

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "liblang-test-compiled-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
  d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Where the store keeps [key]'s artifact under [cache]. *)
let artifact_file ~cache key =
  Filename.concat cache (Compiled.Digest_util.key_file key ^ ".lart")

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

(** Same, expecting an error; returns a label describing it. *)
let run_file_err ?cache path : string =
  match run_file ?cache path with
  | out -> "no error; output: " ^ out
  | exception Modsys.Module_error (m, _) -> "module: " ^ m
  | exception Core.Contracts.Contract_violation { blame; contract; _ } ->
      Printf.sprintf "contract: %s blaming %s" contract blame
  | exception Core.Diagnostic.Failed ds ->
      "typecheck: " ^ String.concat "; " (List.map Core.Diagnostic.to_string ds)

let compiles c = Metrics.get c "module.compiles"
let hits c = Metrics.get c "module.cache_hits"
let stale c = Metrics.get c "cache.stale"

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
    staleness must be counted (never an error). *)
let robustness name mutate =
  Alcotest.test_case name `Quick (fun () ->
      let dir = fresh_dir () in
      let cache = Filename.concat dir "cache" in
      let src = Filename.concat dir "m.scm" in
      write_file src "#lang racket\n(define (sq x) (* x x))\n(display (sq 9))\n";
      let cold, c0 = run_measured ~cache src in
      check_i (name ^ ": cold compiles") 1 (compiles c0);
      let art = artifact_file ~cache (Compiled.Resolver.module_key src) in
      check_b (name ^ ": artifact written") true (Sys.file_exists art);
      mutate ~src ~art;
      let warm, c = run_measured ~cache src in
      check_s (name ^ ": output byte-identical") cold warm;
      check_i (name ^ ": recompiled from source") 1 (compiles c);
      check_i (name ^ ": nothing loaded from cache") 0 (hits c);
      check_b (name ^ ": staleness counted") true (stale c >= 1);
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

let t_v2_no_bytecode =
  robustness "v2 artifact (no bytecode section)" (fun ~src:_ ~art ->
      (* regress a real v3 artifact to the v2 shape: drop the (bytecode
         ...) section, regress the version marker, and recompute the
         trailer so it is a well-formed v2 artifact rather than a corrupt
         v3 one.  The warm run must see version skew — never an error,
         never a bytecode-less replay of the v3 format *)
      let text = read_file art in
      check_b "v3 artifact carries a bytecode section" true
        (List.exists (String.starts_with ~prefix:"(bytecode ") (String.split_on_char '\n' text));
      let body =
        strip_trailer text |> String.split_on_char '\n'
        |> List.filter (fun l -> not (String.starts_with ~prefix:"(bytecode " l))
        |> String.concat "\n"
      in
      let body = replace_first body version_field "(version 2)" in
      write_file art (with_trailer body))

let t_bad_bytecode_trailer =
  robustness "damaged bytecode section caught by integrity trailer" (fun ~src:_ ~art ->
      (* flip one opcode digit inside the (bytecode ...) section only —
         header and core forms untouched, trailer left stale.  The
         integrity check must reject the artifact before the VM ever
         decodes the damaged code *)
      let text = read_file art in
      let damaged =
        String.split_on_char '\n' text
        |> List.map (fun l ->
               if String.starts_with ~prefix:"(bytecode " l then begin
                 let b = Bytes.of_string l in
                 (* mutate the first digit after the section head *)
                 let rec go i =
                   if i >= Bytes.length b then failwith "no digit in bytecode section"
                   else
                     match Bytes.get b i with
                     | '0' .. '8' as c ->
                         Bytes.set b i (Char.chr (Char.code c + 1));
                         Bytes.to_string b
                     | '9' ->
                         Bytes.set b i '8';
                         Bytes.to_string b
                     | _ -> go (i + 1)
                 in
                 go (String.length "(bytecode ")
               end
               else l)
        |> String.concat "\n"
      in
      check_b "bytecode section present and mutated" true (text <> damaged);
      write_file art damaged)

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
  let cache = Filename.concat dir "cache" in
  write_file (Filename.concat dir "lib.scm") typed_lib_source;
  let good = Filename.concat dir "good.scm" in
  write_file good "#lang racket\n(require \"lib.scm\")\n(display (scale 4))\n";
  let bad = Filename.concat dir "bad.scm" in
  write_file bad "#lang racket\n(require \"lib.scm\")\n(display (scale \"nope\"))\n";
  (* uncached reference behaviour *)
  let good_ref = run_file good in
  let bad_ref = run_file_err bad in
  check_b "reference: contract blames the untyped client" true (contains bad_ref "contract:");
  (* cold (writes artifacts), then warm from artifacts only *)
  ignore (run_measured ~cache good);
  let good_warm, c = run_measured ~cache good in
  check_i "boundary client replays fully warm" 2 (hits c);
  check_i "boundary client: no compiles warm" 0 (compiles c);
  check_s "good path identical cached/uncached" good_ref good_warm;
  ignore (run_file_err ~cache bad);
  let bad_warm = run_file_err ~cache bad in
  check_s "blame identical cached/uncached" bad_ref bad_warm

(* -- domain-parallel builds ----------------------------------------------------- *)

module Build = Compiled.Build
module Genproj = Compiled.Genproj
module Parallel = Liblang_parallel.Parallel

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
  let art = artifact_file ~cache key in
  write_file art "(liblang-artifact garbage that parses as nothing";
  Compiled.reset_session ();
  let store = Compiled.Store.create ~dir:cache () in
  let c = Metrics.create () in
  Observe.with_ctx
    { Observe.metrics = Some c; trace = None }
    (fun () ->
      let corrupt = function
        | Stdlib.Error (Compiled.Artifact.Corrupt _) -> true
        | _ -> false
      in
      check_b "first corrupt read reported" true (corrupt (Compiled.Store.read store ~key));
      check_b "second corrupt read reported" true (corrupt (Compiled.Store.read store ~key));
      check_b "third read finds nothing (quarantined)" true
        (Compiled.Store.read store ~key = Stdlib.Error Compiled.Artifact.Missing));
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

(* -- symbols that do not read back bare ------------------------------------------ *)

(** The corpus programs whose macro quotes a symbol spelled like a number
    ([42]) or with a space ([a b]) into the module body.  The artifact
    must write such a symbol so it reads back as itself: the warm run
    prints what the uncached and cold runs print, with the same
    diagnostics (each program ends in a runtime error on purpose). *)
let quoted_symbols_round_trip () =
  List.iter
    (fun name ->
      let dir = fresh_dir () in
      let cache = Filename.concat dir "cache" in
      let src = Filename.concat dir name in
      write_file src (read_file (Filename.concat "corpus" name));
      let run ?cache_dir () =
        let c = Metrics.create () in
        Compiled.reset_session ();
        let out, res =
          Prims.with_captured_output (fun () ->
              Liblang_core.Pipeline.run_file ?cache_dir
                ~observe:{ Observe.metrics = Some c; trace = None }
                src)
        in
        let diags =
          match res with
          | Ok _ -> "ok"
          | Error ds -> String.concat "\n" (List.map Core.Diagnostic.to_string ds)
        in
        (out, diags, c)
      in
      let plain, _, _ = run () in
      let cold, cold_diags, _ = run ~cache_dir:cache () in
      let warm, warm_diags, c = run ~cache_dir:cache () in
      check_s (name ^ ": uncached output") "#t" plain;
      check_s (name ^ ": cold output") plain cold;
      check_s (name ^ ": warm output equals cold") cold warm;
      check_s (name ^ ": warm diagnostics equal cold") cold_diags warm_diags;
      check_i (name ^ ": warm run loads the artifact") 1 (hits c);
      check_i (name ^ ": warm run compiles nothing") 0 (compiles c))
    [ "quoted-symbol-number.scm"; "quoted-symbol-space.scm" ]

(* -- suite --------------------------------------------------------------------- *)

let t name f = Alcotest.test_case name `Quick f

let suite =
  [
    t "file require: basic" file_require_basic;
    t "file require: relative to requiring file" file_require_relative_nesting;
    t "file require: missing file" file_require_missing;
    t "file require: cross-file cycle" file_require_cycle;
    t "canonicalization: one key per file" canonicalization_one_key_per_file;
    t "warm run: zero compiles, all hits" warm_run_zero_compiles;
    t "warm run: quoted symbols read back as themselves" quoted_symbols_round_trip;
    t "invalidation: exactly the dependents" dependent_invalidation_exact;
    t_corrupt;
    t_truncated;
    t_version_skew;
    t_v2_no_bytecode;
    t_bad_bytecode_trailer;
    t_stale_source;
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
  ]
