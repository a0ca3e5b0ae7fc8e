(** Crash-containment corpus runner.

    Feeds every adversarial program under [test/corpus/*.scm] through the
    fault-contained pipeline and asserts, for each one:

    - it produces at least one diagnostic (these programs are all broken
      on purpose — succeeding silently would be a bug in the corpus);
    - no diagnostic is [Internal] (an [Internal] diagnostic means an
      exception escaped a phase uncontained);
    - it terminates within the wall-clock cap (divergence must be cut off
      by fuel, not by the operator's patience).

    Usage: [crashcheck [CORPUS-DIR]] (default: test/corpus, resolved
    relative to the current directory or the repository root).  Exit code
    0 when every file is contained, 1 otherwise. *)

module Pipeline = Liblang_core.Pipeline
module Diagnostic = Pipeline.Diagnostic
module Core = Liblang_core.Core

exception Timeout

(* Wall-clock backstop: with fuel at 200k steps nothing here should take
   more than a fraction of a second; 10s means something escaped the
   fuel accounting entirely. *)
let time_cap_seconds = 10

let with_time_cap f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout))
  in
  ignore (Unix.alarm time_cap_seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

let check_file path : (string, string) result =
  (* isolate module registries between corpus files *)
  Core.Modsys.reset_user_modules_for_tests ();
  match
    with_time_cap (fun () ->
        (* capture the object program's output so the report stays readable *)
        Core.Prims.with_captured_output (fun () -> Pipeline.run_file ~fuel:200_000 path))
  with
  | exception Timeout -> Error "timed out (divergence escaped the fuel budget)"
  | exception e -> Error ("uncaught exception escaped the pipeline: " ^ Printexc.to_string e)
  | _, Ok _ -> Error "ran to completion, but every corpus program is broken on purpose"
  | _, Error [] -> Error "failed with an empty diagnostic list"
  | _, Error ds -> (
      match List.filter Diagnostic.is_internal ds with
      | [] ->
          Ok
            (Printf.sprintf "%d diagnostic%s (first: %s)" (List.length ds)
               (if List.length ds = 1 then "" else "s")
               (Diagnostic.to_string (List.hd ds)))
      | internal ->
          Error
            ("internal diagnostic (exception escaped containment): "
            ^ Diagnostic.to_string (List.hd internal)))

(* -- adversarial cache dirs ----------------------------------------------------

   The artifact store must never break a run: "any unusable artifact (or
   store) degrades to a recompile, never an error" (docs/compilation.md).
   Each case runs a tiny valid program through [run_file ?cache_dir]
   against a hostile cache location and asserts the program still prints
   its answer.  (Unwritable-permission cases are deliberately absent: CI
   and containers often run as root, where chmod 0 is not a barrier.) *)

let rec rm_rf (path : string) =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let run_cache_dir_case ~work (prepare : string -> string) : (string, string) result =
  let src = Filename.concat work "prog.scm" in
  let oc = open_out_bin src in
  output_string oc "#lang racket\n(define (tri n) (if (= n 0) 0 (+ n (tri (- n 1)))))\n(display (tri 7))\n";
  close_out oc;
  let cache_dir = prepare work in
  match
    with_time_cap (fun () ->
        Core.Prims.with_captured_output (fun () ->
            Pipeline.run_file ~fuel:200_000 ~cache_dir src))
  with
  | exception Timeout -> Error "timed out against a hostile cache dir"
  | exception e -> Error ("uncaught exception escaped the pipeline: " ^ Printexc.to_string e)
  | out, Ok _ ->
      if String.equal out "28" then Ok "ran correctly despite the hostile cache dir"
      else Error (Printf.sprintf "printed %S, expected \"28\"" out)
  | _, Error ds ->
      Error
        ("cache trouble broke the run: "
        ^ (match ds with d :: _ -> Diagnostic.to_string d | [] -> "(no diagnostics)"))

(* Each case works in its own directory under the temp dir, removed when
   the case ends, pass or fail. *)
let check_cache_dir_case ~(label : string) (prepare : string -> string) :
    (string, string) result =
  Core.Modsys.reset_user_modules_for_tests ();
  Core.Compiled.reset_session ();
  let work =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crashcheck-cache-%d-%s" (Unix.getpid ()) label)
  in
  (try Unix.mkdir work 0o755 with Unix.Unix_error _ -> ());
  Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> run_cache_dir_case ~work prepare)

let cache_dir_cases =
  [
    ( "cache-dir-is-a-file",
      fun work ->
        (* the would-be cache directory already exists as a regular file:
           mkdir fails, every write fails, reads find nothing *)
        let path = Filename.concat work "cache-as-file" in
        let oc = open_out_bin path in
        output_string oc "not a directory\n";
        close_out oc;
        path );
    ( "artifact-path-is-a-dir",
      fun work ->
        (* the module's artifact path inside the cache is occupied by a
           directory: reads are unreadable, the write's rename fails *)
        let cache = Filename.concat work "cache-art-dir" in
        Unix.mkdir cache 0o755;
        let key = Core.Compiled.Resolver.module_key (Filename.concat work "prog.scm") in
        let art =
          Filename.concat cache (Core.Compiled.Digest_util.key_file key ^ ".lart")
        in
        Unix.mkdir art 0o755;
        cache );
    ( "nested-missing-cache-dir",
      fun work ->
        (* a/b/c where even [a] does not exist: Store.create's single
           mkdir cannot create it, so every access misses *)
        Filename.concat (Filename.concat (Filename.concat work "a") "b") "c" );
  ]

(* -- analyzer containment ------------------------------------------------------

   [liblang analyze] over the same corpus plus the working examples: the
   0CFA pass must terminate (its monotone join lattice is finite and the
   pipeline's fuel caps expansion) and must never crash — broken
   programs get contained diagnostics, working programs get a facts
   report.  A hang or an escaped exception here is an analyzer bug, not
   a corpus property; a [~working] program (an example) that gets
   diagnostics was expanded wrong — e.g. its requires resolved from
   somewhere other than its own directory. *)

let check_analyze ?(working = false) path : (string, string) result =
  Core.Modsys.reset_user_modules_for_tests ();
  match
    with_time_cap (fun () ->
        Core.Prims.with_captured_output (fun () ->
            Pipeline.analyze_file ~fuel:200_000 path))
  with
  | exception Timeout -> Error "analysis timed out (widening failed to converge)"
  | exception e -> Error ("uncaught exception escaped the analyzer: " ^ Printexc.to_string e)
  | _, Ok lines -> Ok (Printf.sprintf "analyzed (%d report lines)" (List.length lines))
  | _, Error [] -> Error "failed with an empty diagnostic list"
  | _, Error (d :: _) when working ->
      Error ("a working example failed to analyze: " ^ Diagnostic.to_string d)
  | _, Error ds -> (
      match List.filter Diagnostic.is_internal ds with
      | [] ->
          Ok
            (Printf.sprintf "contained (%d diagnostic%s)" (List.length ds)
               (if List.length ds = 1 then "" else "s"))
      | internal ->
          Error
            ("internal diagnostic (exception escaped containment): "
            ^ Diagnostic.to_string (List.hd internal)))

(* -- engine differential gate --------------------------------------------------

   The bytecode VM must be observably identical to the closure-tree
   interpreter (docs/backend.md): for every corpus program (broken on
   purpose — the interesting case is identical *diagnostics*, including
   where the fuel ran out) and every example program (working on purpose
   — identical output), a run under each engine must agree byte for
   byte on both captured output and the rendered diagnostic list. *)

let run_under (engine : Pipeline.engine) path : (string * string, string) result =
  Core.Modsys.reset_user_modules_for_tests ();
  match
    with_time_cap (fun () ->
        Core.Prims.with_captured_output (fun () ->
            Pipeline.run_file ~fuel:200_000 ~engine path))
  with
  | exception Timeout -> Error "timed out (divergence escaped the fuel budget)"
  | exception e -> Error ("uncaught exception escaped the pipeline: " ^ Printexc.to_string e)
  | out, Ok _ -> Ok (out, "")
  | out, Error ds -> Ok (out, String.concat "\n" (List.map Diagnostic.to_string ds))

let check_differential path : (string, string) result =
  match (run_under Pipeline.Interp path, run_under Pipeline.Vm path) with
  | Error why, _ -> Error ("interp: " ^ why)
  | _, Error why -> Error ("vm: " ^ why)
  | Ok (o1, d1), Ok (o2, d2) ->
      if not (String.equal o1 o2) then
        Error
          (Printf.sprintf "output diverges: interp %s vs vm %s"
             (Diagnostic.truncated o1) (Diagnostic.truncated o2))
      else if not (String.equal d1 d2) then
        Error
          (Printf.sprintf "diagnostics diverge: interp %s vs vm %s"
             (Diagnostic.truncated d1) (Diagnostic.truncated d2))
      else
        Ok
          (Printf.sprintf "engines agree (%d output bytes, %d diagnostic bytes)"
             (String.length o1) (String.length d1))

let find_corpus_dir () =
  match Sys.argv with
  | [| _; dir |] -> dir
  | _ ->
      if Sys.file_exists "test/corpus" then "test/corpus"
      else if Sys.file_exists "../../../test/corpus" then "../../../test/corpus"
      else "test/corpus"

let find_examples_dir () =
  if Sys.file_exists "examples/scm" then Some "examples/scm"
  else if Sys.file_exists "../../../examples/scm" then Some "../../../examples/scm"
  else None

let () =
  Core.init ();
  let dir = find_corpus_dir () in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "crashcheck: corpus directory not found: %s\n" dir;
    exit 1
  end;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scm")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then begin
    Printf.eprintf "crashcheck: no .scm files in %s\n" dir;
    exit 1
  end;
  let failures = ref 0 in
  List.iter
    (fun path ->
      let label = Filename.basename path in
      match check_file path with
      | Ok detail -> Printf.printf "  ok   %-28s %s\n%!" label detail
      | Error why ->
          incr failures;
          Printf.printf "  FAIL %-28s %s\n%!" label why)
    files;
  List.iter
    (fun (label, prepare) ->
      match check_cache_dir_case ~label prepare with
      | Ok detail -> Printf.printf "  ok   %-28s %s\n%!" label detail
      | Error why ->
          incr failures;
          Printf.printf "  FAIL %-28s %s\n%!" label why)
    cache_dir_cases;
  (* the engine differential: corpus programs plus the working examples *)
  let examples =
    match find_examples_dir () with
    | None -> []
    | Some dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".scm")
        |> List.sort compare
        |> List.map (Filename.concat dir)
  in
  let diff_files = files @ examples in
  Printf.printf "engine differential (interp vs vm):\n%!";
  List.iter
    (fun path ->
      let label = Filename.basename path in
      match check_differential path with
      | Ok detail -> Printf.printf "  ok   %-28s %s\n%!" label detail
      | Error why ->
          incr failures;
          Printf.printf "  FAIL %-28s %s\n%!" label why)
    diff_files;
  (* the analyzer leg: 0CFA over every corpus file and every example *)
  Printf.printf "analyzer containment (liblang analyze):\n%!";
  List.iter
    (fun path ->
      let label = Filename.basename path in
      match check_analyze ~working:(List.mem path examples) path with
      | Ok detail -> Printf.printf "  ok   %-28s %s\n%!" label detail
      | Error why ->
          incr failures;
          Printf.printf "  FAIL %-28s %s\n%!" label why)
    diff_files;
  Printf.printf
    "crashcheck: %d/%d corpus + cache-dir + differential + analyzer cases contained\n"
    (List.length files + List.length cache_dir_cases + (2 * List.length diff_files)
    - !failures)
    (List.length files + List.length cache_dir_cases + (2 * List.length diff_files));
  exit (if !failures = 0 then 0 else 1)
