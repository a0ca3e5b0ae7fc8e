(** The configuration matrix ({!Matrix}) over the corpus: every program
    in [test/corpus] and [examples/scm] runs in this process under every
    engine, cache state and history, and as [liblang] subprocesses,
    uncached, through a store and through a daemon, and every
    configuration must exit the same way and print the same bytes on
    stdout and stderr.  Every corpus program is broken on purpose: it
    exits 1 with at least one diagnostic, none internal.  Every example
    exits 0.  The typed/untyped twins of the benchmark programs go
    through the same runner in the optimizer suite. *)

open Test_util
module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline

let scm_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scm")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let corpus_files = scm_files corpus
let example_files = scm_files examples
let files = corpus_files @ example_files
let programs = List.map (fun f -> Matrix.Files [ f ]) files

(* What the corpus programs that print before they fail print.  The
   quoted symbols must read back as themselves, and warm-hygiene.scm's
   macro binders keep apart from the user's (one line each, see the
   file). *)
let prints =
  [
    ("quoted-symbol-number.scm", "#t");
    ("quoted-symbol-space.scm", "#t");
    ("warm-hygiene.scm", "5\n(2 1)\n(#<procedure:helper> 2)\n(1 2 3)\n(quote)\n(5 #<procedure:loop>)\n");
  ]

(* The reference run of each file meets the corpus's expectation. *)
let expected (outcomes : Matrix.outcome list) =
  List.iter
    (fun (name, _) ->
      check_b (name ^ " is in the corpus") true (List.exists (fun f -> Filename.basename f = name) files))
    prints;
  List.iter2
    (fun f (o : Matrix.outcome) ->
      let name = Filename.basename f in
      if List.mem f example_files then check_i (name ^ " succeeds") 0 o.code
      else begin
        check_i (name ^ " exits 1: diagnostics, none internal") 1 o.code;
        check_b (name ^ " has a diagnostic") true (String.trim o.err <> "")
      end;
      Option.iter (fun want -> check_s (name ^ " prints") want o.out) (List.assoc_opt name prints))
    files outcomes

let reference = Matrix.in_process Matrix.Uncached

(* Under [engine]: every cache state in a fresh session, and all but the
   edited client in one long session, with stores under [dir]. *)
let configs dir (engine : Matrix.engine) =
  let store name = Filename.concat dir (engine.name ^ "-" ^ name) in
  Matrix.
    [
      in_process ~engine Uncached;
      in_process ~engine (Cold (store "fresh"));
      in_process ~engine (Warm (store "fresh"));
      in_process ~engine (Edited (store "fresh"));
      in_process ~engine ~history:Session Uncached;
      in_process ~engine ~history:Session (Cold (store "session"));
      in_process ~engine ~history:Session (Warm (store "session"));
    ]

(* Every program under the interpreter, and each program that compiles
   under the other engines: a program that does not compile never
   reaches the evaluator.  All against the interpreter run uncached. *)
let in_process () =
  let dir = fresh_dir "matrix" in
  expected (agree (configs dir Matrix.interp) programs);
  let store = Filename.concat dir "interp-fresh" in
  let compiled = List.filter (fun f -> Sys.file_exists (Matrix.artifact ~store f)) files in
  check_b "the examples compile" true (List.for_all (fun f -> List.mem f compiled) example_files);
  List.iter
    (fun (e : Matrix.engine) ->
      if e != Matrix.interp then
        ignore (agree (reference :: configs dir e) (List.map (fun f -> Matrix.Files [ f ]) compiled)))
    Matrix.engines

(* Each file as a fresh [liblang run]: uncached, then cold and warm
   through a store, so a fresh process reads what another wrote; and
   through a daemon's session.  The examples also run as one
   [liblang run A B C], where each file runs after the ones before it in
   one process. *)
let subprocesses () =
  let store = Filename.concat (fresh_dir "store") "cache" in
  Matrix.with_daemon ~dir:(fresh_dir "daemon") (fun socket ->
      ignore
        (agree
           Matrix.(
             reference
             :: List.map (fun cache -> cli ~cache liblang) [ Uncached; Cold store; Warm store ]
             @ [ cli ~via_server:socket liblang ])
           (programs @ [ Matrix.Files example_files ])));
  (* else every warm run would have been skipped *)
  check_b "the cold runs stored the examples" true (Matrix.stored ~store example_files)

(* [liblang expand] and [analyze], run from the repository root on each
   file by its relative path, print and exit as they do in process: a
   file's requires resolve from its own directory, whatever the working
   directory. *)
let expand_and_analyze () =
  let root = Filename.dirname (Filename.dirname corpus) in
  List.iter
    (fun f ->
      let rel = String.sub f (String.length root + 1) (String.length f - String.length root - 1) in
      List.iter
        (fun (cmd, command) ->
          let out, r = Core.Prims.with_captured_output (fun () -> command f) in
          let lines = String.concat "" (List.map (fun l -> l ^ "\n") (Result.value r ~default:[])) in
          let there = Matrix.spawn ~cwd:root liblang [ cmd; rel ] in
          Option.iter
            (fun (stream, a, b) -> Alcotest.failf "%s %s: in process, from the root: %s %S, %S" cmd rel stream a b)
            (Matrix.first_difference (Matrix.outcome (out ^ lines) r) there);
          check_b (cmd ^ " " ^ rel ^ ": no internal diagnostic") true (there.code < 2);
          if List.mem f example_files then check_i (cmd ^ " " ^ rel) 0 there.code)
        (* a budget runs out with the same diagnostic whatever its size *)
        [
          ("expand", fun f -> Pipeline.expand_file ~fuel:Matrix.fuel f);
          ("analyze", fun f -> Pipeline.analyze_file ~fuel:Matrix.fuel f);
        ])
    files

(* -- the runner has teeth ---------------------------------------------------------------- *)

(* An engine that compiles [car] as [cdr] is named, with the stream that
   shows it. *)
let wrong_primitive () =
  let fast1 = Core.Interp.fast1 in
  let car_is_cdr ast =
    let car = Hashtbl.find fast1 "car" in
    Hashtbl.replace fast1 "car" (Hashtbl.find fast1 "cdr");
    Fun.protect
      ~finally:(fun () -> Hashtbl.replace fast1 "car" car)
      (fun () -> Core.Interp.compile ast Core.Value.top_env)
  in
  let wrong = { Matrix.name = "car-is-cdr"; eval = car_is_cdr } in
  let p = Matrix.Files [ source_file "#lang racket\n(display (car '(1 2)))\n" ] in
  match Matrix.check [ reference; Matrix.in_process ~engine:wrong Matrix.Uncached ] [ p ] with
  | Error (Matrix.Differ d) ->
      check_s "the reference" reference.label d.left;
      check_s "the wrong engine" "car-is-cdr untyped uncached fresh" d.right;
      check_s "the stream" "stdout" d.stream;
      check_s "what each printed" "1 (2)" (d.expected ^ " " ^ d.got)
  | Ok _ -> Alcotest.fail "the wrong engine passed"
  | Error f -> Alcotest.fail (Matrix.describe f)

(* A warm run that compiles fails its own check. *)
let warm_that_compiles () =
  let store = Filename.concat (fresh_dir "matrix") "store" in
  let src = source_file "#lang racket\n(display 1)\n" in
  ignore (agree [ Matrix.in_process (Matrix.Cold store) ] [ Matrix.Files [ src ] ]);
  (* the store's artifact is now stale *)
  write_file src "#lang racket\n(display 2)\n";
  match Matrix.check [ Matrix.in_process (Matrix.Warm store) ] [ Matrix.Files [ src ] ] with
  | Error (Matrix.Failed f) ->
      check_s "names the configuration" "interp untyped warm fresh" f.config;
      check_b "says it compiled" true (contains f.why "compiled 1 modules")
  | Ok _ -> Alcotest.fail "a warm run that compiled passed"
  | Error f -> Alcotest.fail (Matrix.describe f)

let suite =
  cleaning
    [
      Alcotest.test_case "every engine, cache state and history" `Quick in_process;
      Alcotest.test_case "liblang run: uncached, cold, warm, --via-server" `Quick subprocesses;
      Alcotest.test_case "expand and analyze from the repository root" `Quick expand_and_analyze;
      Alcotest.test_case "runner: a wrong primitive is named" `Quick wrong_primitive;
      Alcotest.test_case "runner: a warm run that compiles fails" `Quick warm_that_compiles;
    ]
