(** Shared helpers for the test suites. *)

open Liblang_core.Core

let () = init ()

let counter = ref 0

(** [test/corpus] and [examples/scm], beside the test executable (dune
    copies them there), so the suite finds them from any working
    directory; and the [liblang] executable built beside the test
    directory. *)
let corpus = Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let examples = Filename.concat (Filename.dirname Sys.executable_name) "examples"

let liblang =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/liblang.exe"

(* -- temp project directories ---------------------------------------------------- *)

let temp_dirs : string list ref = ref []

let read_file = Matrix.read_file
let write_file = Matrix.write_file

(** A fresh directory under the system temp dir, removed with everything
    in it when the test that made it ends (see {!cleaning}). *)
let fresh_dir (tag : string) : string =
  let d = Filename.temp_dir ("liblang-test-" ^ tag ^ "-") "" in
  temp_dirs := d :: !temp_dirs;
  d

(** [tests], each removing the directories {!fresh_dir} made for it when
    it ends, whether it passes or fails. *)
let cleaning (tests : 'a Alcotest.test_case list) : 'a Alcotest.test_case list =
  List.map
    (fun (name, speed, f) ->
      ( name,
        speed,
        fun x ->
          Fun.protect
            ~finally:(fun () ->
              List.iter Matrix.rm_rf !temp_dirs;
              temp_dirs := [])
            (fun () -> f x) ))
    tests

let fresh name =
  incr counter;
  Printf.sprintf "%s-t%d" name !counter

(** Evaluate an expression in the racket environment; return its written
    form. *)
let ev ?lang (src : string) : string = Value.write_string (eval_expr ?lang src)

(** Run a whole #lang program; return captured output. *)
let run (src : string) : string = run_string ~name:(fresh "test-program") src

(** Declare a module under [name] (so other test programs can require it). *)
let declare ~name src = ignore (Modsys.declare ~name src)

(** What [f] raised, as a label naming the error and its message; or
    what it returned, as [what]. *)
let error_of what f : string =
  match f () with
  | v -> "no error; " ^ what ^ ": " ^ v
  | exception Value.Scheme_error m -> "runtime: " ^ m
  | exception Expander.Expand_error (m, _) -> "syntax: " ^ m
  | exception Compile.Compile_error (m, _) -> "compile: " ^ m
  | exception Modsys.Module_error (m, _) -> "module: " ^ m
  | exception Contracts.Contract_violation { blame; contract; _ } ->
      Printf.sprintf "contract: %s blaming %s" contract blame
  | exception Types.Parse_error (m, _) -> "type-parse: " ^ m
  | exception Diagnostic.Failed ds ->
      "typecheck: " ^ String.concat "; " (List.map Diagnostic.to_string ds)

(** Run or evaluate, expecting an error: {!error_of}. *)
let run_err src = error_of "output" (fun () -> run src)

let ev_err src = error_of "value" (fun () -> ev src)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** The collector of [f observe], run with a fresh metrics collector as
    [observe] and its output captured; the test fails unless [f] returns
    [Ok]. *)
let counted what f =
  let c = Metrics.create () in
  match Prims.with_captured_output (fun () -> f { Observe.metrics = Some c; trace = None }) with
  | _, Ok _ -> c
  | _, Error ds -> Alcotest.failf "%s: %s" what (String.concat "; " (List.map Diagnostic.to_string ds))

exception Hung

(** Wall-clock backstop for the supervision tests: their whole point is
    that a damaged pool terminates, so a hang must fail the test rather
    than freeze the suite. *)
let with_test_alarm seconds f =
  match Matrix.capped seconds f with Some v -> v | None -> raise Hung

(** Spin (with short sleeps) until [cond] holds; [false] after 10 s. *)
let eventually cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () = cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ())) in
  go ()

(* -- the configuration matrix ------------------------------------------------ *)

(** Fail the test unless [configs] agree on [programs] (see {!Matrix.check});
    return the reference configuration's outcomes. *)
let agree configs programs =
  match Matrix.check configs programs with
  | Ok outcomes -> outcomes
  | Error f -> Alcotest.fail (Matrix.describe f)

(** [outcomes], failing the test unless each is a success: exit 0 and
    nothing on stderr.  Configurations that fail alike agree too, so a
    program meant to run must be seen to run. *)
let succeeds (outcomes : Matrix.outcome list) =
  List.iter
    (fun (o : Matrix.outcome) ->
      if o.code <> 0 || o.err <> "" then Alcotest.failf "exit %d, stderr %S" o.code o.err)
    outcomes;
  outcomes

(** [text] written to a file [name] in [dir]; its path. *)
let file dir name text =
  let path = Filename.concat dir name in
  write_file path text;
  path

(** [text] written to a file [name] in a fresh directory; its path. *)
let source_file ?(name = "prog.scm") text = file (fresh_dir "prog") name text

(** [src], as a file, under the interpreter and under [engine], with
    [fuel] steps each: its outcome, which must be byte-identical. *)
let engines_agree ?fuel engine src =
  agree
    [ Matrix.in_process ?fuel Matrix.Uncached; Matrix.in_process ?fuel ~engine Matrix.Uncached ]
    [ Matrix.Files [ source_file src ] ]

(** A typed/untyped twin from the bodies of its two modules, each in a
    file [name]. *)
let twin ?name ~untyped ~typed () =
  Matrix.Twin
    {
      untyped = source_file ?name ("#lang racket\n" ^ untyped);
      typed = source_file ?name ("#lang typed/racket\n" ^ typed);
    }

(** Runs of a twin: untyped, the reference, then each of [variants], which
    must print what it prints (the optimizer preserves behaviour, §7).
    Runtime fuel is unlimited, as under {!run}. *)
let twin_runs variants =
  List.map
    (fun variant -> Matrix.in_process ~fuel:max_int ~variant Matrix.Uncached)
    (Matrix.Untyped :: variants)

let typed_variants = Matrix.[ Typed; Typed_O0; Typed_nocfa ]

(* -- alcotest shorthands ------------------------------------------------------ *)

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(** A test case asserting an expression evaluates (writes) to [expect]. *)
let t_ev name src expect =
  Alcotest.test_case name `Quick (fun () -> check_s src expect (ev src))

(** A test case asserting a program prints [expect]. *)
let t_run name src expect =
  Alcotest.test_case name `Quick (fun () -> check_s name expect (run src))

(** A test case asserting a program fails with an error message containing
    [fragment]. *)
let t_err name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      let msg = run_err src in
      if not (contains msg fragment) then
        Alcotest.failf "%s: expected error containing %S, got %S" name fragment msg)

(** Same for plain expressions. *)
let t_ev_err name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      let msg = ev_err src in
      if not (contains msg fragment) then
        Alcotest.failf "%s: expected error containing %S, got %S" name fragment msg)

(** Assert a typed program and its untyped twin print the same thing in
    every typed variant, and under the VM too, which runs the same
    rewritten code through its own float lane. *)
let t_agree name ~untyped ~typed =
  Alcotest.test_case name `Quick (fun () ->
      ignore
        (succeeds
           (agree
              (twin_runs typed_variants
              @ [ Matrix.(in_process ~fuel:max_int ~engine:vm ~variant:Typed Uncached) ])
              [ twin ~untyped ~typed () ])))
