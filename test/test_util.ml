(** Shared helpers for the test suites. *)

open Liblang_core.Core

let () = init ()

let counter = ref 0

(** [test/corpus], beside the test executable (dune copies it there), so
    the suite finds it from any working directory. *)
let corpus = Filename.concat (Filename.dirname Sys.executable_name) "corpus"

(* -- temp project directories ---------------------------------------------------- *)

let temp_dirs : string list ref = ref []

let rec rm_rf (path : string) =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

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
              List.iter rm_rf !temp_dirs;
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

(** Run, expecting an error; return a label describing which error and its
    message. *)
let run_err (src : string) : string =
  match run src with
  | out -> "no error; output: " ^ out
  | exception Value.Scheme_error m -> "runtime: " ^ m
  | exception Expander.Expand_error (m, _) -> "syntax: " ^ m
  | exception Compile.Compile_error (m, _) -> "compile: " ^ m
  | exception Modsys.Module_error (m, _) -> "module: " ^ m
  | exception Contracts.Contract_violation { blame; contract; _ } ->
      Printf.sprintf "contract: %s blaming %s" contract blame
  | exception Types.Parse_error (m, _) -> "type-parse: " ^ m
  | exception Diagnostic.Failed ds ->
      "typecheck: " ^ String.concat "; " (List.map Diagnostic.to_string ds)

let ev_err (src : string) : string =
  match ev src with
  | out -> "no error; value: " ^ out
  | exception Value.Scheme_error m -> "runtime: " ^ m
  | exception Expander.Expand_error (m, _) -> "syntax: " ^ m
  | exception Compile.Compile_error (m, _) -> "compile: " ^ m

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

exception Hung

(** Wall-clock backstop for the supervision tests: their whole point is
    that a damaged pool terminates, so a hang must fail the test rather
    than freeze the suite. *)
let with_test_alarm seconds f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Hung)) in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

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

(** Assert a typed program and its untyped twin print the same thing (the
    optimizer preserves behaviour), under the interpreter and under the
    VM, which runs the same rewritten code through its own float lane. *)
let t_agree name ~untyped ~typed =
  Alcotest.test_case name `Quick (fun () ->
      let u = run ("#lang racket\n" ^ untyped) in
      let typed () = run ("#lang typed/racket\n" ^ typed) in
      check_s name u (typed ());
      check_s (name ^ " (vm)") u
        (Liblang_core.Pipeline.with_engine Liblang_core.Pipeline.Vm typed))
