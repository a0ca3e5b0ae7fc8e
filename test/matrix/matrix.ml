(** One runner for every cross-configuration check.  §5 says a module
    means the same whether it is expanded in this process, loaded from its
    compiled form, or required by a client compiled later; §6–7 say the
    optimizer's rewrites never change what a program prints.  {!check}
    runs programs in a list of configurations and reports the first
    program and pair of configurations whose exit code, stdout or stderr
    differ, or the first configuration that did not take effect.

    A configuration runs in this process ({!in_process}: an engine, a
    typed variant, a cache state and a history) or as a [liblang run]
    subprocess ({!cli}: uncached, through a store, or through a daemon).
    In-process outcomes follow the CLI's rules, so the two compare byte
    for byte: exit 0 on success, 1 on diagnostics, 2 if any of them is
    internal, and stderr is the uncoloured rendering of the diagnostics.
    Every run has a time cap, and a hang fails, naming its
    configuration. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline
module Compiled = Core.Compiled
module Modsys = Core.Modsys
module Metrics = Core.Metrics

type outcome = { code : int; out : string; err : string }

(** Files run in order in one session, stopping at the first that fails,
    as [liblang run A B C] runs them; or a typed/untyped twin, of which
    the configuration's variant picks one file. *)
type program = Files of string list | Twin of { untyped : string; typed : string }

(** An evaluator, installed as {!Modsys.evaluator} for the run. *)
type engine = { name : string; eval : Core.Ast.t -> Core.Value.value }

let interp = { name = "interp"; eval = Core.Interp.eval_top }
let naive = { name = "naive"; eval = Core.Naive.eval_top }
let vm = { name = "vm"; eval = Core.Vm.eval_top }
let engines = [ interp; naive; vm ]

(** Which file of a twin runs, and with the optimizer ([Typed_O0]) or
    the flow analysis ([Typed_nocfa]) off; a program of files runs its
    files under any variant. *)
type variant = Untyped | Typed | Typed_O0 | Typed_nocfa

(** The store a run goes through.  [Cold store] empties [store] when its
    pass starts.  [Warm store] reads what a cold pass left in [store].
    [Edited store] reads it too, less the program's own artifacts, as
    after an edit to the program: in a fresh session, it compiles from
    source while its requires load from the store (and its artifacts are
    written back). *)
type cache = Uncached | Cold of string | Warm of string | Edited of string

(** [Fresh]: each program in a fresh session.  [Session]: a pass runs
    every program in one session, each after the ones before it. *)
type history = Fresh | Session

(** [pass ()] starts a pass over the programs (a session, a store) and
    returns the function that runs each program in turn: [None] when the
    configuration cannot take effect on the program, so it has nothing to
    compare. *)
type config = { label : string; pass : unit -> program -> outcome option }

(** Raised by a run whose configuration did not take effect or did not
    end. *)
exception Broken of string

let broken fmt = Printf.ksprintf (fun why -> raise (Broken why)) fmt

(** Fuel for every run unless a configuration says otherwise: enough for
    the examples, and it stops [test/corpus/runtime-loop.scm]. *)
let fuel = 50_000

(** Seconds a run may take. *)
let time_cap = 10

(* -- files ----------------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(** Where the store rooted at [store] keeps [file]'s artifact. *)
let artifact ~store file =
  Filename.concat store (Compiled.Digest_util.key_file (Compiled.Resolver.module_key file) ^ ".lart")

(** The names of the artifacts in [store], sorted. *)
let artifacts store =
  Sys.readdir store |> Array.to_list
  |> List.filter (fun a -> Filename.check_suffix a ".lart")
  |> List.sort compare

(** Whether every one of [files] has an artifact in [store]: a warm or
    edited run of a program that has not would only repeat the cold
    run. *)
let stored ~store files = List.for_all (fun f -> Sys.file_exists (artifact ~store f)) files

let warm_broken ~compiled ~loaded =
  broken "the warm run compiled %d modules and loaded %d from the store" compiled loaded

(* -- in process ------------------------------------------------------------------- *)

exception Timeout

(** [Some (f ())], or [None] if [f] was still running after [seconds].
    The pipeline contains every exception, the cap's included, so the cap
    is judged by whether it fired, not by what [f] returned. *)
let capped seconds f =
  let fired = ref false in
  let fire _ = fired := true; raise Timeout in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle fire) in
  ignore (Unix.alarm seconds);
  let r =
    Fun.protect
      ~finally:(fun () -> ignore (Unix.alarm 0); Sys.set_signal Sys.sigalrm previous)
      (fun () -> match f () with v -> Some v | exception _ when !fired -> None)
  in
  if !fired then None else r

let with_ref r v f =
  let saved = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := saved) f

(** The outcome of an in-process command that printed [out] and returned
    [r], by the CLI's rules. *)
let outcome out (r : (_, Pipeline.Diagnostic.t list) result) =
  match r with
  | Ok _ -> { code = 0; out; err = "" }
  | Error ds ->
      let code = if List.exists Pipeline.Diagnostic.is_internal ds then 2 else 1 in
      { code; out; err = Pipeline.render_errors ~color:false ds ^ "\n" }

(* Run [files] in order in this session, as [liblang run] does, through
   the store at [cache_dir] if given; [c] counts what they compiled.
   [registered] holds the module of every file run before in this
   session: each must still be registered when the next file runs. *)
let run_files ~fuel ?cache_dir ~jobs ~registered c files =
  let observe = { Core.Observe.metrics = Some c; trace = None } in
  let run_file f =
    List.iter (fun k -> if Modsys.find_opt k = None then broken "%s was forgotten" k) !registered;
    let r = Pipeline.run_file ~fuel ?cache_dir ~jobs ~observe f in
    let k = Compiled.Resolver.module_key f in
    if Modsys.find_opt k <> None then registered := k :: !registered;
    r
  in
  let out, r =
    Core.Prims.with_captured_output (fun () ->
        List.fold_left (fun r f -> if Result.is_ok r then run_file f else r) (Ok Core.Value.Void) files)
  in
  outcome out r

let compiles c = Metrics.get c "module.compiles"
let hits c = Metrics.get c "module.cache_hits"

(** A configuration that runs each program in this process.  Each run
    proves its configuration took effect: a warm run of a program whose
    files all have artifacts compiles nothing (and in a fresh session
    loads from the store); an edited run compiles only the files it
    edited; a run in a session finds the modules of the runs before it
    still registered.  A warm or edited run of a program whose files are
    not all {!stored} is not run. *)
let in_process ?(fuel = fuel) ?(engine = interp) ?(variant = Untyped) ?(history = Fresh)
    ?(jobs = 1) cache : config =
  let label =
    Printf.sprintf "%s %s %s %s%s" engine.name
      (match variant with
      | Untyped -> "untyped" | Typed -> "typed" | Typed_O0 -> "typed-O0" | Typed_nocfa -> "typed-nocfa")
      (match cache with
      | Uncached -> "uncached" | Cold _ -> "cold" | Warm _ -> "warm" | Edited _ -> "edited")
      (if history = Fresh then "fresh" else "session")
      (if jobs > 1 then Printf.sprintf " -j%d" jobs else "")
  in
  let with_variant f =
    match variant with
    | Untyped | Typed -> f ()
    | Typed_O0 -> with_ref Core.Optimize.enabled false f
    | Typed_nocfa -> with_ref Core.Zcfa.enabled false f
  in
  let pass () =
    (match cache with Cold dir -> rm_rf dir | _ -> ());
    Compiled.reset_session ();
    let registered = ref [] in
    let run ?cache_dir files =
      let c = Metrics.create () in
      let o =
        with_ref Modsys.evaluator engine.eval (fun () ->
            with_variant (fun () -> run_files ~fuel ?cache_dir ~jobs ~registered c files))
      in
      (o, c)
    in
    let run_program files =
      if history = Fresh then begin
        Compiled.reset_session ();
        registered := []
      end;
      match cache with
      | Uncached -> Some (fst (run files))
      | Cold store -> Some (fst (run ~cache_dir:store files))
      | (Warm store | Edited store) when not (stored ~store files) -> None
      | Warm store ->
          let o, c = run ~cache_dir:store files in
          if compiles c > 0 || (history = Fresh && hits c = 0) then
            warm_broken ~compiled:(compiles c) ~loaded:(hits c);
          Some o
      | Edited store ->
          let own = List.sort_uniq compare (List.map (artifact ~store) files) in
          List.iter Sys.remove own;
          let o, c = run ~cache_dir:store files in
          if compiles c <> List.length own then
            broken "the edited run compiled %d modules, not just its %d files" (compiles c)
              (List.length own);
          Some o
    in
    fun program ->
      let files =
        match (program, variant) with
        | Files fs, _ -> fs
        | Twin t, Untyped -> [ t.untyped ]
        | Twin t, _ -> [ t.typed ]
      in
      match capped time_cap (fun () -> run_program files) with
      | Some o -> o
      | None -> broken "no outcome within %d s" time_cap
  in
  { label; pass }

(* -- subprocesses ------------------------------------------------------------------ *)

(** Run [exe] with [args] from [cwd] (through [sh], so this process keeps
    its own working directory), with an empty stdin, and return its
    outcome; [Broken] if it is still running after {!time_cap} seconds. *)
let spawn ?cwd exe args =
  let exe, args =
    match cwd with
    | None -> (exe, args)
    | Some dir -> ("/bin/sh", "-c" :: {|cd "$0" && exec "$@"|} :: dir :: exe :: args)
  in
  let out_file = Filename.temp_file "liblang-matrix" ".out" in
  let err_file = Filename.temp_file "liblang-matrix" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out_file; err_file ])
    (fun () ->
      let input = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let output = Unix.openfile out_file [ Unix.O_WRONLY ] 0 in
      let errors = Unix.openfile err_file [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close [ input; output; errors ])
          (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) input output errors)
      in
      let deadline = Unix.gettimeofday () +. float_of_int time_cap in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.002;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            broken "no exit within %d s" time_cap
        | _, Unix.WEXITED code -> code
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> broken "killed by signal %d" s
      in
      let code = wait () in
      { code; out = read_file out_file; err = read_file err_file })

(* How many spans named [span] the run that wrote the NDJSON [trace]
   entered. *)
let entered trace span =
  let enter = Printf.sprintf {|{"ev":"enter","span":"%s"|} span in
  List.length (List.filter (String.starts_with ~prefix:enter) (String.split_on_char '\n' (read_file trace)))

(** [liblang run] of each program's files as a subprocess of [exe],
    through the daemon listening on [via_server] or the store that
    [cache] names.  A warm run proves it took effect by its trace: in a
    fresh process, it compiled no module and loaded one from the store.
    An edited client runs in process. *)
let cli ?via_server ?(cache = Uncached) exe : config =
  let flags =
    (match via_server with Some s -> [ "--via-server"; s ] | None -> [])
    @
    match cache with
    | Uncached -> []
    | Cold store | Warm store -> [ "--cache-dir"; store ]
    | Edited _ -> invalid_arg "Matrix.cli: an edited client runs in process"
  in
  let run files = spawn exe ([ "run"; "--fuel"; string_of_int fuel ] @ flags @ files) in
  let warm files =
    let trace = Filename.temp_file "liblang-matrix" ".ndjson" in
    Fun.protect
      ~finally:(fun () -> Sys.remove trace)
      (fun () ->
        let o = run ("--trace" :: trace :: files) in
        let compiled = entered trace "compile-module" and loaded = entered trace "load-module" in
        if compiled > 0 || loaded = 0 then warm_broken ~compiled ~loaded;
        o)
  in
  {
    label =
      "liblang run" ^ (if via_server = None then "" else " --via-server")
      ^ (match cache with Cold _ -> " cold" | Warm _ -> " warm" | _ -> "");
    pass =
      (fun () ->
        (match cache with Cold dir -> rm_rf dir | _ -> ());
        function
        | Twin _ -> invalid_arg "Matrix.cli: a twin runs in process"
        | Files fs -> (
            match cache with
            | Warm store when not (stored ~store fs) -> None
            | Warm _ -> Some (warm fs)
            | _ -> Some (run fs)));
  }

(** Start a compile-server daemon in a spawned domain of this process,
    its socket and store under [dir]; once it accepts connections, run
    [f socket]; then shut it down and join it, whether [f] returns or
    raises. *)
let with_daemon ?(workers = 2) ?session_ttl ?max_sessions ~dir f =
  let module Server = Liblang_server.Server in
  let module Client = Liblang_server.Client in
  let socket = Filename.concat dir "server.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let cfg =
    { Server.socket_path = socket; cache_dir; workers; default_jobs = 1; fuel = None; session_ttl; max_sessions }
  in
  let d = Domain.spawn (fun () -> Server.serve cfg) in
  let request req =
    match Client.connect ~retries:100 socket with
    | Ok c ->
        ignore (Client.request c req);
        Client.close c
    | Error m -> failwith m
  in
  Fun.protect
    ~finally:(fun () ->
      (try request Liblang_server.Protocol.Shutdown with Failure _ -> ());
      Domain.join d)
    (fun () ->
      request Liblang_server.Protocol.Status;
      f socket)

(* -- the runner ---------------------------------------------------------------------- *)

type failure =
  | Differ of {
      program : string;
      left : string;  (** the reference configuration *)
      right : string;
      stream : string;  (** ["exit code"], ["stdout"] or ["stderr"] *)
      expected : string;
      got : string;
    }
  | Failed of { program : string; config : string; why : string }

(** The first stream in which [a] and [b] differ, with each side's text. *)
let first_difference a b =
  if a.code <> b.code then Some ("exit code", string_of_int a.code, string_of_int b.code)
  else if a.out <> b.out then Some ("stdout", a.out, b.out)
  else if a.err <> b.err then Some ("stderr", a.err, b.err)
  else None

let program_name = function
  | Files fs -> String.concat " " (List.map Filename.basename fs)
  | Twin t -> Filename.basename t.untyped

exception Found of failure

(** Run every program under each configuration in turn, all programs
    under one before the next.  The first configuration is the reference:
    [Ok] carries its outcomes.  [Error] is the first program and pair of
    configurations whose outcomes differ, or the first configuration that
    broke. *)
let check (configs : config list) (programs : program list) : (outcome list, failure) result =
  let pass c =
    let run = c.pass () in
    List.map
      (fun p ->
        let failed why = Found (Failed { program = program_name p; config = c.label; why }) in
        match run p with
        | o -> (p, o, failed)
        | exception Broken why -> raise (failed why))
      programs
  in
  let differ (reference : config) c (p, o, _) e =
    match Option.bind o (first_difference e) with
    | None -> ()
    | Some (stream, expected, got) ->
        raise
          (Found
             (Differ { program = program_name p; left = reference.label; right = c.label; stream; expected; got }))
  in
  match configs with
  | [] -> invalid_arg "Matrix.check: no configuration"
  | reference :: others -> (
      try
        let expected =
          List.map
            (function _, Some o, _ -> o | _, None, failed -> raise (failed "the reference does not apply"))
            (pass reference)
        in
        List.iter (fun c -> List.iter2 (differ reference c) (pass c) expected) others;
        Ok expected
      with Found f -> Error f)

let describe = function
  | Differ d ->
      let show = Pipeline.Diagnostic.truncated ~limit:400 in
      Printf.sprintf "%s: %s and %s differ in %s\n  %s: %S\n  %s: %S" d.program d.left d.right
        d.stream d.left (show d.expected) d.right (show d.got)
  | Failed f -> Printf.sprintf "%s: %s: %s" f.program f.config f.why
