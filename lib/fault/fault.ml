(** Deterministic fault injection — the chaos layer behind [--faults].

    The separate-compilation story (paper §5, docs/compilation.md) rests
    on one promise: any unusable artifact {e degrades to a recompile,
    never an error}.  This module makes that promise testable.  A {!plan}
    — parsed from a compact textual spec — names {e sites} (the points
    where the compiled layer touches the outside world) and, per site, a
    failure {e mode} and a firing probability.  Each arrival at a site
    consults the installed plan; whether the n-th arrival fires is a pure
    function of [(seed, site, n)], so a seed reproduces a schedule
    exactly (modulo domain interleaving, which only permutes arrival
    indices between racing workers).

    Ambient and zero-cost when off, in the {!Liblang_observe.Metrics}
    mold: with no plan installed every hook is one uncontended
    [Atomic.get] and a branch — nothing on the expander's hot paths is
    touched either way, because sites only exist in the store, the build
    driver and the loader.

    {2 Sites}

    - [store.read]    reading an artifact file
    - [store.write]   serializing an artifact (before the temp write)
    - [store.rename]  the atomic rename of temp file to final path
    - [store.lock]    acquiring a per-key advisory lock
    - [build.spawn]   a worker domain starting up (fires per worker)
    - [build.task]    a scheduled build task starting
    - [loader.replay] rebuilding a live module from an artifact
    - [server.accept]  the compile server accepting a client connection
                       (an injected error drops that connection only)
    - [server.session] a compile-server request starting (an injected
                       error kills that session; the daemon survives)
    - [server.exec]    a compile-server worker domain beginning to
                       execute a dispatched request (inside the
                       request's containment: an injected error costs
                       that request an error response, nothing else)
    - [server.worker]  a compile-server worker domain taking a job off
                       the queue, {e outside} the request containment —
                       an injected error kills the worker domain itself;
                       supervision answers the held request with exit 2
                       and respawns a replacement (docs/server.md)

    {2 Modes}

    - [error]    raise {!Injected} at the site (an injected I/O failure;
                 transient for the build driver's retry classifier)
    - [torn@k]   [store.write] only: persist just the first [k] bytes —
                 a torn artifact lands at the {e final} path, as after a
                 crash between write and fsync
    - [delay@ms] sleep [ms] milliseconds at the site (sliced, so a
                 cooperative task deadline can interrupt it)
    - [crash]    [Unix._exit 42] — kill-9 semantics: no flushing, no
                 [at_exit], temp files stranded.  Only meaningful when
                 the caller is a subprocess (tools/chaos_check.sh).

    {2 Plan spec}

    Semicolon-separated fields ([,] also accepted):

    {v seed=7;deadline=15;store.write=torn@64~0.3;build.task=error~0.2 v}

    [seed=N] seeds the per-arrival decisions (default 0); [deadline=S]
    overrides the build driver's per-task wall-clock deadline (seconds);
    every other field is [SITE=MODE[@ARG][~PROB]] with [PROB] defaulting
    to 1 (fire on every arrival).  See docs/robustness.md for the full
    catalogue and the fault × layer degradation matrix.

    {2 Cooperative deadlines and cancellation}

    {!with_deadline} arms a per-domain wall-clock budget; {!check_deadline}
    raises {!Timeout} once it is exceeded.  {!with_cancel} arms the same
    checkpoints with an externally-settable flag — the compile server's
    [cancel] op sets it from the accept loop, and the worker domain
    running the request aborts with {!Cancelled} at its next checkpoint.
    Checks live at every store I/O boundary, every fault site, and inside
    sliced [delay] sleeps — so a stalled task surfaces as a diagnostic
    instead of a wedged pool.  Pure compute between checkpoints is
    bounded by the interpreter's fuel, and tools/chaos_check.sh adds an
    outer [timeout] as the hard backstop. *)

module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

type mode =
  | Error
  | Torn of int  (** byte offset at which the artifact write is cut *)
  | Delay of float  (** milliseconds *)
  | Crash

type rule = {
  site : string;
  mode : mode;
  prob : float;  (** firing probability per arrival, in [0, 1] *)
  hits : int Atomic.t;  (** arrivals so far (shared across domains) *)
}

type plan = {
  seed : int;
  deadline : float option;  (** per-task deadline override, seconds *)
  rules : rule list;
  spec : string;  (** the text this plan was parsed from, for reports *)
}

exception Injected of string * string  (** site, mode *)

(** Exit code of an injected [crash] — how tools/chaos_check.sh tells a
    scheduled crash from a real one. *)
let crash_exit_code = 42

let sites =
  [
    "store.read";
    "store.write";
    "store.rename";
    "store.lock";
    "build.spawn";
    "build.task";
    "loader.replay";
    "server.accept";
    "server.session";
    "server.exec";
    "server.worker";
  ]

let mode_to_string = function
  | Error -> "error"
  | Torn k -> Printf.sprintf "torn@%d" k
  | Delay ms -> Printf.sprintf "delay@%g" ms
  | Crash -> "crash"

(* -- the installed plan ------------------------------------------------------ *)

(* Process-wide (not DLS): parallel-build workers must see the plan the
   main domain installed, exactly as they share the artifact store. *)
let current : plan option Atomic.t = Atomic.make None

let install (p : plan option) : unit = Atomic.set current p
let active () : bool = Atomic.get current <> None

(** The plan's [deadline=S] field, if a plan with one is installed. *)
let deadline_override () : float option =
  match Atomic.get current with Some p -> p.deadline | None -> None

(** Run [f] with [p] installed (exception-safe; restores the previous
    plan).  The test-suite entry point; the CLI uses {!install}. *)
let with_plan (p : plan) (f : unit -> 'a) : 'a =
  let saved = Atomic.get current in
  Atomic.set current (Some p);
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f

(* -- deterministic per-arrival decisions -------------------------------------

   splitmix64-style finalizer: the decision for arrival [n] at [site]
   under [seed] is a pure hash, so schedules replay without any shared
   PRNG state to contend on. *)

let mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let unit_float ~seed ~site ~n : float =
  let h = Int64.of_int (Hashtbl.hash site) in
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
         (Int64.add (Int64.shift_left h 17) (Int64.of_int n)))
  in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(* -- cooperative deadlines ---------------------------------------------------- *)

exception Timeout of float  (** the budget that was exceeded, in seconds *)

exception Cancelled  (** the request owning this computation was cancelled *)

(* How many deadlines or cancellation scopes are armed anywhere;
   0 = check_deadline is one atomic load. *)
let armed = Atomic.make 0

(* (absolute expiry, budget) of the innermost deadline of this domain *)
let deadline_key : (float * float) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* the cancellation flag of this domain's current request, if any *)
let cancel_key : bool Atomic.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let check_deadline () : unit =
  if Atomic.get armed > 0 then begin
    (match !(Domain.DLS.get cancel_key) with
    | Some flag when Atomic.get flag -> raise Cancelled
    | _ -> ());
    match !(Domain.DLS.get deadline_key) with
    | Some (expiry, budget) when Unix.gettimeofday () > expiry -> raise (Timeout budget)
    | _ -> ()
  end

(** Run [f] under a wall-clock budget of [seconds]: any
    {!check_deadline} past the expiry raises {!Timeout} (properly
    nested; an inner deadline never loosens an outer one — the sooner
    expiry wins). *)
let with_deadline ~(seconds : float) (f : unit -> 'a) : 'a =
  let slot = Domain.DLS.get deadline_key in
  let saved = !slot in
  let expiry = Unix.gettimeofday () +. seconds in
  let effective =
    match saved with
    | Some (outer, _) when outer < expiry -> saved
    | _ -> Some (expiry, seconds)
  in
  slot := effective;
  Atomic.incr armed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr armed;
      slot := saved)
    f

(** Run [f] under [flag]: once another domain sets [flag], this domain's
    next {!check_deadline} checkpoint raises {!Cancelled}.  Cooperative
    and best-effort — a computation already past its last checkpoint
    completes normally.  Nests like {!with_deadline} (the innermost flag
    wins for the extent of [f]). *)
let with_cancel (flag : bool Atomic.t) (f : unit -> 'a) : 'a =
  let slot = Domain.DLS.get cancel_key in
  let saved = !slot in
  slot := Some flag;
  Atomic.incr armed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr armed;
      slot := saved)
    f

(* -- firing ------------------------------------------------------------------- *)

let crash (_site : string) : 'a =
  (* kill -9 semantics: no buffer flushing, no at_exit sweeps *)
  Unix._exit crash_exit_code

let sleep_sliced (ms : float) : unit =
  let until = Unix.gettimeofday () +. (ms /. 1000.0) in
  let rec go () =
    check_deadline ();
    let remaining = until -. Unix.gettimeofday () in
    if remaining > 0.0 then begin
      Unix.sleepf (Float.min 0.01 remaining);
      go ()
    end
  in
  go ()

(* The n-th arrival at [site]: [Some mode] when the plan says fire.
   Every firing bumps [fault.injected] and emits a [fault-injected]
   trace event (workers have no sink, so only main-domain firings
   trace — all of them count). *)
let fire_mode (site : string) : mode option =
  match Atomic.get current with
  | None -> None
  | Some p -> (
      match List.find_opt (fun r -> String.equal r.site site) p.rules with
      | None -> None
      | Some r ->
          let n = Atomic.fetch_and_add r.hits 1 in
          if unit_float ~seed:p.seed ~site ~n < r.prob then begin
            Metrics.count "fault.injected";
            Trace.event "fault-injected"
              [ ("site", site); ("mode", mode_to_string r.mode) ];
            Some r.mode
          end
          else None)

(** The uniform site hook: no-op without a plan; otherwise fire per the
    plan — [error] (and a misplaced [torn]) raise {!Injected}, [delay]
    sleeps (sliced against the deadline), [crash] exits the process.
    Also a deadline checkpoint. *)
let check (site : string) : unit =
  if Atomic.get current != None then begin
    check_deadline ();
    match fire_mode site with
    | None -> ()
    | Some (Error | Torn _) -> raise (Injected (site, "error"))
    | Some (Delay ms) -> sleep_sliced ms
    | Some Crash -> crash site
  end

(** [store.write]'s variant of {!check}: [Some k] means the caller must
    persist only the first [k] bytes (a torn artifact); other modes are
    handled as in {!check}. *)
let torn_write (site : string) : int option =
  if Atomic.get current == None then None
  else begin
    check_deadline ();
    match fire_mode site with
    | None -> None
    | Some (Torn k) -> Some k
    | Some Error -> raise (Injected (site, "error"))
    | Some (Delay ms) ->
        sleep_sliced ms;
        None
    | Some Crash -> crash site
  end

(* -- plan parsing -------------------------------------------------------------- *)

let parse_error fmt = Printf.ksprintf (fun m -> Result.Error m) fmt

let parse_mode ~(site : string) (spec : string) : (mode * float, string) result =
  let body, prob =
    match String.index_opt spec '~' with
    | None -> (spec, Ok 1.0)
    | Some i -> (
        let p = String.sub spec (i + 1) (String.length spec - i - 1) in
        ( String.sub spec 0 i,
          match float_of_string_opt p with
          | Some f when f >= 0.0 && f <= 1.0 -> Ok f
          | _ -> parse_error "%s: bad probability %S (want 0..1)" site p ))
  in
  let name, arg =
    match String.index_opt body '@' with
    | None -> (body, None)
    | Some i ->
        (String.sub body 0 i, Some (String.sub body (i + 1) (String.length body - i - 1)))
  in
  match prob with
  | Result.Error _ as e -> e
  | Ok prob -> (
      match (name, arg) with
      | "error", None -> Ok (Error, prob)
      | "crash", None -> Ok (Crash, prob)
      | "torn", None -> Ok (Torn 64, prob)
      | "torn", Some a -> (
          match int_of_string_opt a with
          | Some k when k >= 0 -> Ok (Torn k, prob)
          | _ -> parse_error "%s: bad torn offset %S" site a)
      | "delay", None -> Ok (Delay 20.0, prob)
      | "delay", Some a -> (
          match float_of_string_opt a with
          | Some ms when ms >= 0.0 -> Ok (Delay ms, prob)
          | _ -> parse_error "%s: bad delay %S (milliseconds)" site a)
      | ("error" | "crash"), Some _ ->
          parse_error "%s: mode %s takes no @argument" site name
      | _ -> parse_error "%s: unknown mode %S (error|torn@K|delay@MS|crash)" site name)

(** Parse a plan spec (grammar above; empty fields are ignored, so
    trailing separators are fine).  [Error] carries a one-line reason
    the CLI prints verbatim. *)
let parse (spec : string) : (plan, string) result =
  let fields =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let rec go seed deadline rules = function
    | [] -> Ok { seed; deadline; rules = List.rev rules; spec }
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> parse_error "bad field %S (want KEY=VALUE)" field
        | Some i -> (
            let key = String.sub field 0 i in
            let value = String.sub field (i + 1) (String.length field - i - 1) in
            match key with
            | "seed" -> (
                match int_of_string_opt value with
                | Some s -> go s deadline rules rest
                | None -> parse_error "bad seed %S" value)
            | "deadline" -> (
                match float_of_string_opt value with
                | Some s when s > 0.0 -> go seed (Some s) rules rest
                | _ -> parse_error "bad deadline %S (seconds)" value)
            | site when List.mem site sites -> (
                match parse_mode ~site value with
                | Result.Error _ as e -> e
                | Ok (mode, prob) ->
                    (* last rule for a site wins *)
                    let rules = List.filter (fun r -> r.site <> site) rules in
                    go seed deadline
                      ({ site; mode; prob; hits = Atomic.make 0 } :: rules)
                      rest)
            | _ ->
                parse_error "unknown field %S (seed, deadline, or a site: %s)" key
                  (String.concat " " sites)))
  in
  go 0 None [] fields
