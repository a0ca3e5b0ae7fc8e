(** The domain-parallel build driver: compile a set of root files — and
    everything they require — onto a fixed pool of worker domains, writing
    artifacts through the shared {!Store}.

    Pipeline shape:

    + {e graph}: a textual, pre-expansion require scan ({!scan_graph})
      reads each file and extracts its [(require "path")] edges,
      canonicalized exactly as the resolver would, following them to a
      transitive closure.  The scan is {e advisory}: an edge the scan
      misses (e.g. a macro-generated require) costs parallelism, never
      correctness — the worker that hits it compiles the module inline
      under the store's per-key advisory lock, exactly as the serial
      resolver would.
    + {e schedule}: modules are topologically scheduled by in-degree
      countdown onto a {!Parallel.Pool} of [jobs] domains; no task starts
      before all its scanned requires are done, so workers find their
      dependencies' artifacts warm and replay them ([module.cache_hits])
      instead of recompiling.
    + {e contain}: each task runs under its own {!Reporter}; a failing
      task records its diagnostics and {e poisons} its dependents (they
      are skipped with a note rather than racing into the same failure).
    + {e merge}: each task accumulates into its own metrics collector
      (plus its domain's resolver-cache counters) and the driver folds it
      into the ambient collector as the task settles — so [--profile]
      over a parallel build reports pool-wide totals.

    Determinism: artifacts serialize names and datums, never binding uids
    or scope ids, so a [-j N] build writes byte-identical artifacts to a
    [-j 1] build (test: [test_compiled.ml], "parallel determinism").

    [jobs = 1] never spawns and never takes a lock: tasks run serially on
    the calling domain in topological order, which is exactly the serial
    resolver's behavior. *)

module Reader = Liblang_reader.Reader
module Datum = Liblang_reader.Datum
module Diagnostic = Liblang_diagnostics.Diagnostic
module Reporter = Liblang_diagnostics.Reporter
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Parallel = Liblang_parallel.Parallel
module Fault = Liblang_fault.Fault

(* -- the require graph ------------------------------------------------------- *)

type node = {
  key : string;  (** canonical absolute path *)
  deps : string list;  (** scanned require edges (canonical keys) *)
}

(* The string-path require specs of one top-level datum, if it is a
   (require ...) form: (require "a.scm" (only-in "b.scm" f) c) contributes
   ["a.scm"; "b.scm"] — identifier requires are registry modules, not
   files. *)
let require_paths_of_datum (d : Datum.annot) : string list =
  match d.Datum.d with
  | Datum.List (hd :: specs) when Datum.is_sym "require" hd ->
      List.filter_map
        (fun (spec : Datum.annot) ->
          match spec.Datum.d with
          | Datum.Atom (Datum.Str p) -> Some p
          | Datum.List (_ :: m :: _) -> (
              match m.Datum.d with Datum.Atom (Datum.Str p) -> Some p | _ -> None)
          | _ -> None)
        specs
  | _ -> []

(* Scan one file's top-level require edges; unreadable or unparsable files
   scan as edge-free (the compiling worker surfaces the real diagnostic) —
   but observably so: a skipped scan costs parallelism, and the
   [build-scan-skipped] trace event is how a -v run sees where. *)
let scan_skipped key err =
  Trace.event "build-scan-skipped" [ ("file", key); ("error", err) ];
  []

let scan_file (key : string) : string list =
  match Store.slurp key with
  | exception Sys_error m -> scan_skipped key m
  | source -> (
      let body =
        match Reader.split_lang_line source with Some (_, rest) -> rest | None -> source
      in
      match Reader.read_all ~file:key body with
      | exception e -> scan_skipped key (Printexc.to_string e)
      | datums ->
          (* canonicalize each edge relative to this file's directory,
             exactly as the resolver will during compilation *)
          Resolver.with_dir (Filename.dirname key) @@ fun () ->
          List.concat_map require_paths_of_datum datums
          |> List.map Resolver.module_key
          |> List.sort_uniq String.compare)

(** The transitive require graph reachable from [roots] (canonical keys,
    deterministic order: depth-first from the roots). *)
let scan_graph (roots : string list) : node list =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc = ref [] in
  let rec visit key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let deps = scan_file key in
      List.iter visit deps;
      acc := { key; deps } :: !acc
    end
  in
  List.iter visit (List.map Resolver.module_key roots);
  (* reversed post-order = dependencies before dependents *)
  List.rev !acc

(* -- results ------------------------------------------------------------------ *)

type outcome =
  | Built  (** compiled from source or loaded from a valid artifact *)
  | Failed of Diagnostic.t list
  | Skipped of string  (** a scanned require failed; carries its key *)

type result = {
  jobs : int;
  graph : node list;
  outcomes : (string * outcome) list;  (** in graph order *)
  tasks : int;  (** tasks actually run (scheduled, not skipped) *)
  lock_waits : int;  (** contended store/per-key lock acquisitions *)
  retries : int;  (** task attempts re-run after transient failures *)
  timeouts : int;  (** tasks killed by their wall-clock deadline *)
  worker_deaths : int;  (** worker domains that died *)
}

let failures (r : result) : (string * Diagnostic.t list) list =
  List.filter_map
    (fun (k, o) -> match o with Failed ds -> Some (k, ds) | _ -> None)
    r.outcomes

let ok (r : result) : bool =
  List.for_all (fun (_, o) -> match o with Built -> true | _ -> false) r.outcomes

(* -- the scheduler ------------------------------------------------------------- *)

type task = {
  node : node;
  mutable unmet : int;  (** scanned requires not yet done *)
  mutable started : bool;  (** dispatched to a worker (or force-run) *)
  mutable outcome : outcome option;  (** [None] while pending/running *)
  mutable dependents : task list;
}

(* Transient failure classes: worth a bounded retry, because a second
   attempt can genuinely succeed (an injected fault's arrival index moves
   on; an I/O error may be a racing sibling).  Anything else — diagnostics,
   timeouts, real compile errors — is deterministic and retrying would
   just repeat it. *)
let transient_exn = function
  | Fault.Injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

(* One attempt at a task on the calling domain: acquire the module through
   the resolver (so through the store) under a wall-clock [deadline],
   containing failures as diagnostics.  Returns the outcome plus whether a
   failure was transient (retryable). *)
let run_task_once ~(diagnostic_of_exn : exn -> Diagnostic.t option) ~(deadline : float)
    (t : task) : outcome * bool =
  let reporter = Reporter.create () in
  match
    Reporter.with_reporter reporter (fun () ->
        Fault.with_deadline ~seconds:deadline (fun () ->
            Fault.check "build.task";
            Resolver.require_key t.node.key))
  with
  | _m when not (Reporter.has_errors reporter) -> (Built, false)
  | _m -> (Failed (Reporter.diagnostics reporter), false)
  | exception Diagnostic.Failed ds -> (Failed (Reporter.diagnostics reporter @ ds), false)
  | exception Fault.Timeout budget ->
      Atomic.incr Parallel.timeouts;
      let d =
        Diagnostic.error ~phase:Diagnostic.Module
          (Printf.sprintf "task timed out: %s exceeded its %gs deadline" t.node.key budget)
      in
      (Failed (Reporter.diagnostics reporter @ [ d ]), false)
  | exception e ->
      let d =
        match diagnostic_of_exn e with
        | Some d -> d
        | None ->
            Diagnostic.error ~phase:Diagnostic.Internal
              ("uncaught exception: " ^ Printexc.to_string e)
      in
      (Failed (Reporter.diagnostics reporter @ [ d ]), transient_exn e)

(* 1 try + 2 retries; backoff 2ms, 8ms (capped at 50ms) — enough to let a
   racing writer finish, short enough that a deterministically failing
   task still fails fast. *)
let max_task_attempts = 3

let run_task ~diagnostic_of_exn ~deadline (t : task) : outcome =
  Atomic.incr Parallel.tasks;
  let rec attempt n =
    let o, transient = run_task_once ~diagnostic_of_exn ~deadline t in
    if transient && n + 1 < max_task_attempts then begin
      Atomic.incr Parallel.retries;
      Unix.sleepf (Float.min 0.05 (0.002 *. (4.0 ** float_of_int n)));
      attempt (n + 1)
    end
    else o
  in
  attempt 0

(* Mark [t] finished, release dependents whose last dependency this was
   (or poison them if [t] failed), and return the newly ready tasks.
   Caller holds the scheduler lock (or runs single-domain). *)
let finish (t : task) (o : outcome) : task list =
  t.outcome <- Some o;
  let poison = match o with Built -> false | _ -> true in
  List.filter_map
    (fun (d : task) ->
      match d.outcome with
      | Some _ -> None
      | None ->
          if poison then begin
            d.outcome <- Some (Skipped t.node.key);
            (* transitively poison: a skipped task releases nobody, so
               poison its dependents here as well *)
            Some d
          end
          else begin
            d.unmet <- d.unmet - 1;
            if d.unmet = 0 then Some d else None
          end)
    t.dependents

let link_tasks (graph : node list) : task list =
  let by_key : (string, task) Hashtbl.t = Hashtbl.create 64 in
  let tasks =
    List.map
      (fun node ->
        let t = { node; unmet = 0; started = false; outcome = None; dependents = [] } in
        Hashtbl.replace by_key node.key t;
        t)
      graph
  in
  List.iter
    (fun t ->
      List.iter
        (fun dep ->
          match Hashtbl.find_opt by_key dep with
          | Some d when d != t ->
              d.dependents <- t :: d.dependents;
              t.unmet <- t.unmet + 1
          | _ -> ())
        t.node.deps)
    tasks;
  tasks

(* The scheduler: in-degree countdown over a {!Parallel.Pool} — [jobs]
   worker domains, or none for [jobs = 1], where every task runs on the
   calling domain in topological order (the serial resolver's behavior,
   without a spawn or a lock).  A task is submitted once all its scanned
   requires are built; a failure poisons its dependents on the spot.  When
   the pool falls idle with tasks still pending, the scanned graph has a
   cycle: one pending task is force-run so the resolver reports the cycle
   as a diagnostic instead of the build stalling.

   Each task counts into its own metrics collector, merged into the
   caller's ambient one ([merge_into]) as the task settles.

   Supervision: a worker dying before its first task (the [build.spawn]
   fault site) strands nothing — the surviving workers take the shared
   queue.  A worker dying mid-task fails that task (poisoning its
   dependents) and is replaced.  If every worker dies, whatever never ran
   fails loudly instead of reading as skipped.  Returns the number of
   worker deaths. *)
let schedule ~diagnostic_of_exn ~deadline ~(jobs : int) (tasks : task list) : int =
  let mu = Mutex.create () in
  (* the scheduler lock is real only while the pool's workers can race *)
  let locked f = if Parallel.active () then Mutex.protect mu f else f () in
  let merge_into = Metrics.current () in
  let deaths = ref 0 and death_msg = ref "" in
  let pool = ref None in
  let submit t =
    t.started <- true;
    Parallel.Pool.submit (Option.get !pool) t
  in
  (* under the lock: record [t]'s outcome, submit the dependents it
     releases and propagate poison through the ones it skips *)
  let rec settle t o =
    List.iter
      (fun d ->
        match d.outcome with
        | Some skipped -> settle d skipped
        | None -> if not d.started then submit d)
      (finish t o)
  in
  let run t =
    if locked (fun () -> t.outcome = None) then begin
      let c = Option.map (fun _ -> Metrics.create ()) merge_into in
      let o =
        Metrics.with_opt c @@ fun () ->
        Liblang_expander.Expander.with_stx_counters @@ fun () ->
        run_task ~diagnostic_of_exn ~deadline t
      in
      locked (fun () ->
          (match (merge_into, c) with Some into, Some c -> Metrics.merge ~into c | _ -> ());
          settle t o)
    end
  in
  let on_death e held =
    locked (fun () ->
        incr deaths;
        death_msg := Printexc.to_string e;
        Option.iter
          (fun t ->
            settle t
              (Failed
                 [
                   Diagnostic.error ~phase:Diagnostic.Internal
                     (Printf.sprintf "worker domain died building %s: %s" t.node.key !death_msg);
                 ]))
          held)
  in
  let p =
    Parallel.Pool.create
      ~workers:(if jobs = 1 then 0 else jobs)
      ~on_start:(fun () -> Fault.check "build.spawn")
      ~on_death ~run ()
  in
  pool := Some p;
  let rec drive () =
    if Parallel.Pool.quiesce p then
      match locked (fun () -> List.find_opt (fun t -> (not t.started) && t.outcome = None) tasks) with
      | Some t ->
          locked (fun () -> submit t);
          drive ()
      | None -> ()
  in
  Fun.protect ~finally:(fun () -> ignore (Parallel.Pool.stop p)) (fun () ->
      locked (fun () -> List.iter (fun t -> if t.unmet = 0 then submit t) tasks);
      drive ());
  (* every domain is joined: no locks needed from here on *)
  if !deaths > 0 then
    List.iter
      (fun t ->
        if t.outcome = None then
          t.outcome <-
            Some
              (Failed
                 [
                   (* Module phase, not Internal: a worker death under
                      fault injection is a contained build failure (exit
                      1), not a platform bug (exit 2) *)
                   Diagnostic.error ~phase:Diagnostic.Module
                     (Printf.sprintf "not built: a worker domain died (%s)" !death_msg);
                 ]))
      tasks;
  !deaths

(** Build [roots] (and everything they require) with [jobs] domains.
    Requires an active {!Store} for [jobs > 1] to be useful (workers
    communicate exclusively through artifacts), but does not enforce one.
    [diagnostic_of_exn] translates known pipeline exceptions to located
    diagnostics (the CLI passes the pipeline's translator).

    [task_timeout] bounds each task's wall clock (cooperatively — checked
    at store I/O and fault sites; the interpreter's fuel bounds pure
    compute): an overrun surfaces as a [Failed] timeout diagnostic, never
    a wedged pool.  An installed fault plan's [deadline=] field overrides
    it. *)
let build ?(diagnostic_of_exn = fun _ -> None) ?(task_timeout = 300.0) ~(jobs : int)
    (roots : string list) : result =
  let jobs = max 1 jobs in
  let deadline =
    match Fault.deadline_override () with Some s -> s | None -> task_timeout
  in
  let graph = Trace.span "build-graph" (fun () -> scan_graph roots) in
  let tasks = link_tasks graph in
  let jobs = min jobs (max 1 (List.length tasks)) in
  let tasks0 = Atomic.get Parallel.tasks and waits0 = Atomic.get Parallel.lock_waits in
  let retries0 = Atomic.get Parallel.retries and timeouts0 = Atomic.get Parallel.timeouts in
  let worker_deaths =
    Trace.span "build-compile" @@ fun () -> schedule ~diagnostic_of_exn ~deadline ~jobs tasks
  in
  let tasks_run = Atomic.get Parallel.tasks - tasks0 in
  let lock_waits = Atomic.get Parallel.lock_waits - waits0 in
  let retries = Atomic.get Parallel.retries - retries0 in
  let timeouts = Atomic.get Parallel.timeouts - timeouts0 in
  Metrics.countn "par.tasks" tasks_run;
  Metrics.countn "par.lock_waits" lock_waits;
  Metrics.countn "par.jobs" jobs;
  (* only when nonzero: a healthy no-fault profile stays free of
     robustness counters *)
  if retries > 0 then Metrics.countn "par.retries" retries;
  if timeouts > 0 then Metrics.countn "par.timeouts" timeouts;
  if worker_deaths > 0 then Metrics.countn "par.worker_deaths" worker_deaths;
  {
    jobs;
    graph;
    tasks = tasks_run;
    lock_waits;
    retries;
    timeouts;
    worker_deaths;
    outcomes =
      List.map
        (fun t ->
          ( t.node.key,
            match t.outcome with
            | Some o -> o
            | None -> Skipped "(scheduler: never released)" ))
        tasks;
  }
