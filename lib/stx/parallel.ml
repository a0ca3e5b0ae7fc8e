(** The domain-parallelism gate and the one supervised domain pool that
    the parallel build ([Liblang_compiled.Build]) and the compile server
    ([Liblang_server.Server]) both run on.

    The front end's shared read-mostly tables — the {!Liblang_symbol.Symbol}
    intern table and the {!Liblang_stx.Scope} hash-cons table — must stay
    {e globally} shared across domains (their whole point is one canonical
    representative per name / per scope set, so pointer equality works), which
    means they need mutual exclusion while several domains run.  But the
    single-domain case is the common one, and those tables sit on the
    expander's hot paths, so the locks are {e gated}: {!with_gate} is a plain
    call when no domain pool is active (one uncontended [Atomic.get]), and a
    real mutex acquisition only while one is.

    Protocol: a {!Pool} with workers holds the gate open from before its
    first [Domain.spawn] until after its last [Domain.join] ({!Pool.create}
    … {!Pool.stop}), so every moment at which two domains can actually race
    is a moment at which {!active} is true in all of them — the gate cannot
    be seen "off" by one racing domain and "on" by another.  A pool with
    zero workers spawns nothing, opens no gate and takes no lock: its jobs
    run on the calling domain.

    The pool sets no GC policy: every worker runs on the default minor
    heap and the pool never calls the GC.  A caller that wants a policy
    sets it in the two hooks it runs on each worker: [on_start], before
    the worker's first job, and [on_idle], when the worker has finished
    its jobs and none is queued for it.  The compile server uses both: a
    larger nursery, emptied while its worker idles (docs/server.md,
    "Memory").  The parallel build passes neither.

    The module also hosts the pool-level counters ({!tasks}, {!lock_waits})
    that builds report as the [par.tasks] / [par.lock_waits] metrics. *)

(* Number of nested/concurrent activations; > 0 while any domain pool runs. *)
let activations = Atomic.make 0

let[@inline] active () = Atomic.get activations > 0
let enter () = Atomic.incr activations
let leave () = Atomic.decr activations

(* -- pool counters ----------------------------------------------------------

   Plain atomics (never behind a collector): the driver reads deltas around a
   build and reports them as the [par.*] metrics. *)

(** Tasks executed by domain pools (one per scheduled module compilation or
    bench cell). *)
let tasks = Atomic.make 0

(** Contended lock acquisitions under {!with_lock} — a direct measure of how
    much the shared front-end tables serialize the pool. *)
let lock_waits = Atomic.make 0

(** Task attempts re-run after a transient failure (injected fault,
    [Sys_error], [Unix_error]) — the build driver's retry loop; reported
    as [par.retries]. *)
let retries = Atomic.make 0

(** Tasks killed by their wall-clock deadline — reported as
    [par.timeouts]. *)
let timeouts = Atomic.make 0

(** Acquire [m] for the extent of [f], counting contention in
    {!lock_waits}.  Unlocks on return and on exception, as
    [Mutex.protect] does, without allocating a [finally] closure: the
    compile server holds the gate open for its whole life, so every
    symbol interned in the daemon comes through here. *)
let with_lock (m : Mutex.t) (f : unit -> 'a) : 'a =
  if not (Mutex.try_lock m) then begin
    Atomic.incr lock_waits;
    Mutex.lock m
  end;
  match f () with
  | x ->
      Mutex.unlock m;
      x
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock m;
      Printexc.raise_with_backtrace e bt

(** [with_gate m f]: run [f] under [m] while a pool is {!active}, plain
    otherwise.  Safe because activation brackets spawn…join (see above). *)
let[@inline] with_gate (m : Mutex.t) (f : unit -> 'a) : 'a =
  if active () then with_lock m f else f ()

(* -- the supervised domain pool -------------------------------------------- *)

(** A fixed set of worker domains running caller-defined jobs.

    - {e Affinity}: each worker owns a slot with its own FIFO queue, and
      all workers share one more queue.  A job submitted with [~slot]
      runs on that slot's worker, after every earlier job of the slot; a
      job without one goes to whichever worker is idle first.
    - {e Supervision}: a worker that dies holding a job (the job's [run]
      raised) first reports it through [on_death], then spawns its own
      replacement {e from the dying domain} — so the replacement's
      [Domain.DLS] state splits from the predecessor's and the slot's
      warm state survives — and exits.  A worker that dies before its
      first job ([on_start] raised) has no warm state to keep and is not
      replaced; [on_death] sees it with no job.
    - {e Idling}: a worker that has run a job and then finds neither its
      slot's queue nor the shared one holding a job runs [on_idle] once,
      outside the pool lock, before it waits; the next idle period comes
      after its next job.  A job submitted meanwhile waits for the hook
      to return.  What the hook raises is ignored.
    - {e Zero workers}: nothing is spawned; queued jobs run on the calling
      domain inside {!quiesce} and {!stop}, in submission order. *)
module Pool = struct
  type 'a t = {
    mu : Mutex.t;
    changed : Condition.t;  (** broadcast on every queue, run or liveness change *)
    slots : 'a Queue.t array;  (** one queue per worker, index = slot *)
    shared : 'a Queue.t;
    run : 'a -> unit;
    on_start : unit -> unit;
    on_idle : unit -> unit;
    on_death : exn -> 'a option -> unit;
    mutable running : int;
    mutable alive : int;  (** spawned and not yet exited, replacements included *)
    mutable stopping : bool;
    mutable domains : unit Domain.t list;  (** spawned and not yet joined *)
  }

  let inline p = Array.length p.slots = 0
  let locked p f = if inline p then f () else Mutex.protect p.mu f

  let queue p = function
    | Some s when not (inline p) -> p.slots.(s mod Array.length p.slots)
    | _ -> p.shared

  let queued_now p = Array.fold_left (fun n q -> n + Queue.length q) (Queue.length p.shared) p.slots

  (* Under [p.mu]: the next job for [slot]'s worker, its own queue first. *)
  let take p slot =
    match Queue.take_opt p.slots.(slot) with Some j -> Some j | None -> Queue.take_opt p.shared

  (* Under the lock, so the new worker cannot exit before it is counted;
     a replacement is counted before its predecessor exits, so the pool
     never reads as "no worker alive" in between. *)
  let rec spawn p slot =
    locked p (fun () ->
        p.domains <- Domain.spawn (worker p slot) :: p.domains;
        p.alive <- p.alive + 1)

  and exited p =
    locked p (fun () ->
        p.alive <- p.alive - 1;
        Condition.broadcast p.changed)

  and worker p slot () =
    match p.on_start () with
    | exception e ->
        (try p.on_death e None with _ -> ());
        exited p
    | () -> serve p slot ~idled:true

  (* [idled]: the worker has run [on_idle] since its last job (or has run
     no job yet), so finding nothing to do it waits. *)
  and serve p slot ~idled =
    let next =
      locked p (fun () ->
          let rec wait () =
            match take p slot with
            | Some j ->
                p.running <- p.running + 1;
                `Job j
            | None when p.stopping -> `Stop
            | None when not idled -> `Idle
            | None ->
                Condition.wait p.changed p.mu;
                wait ()
          in
          wait ())
    in
    match next with
    | `Stop -> exited p
    | `Idle ->
        (try p.on_idle () with _ -> ());
        serve p slot ~idled:true
    | `Job j -> (
        let finished () =
          locked p (fun () ->
              p.running <- p.running - 1;
              Condition.broadcast p.changed)
        in
        match p.run j with
        | () ->
            finished ();
            serve p slot ~idled:false
        | exception e ->
            (try p.on_death e (Some j) with _ -> ());
            (try spawn p slot with _ -> ());
            finished ();
            exited p)

  (** Start [workers] domains (none for [workers <= 0]).  [run] executes
      one job; [on_start] runs first on every worker domain; [on_idle]
      runs on a worker once per idle period (see above; never with zero
      workers); [on_death] hears about every worker death, with the job
      it held. *)
  let create ~(workers : int) ?(on_start = fun () -> ()) ?(on_idle = fun () -> ())
      ~(on_death : exn -> 'a option -> unit) ~(run : 'a -> unit) () : 'a t =
    let workers = max 0 workers in
    let p =
      {
        mu = Mutex.create ();
        changed = Condition.create ();
        slots = Array.init workers (fun _ -> Queue.create ());
        shared = Queue.create ();
        run;
        on_start;
        on_idle;
        on_death;
        running = 0;
        alive = 0;
        stopping = false;
        domains = [];
      }
    in
    if workers > 0 then enter ();
    for slot = 0 to workers - 1 do
      spawn p slot
    done;
    p

  (** Queue [job] — on [slot]'s worker when given (taken modulo the
      worker count), otherwise on the first idle worker.  Safe from any
      domain, including from inside a running job. *)
  let submit (p : 'a t) ?slot (job : 'a) : unit =
    locked p (fun () ->
        Queue.push job (queue p slot);
        Condition.broadcast p.changed)

  (* Zero workers: run queued jobs here until none is left. *)
  let drain_inline p =
    let rec go () =
      match Queue.take_opt p.shared with
      | Some j ->
          p.run j;
          go ()
      | None -> ()
    in
    go ()

  (** Block until every submitted job has finished — nothing queued or
      running — and return [true]; return [false] early if no worker is
      left alive to run what is still queued. *)
  let quiesce (p : 'a t) : bool =
    if inline p then begin
      drain_inline p;
      true
    end
    else
      Mutex.protect p.mu (fun () ->
          let rec wait () =
            let idle = queued_now p = 0 && p.running = 0 in
            if idle || p.alive = 0 then idle
            else begin
              Condition.wait p.changed p.mu;
              wait ()
            end
          in
          wait ())

  (** Jobs queued and not yet started. *)
  let queued (p : 'a t) : int = locked p (fun () -> queued_now p)

  (** Worker domains alive now. *)
  let alive (p : 'a t) : int = locked p (fun () -> p.alive)

  (** Run everything queued, join every domain (replacements included)
      and close the gate.  Returns the jobs stranded because no worker
      was left alive to run them. *)
  let stop (p : 'a t) : 'a list =
    if inline p then begin
      drain_inline p;
      []
    end
    else begin
      locked p (fun () ->
          p.stopping <- true;
          Condition.broadcast p.changed);
      (* a worker dying during the drain adds its replacement before it
         exits, so the next round joins that one too *)
      let rec join_all () =
        let ds =
          locked p (fun () ->
              let ds = p.domains in
              p.domains <- [];
              ds)
        in
        if ds <> [] then begin
          List.iter (fun d -> try Domain.join d with _ -> ()) ds;
          join_all ()
        end
      in
      join_all ();
      leave ();
      List.concat_map (fun q -> List.of_seq (Queue.to_seq q)) (p.shared :: Array.to_list p.slots)
    end
end
