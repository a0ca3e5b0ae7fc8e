(** The compile-server daemon behind [liblang serve].

    Two kinds of thread share the work (docs/server.md#concurrency):

    - The {e accept loop} — single-threaded, a {!Unix.select} over the
      listener and every live connection.  It reads frames, answers the
      control ops ([status], [cancel], [shutdown]) inline, and enqueues
      everything else ([compile]/[run]/[expand]/[analyze]) as a job for
      the worker pool.  It never executes a request, so one slow cold
      compile cannot head-of-line-block the protocol.
    - N {e worker domains} — a {!Liblang_parallel.Parallel.Pool}, the
      same pool the parallel build runs on.  Sessions are {e sticky}:
      each connection is sharded onto a home slot at accept and every one
      of its requests is submitted to that slot's worker.  Stickiness is
      load-bearing, not a convenience — a session's live modules reference
      domain-private state (namespace cells, denotation entries,
      binding-table growth are all [Domain.DLS] with spawn-time
      snapshots), so a module
      compiled on one domain cannot be instantiated on another.  The
      parallel build solves this by replaying artifacts on the main
      domain; the server solves it by never moving a session between
      domains.  A session keeps at most one job in the pool, submitting
      the next when the previous finishes, so its requests execute
      serially in arrival order and sessions sharing a slot take turns;
      sessions on different workers run concurrently.

    Clients may pipeline: several requests in flight on one connection,
    correlated by the echoed [id].  Responses to session ops come back
    in arrival order; control-op responses are written by the accept
    loop and may overtake them — out-of-order responses on one
    connection are part of the contract.  A [cancel] op sets the target
    job's flag; a queued job dies before executing, a running one aborts
    at its next cooperative checkpoint ({!Liblang_fault.Fault.with_cancel}).

    Session lifecycle: a session's warm state is a cache the daemon may
    drop — idle sessions are evicted LRU after [session_ttl] seconds,
    and [max_sessions] caps how many warm registries exist at once.  An
    evicted session transparently rebuilds from the shared artifact
    store on its next request ([hits=N, compiles=0]).

    Robustness: the loop never dies for a session's sake.  A malformed
    frame, a request that raises, or an injected [server.session] fault
    costs that client; an injected [server.accept] fault costs the
    incoming connection; a worker domain dying ([server.worker]) costs
    exactly the request it held — it is answered with exit 2 and the pool
    replaces the worker from the dying domain, so the slot's sessions
    stay warm.  The daemon answers the next request either way. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline
module Compiled = Core.Compiled
module Prims = Core.Prims
module Diagnostic = Core.Diagnostic
module Json = Core.Json
module Metrics = Core.Metrics
module Trace = Core.Trace
module Observe = Core.Observe
module Fault = Core.Fault
module Parallel = Liblang_parallel.Parallel
module P = Protocol

let default_socket = ".liblang-server.sock"

type config = {
  socket_path : string;
  cache_dir : string;  (** root of the daemon's persistent artifact store *)
  workers : int;  (** request-dispatch worker domains (clamped to >= 1) *)
  default_jobs : int;  (** build jobs for [compile] requests that don't say *)
  fuel : int option;  (** default evaluation-step budget for [run] requests *)
  session_ttl : float option;
      (** evict a session's warm state after this many idle seconds *)
  max_sessions : int option;  (** cap on warm session registries (LRU-evicted) *)
}

(** A sensible worker count for interactive use: leave a core for the
    accept loop, never oversubscribe small containers. *)
let default_workers () : int =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

(** Each request worker's minor heap, in words: 1M words, 8 MB.  An edit
    of the [daemon] benchmark's project allocates about 0.58M words, a
    warm run about 12k, and an idle worker empties a nursery more than
    half full ({!empty_nursery_if_half_full}): it collects after each
    edit, and the nine or so warm runs between two edits leave the next
    one about 0.94M words free.  Without that rule the warm runs fill the
    nursery in the middle of edits, and a 1M-word nursery made the
    median edit 3.2% slower than 4M words did (docs/server.md,
    "Memory").  [test_compiled.ml] checks that an edit fits and that
    replayed edits do not fill the nursery. *)
let worker_minor_heap_words = 1 lsl 20

(* Run first on every worker domain, replacements included: [Gc.set] is
   per-domain and [Domain.spawn] does not pass it on. *)
let size_worker_heap () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words }

(* [Gc.minor_words] of this domain when it last emptied its nursery. *)
let emptied_at = Domain.DLS.new_key (fun () -> 0.0)

(** Empty this domain's nursery if it is more than half full, and say
    whether it did.  Fullness is the words this domain allocated since
    this last emptied it; a collection another domain starts empties the
    nursery too, so the count can only run high, which costs one
    collection more at most.  The pool runs it on an idle worker
    ([on_idle]): after the reply is sent, with no job queued for it. *)
let empty_nursery_if_half_full () : bool =
  let half_full =
    Gc.minor_words () -. Domain.DLS.get emptied_at > float_of_int (worker_minor_heap_words / 2)
  in
  if half_full then begin
    Gc.minor ();
    Domain.DLS.set emptied_at (Gc.minor_words ())
  end;
  half_full

type job_state = Queued | Running

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  slot : int;  (** home pool slot — every request of this session runs there *)
  wmu : Mutex.t;  (** serializes frame writes (accept loop vs workers); guards [open_] *)
  mutable open_ : bool;  (** false once the fd is closed or EPIPE'd — no more writes *)
  mutable outstanding : job list;
      (** queued and running jobs, in arrival order (guarded by [t.mu]) *)
}

and job = {
  srv : t;
  conn_ : conn;
  env : P.envelope;
  enqueued : float;
  cancelled : bool Atomic.t;  (** set by the accept loop's [cancel] op *)
  mutable state : job_state;  (** guarded by [t.mu] *)
}

and t = {
  cfg : config;
  listener : Unix.file_descr;
  store : Compiled.Store.t;
  metrics : Metrics.t;  (** daemon-lifetime counters and span tree (for [status]) *)
  mmu : Mutex.t;
      (** gates every touch of [metrics] ({!Parallel.with_gate}): worker
          domains merge per-request collectors into it concurrently with
          the accept loop's own counts and [status] snapshots *)
  started : float;
  pool : job Parallel.Pool.t;
  mu : Mutex.t;  (** guards each connection's [outstanding] and each job's [state] *)
  mutable conns : conn list;  (** accept loop only *)
  mutable sessions_total : int;
  mutable stopping : bool;
}

(* Touch the daemon-lifetime collector.  The gate is a real mutex for the
   daemon's whole life (the worker pool holds it open), so
   worker merges, accept-loop counts and status snapshots serialize. *)
let gated (srv : t) (f : unit -> 'a) : 'a = Parallel.with_gate srv.mmu f

(* Count [name] in the daemon-lifetime collector [metrics], gated by [mmu]. *)
let count_in (metrics : Metrics.t) (mmu : Mutex.t) (name : string) : unit =
  Parallel.with_gate mmu (fun () -> Metrics.with_collector metrics (fun () -> Metrics.count name))

let daemon_count (srv : t) (name : string) : unit = count_in srv.metrics srv.mmu name

(* -- request handlers --------------------------------------------------------- *)

let num n = Json.Num (float_of_int n)

(* The per-request compile summary, computed exactly as the CLI's
   [compiled ...] line: modules touched = compiles + session hits. *)
let summary_field (c : Metrics.t) : string * Json.t =
  let g = Metrics.get c in
  ( "summary",
    Json.Obj
      [
        ("modules", num (g "module.compiles" + g "module.cache_hits"));
        ("hits", num (g "module.cache_hits"));
        ("compiles", num (g "module.compiles"));
        ("stale", num (g "cache.stale"));
        ("misses", num (g "cache.misses"));
      ] )

(* Failure fields shared by every op: a one-line [error], the structured
   [diagnostics] array, and the CLI's full [rendered] report (no color —
   the client's terminal does its own styling decisions). *)
let failure_fields (ds : Diagnostic.t list) : int * (string * Json.t) list =
  let exit = if List.exists Diagnostic.is_internal ds then 2 else 1 in
  let one (d : Diagnostic.t) =
    Json.Obj
      [
        ("severity", Json.Str (Diagnostic.severity_name d.Diagnostic.severity));
        ("phase", Json.Str (Diagnostic.phase_name d.Diagnostic.phase));
        ("message", Json.Str d.Diagnostic.message);
      ]
  in
  ( exit,
    [
      ( "error",
        Json.Str
          (match ds with d :: _ -> d.Diagnostic.message | [] -> "request failed") );
      ("diagnostics", Json.Arr (List.map one ds));
      ("rendered", Json.Str (Pipeline.render_errors ~color:false ds));
    ] )

(* Run [f] in the request's environment: the connection's session state,
   the daemon's artifact store, and — first — incremental invalidation of
   any session-loaded module whose file changed on disk since it was
   loaded (the dirty cone recompiles; everything else stays warm).  Runs
   on whichever worker domain took the job; the per-session serialization
   in the scheduler is what makes that safe. *)
let in_request_env (srv : t) (conn : conn) (f : unit -> 'a) : 'a =
  Session.enter conn.session @@ fun () ->
  Compiled.Store.with_store (Some srv.store) @@ fun () ->
  let dropped = Compiled.Resolver.invalidate_changed () in
  if dropped > 0 then begin
    Metrics.countn "server.invalidated" dropped;
    Trace.event "server-invalidated"
      [
        ("sid", string_of_int conn.session.Session.sid);
        ("modules", string_of_int dropped);
      ]
  end;
  f ()

(* Execute one session op ([compile]/[run]/[expand]/[analyze]) through
   the pipeline's file entries, as the CLI does, in the request's
   environment.  Runs on a worker domain under [Metrics.with_collector c]
   — every counter below lands in the request's private collector, merged
   into the daemon's once, after the response is built.  Control ops
   never reach here. *)
let handle (srv : t) (conn : conn) (c : Metrics.t) (env : P.envelope) : Json.t =
  let id = env.P.id and op = P.op_name env.P.req in
  let observe = { Observe.metrics = Some c; trace = Trace.current () } in
  let respond_result ok_fields = function
    | Ok v -> P.response ~id ~op ~ok:true ~exit:0 ~fields:(ok_fields v) ()
    | Error ds ->
        Metrics.count "server.errors";
        let exit, fields = failure_fields ds in
        P.response ~id ~op ~ok:false ~exit ~fields ()
  in
  (* [expand] and [analyze] answer their lines as [output] *)
  let respond_lines f =
    in_request_env srv conn f
    |> respond_result (fun lines ->
           [ ("output", Json.Str (String.concat "" (List.map (fun l -> l ^ "\n") lines))) ])
  in
  match env.P.req with
  | P.Compile { path; jobs } ->
      let jobs = match jobs with Some j -> j | None -> srv.cfg.default_jobs in
      let r =
        in_request_env srv conn (fun () ->
            Pipeline.compile_file ?fuel:srv.cfg.fuel ~jobs ~observe path)
      in
      respond_result (fun () -> [ summary_field c ]) r
  | P.Run { path; fuel } ->
      let fuel = match fuel with Some _ as f -> f | None -> srv.cfg.fuel in
      let output, r =
        Prims.with_captured_output (fun () ->
            in_request_env srv conn (fun () ->
                Pipeline.run_file ?fuel ~observe path))
      in
      let output_field = ("output", Json.Str output) in
      (match r with
      | Ok _ ->
          P.response ~id ~op ~ok:true ~exit:0
            ~fields:[ output_field; summary_field c ]
            ()
      | Error ds ->
          Metrics.count "server.errors";
          let exit, fields = failure_fields ds in
          (* partial output printed before the failure still belongs to
             the client *)
          P.response ~id ~op ~ok:false ~exit ~fields:(output_field :: fields) ())
  | P.Expand { path } ->
      respond_lines (fun () -> Pipeline.expand_file ?fuel:srv.cfg.fuel ~observe path)
  | P.Analyze { path } ->
      respond_lines (fun () -> Pipeline.analyze_file ?fuel:srv.cfg.fuel ~observe path)
  | P.Status | P.Cancel _ | P.Shutdown ->
      (* control ops are answered inline by the accept loop *)
      P.response ~id ~op ~ok:false ~exit:2
        ~fields:[ ("error", Json.Str "internal error: control op dispatched to pool") ]
        ()

(* -- sending (any thread) ------------------------------------------------------ *)

(* Write one response frame.  The connection mutex serializes the accept
   loop's inline replies against worker replies; a client that vanished
   mid-reply just loses its connection (never the daemon, never another
   client's bytes).  Never closes the fd — only the accept loop does
   that, so [select] never sees a closed descriptor. *)
let send (conn : conn) (j : Json.t) : unit =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.open_ then
        match P.write_frame conn.fd j with
        | () -> ()
        | exception Unix.Unix_error _ -> conn.open_ <- false)

(* -- the worker pool ----------------------------------------------------------- *)

(* Retire [job], its session's lead, and hand the session's turn on the
   home slot to its next outstanding job.  A session has at most one job
   in the pool at a time, so sessions sharing a slot take turns instead
   of queueing behind one pipelining client's whole backlog. *)
let finish_job (job : job) : unit =
  let conn = job.conn_ in
  let next =
    Mutex.protect job.srv.mu (fun () ->
        conn.outstanding <- List.filter (fun j -> j != job) conn.outstanding;
        match conn.outstanding with next :: _ -> Some next | [] -> None)
  in
  Option.iter (Parallel.Pool.submit job.srv.pool ~slot:conn.slot) next

(* Execute one job on its session's worker domain and send its response.
   All request counters land in a private collector merged into the
   daemon's under the gate — the merge is the only cross-domain touch. *)
let run_job (job : job) : unit =
  (* the [server.worker] fault site: deliberately OUTSIDE the containment
     below — an injected error here kills the worker domain itself, the
     supervision case (docs/robustness.md) *)
  Fault.check "server.worker";
  let srv = job.srv and conn = job.conn_ in
  Mutex.protect srv.mu (fun () -> job.state <- Running);
  let env = job.env in
  let id = env.P.id and op = P.op_name env.P.req in
  let c = Metrics.create () in
  let reply =
    Metrics.with_collector c @@ fun () ->
    Trace.elapsed "server-queued" ~since:job.enqueued;
    if Atomic.get job.cancelled then begin
      (* cancelled while queued: answer without executing anything *)
      Metrics.count "server.errors";
      Some
        (P.response ~id ~op ~ok:false ~exit:1
           ~fields:[ ("error", Json.Str "request cancelled (while queued)") ]
           ())
    end
    else if not conn.open_ then None (* client vanished; nothing to compute for *)
    else
      Some
        ( Trace.span "server-request" ~detail:op @@ fun () ->
          try
            Fault.with_cancel job.cancelled @@ fun () ->
            Fault.check "server.exec";
            handle srv conn c env
          with
          | Fault.Cancelled ->
              (* cancelled at a checkpoint outside [Pipeline.contain]
                 (inside it, the exception becomes an ordinary
                 "request cancelled" diagnostic with the same exit) *)
              Metrics.count "server.errors";
              P.response ~id ~op ~ok:false ~exit:1
                ~fields:[ ("error", Json.Str "request cancelled") ]
                ()
          | Fault.Injected (site, mode) ->
              Metrics.count "server.errors";
              P.response ~id ~op ~ok:false ~exit:1
                ~fields:
                  [
                    ( "error",
                      Json.Str (Printf.sprintf "injected fault at %s (%s)" site mode) );
                  ]
                ()
          | e ->
              (* a handler bug is an internal error for this client,
                 never a daemon crash *)
              Metrics.count "server.errors";
              P.response ~id ~op ~ok:false ~exit:2
                ~fields:
                  [ ("error", Json.Str ("internal error: " ^ Printexc.to_string e)) ]
                () )
  in
  (match reply with Some r -> send conn r | None -> ());
  gated srv (fun () -> Metrics.merge ~into:srv.metrics c);
  finish_job job

(* A worker domain died holding [job] (anything escaping [run_job]'s
   containment: an injected [server.worker] fault, stack overflow, OOM).
   Answer the request with exit 2 and retire it; the pool then replaces
   the worker from the dying domain, so the slot's sessions keep their
   live modules (namespace cells, denotations) and stay warm.  A
   worker's only start-up code sizes its minor heap. *)
let worker_died (e : exn) : job option -> unit = function
  | None -> ()
  | Some job ->
      let srv = job.srv in
      send job.conn_
        (P.response ~id:job.env.P.id ~op:(P.op_name job.env.P.req) ~ok:false ~exit:2
           ~fields:[ ("error", Json.Str ("worker domain died: " ^ Printexc.to_string e)) ]
           ());
      finish_job job;
      daemon_count srv "server.worker_deaths";
      daemon_count srv "server.errors";
      Trace.event "server-worker-died"
        [ ("slot", string_of_int job.conn_.slot); ("exn", Printexc.to_string e) ]

(* -- the accept loop ----------------------------------------------------------- *)

let close_conn (srv : t) (conn : conn) : unit =
  srv.conns <- List.filter (fun c -> c != conn) srv.conns;
  Mutex.lock conn.wmu;
  conn.open_ <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wmu

(* Append a session op to the session's backlog and, if the session has
   no other outstanding job, submit it to the home slot at once;
   otherwise [finish_job] submits it when its predecessor is done, which
   preserves per-session arrival order.  Samples the pool's queue depth
   into [server.queue_depth]. *)
let enqueue (srv : t) (conn : conn) (env : P.envelope) : unit =
  let job =
    {
      srv;
      conn_ = conn;
      env;
      enqueued = Unix.gettimeofday ();
      cancelled = Atomic.make false;
      state = Queued;
    }
  in
  conn.session.Session.warm <- true;
  let lead =
    Mutex.protect srv.mu (fun () ->
        let lead = conn.outstanding = [] in
        conn.outstanding <- conn.outstanding @ [ job ];
        lead)
  in
  if lead then Parallel.Pool.submit srv.pool ~slot:conn.slot job;
  let depth = Parallel.Pool.queued srv.pool in
  gated srv (fun () ->
      Metrics.with_collector srv.metrics (fun () ->
          Metrics.countn "server.queue_depth" depth))

(* The [cancel] op, inline on the accept loop: find the target id among
   this connection's queued/running jobs (newest first is irrelevant —
   ids are the client's to keep unique) and set its flag.  A queued job
   dies in [run_job] before executing; a running one aborts at its next
   cooperative checkpoint. *)
let cancel_response (srv : t) (conn : conn) (env : P.envelope) (target : Json.t) :
    Json.t =
  let id = env.P.id in
  let state =
    Mutex.protect srv.mu (fun () ->
        List.find_opt (fun j -> j.env.P.id = target) conn.outstanding
        |> Option.map (fun j ->
               Atomic.set j.cancelled true;
               j.state))
  in
  match state with
  | Some st ->
      daemon_count srv "server.cancelled";
      Trace.event "server-cancel"
        [
          ("sid", string_of_int conn.session.Session.sid);
          ("state", if st = Running then "inflight" else "queued");
        ];
      P.response ~id ~op:"cancel" ~ok:true ~exit:0
        ~fields:
          [ ("cancelled", Json.Str (if st = Running then "inflight" else "queued")) ]
        ()
  | None ->
      daemon_count srv "server.errors";
      P.response ~id ~op:"cancel" ~ok:false ~exit:1
        ~fields:
          [
            ( "error",
              Json.Str
                "cancel: no queued or in-flight request with that id on this \
                 connection" );
          ]
        ()

(* The [status] op, inline on the accept loop (it must answer even while
   every worker is busy — that responsiveness is what the pipelining test
   observes as an out-of-order response). *)
let status_response (srv : t) (env : P.envelope) : Json.t =
  let depth = Parallel.Pool.queued srv.pool and workers = Parallel.Pool.alive srv.pool in
  let sess =
    Mutex.protect srv.mu (fun () ->
        List.map
          (fun c ->
            ( c.session,
              c.outstanding <> [],
              List.length (List.filter (fun j -> j.state = Queued) c.outstanding) ))
          srv.conns)
  in
  let now = Unix.gettimeofday () in
  gated srv @@ fun () ->
  let g = Metrics.get srv.metrics in
  P.response ~id:env.P.id ~op:"status" ~ok:true ~exit:0
    ~fields:
      [
        ( "status",
          Json.Obj
            [
              ("pid", num (Unix.getpid ()));
              ("uptime_ms", Json.Num (1000.0 *. (now -. srv.started)));
              ("socket", Json.Str srv.cfg.socket_path);
              ("cache_dir", Json.Str srv.cfg.cache_dir);
              ("workers", num workers);
              ("queue_depth", num depth);
              ("active_sessions", num (List.length srv.conns));
              ("sessions", num srv.sessions_total);
              ("requests", num (g "server.requests"));
              ("errors", num (g "server.errors"));
              ("session_faults", num (g "server.session_faults"));
              ("accept_faults", num (g "server.accept_faults"));
              ("invalidated", num (g "server.invalidated"));
              ("cancelled", num (g "server.cancelled"));
              ("evictions", num (g "server.evictions"));
              ("worker_deaths", num (g "server.worker_deaths"));
              ("idle_collections", num (g "server.idle_collections"));
              ("compiles", num (g "module.compiles"));
              ("cache_hits", num (g "module.cache_hits"));
              ("stat_hits", num (g "module.stat_hits"));
              ( "sessions_detail",
                Json.Arr
                  (List.rev_map
                     (fun ((s : Session.t), busy, queued) ->
                       Json.Obj
                         [
                           ("sid", num s.Session.sid);
                           ("requests", num s.Session.requests);
                           ("busy", Json.Bool busy);
                           ("queued", num queued);
                           ("idle_ms", Json.Num (1000.0 *. (now -. s.Session.last_used)));
                           ("warm", Json.Bool s.Session.warm);
                           ("evictions", num s.Session.evictions);
                         ])
                     sess) );
            ] );
      ]
    ()

(* -- session lifecycle --------------------------------------------------------- *)

let evict (srv : t) (reason : string) (conn : conn) : unit =
  Trace.event "server-evicted"
    [
      ("sid", string_of_int conn.session.Session.sid);
      ("reason", reason);
      ("requests", string_of_int conn.session.Session.requests);
    ];
  Session.reset conn.session;
  daemon_count srv "server.evictions"

(* Evict idle sessions: TTL expiry first, then LRU down to the warm-registry
   cap.  Runs on the accept loop between select rounds; [srv.mu] orders
   the [outstanding] reads against finishing workers, and a session with
   queued or running work is never touched.  New jobs only
   arrive from this same thread, so a session observed idle stays idle for
   the extent of the sweep. *)
let evict_sessions (srv : t) : unit =
  if srv.cfg.session_ttl <> None || srv.cfg.max_sessions <> None then begin
    let now = Unix.gettimeofday () in
    let idle_warm =
      Mutex.protect srv.mu (fun () ->
          List.filter (fun c -> c.outstanding = [] && c.session.Session.warm) srv.conns)
    in
    (match srv.cfg.session_ttl with
    | None -> ()
    | Some ttl ->
        List.iter
          (fun c ->
            if now -. c.session.Session.last_used > ttl then evict srv "ttl" c)
          idle_warm);
    match srv.cfg.max_sessions with
    | None -> ()
    | Some cap ->
        let warm =
          List.filter (fun c -> c.session.Session.warm) srv.conns |> List.length
        in
        let excess = warm - max 0 cap in
        if excess > 0 then
          List.filter (fun c -> c.session.Session.warm) idle_warm
          |> List.sort (fun a b ->
                 compare a.session.Session.last_used b.session.Session.last_used)
          |> List.filteri (fun i _ -> i < excess)
          |> List.iter (evict srv "cap")
  end

(* -- frame dispatch ------------------------------------------------------------ *)

let serve_one (srv : t) (conn : conn) : unit =
  match P.read_frame conn.fd with
  | P.Eof -> close_conn srv conn
  | P.Malformed msg ->
      (* framing is unrecoverable once desynchronized: answer, then close *)
      daemon_count srv "server.errors";
      send conn
        (P.response ~id:Json.Null ~op:"?" ~ok:false ~exit:64
           ~fields:[ ("error", Json.Str ("protocol error: " ^ msg)) ]
           ());
      close_conn srv conn
  | P.Frame j -> (
      daemon_count srv "server.requests";
      conn.session.Session.requests <- conn.session.Session.requests + 1;
      Session.touch conn.session;
      match Fault.check "server.session" with
      | exception Fault.Injected (site, mode) ->
          (* chaos: this session dies, the daemon does not *)
          daemon_count srv "server.session_faults";
          Trace.event "server-session-killed"
            [ ("sid", string_of_int conn.session.Session.sid); ("mode", mode) ];
          send conn
            (P.response ~id:(P.raw_id j) ~op:(P.raw_op j) ~ok:false ~exit:1
               ~fields:
                 [
                   ( "error",
                     Json.Str
                       (Printf.sprintf "injected fault at %s (%s): session killed"
                          site mode) );
                 ]
               ());
          close_conn srv conn
      | () -> (
          match P.request_of_json j with
          | Error msg ->
              daemon_count srv "server.errors";
              send conn
                (P.response ~id:(P.raw_id j) ~op:(P.raw_op j) ~ok:false ~exit:64
                   ~fields:[ ("error", Json.Str msg) ]
                   ())
          | Ok env -> (
              (* control ops answer inline (and may therefore overtake
                 queued session ops — the documented out-of-order case);
                 session ops go to the pool in arrival order *)
              match env.P.req with
              | P.Status -> send conn (status_response srv env)
              | P.Cancel { target } ->
                  send conn (cancel_response srv conn env target)
              | P.Shutdown ->
                  send conn
                    (P.response ~id:env.P.id ~op:"shutdown" ~ok:true ~exit:0 ());
                  srv.stopping <- true
              | P.Compile _ | P.Run _ | P.Expand _ | P.Analyze _ ->
                  enqueue srv conn env)))

let accept_one (srv : t) : unit =
  match Unix.accept srv.listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> (
      match Fault.check "server.accept" with
      | () ->
          (* shard the new session onto its home worker round-robin *)
          let slot = srv.sessions_total mod max 1 srv.cfg.workers in
          srv.sessions_total <- srv.sessions_total + 1;
          let session = Session.create () in
          daemon_count srv "server.sessions";
          Trace.event "server-accept"
            [
              ("sid", string_of_int session.Session.sid);
              ("slot", string_of_int slot);
            ];
          srv.conns <-
            {
              fd;
              session;
              slot;
              wmu = Mutex.create ();
              open_ = true;
              outstanding = [];
            }
            :: srv.conns
      | exception Fault.Injected _ ->
          (* chaos: drop the incoming connection only *)
          daemon_count srv "server.accept_faults";
          (try Unix.close fd with Unix.Unix_error _ -> ()))

(* Select timeout: block forever unless eviction needs a periodic sweep
   (then wake at a fraction of the TTL so expiry is timely even on an
   otherwise-quiet daemon). *)
let select_timeout (cfg : config) : float =
  match cfg.session_ttl with
  | Some ttl -> Float.max 0.02 (Float.min 1.0 (ttl /. 4.0))
  | None -> ( match cfg.max_sessions with Some _ -> 1.0 | None -> -1.0)

let rec loop (srv : t) : unit =
  if not srv.stopping then begin
    (* reap connections a worker marked dead (EPIPE mid-reply) *)
    List.iter
      (fun c -> if not c.open_ then close_conn srv c)
      (List.filter (fun c -> not c.open_) srv.conns);
    evict_sessions srv;
    let fds = srv.listener :: List.map (fun c -> c.fd) srv.conns in
    match Unix.select fds [] [] (select_timeout srv.cfg) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop srv
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if srv.stopping then ()
            else if fd = srv.listener then accept_one srv
            else
              match List.find_opt (fun c -> c.fd = fd) srv.conns with
              | Some conn -> serve_one srv conn
              | None -> () (* closed earlier in this very round *))
          readable;
        loop srv
  end

(* -- lifecycle ---------------------------------------------------------------- *)

(* Bind the listening socket.  A stale socket file from a dead daemon is
   unlinked and rebound; refusing to clobber anything that is not a
   socket keeps a typo'd --socket from deleting a real file. *)
let listen_socket (path : string) : Unix.file_descr =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> failwith (Printf.sprintf "socket path %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  fd

(** Run the daemon until a [shutdown] request (blocking).  [on_ready] is
    invoked once the socket is bound and listening — before the first
    [accept] — so a caller can print the listening line or release a
    waiting client.  On return the worker pool has drained (every queued
    request answered), the listener and every live connection are closed
    and the socket file is removed.  Raises [Failure] if the socket path
    is unusable. *)
let serve ?(on_ready = fun (_ : t) -> ()) (cfg : config) : unit =
  Core.init ();
  (* a client that disconnects mid-reply must cost its connection (an
     EPIPE on the next write), never the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = listen_socket cfg.socket_path in
  (* the pool holds the gate open for the daemon's whole life: request
     workers can race each other (and the accept loop) at any moment, so
     the shared intern tables and store locks stay mutexed throughout *)
  let metrics = Metrics.create () and mmu = Mutex.create () in
  let on_idle () =
    if empty_nursery_if_half_full () then count_in metrics mmu "server.idle_collections"
  in
  let srv =
    {
      cfg;
      listener;
      store = Compiled.Store.create ~dir:cfg.cache_dir ();
      metrics;
      mmu;
      started = Unix.gettimeofday ();
      pool =
        Parallel.Pool.create ~workers:(max 1 cfg.workers) ~on_start:size_worker_heap ~on_idle
          ~on_death:worker_died ~run:run_job ();
      mu = Mutex.create ();
      conns = [];
      sessions_total = 0;
      stopping = false;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      (* every queued request runs and answers before any connection
         closes; a job stranded by a dead slot just sees its client's EOF *)
      ignore (Parallel.Pool.stop srv.pool);
      (try Unix.close srv.listener with Unix.Unix_error _ -> ());
      List.iter (fun c -> close_conn srv c) srv.conns;
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      on_ready srv;
      loop srv)
