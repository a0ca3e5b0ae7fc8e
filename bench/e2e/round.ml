(** One round: a fresh process that sets a workload up, runs its
    operations, and reports them to the parent as one JSON line. *)

module Core = Liblang_core.Core
module Json = Core.Json
module Metrics = Core.Metrics

type ctx = {
  workload : string;
  seed : int;
  round : int;
  slice : float;  (** seconds of operations, for workloads measured by time *)
  smoke : bool;  (** tiny inputs, for the runtest rule *)
  dir : string;  (** absolute scratch directory, owned by this round *)
  liblang : string;  (** absolute path of the [liblang] executable *)
  spawned : float;  (** parent's clock just before it started this process *)
}

type op = {
  kind : string;  (** an input and a step, e.g. [cold/typed/nbody] *)
  cls : string;  (** the kind's class, e.g. [cold]; [setup] ops are not timed *)
  ms : float;
  counts : (string * float) list;
}

type t = {
  ctx : ctx;
  rng : Random.State.t;
  mutable setup_s : float;
  mutable rss_mb : float;
  mutable ops : op list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable extra : (string * float) list;
}

let create (ctx : ctx) : t =
  let salt = Hashtbl.hash ctx.workload in
  {
    ctx;
    rng = Random.State.make [| ctx.seed; ctx.round; salt |];
    setup_s = 0.0;
    rss_mb = 0.0;
    ops = [];
    attempted = 0;
    failed = 0;
    errors = [];
    extra = [];
  }

(** Set-up is over: everything from the process start to now. *)
let ready (r : t) : unit = r.setup_s <- Util.now () -. r.ctx.spawned

let fail (r : t) (msg : string) : unit =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- msg :: r.errors

(* The program's counters that feed per-layer metrics, renamed by layer. *)
let counts_of (c : Metrics.t option) : (string * float) list =
  match c with
  | None -> []
  | Some c ->
      let g k = float_of_int (Metrics.get c k) in
      let sum prefix =
        float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 (Metrics.by_prefix c prefix))
      in
      [
        ("reader.datums", g "reader.datums");
        ("expander.resolve_hits", g "expand.resolve_hits");
        ("expander.resolve_misses", g "expand.resolve_misses");
        ("typed.forms", g "typecheck.forms");
        ("typed.rewrites", sum "optimize.");
        ("analysis.transfers", g "analysis.transfers");
        ( "analysis.cfa_rewrites",
          g "opt.direct_calls" +. g "opt.closure_unbox" +. g "opt.vec_unchecked" );
        ("runtime.apps", float_of_int c.Metrics.interp_apps);
        ("backend.vm_instructions", g "vm.instructions");
        ("compiled.cache_hits", g "module.cache_hits");
        ("compiled.stat_hits", g "module.stat_hits");
        ("compiled.compiles", g "module.compiles");
        ("compiled.cache_writes", g "cache.writes");
        ("build.tasks", g "par.tasks");
        ("build.lock_waits", g "par.lock_waits");
      ]
      |> List.filter (fun (_, v) -> v <> 0.0)

(** Record one operation.  [ok] is its output check; a failed operation
    counts against the run and is not timed. *)
let op (r : t) ?(counts = []) ~kind ~cls ~(ms : float) (ok : (unit, string) result) : unit =
  r.attempted <- r.attempted + 1;
  match ok with
  | Ok () -> r.ops <- { kind; cls; ms; counts } :: r.ops
  | Error msg -> fail r (kind ^ ": " ^ msg)

(** [Ok ()] when [got] is [want]. *)
let expect ~(want : string) (got : string) : (unit, string) result =
  if String.equal got want then Ok ()
  else Error (Printf.sprintf "printed %S, expected %S" got want)

(** A pipeline result's diagnostics as an error message. *)
let diagnostics (ds : Core.Diagnostic.t list) : string =
  String.concat "; " (List.map (fun (d : Core.Diagnostic.t) -> d.Core.Diagnostic.message) ds)

let to_json (r : t) ~(trace : Json.t) : Json.t =
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Util.num v)) kvs) in
  Json.Obj
    [
      ("setup_s", Util.num r.setup_s);
      ("rss_mb", Util.num r.rss_mb);
      ("attempted", Util.int r.attempted);
      ("failed", Util.int r.failed);
      ("errors", Json.Arr (List.rev_map (fun s -> Json.Str s) r.errors));
      ( "ops",
        Json.Arr
          (List.rev_map
             (fun o -> Json.Arr [ Json.Str o.kind; Json.Str o.cls; Util.num o.ms; obj o.counts ])
             r.ops) );
      ("extra", obj r.extra);
      ("trace", trace);
    ]
