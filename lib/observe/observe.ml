(** Facade of the observability layer: a {!ctx} bundles an optional
    metrics collector ({!Metrics.t}) and an optional trace sink
    ({!Trace.sink}); {!with_ctx} installs both ambiently for the extent of
    a pipeline run.  [Pipeline.run ~observe] (lib/core) threads a [ctx]
    through a whole compilation; the per-phase hooks live inside each
    subsystem (reader, expander, typed, modules, runtime) and are no-ops
    when nothing is installed.

    See docs/observability.md for the metric catalogue, the NDJSON trace
    schema, and a worked example. *)

module Json = Json
module Metrics = Metrics
module Trace = Trace

type ctx = { metrics : Metrics.t option; trace : Trace.sink option }

(** The do-nothing context (the default of [Pipeline.run ?observe]). *)
let nothing : ctx = { metrics = None; trace = None }

let with_ctx (ctx : ctx) (f : unit -> 'a) : 'a =
  Metrics.with_opt ctx.metrics (fun () -> Trace.with_opt ctx.trace f)
