(** [kernels]: the 48 Fig. 6–9 modules, compiled once at set-up and then
    instantiated over and over, in a seeded order per pass.  The runtime and
    the code the typed optimizer and 0CFA produced do the work; the front
    end does none.  The traced run also instantiates each module under the
    bytecode VM, the input to choosing one engine. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline
module Modsys = Core.Modsys

(* Instantiate [m] once on the current engine, timed alone. *)
let instantiate (r : Round.t) ~layer ~kind ~cls ~want (m : Modsys.t) : unit =
  m.Modsys.instantiated <- false;
  Gc.minor ();
  let (ok, ms, words), c =
    Spans.program ~name:kind layer (fun observe ->
        let w0 = Gc.minor_words () in
        let t0 = Util.now () in
        let ok =
          match
            Core.Observe.with_ctx observe (fun () ->
                Core.Prims.with_captured_output (fun () -> Modsys.instantiate m))
          with
          | out, () -> Round.expect ~want out
          | exception e -> Error (Printexc.to_string e)
        in
        let ms = 1000.0 *. (Util.now () -. t0) in
        (ok, ms, Gc.minor_words () -. w0))
  in
  let words = ((if layer = "backend" then "backend" else "runtime") ^ ".minor_words", words) in
  Round.op r ~counts:(words :: Round.counts_of c) ~kind ~cls ~ms ok

let round ~(vm : bool) (r : Round.t) : unit =
  let modules =
    List.filter_map
      (fun (src : Inputs.source) ->
        let t0 = Util.now () in
        match
          Spans.program ~name:("declare/" ^ src.name) "expander" (fun observe ->
              Core.Observe.with_ctx observe (fun () ->
                  Pipeline.with_stx_counters (fun () ->
                      Modsys.declare ~name:("kernel/" ^ src.name) src.text)))
        with
        | m, c ->
            Round.op r ~counts:(Round.counts_of c) ~kind:("declare/" ^ src.name) ~cls:"setup"
              ~ms:(1000.0 *. (Util.now () -. t0)) (Ok ());
            Some (src, m)
        | exception e ->
            Round.op r ~kind:("declare/" ^ src.name) ~cls:"setup" ~ms:0.0
              (Error (Printexc.to_string e));
            None)
      Inputs.kernels
  in
  Round.ready r;
  let deadline = Util.now () +. r.ctx.slice in
  let first = ref true in
  while !first || Util.now () < deadline do
    first := false;
    List.iter
      (fun ((src : Inputs.source), m) ->
        let want = Inputs.expected src.program in
        let cls = if src.typed then "typed" else "untyped" in
        instantiate r ~layer:"runtime" ~kind:src.name ~cls ~want m;
        if vm then
          Pipeline.with_engine Pipeline.Vm (fun () ->
              instantiate r ~layer:"backend" ~kind:("vm/" ^ src.name) ~cls:("vm-" ^ cls) ~want m))
      (Util.shuffle r.rng modules)
  done
