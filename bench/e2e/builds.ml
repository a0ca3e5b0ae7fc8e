(** [build]: one generated project per round, its shape rotating through
    wide, diamond and chain: a cold parallel build, a warm run from the
    store in a fresh session, then an edit to a seeded module and a run
    that recompiles its dirty cone.  The build pool, artifact loads, lazy
    bodies and dirty-cone recompiles of untyped macro towers do the work;
    the typed layers are idle. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline
module Genproj = Core.Compiled.Genproj

let shapes = [| Genproj.Wide; Genproj.Diamond; Genproj.Chain |]

(* 24 modules whose towers are 2^7 macro steps deep.  At the generator's
   default depth of 10 a serial compile of a 20-module chain exhausts the
   expander's fuel (see README.md). *)
let size ~smoke = if smoke then (6, 4) else (24, 7)

let round (r : Round.t) : unit =
  let ctx = r.ctx in
  let shape = shapes.((ctx.seed + ctx.round) mod Array.length shapes) in
  let shape_name = Genproj.shape_to_string shape in
  let n, depth = size ~smoke:ctx.smoke in
  let proj = Filename.concat ctx.dir "project" and cache = Filename.concat ctx.dir "cache" in
  let root, sum = Genproj.generate ~dir:proj ~shape ~n ~depth () in
  let want = string_of_int sum in
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  Round.ready r;
  let step ~cls ~layer f check =
    Core.Compiled.reset_session ();
    let kind = cls ^ "/" ^ shape_name in
    let (res, ms), c =
      Spans.program ~name:kind layer (fun observe ->
          let t0 = Util.now () in
          let res = f observe in
          (res, 1000.0 *. (Util.now () -. t0)))
    in
    let ok = match res with Ok v -> check v | Error ds -> Error (Round.diagnostics ds) in
    Round.op r ~counts:(Round.counts_of c) ~kind ~cls ~ms ok
  in
  let run observe =
    match
      Core.Prims.with_captured_output (fun () -> Pipeline.run_file ~observe ~cache_dir:cache root)
    with
    | out, Ok _ -> Ok out
    | _, Error ds -> Error ds
  in
  step ~cls:"cold" ~layer:"build"
    (fun observe -> Pipeline.build_files ~observe ~cache_dir:cache ~jobs [ root ])
    (fun _ -> Ok ());
  step ~cls:"warm" ~layer:"compiled" run (Round.expect ~want);
  (* the edited module is one [main] requires, so every edit's dirty cone
     is two modules and the seed does not change the work *)
  let direct = Array.of_list (Genproj.deps_of ~shape ~n 0) in
  let edited =
    Filename.concat proj (Genproj.file_of direct.(Random.State.int r.rng (Array.length direct)))
  in
  Util.write_file edited (Util.read_file edited ^ Printf.sprintf "(define edit-rev %d)\n" ctx.round);
  step ~cls:"edit" ~layer:"compiled" run (Round.expect ~want)
