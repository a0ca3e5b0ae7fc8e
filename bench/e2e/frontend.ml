(** [frontend]: each of the 51 sources compiled cold into a fresh artifact
    store, then warm from that store in a fresh session, in a seeded order;
    plus one-shot [liblang run] calls on a one-line program.  Reader,
    expander, typechecker, optimizer, 0CFA and the store's write and read
    paths do the work; the runtime is idle except for output checks. *)

module Core = Liblang_core.Core
module Pipeline = Liblang_core.Pipeline

let one_liner = "#lang racket\n(display (+ 1 2))\n"

(* Compile [path] through the store at [cache] in a fresh session. *)
let compile (r : Round.t) ~kind ~cls ~cache ?(check = fun () -> Ok ()) (path : string) : unit =
  Core.Compiled.reset_session ();
  let (res, ms), c =
    Spans.program ~name:kind "compiled" (fun observe ->
        let t0 = Util.now () in
        let res = Pipeline.compile_file ~observe ~cache_dir:cache path in
        (res, 1000.0 *. (Util.now () -. t0)))
  in
  let ok =
    match res with
    | Ok () -> check ()
    | Error ds -> Error (Round.diagnostics ds)
  in
  Round.op r ~counts:(Round.counts_of c) ~kind ~cls ~ms ok

(* Run the module the warm compile left in the session and compare what it
   prints with the reference. *)
let check_output ~cache ~want (path : string) () : (unit, string) result =
  match
    Core.Compiled.with_cache_dir cache (fun () ->
        let m = Core.Compiled.compile_file path in
        Core.Prims.with_captured_output (fun () -> Core.Modsys.instantiate m))
  with
  | out, () -> Round.expect ~want out
  | exception e -> Error (Printexc.to_string e)

let cli_calls ~smoke = if smoke then 1 else 4

let round (r : Round.t) : unit =
  let ctx = r.ctx in
  let file name =
    Filename.concat ctx.dir (String.map (fun c -> if c = '/' then '-' else c) name ^ ".scm")
  in
  List.iter (fun (s : Inputs.source) -> Util.write_file (file s.name) s.text) Inputs.sources;
  Util.write_file (file "one-liner") one_liner;
  (* the first compile in each language instantiates the language itself;
     a user's one-shot compile pays that too, so it is set-up here *)
  List.iter
    (fun (name, text) ->
      Util.write_file (file name) text;
      ignore (Pipeline.compile_file ~cache_dir:(Filename.concat ctx.dir "prime") (file name)))
    [
      ("prime-untyped", "#lang racket\n(define (f x) (+ x 1))\n(display (f 1))\n");
      ( "prime-typed",
        "#lang typed/racket\n(define (f [x : Integer]) : Integer (+ x 1))\n(display (f 1))\n" );
    ];
  Round.ready r;
  List.iter
    (fun (i, (s : Inputs.source)) ->
      let path = file s.name in
      let cache = Filename.concat ctx.dir (Printf.sprintf "cache-%d" i) in
      compile r ~kind:("cold/" ^ s.name) ~cls:"cold" ~cache path;
      (* the first round checks every source's output, later ones one each *)
      let check =
        if ctx.round = 0 || i = ctx.round mod List.length Inputs.sources then
          check_output ~cache ~want:(Inputs.expected s.program) path
        else fun () -> Ok ()
      in
      compile r ~kind:("warm/" ^ s.name) ~cls:"warm" ~cache ~check path)
    (Util.shuffle r.rng (List.mapi (fun i s -> (i, s)) Inputs.sources));
  Core.Compiled.reset_session ();
  for _ = 1 to cli_calls ~smoke:ctx.smoke do
    let t0 = Util.now () in
    let st, out =
      Spans.span "startup" (fun () -> Util.run_capture ctx.liblang [ "run"; file "one-liner" ])
    in
    let ms = 1000.0 *. (Util.now () -. t0) in
    let ok =
      match st with
      | Unix.WEXITED 0 -> Round.expect ~want:"3" out
      | _ -> Error "liblang run failed"
    in
    Round.op r ~kind:"cli" ~cls:"cli" ~ms ok
  done
