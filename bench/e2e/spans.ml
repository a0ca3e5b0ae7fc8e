(** The traced run's instrument, living in a round process: spans the
    benchmark records around its calls into each layer, plus the program's
    own phase spans, read back from a [Trace] NDJSON sink installed for the
    length of each call.  A span's self time is its interval minus the part
    of it that its children's intervals cover; self times are summed per
    layer.  Children that overlap, or stick out of their parent, make the
    self times add up to more than the root, which is what the run's
    self-time check catches.

    Off (the default) every entry point just runs its function. *)

module Core = Liblang_core.Core
module Json = Core.Json
module Metrics = Core.Metrics

let layers =
  [
    "startup"; "reader"; "expander"; "typed"; "analysis"; "runtime"; "backend"; "compiled";
    "build"; "server"; "harness";
  ]

type event = { name : string; layer : string; start : float; dur : float }

let on = ref false

(** Directory for the per-call NDJSON files. *)
let scratch = ref "."

let events : event list ref = ref []
let self_s : (string, float) Hashtbl.t = Hashtbl.create 16
let spans : (string, int) Hashtbl.t = Hashtbl.create 16

(* An open span: the intervals of its children so far. *)
type frame = { mutable kids : (float * float) list }

let stack : frame list ref = ref []

let add_self layer dt =
  Hashtbl.replace self_s layer (dt +. Option.value ~default:0.0 (Hashtbl.find_opt self_s layer))

let self layer = Option.value ~default:0.0 (Hashtbl.find_opt self_s layer)

(* Length of the union of [kids], clipped to [lo, hi]. *)
let covered ~lo ~hi (kids : (float * float) list) : float =
  let sorted = List.sort compare kids in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = Float.max a (Float.max lo reach) and b = Float.min b hi in
        if b > a then (total +. (b -. a), b) else (total, reach))
      (0.0, lo) sorted
  in
  total

let record ~name ~layer ~start ~dur ~(kids : (float * float) list) (parent : frame option) =
  add_self layer (dur -. covered ~lo:start ~hi:(start +. dur) kids);
  Hashtbl.replace spans layer (1 + Option.value ~default:0 (Hashtbl.find_opt spans layer));
  events := { name; layer; start; dur } :: !events;
  Option.iter (fun p -> p.kids <- (start, start +. dur) :: p.kids) parent

(* Open a frame, run [f], close the frame; [after] may add children to the
   frame once the clock has stopped, so its own work is not timed. *)
let framed ~name ~layer ~(after : frame -> unit) (f : unit -> 'a) : 'a =
  let fr = { kids = [] } in
  let parent = match !stack with p :: _ -> Some p | [] -> None in
  stack := fr :: !stack;
  let t0 = Util.now () in
  let finish () =
    let t1 = Util.now () in
    stack := List.tl !stack;
    after fr;
    record ~name ~layer ~start:t0 ~dur:(t1 -. t0) ~kids:fr.kids parent
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(** Time [f] as a span of [layer]. *)
let span ?name (layer : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else framed ~name:(Option.value name ~default:layer) ~layer ~after:ignore f

(* The layer a program span belongs to.  Roots of a pipeline entry point
   ([run], [build], [compile] at depth 0) belong to the benchmark span that
   encloses them; so does an [instantiate] under the VM. *)
let layer_of ~(outer : string) ~(depth : int) (name : string) : string =
  match name with
  | "read" -> "reader"
  | "expand" | "compile-module" -> "expander"
  | "compile" when depth > 0 -> "expander"
  | "typecheck" | "optimize" -> "typed"
  | "analyze" -> "analysis"
  | "instantiate" when outer <> "backend" -> "runtime"
  | "load-module" | "artifact-read" | "artifact-write" -> "compiled"
  | "build-graph" | "build-compile" -> "build"
  | _ -> outer

(* Fold the enter/exit events of one call's NDJSON trace into the span
   tables, as children of [fr]. *)
let import ~(outer : string) ~(base : float) (fr : frame) (ndjson : string) : unit =
  let open_ = ref [] in
  String.split_on_char '\n' ndjson
  |> List.iter (fun line ->
         match Json.parse line with
         | Error _ -> ()
         | Ok j -> (
             let name = Util.member_str "span" j in
             match Util.member_str "ev" j with
             | "enter" ->
                 let start = base +. (Util.member_num "t" j /. 1000.0) in
                 open_ := (name, start, { kids = [] }) :: !open_
             | "exit" -> (
                 match !open_ with
                 | (_, start, kf) :: rest ->
                     open_ := rest;
                     let dur = Util.member_num "ms" j /. 1000.0 in
                     let layer = layer_of ~outer ~depth:(List.length rest) name in
                     let parent = match rest with (_, _, p) :: _ -> p | [] -> fr in
                     record ~name ~layer ~start ~dur ~kids:kf.kids (Some parent)
                 | [] -> ())
             | _ -> ()))

(** Run one call into the program as a span of [layer], handing it an
    observation context: a fresh metrics collector plus an NDJSON trace
    sink whose spans become this span's children.  Lowering to bytecode
    has a timer but no span; its time is moved from the expander (where
    the artifact writer runs it) to the backend.  Returns the collector
    ([None] when tracing is off). *)
let program ?name (layer : string) (f : Core.Observe.ctx -> 'a) : 'a * Metrics.t option =
  if not !on then (f Core.Observe.nothing, None)
  else begin
    let c = Metrics.create () in
    let file = Filename.temp_file ~temp_dir:!scratch "call" ".ndjson" in
    let oc = open_out_bin file in
    let sink = Core.Trace.make_sink ~format:Core.Trace.Ndjson oc in
    let base = Util.now () in
    let after fr =
      close_out oc;
      let expander0 = self "expander" in
      import ~outer:layer ~base fr (Util.read_file file);
      Sys.remove file;
      let lower = Float.min (Metrics.get_ms c "phase.lower" /. 1000.0) (self "expander" -. expander0) in
      if lower > 0.0 then begin
        add_self "expander" (-.lower);
        add_self "backend" lower
      end
    in
    let r =
      framed ~name:(Option.value name ~default:layer) ~layer ~after (fun () ->
          f { Core.Observe.metrics = Some c; trace = Some sink })
    in
    (r, Some c)
  end

(** Record the process start-up, from [spawned] (the parent's clock just
    before it started this process) to [main] (this process's first
    statement). *)
let startup ~(spawned : float) ~(main : float) : unit =
  if !on then record ~name:"startup" ~layer:"startup" ~start:spawned ~dur:(main -. spawned) ~kids:[] None

let to_json ~(root_s : float) : Json.t =
  Json.Obj
    [
      ("root_ms", Util.num (1000.0 *. root_s));
      ( "self_ms",
        Json.Obj (List.map (fun l -> (l, Util.num (1000.0 *. self l))) layers) );
      ( "spans",
        Json.Obj
          (List.map
             (fun l -> (l, Util.int (Option.value ~default:0 (Hashtbl.find_opt spans l))))
             layers) );
      ( "events",
        Json.Arr
          (List.rev_map
             (fun e ->
               Json.Arr [ Json.Str e.name; Json.Str e.layer; Util.num e.start; Util.num e.dur ])
             !events) );
    ]
