(** Spans and point events.  {!span} is the pipeline's one timing
    instrument: a span is emitted (enter/exit), as the pipeline runs, to an
    ambient {e sink} — either human-readable indented text or NDJSON (one
    JSON object per line; schema in docs/observability.md) — and recorded
    into the ambient {!Metrics} collector's span tree, which [--profile]
    renders.

    Like {!Metrics}, tracing is zero-cost when off: with neither a sink
    nor a collector installed a span is one DLS load, one atomic load and
    a call, and no emission point builds a string before checking the
    sink's verbosity.  Verbosity levels:

    - 1 (default): phase spans — read, expand, typecheck, optimize,
      compile, instantiate, run — with wall-clock durations;
    - 2 ([-vv] in the CLI): additionally each macro transformer step, with
      the syntax before and after the rewrite. *)

type format = Text | Ndjson

type sink = {
  out : out_channel;
  format : format;
  verbosity : int;
  t0 : float;  (** trace epoch; event times are relative, in ms *)
  mutable depth : int;  (** current span nesting, for text indentation *)
}

let make_sink ?(format = Text) ?(verbosity = 1) (out : out_channel) : sink =
  { out; format; verbosity; t0 = Metrics.now (); depth = 0 }

(* -- the ambient sink -------------------------------------------------------

   Domain-local: a sink installed on the main domain is not seen by
   parallel-build workers (a freshly spawned domain starts with no sink), so
   workers never interleave writes into the main domain's trace channel.
   Worker-side activity still shows up in the merged metrics. *)

let current_key : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] current () : sink option = Domain.DLS.get current_key

let installed () = Option.is_some (current ())

let with_sink (s : sink) (f : unit -> 'a) : 'a =
  let saved = current () in
  Domain.DLS.set current_key (Some s);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current_key saved;
      flush s.out)
    f

let with_opt (s : sink option) (f : unit -> 'a) : 'a =
  match s with None -> f () | Some s -> with_sink s f

(* -- emission --------------------------------------------------------------- *)

let rel_ms (s : sink) = 1000.0 *. (Metrics.now () -. s.t0)

let emit_ndjson (s : sink) (fields : (string * Json.t) list) =
  output_string s.out (Json.to_string (Json.Obj fields));
  output_char s.out '\n'

let emit_text (s : sink) line =
  output_string s.out (String.make (2 * s.depth) ' ');
  output_string s.out line;
  output_char s.out '\n'

let text_fields fields =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) fields)

let json_fields fields = List.map (fun (k, v) -> (k, Json.Str v)) fields

(** A point event.  [fields] are extra key/value payload (strings). *)
let event ?(level = 1) (ev : string) (fields : (string * string) list) =
  match current () with
  | Some s when s.verbosity >= level -> (
      match s.format with
      | Ndjson ->
          emit_ndjson s (("ev", Json.Str ev) :: ("t", Json.Num (rel_ms s)) :: json_fields fields)
      | Text -> emit_text s (ev ^ text_fields fields))
  | _ -> ()

(* One edge of a span: [json]/[text] are the edge's own fields, [fields]
   the caller's payload. *)
let emit_edge (s : sink) ev arrow name json text fields =
  match s.format with
  | Ndjson ->
      emit_ndjson s
        (("ev", Json.Str ev) :: ("span", Json.Str name)
        :: ("t", Json.Num (rel_ms s))
        :: (json @ json_fields fields))
  | Text -> emit_text s (arrow ^ name ^ text ^ text_fields fields)

let emit_enter (s : sink) name detail fields =
  if detail = "" then emit_edge s "enter" "-> " name [] "" fields
  else emit_edge s "enter" "-> " name [ ("detail", Json.Str detail) ] (" (" ^ detail ^ ")") fields;
  s.depth <- s.depth + 1

let emit_exit (s : sink) name dt ok fields =
  s.depth <- s.depth - 1;
  let ms = 1000.0 *. dt in
  emit_edge s "exit" "<- " name
    (("ms", Json.Num ms) :: (if ok then [] else [ ("raised", Json.Bool true) ]))
    (Printf.sprintf " %.3f ms%s" ms (if ok then "" else " (raised)"))
    fields

(* The instrumented half of {!span}: [sink] and/or [c] is present. *)
let timed sink c ~detail ~fields ~result name f =
  let t0 = Metrics.now () in
  Option.iter
    (fun s -> emit_enter s name detail (match fields with Some g -> g () | None -> []))
    sink;
  let parent = Option.map (fun c -> Metrics.enter c name) c in
  let finish ok out =
    let dt = Metrics.now () -. t0 in
    (match (c, parent) with Some c, Some p -> Metrics.leave c p dt | _ -> ());
    Option.iter (fun s -> emit_exit s name dt ok (out ())) sink
  in
  match f () with
  | v ->
      finish true (fun () -> match result with Some r -> r v | None -> []);
      v
  | exception e ->
      finish false (fun () -> []);
      raise e

(** Run [f] inside a span named [name] (a pipeline phase or a module-scoped
    activity).  With a sink installed at verbosity >= [level], emits
    enter/exit events carrying the span's wall-clock duration; [detail]
    disambiguates (module name, file), and [fields]/[result] build extra
    enter/exit payload, only when it is emitted.  With a collector
    installed, whatever the level, adds the duration to the collector's
    span tree.  With neither, just [f ()]. *)
let span ?(level = 1) ?(detail = "") ?fields ?result (name : string) (f : unit -> 'a) : 'a =
  let sink = match current () with Some s as o when s.verbosity >= level -> o | _ -> None in
  match (sink, Metrics.current ()) with
  | None, None -> f ()
  | sink, c -> timed sink c ~detail ~fields ~result name f

(** Record an interval that has already ended — from [since] (a
    {!Metrics.now} reading) until now — as a span named [name] in the
    ambient collector, without trace events (its enter lies in the past). *)
let elapsed (name : string) ~(since : float) =
  match Metrics.current () with
  | None -> ()
  | Some c -> Metrics.leave c (Metrics.enter c name) (Metrics.now () -. since)
