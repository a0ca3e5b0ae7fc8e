(** Located, phase-tagged diagnostics — the unified error currency of the
    pipeline.

    Every phase of a [liblang] compilation (reader, expander, typechecker,
    compiler, module system, runtime) reports failures as values of
    {!t} rather than ad-hoc exceptions, so that one invocation can carry
    {e many} located errors to the user, and so that fault containment (fuel
    exhaustion, recursion caps, crashed transformers) degrades into ordinary
    error reports instead of uncaught exceptions.  The paper's premise
    (§2.1) is that macro transformers are ordinary programs run at compile
    time; this module is what makes their failures ordinary too. *)

module Srcloc = Liblang_reader.Srcloc

type severity = Error | Warning | Note

(** Which stage of the pipeline produced the diagnostic.  [Internal] marks
    a violated invariant of the platform itself (a panic): the CLI maps it
    to exit code 2, and the configuration matrix treats it as a failure. *)
type phase =
  | Reader      (** text → datums *)
  | Expander    (** macro expansion, hygiene, fuel/depth containment *)
  | Typecheck   (** the typed sister language's checker *)
  | Compile     (** core forms → runtime AST *)
  | Module      (** the module system: requires, provides, instantiation *)
  | Runtime     (** evaluation of the instantiated program *)
  | Internal    (** a bug in the platform — never a user error *)

type note = { note_msg : string; note_loc : Srcloc.t }

type t = {
  severity : severity;
  phase : phase;
  loc : Srcloc.t;
  message : string;
  notes : note list;
}

(** Raised (by phase drivers) to deliver an already-accumulated batch of
    diagnostics through an exception-shaped control path; the pipeline's
    containment boundary flattens it back into the result. *)
exception Failed of t list

let severity_name = function Error -> "error" | Warning -> "warning" | Note -> "note"

let phase_name = function
  | Reader -> "reader"
  | Expander -> "expand"
  | Typecheck -> "typecheck"
  | Compile -> "compile"
  | Module -> "module"
  | Runtime -> "runtime"
  | Internal -> "internal"

(** Clip a rendered form to a readable width (used for "in: <stx>" notes,
    where the offending form may be arbitrarily large). *)
let truncated ?(limit = 160) s =
  if String.length s <= limit then s else String.sub s 0 limit ^ " ..."

let note ?(loc = Srcloc.none) note_msg = { note_msg; note_loc = loc }

let make ?(severity = Error) ~phase ?(loc = Srcloc.none) ?(notes = []) message =
  { severity; phase; loc; message; notes }

let error ~phase ?loc ?notes message = make ~severity:Error ~phase ?loc ?notes message
let warning ~phase ?loc ?notes message = make ~severity:Warning ~phase ?loc ?notes message

let errorf ~phase ?loc ?notes fmt =
  Printf.ksprintf (fun m -> error ~phase ?loc ?notes m) fmt

let is_error d = d.severity = Error
let is_internal d = d.phase = Internal

(** Order by source position (file, offset), then message — gives reports a
    stable, reader-friendly order independent of traversal details. *)
let compare_loc a b =
  let c = compare a.loc.Srcloc.file b.loc.Srcloc.file in
  if c <> 0 then c
  else
    let c = compare a.loc.Srcloc.pos b.loc.Srcloc.pos in
    if c <> 0 then c else compare a.message b.message

(** One-line rendering (no source excerpt): [FILE:LINE:COL: phase
    severity: message; note: ...].  The full renderer with source-line
    excerpts lives in {!Render}. *)
let to_string d =
  let buf = Buffer.create 80 in
  if not (Srcloc.is_none d.loc) then begin
    Buffer.add_string buf (Srcloc.to_string d.loc);
    Buffer.add_string buf ": "
  end;
  Buffer.add_string buf (phase_name d.phase);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (severity_name d.severity);
  Buffer.add_string buf ": ";
  Buffer.add_string buf d.message;
  List.iter
    (fun n ->
      Buffer.add_string buf "; ";
      Buffer.add_string buf n.note_msg;
      if not (Srcloc.is_none n.note_loc) then begin
        Buffer.add_string buf " (";
        Buffer.add_string buf (Srcloc.to_string n.note_loc);
        Buffer.add_char buf ')'
      end)
    d.notes;
  Buffer.contents buf

let pp fmt d = Format.pp_print_string fmt (to_string d)
