(** The accumulating diagnostic sink.

    A reporter collects diagnostics in emission order (which is the source
    traversal order, hence deterministic) and enforces an error cap so a
    pathological input cannot flood the user: beyond [max_errors] errors,
    further errors are counted but dropped, and {!diagnostics} appends a
    summary note.

    The {e ambient} reporter ({!current}, installed with {!with_reporter})
    is how resilient phases choose between recover-and-continue and
    fail-fast: a phase that can synthesize a recovery value calls {!emit};
    if a reporter is installed the diagnostic is accumulated and the phase
    continues, otherwise the phase falls back to raising its legacy
    exception (preserving the behavior of direct library use). *)

type t = {
  mutable diags : Diagnostic.t list;  (** reversed emission order *)
  mutable error_count : int;
  mutable dropped : int;
  max_errors : int;
}

let create ?(max_errors = 50) () = { diags = []; error_count = 0; dropped = 0; max_errors }

let report r (d : Diagnostic.t) =
  if Diagnostic.is_error d then
    if r.error_count >= r.max_errors then r.dropped <- r.dropped + 1
    else begin
      r.error_count <- r.error_count + 1;
      r.diags <- d :: r.diags
    end
  else r.diags <- d :: r.diags

let error_count r = r.error_count + r.dropped
let has_errors r = error_count r > 0

(** All diagnostics in emission order, with a trailing summary note when
    the error cap truncated the report. *)
let diagnostics r =
  let ds = List.rev r.diags in
  if r.dropped = 0 then ds
  else
    ds
    @ [
        Diagnostic.make ~severity:Diagnostic.Note ~phase:Diagnostic.Internal
          (Printf.sprintf "%d more error%s not shown (error limit %d reached)" r.dropped
             (if r.dropped = 1 then "" else "s")
             r.max_errors);
      ]

(* -- the ambient reporter -------------------------------------------------

   Domain-local: each domain has its own ambient reporter slot, so a worker
   in the parallel build pool accumulates its task's diagnostics privately
   and the driver aggregates them on join.  A freshly spawned domain starts
   with no reporter installed. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let installed () = Option.is_some (Domain.DLS.get current_key)

(** Install [r] as the ambient reporter for the extent of [f] (properly
    nested: the previous reporter is restored on exit). *)
let with_reporter r f =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some r);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

(** Report to the ambient reporter if one is installed; returns whether a
    reporter accepted the diagnostic (callers raise their legacy exception
    when it returns [false]). *)
let emit d =
  match Domain.DLS.get current_key with
  | Some r ->
      report r d;
      true
  | None -> false
