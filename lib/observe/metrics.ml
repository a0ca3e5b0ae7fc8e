(** Pipeline metrics: named counters and a tree of timed spans, collected
    by an {e ambient collector} that mirrors the diagnostics layer's
    [Reporter] pattern (install with {!with_collector}; phases report
    through the module-level hooks below, and time themselves with
    [Trace.span], whose collector half is {!enter}/{!leave}).

    The design constraint is {e zero cost when off}: every hook first loads
    {!current} and returns immediately when no collector is installed — no
    allocation, no hashing, no string building.  The hot-interpreter hook
    ({!bump_apps}) is a single load-compare-increment so it can sit inside
    the evaluator's application path without moving the benchmarks.

    Metric names are dotted paths; the conventions (documented in
    [docs/observability.md]) are:

    - ["expand.macro.<m>"] counter {e and} span: applications of macro [m]
                          and the wall time spent inside its transformer
    - ["expand.fuel.<m>"] counter: compile-time evaluation steps burned by
                          macro [m]'s phase-1 procedure
    - ["optimize.<rule>"] counter: firings of one optimizer rewrite rule
    - ["reader.datums"]   counter: top-level datums read
    - ["module.*"]        counters: compiles, instantiations, re-expansions *)

(** One node of the span tree.  Every span entered at the same name path
    (outermost … parent, name) folds into one node — the trace's [detail]
    never keys a node, so a long-lived collector's tree stays as small as
    the program's phase structure.  Self time is [total_s] minus the
    children's totals. *)
type span = {
  name : string;
  mutable calls : int;
  mutable total_s : float;
  mutable kids : span list;  (** newest first *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  root : span;  (** nameless; its children are the outermost spans *)
  mutable cursor : span;  (** the innermost open span, or [root] *)
  mutable interp_apps : int;  (** procedure applications in the evaluator *)
}

let new_span name = { name; calls = 0; total_s = 0.0; kids = [] }

let create () =
  let root = new_span "" in
  { counters = Hashtbl.create 32; root; cursor = root; interp_apps = 0 }

let now () = Unix.gettimeofday ()

(* -- the ambient collector --------------------------------------------------

   Domain-local: the ambient collector slot lives in [Domain.DLS], so each
   parallel-build worker collects into its own [t] and the driver merges
   them on join ({!merge}).  A collector is installed on one domain at a
   time, so its [cursor] is that domain's stack of open spans.  To keep the
   zero-cost-when-off promise on the evaluator's hot path, a process-wide
   atomic count of installed collectors gates every hook: when it is zero
   (the benchmark case — no collector anywhere), the hook is one
   uncontended [Atomic.get] and a branch, with no DLS access at all. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Collectors installed across all domains; 0 = every hook is off. *)
let installed_count = Atomic.make 0

let[@inline] current () : t option =
  if Atomic.get installed_count = 0 then None else Domain.DLS.get current_key

let installed () = Option.is_some (current ())

(** Install [c] for the extent of [f] (properly nested). *)
let with_collector (c : t) (f : unit -> 'a) : 'a =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some c);
  Atomic.incr installed_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed_count;
      Domain.DLS.set current_key saved)
    f

let with_opt (c : t option) (f : unit -> 'a) : 'a =
  match c with None -> f () | Some c -> with_collector c f

(* -- hooks (call sites live throughout lib/) -------------------------------- *)

let count_in c key n =
  match Hashtbl.find_opt c.counters key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add c.counters key (ref n)

(** Add [n] (default 1) to counter [key] of the ambient collector. *)
let countn key n = match current () with None -> () | Some c -> count_in c key n

let count key = countn key 1

(** The hot-path hook: one evaluator procedure application.  Kept free of
    allocation and hashing so the evaluator can call it unconditionally —
    with no collector installed anywhere it is one atomic load and a
    branch. *)
let[@inline] bump_apps () =
  if Atomic.get installed_count > 0 then
    match Domain.DLS.get current_key with
    | None -> ()
    | Some c -> c.interp_apps <- c.interp_apps + 1

(* The child of [parent] named [name], created on first use. *)
let child (parent : span) name =
  match List.find_opt (fun k -> String.equal k.name name) parent.kids with
  | Some k -> k
  | None ->
      let k = new_span name in
      parent.kids <- k :: parent.kids;
      k

(** Open a span named [name] inside [c]'s innermost open one; returns the
    span that {!leave} reopens. *)
let enter (c : t) name : span =
  let parent = c.cursor in
  c.cursor <- child parent name;
  parent

(** Close [c]'s innermost open span, [dt] seconds long, and reopen
    [parent]. *)
let leave (c : t) (parent : span) dt =
  let s = c.cursor in
  s.calls <- s.calls + 1;
  s.total_s <- s.total_s +. dt;
  c.cursor <- parent

(* -- reading a collector ---------------------------------------------------- *)

let get (c : t) key = match Hashtbl.find_opt c.counters key with Some r -> !r | None -> 0

(** The outermost spans, oldest first. *)
let spans (c : t) : span list = List.rev c.root.kids

let kids (s : span) : span list = List.rev s.kids

let self_s (s : span) = List.fold_left (fun acc k -> acc -. k.total_s) s.total_s s.kids

(** The phase-timer view: total milliseconds of the outermost spans named
    [name] (a nested span of the same name is already inside its
    ancestor's total). *)
let get_ms (c : t) name =
  let rec go s =
    List.fold_left (fun acc k -> acc +. if k.name = name then k.total_s else go k) 0.0 s.kids
  in
  1000.0 *. go c.root

let counters_alist (c : t) : (string * int) list =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) c.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Counters matching a dotted prefix, with the prefix stripped:
    [by_prefix c "optimize."] is the rewrite-rule histogram. *)
let by_prefix (c : t) prefix : (string * int) list =
  let pl = String.length prefix in
  List.filter_map
    (fun (k, n) ->
      if String.length k > pl && String.sub k 0 pl = prefix then
        Some (String.sub k pl (String.length k - pl), n)
      else None)
    (counters_alist c)

(* Add [src]'s children into [dst]'s, node by name path. *)
let rec graft (dst : span) (src : span) =
  List.iter
    (fun k ->
      let d = child dst k.name in
      d.calls <- d.calls + k.calls;
      d.total_s <- d.total_s +. k.total_s;
      graft d k)
    (kids src)

(** Fold collector [c] into [into]: counters add, [c]'s span tree grafts
    under the span open in [into] (a build task's tree lands under
    [build-compile], a daemon request's under the daemon's root), and
    interpreter applications add.  Used by the CLI to aggregate per-file
    collectors into a session-wide profile, by the build driver for its
    per-task collectors, and by the daemon for its per-request ones. *)
let merge ~(into : t) (c : t) : unit =
  List.iter (fun (k, n) -> count_in into k n) (counters_alist c);
  graft into.cursor c.root;
  into.interp_apps <- into.interp_apps + c.interp_apps

(* -- reports ---------------------------------------------------------------- *)

(** Human-readable profile report (what [--profile] prints): the span tree
    with total and self time, then the counter sections. *)
let render (c : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== profile ==\n";
  if c.root.kids <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %10s  %10s  %6s\n" "spans:" "total ms" "self ms" "calls");
    let rec row indent s =
      Buffer.add_string buf
        (Printf.sprintf "%-44s %10.3f  %10.3f  %6d\n" (indent ^ s.name) (1000.0 *. s.total_s)
           (1000.0 *. self_s s) s.calls);
      List.iter (row (indent ^ "  ")) (kids s)
    in
    List.iter (row "  ") (spans c)
  end;
  let section title prefix render_row =
    match by_prefix c prefix with
    | [] -> ()
    | rows ->
        Buffer.add_string buf (title ^ ":\n");
        List.iter render_row
          (List.sort (fun (_, a) (_, b) -> compare b a) rows)
  in
  let plain (k, n) = Buffer.add_string buf (Printf.sprintf "  %-28s %8d\n" k n) in
  section "macro expansions" "expand.macro." plain;
  section "compile-time fuel by macro" "expand.fuel." (fun (name, n) ->
      Buffer.add_string buf (Printf.sprintf "  %-28s %8d steps\n" name n));
  section "optimizer rewrites" "optimize." plain;
  section "reader" "reader." plain;
  (let hyg =
     List.filter_map
       (fun k ->
         match Hashtbl.find_opt c.counters k with Some r -> Some (k, !r) | None -> None)
       [
         "expand.resolve_hits";
         "expand.resolve_misses";
         "expand.resolve_scanned";
         "stx.scope_pushes";
         "stx.symbols_interned";
         "stx.scope_sets_interned";
       ]
   in
   if hyg <> [] then begin
     Buffer.add_string buf "hygiene engine:\n";
     List.iter plain hyg
   end);
  section "module system" "module." plain;
  section "artifact cache" "cache." plain;
  if c.interp_apps > 0 then
    Buffer.add_string buf (Printf.sprintf "interpreter applications: %d\n" c.interp_apps);
  Buffer.contents buf

(** Machine-readable profile (what [--profile=json] prints); schema in
    docs/observability.md. *)
let to_json (c : t) : Json.t =
  let rec span_json s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ms", Json.Num (1000.0 *. s.total_s));
        ("self_ms", Json.Num (1000.0 *. self_s s));
        ("calls", Json.Num (float_of_int s.calls));
        ("children", Json.Arr (List.map span_json (kids s)));
      ]
  in
  Json.Obj
    [
      ("spans", Json.Arr (List.map span_json (spans c)));
      ("counters", Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) (counters_alist c)));
      ("interp_apps", Json.Num (float_of_int c.interp_apps));
    ]
