(** The compiled-artifact format — the on-disk record of one separately
    compiled module (the moral equivalent of Racket's [compiled/*.zo]
    files, paper §5).

    An artifact carries everything a later session needs to {e visit} and
    {e instantiate} the module without re-running expansion or
    typechecking:

    - a format version (artifacts from other versions are stale);
    - the digest of the module's source text;
    - the module's requires, each either a [builtin] host module or a
      [file] module together with the digest of {e its} artifact — this is
      what makes invalidation transitive;
    - the export table (external names), informational;
    - the [links] aliases and the [renames] of binders (below);
    - the fully-expanded core forms of the module body, written by
      {!Writer} so that each name alone fixes its binding in the loader's
      module context: no scope set is serialized, and none is needed.
      The [begin-for-syntax] forms inside it are the serialized
      compile-time (type-environment) declarations of §5: the loader
      regenerates the module's [ct_thunks] from them, so closures are
      never marshaled.

    The serialization is reader-parseable text — a header datum, then a
    body datum — so a corrupt or truncated artifact surfaces as an
    ordinary parse failure and degrades to a recompile (see {!Store}).
    The header is read first: a version skew, a changed source or a
    changed require is decided before the body is parsed.  Artifacts
    carry no bytecode; the VM lowers each form at its first
    evaluation. *)

module Datum = Liblang_reader.Datum
module Reader = Liblang_reader.Reader

(** Bump whenever the serialized shape (or the meaning of the core forms)
    changes; artifacts written by any other version are ignored.
    v2: integrity trailer appended (see {!verify_integrity}).
    v3: optional [(bytecode ...)] section — the backend's lowered code
    for the body forms, covered by the integrity trailer like
    everything else.  Absent when the compiling session lowered
    nothing; a v2 artifact (no such section possible) is version skew
    and degrades to a recompile.
    v4: symbols that would not read back bare are written [|...|]
    (see {!Liblang_reader.Reader}); a v3 artifact may hold such a symbol
    bare, so it is version skew and recompiles.
    v5: the bytecode section is gone — the VM lowers each form at its
    first evaluation.  A v4 artifact is version skew: {!of_string}
    reads the header first, so its trailing [(bytecode ...)] datum is
    never parsed.
    v6: body names fix their bindings ({!Writer}): links are
    (alias, owner, name in owner) triples, and a [renames] field maps
    renamed binders to their source names.  A v5 body spells every
    binding by its bare source name, so it is version skew.
    v7: transformer right-hand sides and [quote-syntax] inside
    [begin-for-syntax] follow the same naming rule.  A v6 artifact wrote
    them as they were, so a macro template could mean a user's binding
    at load; it is version skew. *)
let format_version = 7

(** The magic header line; doubles as a human hint not to edit the file. *)
let magic = ";; liblang compiled artifact (machine-generated; do not edit)"

(** Last line of every artifact: [;; integrity: <md5hex>] of everything
    before it.  A reader comment, so parsing ignores it — but the store
    verifies it before parsing, which catches damage the reader cannot:
    a truncated tail, or a bit flip that still reads as a well-formed
    s-expression and would otherwise replay silently wrong. *)
let integrity_marker = ";; integrity: "

type require_ref =
  | Builtin of string  (** a host-provided module, e.g. [racket] *)
  | File of string * string
      (** a file module: canonical key and the digest of its artifact *)

type t = {
  version : int;
  mod_name : string;  (** canonical module key (absolute path) *)
  lang : string;
  source_digest : string;
  requires : require_ref list;
  exports : string list;  (** external names, for listing/validation *)
  links : (string * string * string) list;
      (** [(alias, owner, name)]: the body's name [alias] means the
          binding module [owner] defines under written name [name] (or, for
          a builtin owner, exports as [name]).  Written for every free
          reference whose own name would not mean it from the module
          scope — e.g. the [defensive-*] bindings a typed module's export
          indirection (§6.2) splices into untyped clients, or a language
          binding a macro introduces where the module defines the same
          name.  The loader binds each alias via
          {!Liblang_modules.Modsys.find_internal}. *)
  renames : (string * string) list;
      (** [(written, source)] for each binder written under a name other
          than its source name; procedures and errors show the source
          name *)
  core_forms : Datum.annot list;  (** fully-expanded module body, as {!Writer} wrote it *)
}

(** Why a stored artifact cannot be used (each degrades to a recompile). *)
type invalid =
  | Missing  (** no artifact on disk for this module key *)
  | Unreadable of string  (** I/O error reading the artifact file *)
  | Corrupt of string  (** parse failure / wrong shape (incl. truncation) *)
  | Version_skew of int  (** written by another format version *)
  | Stale_source  (** the module's source text changed *)
  | Stale_require of string  (** a required module's artifact changed *)
  | Load_failed of string
      (** the artifact parsed but could not be rebuilt into a live module
          (e.g. a link target vanished because its module was recompiled
          by a cache-less session) *)

let invalid_to_string = function
  | Missing -> "no artifact"
  | Unreadable m -> "unreadable artifact: " ^ m
  | Corrupt m -> "corrupt artifact: " ^ m
  | Version_skew v -> Printf.sprintf "format version skew (artifact v%d, expected v%d)" v format_version
  | Stale_source -> "stale: source changed"
  | Stale_require r -> "stale: required module changed: " ^ r
  | Load_failed m -> "artifact failed to load: " ^ m

(* -- serialization --------------------------------------------------------- *)

let str s = Datum.str s
let sym s = Datum.sym s
let dlist xs = Datum.list xs

let datum_of_require = function
  | Builtin name -> dlist [ sym "builtin"; str name ]
  | File (key, digest) -> dlist [ sym "file"; str key; str digest ]

(** Render an artifact to its on-disk text. *)
let to_string (a : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  let header =
    dlist
      [
        sym "liblang-artifact";
        dlist [ sym "version"; Datum.int a.version ];
        dlist [ sym "module"; str a.mod_name ];
        dlist [ sym "lang"; str a.lang ];
        dlist [ sym "source-digest"; str a.source_digest ];
        dlist (sym "requires" :: List.map datum_of_require a.requires);
        dlist (sym "exports" :: List.map str a.exports);
        dlist
          (sym "links"
          :: List.map (fun (n, k, o) -> dlist [ str n; str k; str o ]) a.links);
        dlist (sym "renames" :: List.map (fun (w, n) -> dlist [ str w; str n ]) a.renames);
      ]
  in
  Datum.to_buffer buf header.Datum.d;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "(body\n";
  List.iter
    (fun (f : Datum.annot) ->
      Buffer.add_char buf ' ';
      Datum.to_buffer buf f.Datum.d;
      Buffer.add_char buf '\n')
    a.core_forms;
  Buffer.add_string buf ")\n";
  let body_text = Buffer.contents buf in
  body_text ^ integrity_marker ^ Digest_util.of_string body_text ^ "\n"

(** Build the artifact for a compiled module from its core forms as
    {!Writer} wrote them. *)
let of_compiled ~mod_name ~lang ~source_digest ~requires ~exports ~links ~renames
    ~(core_forms : Datum.annot list) () : t =
  {
    version = format_version;
    mod_name;
    lang;
    source_digest;
    requires;
    exports;
    links;
    renames;
    core_forms;
  }

(* -- integrity -------------------------------------------------------------- *)

let last_index_of ~(sub : string) (s : string) : int option =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i < 0 then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i - 1)
  in
  if m > n then None else go (n - m)

(** Verify the {!integrity_marker} trailer: [Ok ()] iff the final
    trailer's digest matches the text preceding it.  A missing trailer is
    [Corrupt] too — callers that must not mistake {e old-format} artifacts
    for damage should fall back to {!read_header}'s version check (the
    store does; see [Store.read_header]). *)
let verify_integrity (text : string) : (unit, invalid) result =
  match last_index_of ~sub:("\n" ^ integrity_marker) text with
  | None -> Error (Corrupt "missing integrity trailer")
  | Some i ->
      let start = i + 1 + String.length integrity_marker in
      let claimed = String.trim (String.sub text start (String.length text - start)) in
      let prefix = String.sub text 0 (i + 1) in
      if String.equal claimed (Digest_util.of_string prefix) then Ok ()
      else Error (Corrupt "integrity digest mismatch (artifact damaged on disk)")

(* -- parsing --------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let expect_str what (a : Datum.annot) =
  match a.Datum.d with Datum.Atom (Datum.Str s) -> s | _ -> bad "%s: expected a string" what

let parse_require (a : Datum.annot) : require_ref =
  match a.Datum.d with
  | Datum.List [ k; n ] when Datum.is_sym "builtin" k -> Builtin (expect_str "require" n)
  | Datum.List [ k; n; d ] when Datum.is_sym "file" k ->
      File (expect_str "require" n, expect_str "require digest" d)
  | _ -> bad "bad require entry"

(** An artifact read as far as its header: every field but the body,
    which {!read_body} reads from the same text. *)
type header = {
  art : t;  (** [core_forms] is empty until {!read_body} *)
  text : string;
  head : Datum.annot;  (** the header datum; the body follows it *)
}

(* Run [f] as one read of [text]; a reader or shape error is [Corrupt]. *)
let reading ?after text f =
  match Reader.with_cursor ~file:"<artifact>" ?after text f with
  | r -> r
  | exception Reader.Error (m, _) -> Error (Corrupt m)
  | exception Bad m -> Error (Corrupt m)

(** Read the header datum of artifact text.  [Error] carries the reason
    the artifact cannot be used: one of another format version is
    [Version_skew], and one whose source digest is not [?source_digest]
    (when given) is [Stale_source] — whatever follows the header.  So a
    stale artifact costs one datum to reject, its requires can be checked
    before its body is read, and a future format change never surfaces
    as "corrupt". *)
let read_header ?source_digest (text : string) : (header, invalid) result =
  reading text @@ fun next ->
  let head, fields =
    match next () with
    | Some ({ Datum.d = Datum.List (h :: fields); _ } as head) when Datum.is_sym "liblang-artifact" h
      ->
        (head, fields)
    | _ -> bad "not a liblang-artifact"
  in
  let field_exn name =
    match
      List.find_opt
        (fun (f : Datum.annot) ->
          match f.Datum.d with Datum.List (k :: _) -> Datum.is_sym name k | _ -> false)
        fields
    with
    | Some f -> f
    | None -> bad "missing field %s" name
  in
  let str_field name =
    match (field_exn name).Datum.d with
    | Datum.List [ _; v ] -> expect_str name v
    | _ -> bad "bad field %s" name
  in
  let list_field name parse =
    match (field_exn name).Datum.d with
    | Datum.List (_ :: xs) -> List.map parse xs
    | _ -> bad "bad %s field" name
  in
  let version =
    match (field_exn "version").Datum.d with
    | Datum.List [ _; { d = Datum.Atom (Datum.Int v); _ } ] -> v
    | _ -> bad "bad version field"
  in
  if version <> format_version then Error (Version_skew version)
  else
    let digest = str_field "source-digest" in
    match source_digest with
    | Some d when not (String.equal d digest) -> Error Stale_source
    | _ ->
        let art =
          {
            version;
            mod_name = str_field "module";
            lang = str_field "lang";
            source_digest = digest;
            requires = list_field "requires" parse_require;
            exports = list_field "exports" (expect_str "export");
            links =
              list_field "links" (fun (l : Datum.annot) ->
                  match l.Datum.d with
                  | Datum.List [ n; k; o ] ->
                      (expect_str "link alias" n, expect_str "link module" k, expect_str "link name" o)
                  | _ -> bad "bad link entry");
            renames =
              list_field "renames" (fun (r : Datum.annot) ->
                  match r.Datum.d with
                  | Datum.List [ w; n ] -> (expect_str "renamed binder" w, expect_str "source name" n)
                  | _ -> bad "bad renames entry");
            core_forms = [];
          }
        in
        Ok { art; text; head }

(** Read the body that follows [h]'s header: the whole artifact. *)
let read_body (h : header) : (t, invalid) result =
  reading ~after:h.head h.text @@ fun next ->
  let core_forms =
    match next () with
    | Some { Datum.d = Datum.List (b :: forms); _ } when Datum.is_sym "body" b -> forms
    | _ -> bad "missing body section (truncated?)"
  in
  if Option.is_some (next ()) then bad "unexpected datum after the body";
  Ok { h.art with core_forms }

(** Parse artifact text: {!read_header}, then {!read_body}. *)
let of_string ?source_digest (text : string) : (t, invalid) result =
  Result.bind (read_header ?source_digest text) read_body
