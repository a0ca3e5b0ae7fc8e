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
    - the fully-expanded core forms of the module body.  The
      [begin-for-syntax] forms inside it are the serialized compile-time
      (type-environment) declarations of §5: the loader regenerates the
      module's [ct_thunks] from them, so closures are never marshaled.

    The serialization is a single reader-parseable s-expression, so a
    corrupt or truncated artifact surfaces as an ordinary parse failure
    and degrades to a recompile (see {!Store}). *)

module Datum = Liblang_reader.Datum
module Reader = Liblang_reader.Reader
module Stx = Liblang_stx.Stx

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
    bare, so it is version skew and recompiles. *)
let format_version = 4

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
  links : (string * string) list;
      (** cross-module {e internal} references: [(name, module-key)] pairs
          for every free identifier in the core forms that is bound to a
          required module's unexported module-level definition — e.g. the
          [defensive-*] bindings a typed module's export indirection
          (§6.2) splices into untyped clients.  Exported names rebind by
          name through the require; these cannot, so the loader re-links
          them explicitly via {!Liblang_modules.Modsys.find_internal}. *)
  core_forms : Datum.annot list;  (** fully-expanded module body *)
  bytecode : Datum.annot option;
      (** the backend's serialized lowering of the body's runnable forms
          (see {!Liblang_backend.Lower.code_to_datum}); [None] when the
          writer had none.  Purely an acceleration: the loader primes
          the VM's code cache from it, and any inconsistency degrades to
          lowering afresh. *)
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
          :: List.map (fun (n, k) -> dlist [ str n; str k ]) a.links);
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
  (match a.bytecode with
  | None -> ()
  | Some bc ->
      Datum.to_buffer buf bc.Datum.d;
      Buffer.add_char buf '\n');
  let body_text = Buffer.contents buf in
  body_text ^ integrity_marker ^ Digest_util.of_string body_text ^ "\n"

(** Build the artifact for a compiled module from its expanded core forms
    (syntax is flattened to datums; scopes are per-session and are
    reconstructed by the loader). *)
let of_compiled ?bytecode ~mod_name ~lang ~source_digest ~requires ~exports ~links
    ~(core_forms : Stx.t list) () : t =
  {
    version = format_version;
    mod_name;
    lang;
    source_digest;
    requires;
    exports;
    links;
    core_forms = List.map Stx.to_annot core_forms;
    bytecode;
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
    for damage should fall back to {!of_string}'s version check (the store
    does; see [Store.read]). *)
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

(** Parse artifact text.  [Error] carries the reason the artifact cannot
    be used; version skew is detected before the rest of the header so a
    future format change never surfaces as "corrupt". *)
let of_string (text : string) : (t, invalid) result =
  match Reader.read_all ~file:"<artifact>" text with
  | exception Reader.Error (m, _) -> Error (Corrupt m)
  | datums -> (
      try
        (* the bytecode section is optional; peel it off so the 2-datum
           core shape below stays the only required structure *)
        let datums, bytecode =
          match datums with
          | [ h; b; bc ] -> (
              match bc.Datum.d with
              | Datum.List (k :: _) when Datum.is_sym "bytecode" k ->
                  ([ h; b ], Some bc)
              | _ -> (datums, None))
          | _ -> (datums, None)
        in
        match datums with
        | [ header; body ] -> (
            let fields =
              match header.Datum.d with
              | Datum.List (h :: fields) when Datum.is_sym "liblang-artifact" h -> fields
              | _ -> bad "not a liblang-artifact"
            in
            let field name =
              List.find_opt
                (fun (f : Datum.annot) ->
                  match f.Datum.d with
                  | Datum.List (k :: _) -> Datum.is_sym name k
                  | _ -> false)
                fields
            in
            let field_exn name =
              match field name with Some f -> f | None -> bad "missing field %s" name
            in
            let version =
              match (field_exn "version").Datum.d with
              | Datum.List [ _; { d = Datum.Atom (Datum.Int v); _ } ] -> v
              | _ -> bad "bad version field"
            in
            if version <> format_version then Error (Version_skew version)
            else
              let str_field name =
                match (field_exn name).Datum.d with
                | Datum.List [ _; v ] -> expect_str name v
                | _ -> bad "bad field %s" name
              in
              let requires =
                match (field_exn "requires").Datum.d with
                | Datum.List (_ :: rs) -> List.map parse_require rs
                | _ -> bad "bad requires field"
              in
              let exports =
                match (field_exn "exports").Datum.d with
                | Datum.List (_ :: es) -> List.map (expect_str "export") es
                | _ -> bad "bad exports field"
              in
              let links =
                match (field_exn "links").Datum.d with
                | Datum.List (_ :: ls) ->
                    List.map
                      (fun (l : Datum.annot) ->
                        match l.Datum.d with
                        | Datum.List [ n; k ] ->
                            (expect_str "link name" n, expect_str "link module" k)
                        | _ -> bad "bad link entry")
                      ls
                | _ -> bad "bad links field"
              in
              let core_forms =
                match body.Datum.d with
                | Datum.List (h :: forms) when Datum.is_sym "body" h -> forms
                | _ -> bad "missing body section"
              in
              Ok
                {
                  version;
                  mod_name = str_field "module";
                  lang = str_field "lang";
                  source_digest = str_field "source-digest";
                  requires;
                  exports;
                  links;
                  core_forms;
                  bytecode;
                })
        | _ -> bad "expected a header and a body (truncated?)"
      with Bad m -> Error (Corrupt m))
