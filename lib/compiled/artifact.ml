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
      never marshaled;
    - an [index] of the body: each form's byte range and load class.

    The serialization is reader-parseable text — a header datum, then a
    body datum — so a corrupt or truncated artifact surfaces as an
    ordinary parse failure and degrades to a recompile (see {!Store}).
    The header is read first: a version skew, a changed source or a
    changed require is decided before the body is read.  Then only the
    forms an importer needs are parsed — requires, provides,
    transformers and compile-time declarations.  Each [define-values]
    right-hand side and each expression stays a byte range of the text
    until the module runs it ({!read_deferred}), as Racket's
    [read-on-demand-source] unmarshals a procedure body only when it is
    first needed.  Artifacts carry no bytecode; the VM lowers each form
    at its first evaluation. *)

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
    at load; it is version skew.
    v8: the header [index]es the body (see {!of_compiled}), and an
    artifact's identity is its trailer's digest.  A v7 artifact has no
    index, so it is version skew. *)
let format_version = 8

(** The magic header line; doubles as a human hint not to edit the file. *)
let magic = ";; liblang compiled artifact (machine-generated; do not edit)"

(** Last line of every artifact: [;; integrity: <md5hex>] of everything
    before it.  A reader comment, so parsing ignores it — but the store
    verifies it before parsing, which catches damage the reader cannot:
    a truncated tail, or a bit flip that still reads as a well-formed
    s-expression and would otherwise replay silently wrong.  Its digest
    is the artifact's identity: dependents record it. *)
let integrity_marker = ";; integrity: "

(** The trailer's length: the marker, 32 hex digits and a newline. *)
let trailer_length = String.length integrity_marker + 33

type require_ref =
  | Builtin of string  (** a host-provided module, e.g. [racket] *)
  | File of string * string
      (** a file module: canonical key and the digest of its artifact *)

(** How the loader treats a body form, which the writer records in the
    index: importers expand against the forms read at load
    ([#%require], [#%provide], [define-syntaxes], [begin-for-syntax]),
    a [define-values] binds its ids at load, and the rest only runs. *)
type form_class = Read_at_load | Define_values | Expression

(** Bytes [pos, stop) of an artifact's text: one datum, read when it runs. *)
type range = { pos : int; stop : int }

(** A body form as the loader gets it. *)
type form =
  | Load of Datum.annot  (** read at load *)
  | Define of { head : string; ids : string list; rhs : range }
      (** a [define-values] under the written name [head], its right-hand
          side deferred *)
  | Expr of { head : string option; range : range }
      (** a deferred expression; [head] is its head symbol, if any *)

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
  forms : form list;  (** the fully-expanded module body, as {!Writer} wrote it *)
  text : string;  (** the artifact's text, which the deferred ranges index *)
  digest : string;  (** the artifact's identity: its integrity trailer's digest *)
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

(** A deferred range that does not read as one datum.  The integrity
    trailer covered it and the index framed it, so the writer wrote it
    wrong: a bug, never a corrupt artifact. *)
exception Writer_bug of string

let () =
  Printexc.register_printer (function
    | Writer_bug m -> Some ("artifact writer bug: " ^ m)
    | _ -> None)

(* -- text helpers ------------------------------------------------------------- *)

(* Does [s] hold [lit] at [pos]? *)
let has_at (s : string) (pos : int) (lit : string) : bool =
  let n = String.length lit in
  pos >= 0
  && pos + n <= String.length s
  &&
  let rec go i = i = n || (String.unsafe_get s (pos + i) = String.unsafe_get lit i && go (i + 1)) in
  go 0

(* The newlines in [s] from [from] up to [upto]. *)
let newlines (s : string) ~(from : int) ~(upto : int) : int =
  let rec go i n =
    match String.index_from_opt s i '\n' with Some j when j < upto -> go (j + 1) (n + 1) | _ -> n
  in
  if from >= upto then 0 else go from 0

let sym_of (a : Datum.annot) = match a.Datum.d with Datum.Atom (Datum.Sym s) -> Some s | _ -> None

(* -- serialization --------------------------------------------------------- *)

let str s = Datum.str s
let sym s = Datum.sym s
let dlist xs = Datum.list xs

let datum_of_require = function
  | Builtin name -> dlist [ sym "builtin"; str name ]
  | File (key, digest) -> dlist [ sym "file"; str key; str digest ]

(* A [define-values] as the index records it: its head, its ids and its
   right-hand side, when all are there. *)
let define_shape (f : Datum.annot) =
  match f.Datum.d with
  | Datum.List [ h; ({ Datum.d = Datum.List xs; _ } as ids); rhs ] -> (
      match (sym_of h, List.filter_map sym_of xs) with
      | Some head, names when List.length names = List.length xs -> Some (h, head, ids, names, rhs)
      | _ -> None)
  | _ -> None

(** The artifact for a compiled module, rendered: [core_forms] are the
    body's forms as {!Writer} wrote and classed them.  The body is laid
    out first, one form to a line after one space, so that the header
    can index it.  Each entry of the header's [index] records one form,
    in body order, with offsets that count from the body datum's open
    paren (so the header's own size does not move them):
    - [(load START END LINE)]: a form read at load, bytes [START, END),
      on line [LINE] of the body (the open paren's line is 0);
    - [(define HEAD (ID ...) START RHS END)]: a [define-values] whose head
      is written [HEAD], binding [ID ...], whose right-hand side is bytes
      [RHS, END - 1);
    - [(expr HEAD START END)]: an expression, [HEAD] its head symbol or
      [#f].
    The trailer's digest is the only hash taken. *)
let of_compiled ~mod_name ~lang ~source_digest ~requires ~exports ~links ~renames
    ~(core_forms : (form_class * Datum.annot) list) () : t =
  let body = Buffer.create 4096 in
  Buffer.add_string body "(body\n";
  let add (d : Datum.annot) = Datum.to_buffer body d.Datum.d in
  let here () = Buffer.length body in
  let lay (cls, (f : Datum.annot)) =
    Buffer.add_char body ' ';
    let start = here () in
    let form =
      match (cls, define_shape f) with
      | Define_values, Some (h, head, ids, names, rhs) ->
          Buffer.add_char body '(';
          add h;
          Buffer.add_char body ' ';
          add ids;
          Buffer.add_char body ' ';
          let pos = here () in
          add rhs;
          let stop = here () in
          Buffer.add_char body ')';
          Define { head; ids = names; rhs = { pos; stop } }
      | Read_at_load, _ ->
          add f;
          Load f
      | _ ->
          add f;
          let head = match f.Datum.d with Datum.List (h :: _) -> sym_of h | _ -> None in
          Expr { head; range = { pos = start; stop = here () } }
    in
    let stop = here () in
    Buffer.add_char body '\n';
    (form, start, stop)
  in
  let laid = List.map lay core_forms in
  Buffer.add_string body ")\n";
  (* each form's index entry; a form read at load records its line,
     counted over the text as written (a symbol may hold a newline) and
     only as far as the last such form *)
  let newlines_in from upto =
    let n = ref 0 in
    for i = from to upto - 1 do
      if Buffer.nth body i = '\n' then incr n
    done;
    !n
  in
  let int = Datum.int in
  let _, entries =
    List.fold_left_map
      (fun (line, from) (form, start, stop) ->
        match form with
        | Load _ ->
            let line = line + newlines_in from start in
            ((line, start), dlist [ sym "load"; int start; int stop; int line ])
        | Define { head; ids; rhs } ->
            ( (line, from),
              dlist [ sym "define"; sym head; dlist (List.map sym ids); int start; int rhs.pos; int stop ] )
        | Expr { head; _ } ->
            let head = match head with Some h -> sym h | None -> Datum.bool false in
            ((line, from), dlist [ sym "expr"; head; int start; int stop ]))
      (0, 0) laid
  in
  let header =
    dlist
      [
        sym "liblang-artifact";
        dlist [ sym "version"; Datum.int format_version ];
        dlist [ sym "module"; str mod_name ];
        dlist [ sym "lang"; str lang ];
        dlist [ sym "source-digest"; str source_digest ];
        dlist (sym "requires" :: List.map datum_of_require requires);
        dlist (sym "exports" :: List.map str exports);
        dlist (sym "links" :: List.map (fun (n, k, o) -> dlist [ str n; str k; str o ]) links);
        dlist (sym "renames" :: List.map (fun (w, n) -> dlist [ str w; str n ]) renames);
        dlist (sym "index" :: entries);
      ]
  in
  let head = Buffer.create 1024 in
  Buffer.add_string head magic;
  Buffer.add_char head '\n';
  Datum.to_buffer head header.Datum.d;
  Buffer.add_char head '\n';
  (* the text is assembled once, and hashed in place *)
  let base = Buffer.length head in
  let covered = base + Buffer.length body in
  let text = Bytes.create (covered + trailer_length) in
  Buffer.blit head 0 text 0 base;
  Buffer.blit body 0 text base (Buffer.length body);
  let digest = Digest_util.of_subbytes text 0 covered in
  Bytes.blit_string (integrity_marker ^ digest ^ "\n") 0 text covered trailer_length;
  let shift r = { pos = base + r.pos; stop = base + r.stop } in
  let forms =
    List.map
      (fun (form, _, _) ->
        match form with
        | Load _ -> form
        | Define d -> Define { d with rhs = shift d.rhs }
        | Expr e -> Expr { e with range = shift e.range })
      laid
  in
  {
    version = format_version;
    mod_name;
    lang;
    source_digest;
    requires;
    exports;
    links;
    renames;
    forms;
    text = Bytes.unsafe_to_string text;
    digest;
  }

(** An artifact's on-disk text. *)
let to_string (a : t) : string = a.text

(* -- integrity -------------------------------------------------------------- *)

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

(** The digest [text]'s {!integrity_marker} trailer claims, when [text]
    ends in one on a line of its own; [text] may be just the artifact's
    last [trailer_length + 1] bytes. *)
let trailer_digest (text : string) : string option =
  let n = String.length text in
  let at = n - trailer_length in
  if at >= 1 && text.[at - 1] = '\n' && has_at text at integrity_marker && text.[n - 1] = '\n' then
    let d = String.sub text (at + String.length integrity_marker) 32 in
    if String.for_all is_hex d then Some d else None
  else None

(** Verify the {!integrity_marker} trailer: [Ok ()] iff the trailer's
    digest matches the text before it, hashed in place.  A missing
    trailer is [Corrupt] too — callers that must not mistake
    {e old-format} artifacts for damage should fall back to
    {!read_header}'s version check (the store does; see
    [Store.read_header]). *)
let verify_integrity (text : string) : (unit, invalid) result =
  match trailer_digest text with
  | None -> Error (Corrupt "missing integrity trailer")
  | Some claimed ->
      let covered = String.length text - trailer_length in
      if String.equal claimed (Digest_util.of_substring text 0 covered) then Ok ()
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
  art : t;  (** [forms] is empty until {!read_body} *)
  index : Datum.annot list;  (** the body's index entries *)
  head_end : int;  (** the offset just past the header datum *)
}

(* Where the forms read at load are located: their locations point into
   the artifact, not a source. *)
let artifact_file = "<artifact>"

(* Run [f]; a reader or shape error is [Corrupt]. *)
let reading f =
  match f () with
  | r -> r
  | exception Reader.Error (m, _) -> Error (Corrupt m)
  | exception Bad m -> Error (Corrupt m)

(** Read the header datum of artifact text, without locations.  [Error]
    carries the reason the artifact cannot be used: one of another format
    version is [Version_skew], and one whose source digest is not
    [?source_digest] (when given) is [Stale_source] — whatever follows
    the header.  So a stale artifact costs one datum to reject, its
    requires can be checked before its body is read, and a future format
    change never surfaces as "corrupt". *)
let read_header ?source_digest (text : string) : (header, invalid) result =
  reading @@ fun () ->
  let head, head_end = Reader.read_range ~file:artifact_file text ~pos:0 in
  let fields =
    match head.Datum.d with
    | Datum.List (h :: fields) when Datum.is_sym "liblang-artifact" h -> fields
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
            forms = [];
            text;
            digest = Option.value (trailer_digest text) ~default:"";
          }
        in
        Ok { art; index = list_field "index" Fun.id; head_end }

(** Read the body that follows [h]'s header.  First check, in one pass
    over the index, that its ranges tile the body exactly as
    {!of_compiled} lays it out, up to the integrity trailer; then parse
    the forms read at load, each at its own line.  The other forms stay
    ranges of the text, read by {!read_deferred} when they run. *)
let read_body (h : header) : (t, invalid) result =
  let text = h.art.text in
  reading @@ fun () ->
  let base = h.head_end + 1 in
  if not (has_at text h.head_end "\n(body\n") then bad "missing body section (truncated?)";
  let num what (a : Datum.annot) =
    match a.Datum.d with Datum.Atom (Datum.Int n) -> n | _ -> bad "index: bad %s" what
  in
  let offset what a = base + num what a in
  let name what (a : Datum.annot) = match sym_of a with Some s -> s | None -> bad "index: bad %s" what in
  (* [sep] is the newline that ends the line before a form *)
  let frame sep s e =
    let s = offset "start" s and e = offset "end" e in
    if not (s = sep + 2 && has_at text sep "\n " && s < e && has_at text e "\n") then
      bad "index does not frame the body";
    (s, e)
  in
  let last, framed =
    List.fold_left_map
      (fun sep (entry : Datum.annot) ->
        match entry.Datum.d with
        | Datum.List [ tag; s; e; line ] when Datum.is_sym "load" tag ->
            let s, e = frame sep s e in
            (e, `Load (s, e, num "line" line))
        | Datum.List [ tag; head; { Datum.d = Datum.List ids; _ }; s; r; e ] when Datum.is_sym "define" tag
          ->
            let s, e = frame sep s e in
            let r = offset "right-hand side" r in
            if not (s < r && r < e - 1 && text.[s] = '(' && text.[r - 1] = ' ' && text.[e - 1] = ')') then
              bad "index: bad define-values range";
            let ids = List.map (name "id") ids in
            (e, `Form (Define { head = name "head" head; ids; rhs = { pos = r; stop = e - 1 } }))
        | Datum.List [ tag; head; s; e ] when Datum.is_sym "expr" tag ->
            let s, e = frame sep s e in
            let head =
              match head.Datum.d with Datum.Atom (Datum.Bool false) -> None | _ -> Some (name "head" head)
            in
            (e, `Form (Expr { head; range = { pos = s; stop = e } }))
        | _ -> bad "bad index entry")
      (base + 5) h.index
  in
  if not (has_at text last "\n)\n" && last + 3 + trailer_length = String.length text) then
    bad "the body does not end at the integrity trailer";
  let body_line = 1 + newlines text ~from:0 ~upto:base in
  let forms =
    List.map
      (function
        | `Load (s, e, line) ->
            Load (fst (Reader.read_range ~file:artifact_file ~at:(body_line + line, 1) ~stop:e text ~pos:s))
        | `Form f -> f)
      framed
  in
  Ok { h.art with forms }

(** Parse artifact text: {!read_header}, then {!read_body}. *)
let of_string ?source_digest (text : string) : (t, invalid) result =
  Result.bind (read_header ?source_digest text) read_body

(** [read_deferred a r] reads the datum [r] spans in [a]'s text, without
    locations: a deferred [define-values] right-hand side or expression,
    when it first runs.  The partial application [read_deferred a] keeps
    only [a]'s text and name alive, not the forms it read at load.
    @raise Writer_bug if [r] does not read as one datum. *)
let read_deferred (a : t) : range -> Datum.annot =
  let text = a.text and mod_name = a.mod_name in
  fun r ->
    match Reader.read_range ~file:artifact_file ~stop:r.stop text ~pos:r.pos with
    | d, _ -> d
    | exception Reader.Error (m, _) ->
        raise
          (Writer_bug
             (Printf.sprintf "module %s: bytes %d-%d do not read as one datum (%s)" mod_name r.pos
                r.stop m))
