(** Content digests for the separate-compilation layer.

    Every digest in the artifact store is the lowercase hex MD5 of a byte
    string (the stdlib [Digest]); what matters is not cryptographic
    strength but that (a) equal content yields equal digests, so an
    unchanged module recompiled from scratch produces a byte-identical
    artifact and its dependents stay valid, and (b) any edit to a source
    file or to a required module's artifact changes the digest and so
    transitively invalidates every dependent (see docs/compilation.md). *)

let of_string (s : string) : string = Digest.to_hex (Digest.string s)

(** Digest of [len] bytes of [s] from [pos], hashed in place. *)
let of_substring (s : string) (pos : int) (len : int) : string =
  Digest.to_hex (Digest.substring s pos len)

let of_subbytes (b : bytes) (pos : int) (len : int) : string =
  Digest.to_hex (Digest.subbytes b pos len)

(** A short prefix for trace/log lines (full digests are noisy). *)
let short (d : string) : string =
  if String.length d > 12 then String.sub d 0 12 else d

(** Stable key for naming an artifact file after its module key (an
    absolute path or registry name): hex MD5 of the key itself, so cache
    file names are filesystem-safe regardless of the key's characters. *)
let key_file (key : string) : string = of_string key
