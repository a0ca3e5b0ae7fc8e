#!/bin/sh
# Cache coherence gate (CI): the checks that need the CLI's compile
# summary and a store on disk (lib/compiled/, docs/compilation.md), over
# every example and adversarial corpus file.
#
#   pass 1 (cold): every file must either compile (exit 0) or fail with
#     ordinary diagnostics (exit 1) -- any other exit means the compiler
#     crashed instead of containing the failure;
#   pass 2 (warm): every file that compiled must now be satisfied
#     entirely from the store (compiles=0, misses=0 on the summary line);
#   pass 3 (-j2): the same files again, fresh store, a two-domain pool:
#     the parallel build must succeed, replay warm, and write artifacts
#     byte-identical to the serial store's (docs/compilation.md,
#     "Parallel builds" -- determinism is a hard invariant, not a
#     best-effort).
#
# Running every file uncached, cold, warm, edited, under each engine, in
# one session, as a subprocess and through a daemon, and expanding and
# analyzing it from the repository root, is the configuration matrix's
# job: the `matrix` suite of `dune runtest` (test/test_matrix.ml).
#
# Usage: tools/cache_check.sh [path/to/liblang.exe]   (from the repo root;
# the script cd's there itself when invoked from elsewhere)

set -u
cd "$(dirname "$0")/.." || exit 2

LIBLANG=${1:-_build/default/bin/liblang.exe}
if [ ! -x "$LIBLANG" ]; then
  echo "cache_check: $LIBLANG not built (dune build bin/liblang.exe first)" >&2
  exit 2
fi

# Bound each invocation when coreutils timeout is available (a hang is a
# failure, not a freeze).
if command -v timeout >/dev/null 2>&1; then RUN="timeout 120"; else RUN=""; fi

WORK=$(mktemp -d)
CACHE="$WORK/cache"
trap 'rm -rf "$WORK"' EXIT INT TERM

fail=0
bad() { printf 'cache_check FAIL: %s\n' "$*" >&2; fail=1; }

files="examples/scm/*.scm test/corpus/*.scm"
: >"$WORK/ok"

# A warm pass: every file that compiled must be satisfied entirely from the
# store (compiles=0, misses=0 on the summary line).
warm() {
  label=$1
  shift
  while IFS= read -r f; do
    if ! out=$($RUN "$LIBLANG" compile "$@" "$f" 2>/dev/null); then
      bad "$f: $label warm compile failed"
      continue
    fi
    case $out in
      *"compiles=0 "*"misses=0"*) : ;;
      *) bad "$f: $label warm pass recompiled or missed the store: $out" ;;
    esac
  done <"$WORK/ok"
}

# -- pass 1: cold ------------------------------------------------------------
for f in $files; do
  $RUN "$LIBLANG" compile --cache-dir "$CACHE" "$f" >/dev/null 2>&1
  code=$?
  case $code in
    0) printf '%s\n' "$f" >>"$WORK/ok" ;;
    1) ;; # ordinary diagnostics: expected for the adversarial corpus
    *) bad "$f: cold compile exited $code (diagnostics should exit 1, never crash)" ;;
  esac
done
[ -s "$WORK/ok" ] || bad "no file compiled successfully on the cold pass"

# -- pass 2: warm ------------------------------------------------------------
warm serial --cache-dir "$CACHE"

# -- pass 3: parallel (-j2) ---------------------------------------------------
# cold with a two-domain pool into a fresh store, then warm with the pool
CACHE2="$WORK/cache-j2"
while IFS= read -r f; do
  $RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE2" "$f" >/dev/null 2>&1 ||
    bad "$f: -j2 cold compile failed"
done <"$WORK/ok"
warm -j2 -j 2 --cache-dir "$CACHE2"
# determinism: every artifact the -j2 store wrote must be byte-identical
# to the serial store's copy (same keys: same files, absolute paths)
for a in "$CACHE2"/*.lart; do
  [ -e "$a" ] || continue
  b="$CACHE/$(basename "$a")"
  if [ ! -f "$b" ]; then
    bad "determinism: $(basename "$a") exists in the -j2 store but not the serial one"
  elif ! cmp -s "$a" "$b"; then
    bad "determinism: $(basename "$a") differs between the serial and -j2 stores"
  fi
done

if [ "$fail" -eq 0 ]; then
  n=$(wc -l <"$WORK/ok")
  echo "cache_check OK: $n modules warm-loaded (serial and -j2, byte-identical stores)"
fi
exit "$fail"
