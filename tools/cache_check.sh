#!/bin/sh
# Cache coherence gate (CI): exercise the separate-compilation layer
# (lib/compiled/, docs/compilation.md) over every example and adversarial
# corpus file, twice, through one shared artifact store.
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
#     best-effort);
#   runs: every file that compiled on the cold pass must print
#     byte-identical output with and without the cache, with matching
#     exit codes (every run gets the same --fuel bound, so a corpus
#     program that loops at runtime ends the same way in both);
#   engine vm: the same files again under run --engine vm, cached and
#     uncached -- both must match the interpreter's uncached output
#     byte-for-byte (the cached leg warm-loads the artifact's
#     bytecode section; docs/backend.md).
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

# -- pass 1: cold ------------------------------------------------------------
for f in $files; do
  out=$($RUN "$LIBLANG" compile --cache-dir "$CACHE" "$f" 2>/dev/null)
  code=$?
  case $code in
    0) printf '%s\n' "$f" >>"$WORK/ok" ;;
    1) ;; # ordinary diagnostics: expected for the adversarial corpus
    *) bad "$f: cold compile exited $code (diagnostics should exit 1, never crash)" ;;
  esac
done

if [ ! -f "$WORK/ok" ]; then
  bad "no file compiled successfully on the cold pass"
fi

# -- pass 2: warm ------------------------------------------------------------
if [ -f "$WORK/ok" ]; then
  while IFS= read -r f; do
    out=$($RUN "$LIBLANG" compile --cache-dir "$CACHE" "$f" 2>/dev/null)
    code=$?
    if [ "$code" -ne 0 ]; then
      bad "$f: warm compile exited $code"
      continue
    fi
    case $out in
      *"compiles=0 "*) : ;;
      *) bad "$f: warm pass recompiled instead of loading artifacts: $out" ;;
    esac
    case $out in
      *"misses=0"*) : ;;
      *) bad "$f: warm pass missed the cache: $out" ;;
    esac
  done <"$WORK/ok"
fi

# -- pass 3: parallel (-j2) ---------------------------------------------------
CACHE2="$WORK/cache-j2"
if [ -f "$WORK/ok" ]; then
  # cold with a two-domain pool, into a fresh store
  while IFS= read -r f; do
    out=$($RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE2" "$f" 2>/dev/null)
    code=$?
    if [ "$code" -ne 0 ]; then
      bad "$f: -j2 cold compile exited $code"
    fi
  done <"$WORK/ok"
  # warm with the pool: still hit-only
  while IFS= read -r f; do
    out=$($RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE2" "$f" 2>/dev/null)
    code=$?
    if [ "$code" -ne 0 ]; then
      bad "$f: -j2 warm compile exited $code"
      continue
    fi
    case $out in
      *"compiles=0 "*) : ;;
      *) bad "$f: -j2 warm pass recompiled instead of loading artifacts: $out" ;;
    esac
  done <"$WORK/ok"
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
fi

# -- cached vs uncached run output -------------------------------------------
# The cached runs warm-load what pass 1 wrote.  One fuel bound for every
# run: enough for the examples, and it stops runtime-loop.scm.
FUEL=1000000
if [ -f "$WORK/ok" ]; then
  while IFS= read -r f; do
    plain=$($RUN "$LIBLANG" run --fuel $FUEL "$f" </dev/null 2>/dev/null)
    pc=$?
    cached=$($RUN "$LIBLANG" run --fuel $FUEL --cache-dir "$CACHE" "$f" </dev/null 2>/dev/null)
    cc=$?
    if [ "$pc" -ne "$cc" ]; then
      bad "$f: exit code diverges cached ($cc) vs uncached ($pc)"
    fi
    if [ "$plain" != "$cached" ]; then
      bad "$f: cached run output diverges from uncached"
    fi
    # engine parity through the same store: the VM must agree with the
    # interpreter uncached, and warm-loading the artifact's bytecode
    # section must not change a byte either.
    vm=$($RUN "$LIBLANG" run --fuel $FUEL --engine vm "$f" </dev/null 2>/dev/null)
    vc=$?
    vmc=$($RUN "$LIBLANG" run --fuel $FUEL --engine vm --cache-dir "$CACHE" "$f" </dev/null 2>/dev/null)
    vcc=$?
    if [ "$pc" -ne "$vc" ] || [ "$pc" -ne "$vcc" ]; then
      bad "$f: exit code diverges under --engine vm (interp $pc, vm $vc, vm cached $vcc)"
    fi
    if [ "$plain" != "$vm" ]; then
      bad "$f: --engine vm output diverges from the interpreter"
    fi
    if [ "$plain" != "$vmc" ]; then
      bad "$f: cached --engine vm output diverges from the interpreter"
    fi
  done <"$WORK/ok"
fi

if [ "$fail" -eq 0 ]; then
  n=0
  [ -f "$WORK/ok" ] && n=$(wc -l <"$WORK/ok")
  echo "cache_check OK: $n modules warm-loaded (serial and -j2, byte-identical stores); cached, uncached, and --engine vm runs agree"
fi
exit "$fail"
