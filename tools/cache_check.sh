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
#   runs (every file, the ones that fail to compile included): an
#     uncached run, then a cold and a warm run through a fresh store,
#     must exit with the same code and print byte-identical stdout and
#     stderr -- the diagnostics included, labels and all, since every
#     mode reads, names and enters a file the same way (every run gets
#     the same --fuel bound, so a corpus program that loops at runtime
#     ends the same way in all three);
#   expand/analyze: every file that compiled on the cold pass must
#     expand and analyze with exit 0 from the repo root -- its requires
#     resolve from its own directory, not the cwd;
#   engine vm: in the same loop, the files that compiled on the cold pass
#     again under run --engine vm, uncached and through the pass-1 store
#     -- both must match the interpreter's uncached exit code and stdout
#     byte-for-byte (the cached leg replays the artifact's core forms and
#     lowers each form at its first evaluation; docs/backend.md);
#   edited clients: every file that requires another, in a copy of its
#     directory, runs once through a fresh store, then gets a newline
#     appended and runs again through that store -- so it compiles from
#     source while what it requires loads from the store, the
#     configuration of a compile server after an edit.  That run must
#     exit with the same code and print byte-identical stdout and stderr
#     as an uncached run of the edited file.
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

# -- uncached, cold and warm runs agree, diagnostics included ---------------
# One fuel bound for every run: enough for the examples, and it stops
# runtime-loop.scm.  The files that compiled also run under the VM,
# uncached and replayed from the pass-1 store: the VM must agree with the
# interpreter, and running forms replayed from the store must not change
# a byte either.
FUEL=1000000
CACHE3="$WORK/cache-runs"
runs=0
for f in $files; do
  vm=""
  [ -f "$WORK/ok" ] && grep -qxF "$f" "$WORK/ok" && vm="vm vm-cached"
  for mode in uncached cold warm $vm; do
    case $mode in
      uncached) set -- ;;
      cold | warm) set -- --cache-dir "$CACHE3" ;;
      vm) set -- --engine vm ;;
      vm-cached) set -- --engine vm --cache-dir "$CACHE" ;;
    esac
    $RUN "$LIBLANG" run --fuel $FUEL "$@" "$f" </dev/null >"$WORK/$mode.out" 2>"$WORK/$mode.err"
    echo $? >"$WORK/$mode.code"
  done
  runs=$((runs + 1))
  for mode in $vm; do
    if ! cmp -s "$WORK/uncached.code" "$WORK/$mode.code"; then
      bad "$f: exit code diverges under --engine vm ($mode exits $(cat "$WORK/$mode.code"), interp $(cat "$WORK/uncached.code"))"
    fi
    if ! cmp -s "$WORK/uncached.out" "$WORK/$mode.out"; then
      bad "$f: $mode output diverges from the interpreter"
    fi
  done
  for mode in cold warm; do
    if ! cmp -s "$WORK/uncached.code" "$WORK/$mode.code"; then
      bad "$f: $mode run exits $(cat "$WORK/$mode.code"), uncached $(cat "$WORK/uncached.code")"
    fi
    if ! cmp -s "$WORK/uncached.out" "$WORK/$mode.out"; then
      bad "$f: $mode run output diverges from uncached"
    fi
    if ! cmp -s "$WORK/uncached.err" "$WORK/$mode.err"; then
      bad "$f: $mode run diagnostics diverge from uncached"
    fi
  done
done

# -- a client compiled from source against requires loaded from the store ----
edited=0
for f in $files; do
  grep -q '(require "' "$f" || continue
  rm -rf "$WORK/edit" "$WORK/cache-edit"
  mkdir -p "$WORK/edit"
  cp -R "$(dirname "$f")"/. "$WORK/edit"/
  e="$WORK/edit/$(basename "$f")"
  $RUN "$LIBLANG" run --fuel $FUEL --cache-dir "$WORK/cache-edit" "$e" </dev/null >/dev/null 2>&1
  printf '\n' >>"$e"
  for mode in uncached edited; do
    case $mode in
      uncached) set -- ;;
      edited) set -- --cache-dir "$WORK/cache-edit" ;;
    esac
    $RUN "$LIBLANG" run --fuel $FUEL "$@" "$e" </dev/null >"$WORK/$mode.out" 2>"$WORK/$mode.err"
    echo $? >"$WORK/$mode.code"
  done
  edited=$((edited + 1))
  if ! cmp -s "$WORK/uncached.code" "$WORK/edited.code"; then
    bad "$f: edited client exits $(cat "$WORK/edited.code") against the store, uncached $(cat "$WORK/uncached.code")"
  fi
  if ! cmp -s "$WORK/uncached.out" "$WORK/edited.out"; then
    bad "$f: edited client output against the store diverges from uncached"
  fi
  if ! cmp -s "$WORK/uncached.err" "$WORK/edited.err"; then
    bad "$f: edited client diagnostics against the store diverge from uncached"
  fi
done
if [ "$edited" -eq 0 ]; then
  bad "no file requires another: the edited-client leg ran nothing"
fi

# -- expand and analyze every file that compiled -----------------------------
if [ -f "$WORK/ok" ]; then
  while IFS= read -r f; do
    for cmd in expand analyze; do
      if ! $RUN "$LIBLANG" $cmd "$f" </dev/null >/dev/null 2>"$WORK/$cmd.err"; then
        bad "$f: $cmd failed: $(head -n 1 "$WORK/$cmd.err")"
      fi
    done
  done <"$WORK/ok"
fi

if [ "$fail" -eq 0 ]; then
  n=0
  [ -f "$WORK/ok" ] && n=$(wc -l <"$WORK/ok")
  echo "cache_check OK: $n modules warm-loaded (serial and -j2, byte-identical stores); $runs files run uncached, cold and warm with identical output and diagnostics; $edited edited clients run against the store as uncached; $n expand and analyze; --engine vm runs agree"
fi
exit "$fail"
