#!/bin/sh
# Hygiene-engine perf smoke gate (CI): the fast path must stay *wired*,
# not just fast.  Seven checks (docs/architecture.md "Hygiene internals",
# docs/observability.md metric catalogue):
#
#   1. a shadowing-heavy program reports expand.resolve_hits > 0 under
#      --profile=json -- the memoized binding resolver only caches
#      multi-binder symbols, so this asserts the cache is exercised
#      rather than silently bypassed by the single-binder fast path;
#   2. a typed float loop under run --engine vm reports
#      vm.instructions > 0 via --profile=json -- the bytecode VM must be
#      actually retiring instructions, not silently falling back to the
#      tree walker (docs/backend.md);
#   3. a known-monomorphic typed program reports analysis.call_sites > 0
#      and opt.direct_calls > 0 via --profile=json -- the 0CFA pass must
#      be finding call sites and the optimizer must be consuming its
#      facts, so a silently inert analysis cannot pass CI
#      (docs/analysis.md);
#   4. the default engine's artifact path never lowers to bytecode: a
#      cold compile --cache-dir and a warm run --cache-dir of the typed
#      float loop both record no `lower` span under --profile=json, the
#      warm run loads from the store (module.cache_hits), and no .lart
#      file in the store carries a (bytecode ...) section -- artifacts
#      hold core forms only (docs/compilation.md, docs/backend.md);
#   5. resolution work stays flat across compiles in one process: the
#      shadowing program of check 1, run 40 times in one invocation,
#      reports at most 50x the expand.resolve_scanned of a single run --
#      binders indexed by scope and imports bound in bulk, not per-name
#      lists that every compile appends to (docs/architecture.md,
#      "Hygiene internals");
#   6. warm loads never send bodies through the expander: after a cold
#      compile --cache-dir of an 8-module gen-modules --shape wide
#      project, a warm run --cache-dir --profile=json reports
#      stx.scope_pushes = 0 and at most 100 resolutions
#      (expand.resolve_hits + expand.resolve_misses) per loaded module
#      (module.cache_hits) -- artifact bodies compile from their datums,
#      whose names alone fix their bindings (docs/compilation.md);
#   7. a warm compile parses no deferred body: a warm compile --cache-dir
#      --profile=json of the same project loads every module from its
#      artifact and reports reader.bytes at most the artifacts' header
#      bytes (their first two lines) plus the byte ranges their indexes
#      record as read at load -- define-values right-hand sides and
#      expressions are read only when they run (docs/compilation.md).
#
# The expansion stress family's closed-form checksums are checked by the
# repository benchmark's --smoke run under `dune runtest` (its frontend
# workload, bench/e2e/README.md).  Timings are noise in CI and are not
# asserted; correctness of the perf machinery is what this gate pins
# down.
#
# Usage: tools/perf_smoke.sh [path/to/liblang.exe]
# (from the repo root; the script cd's there itself when invoked from
# elsewhere).

set -u
cd "$(dirname "$0")/.." || exit 2

LIBLANG=${1:-_build/default/bin/liblang.exe}
if [ ! -x "$LIBLANG" ]; then
  echo "perf_smoke: $LIBLANG not built (dune build first)" >&2
  exit 2
fi

if command -v timeout >/dev/null 2>&1; then RUN="timeout 300"; else RUN=""; fi

fail=0

# -- 1. the resolver cache is exercised (hits > 0 on shadowing) --------------
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/shadow.scm" <<'EOF'
#lang racket
(define x 1)
(define (f x)
  (let ([x (+ x 10)])
    (let ([x (+ x 100)])
      (+ x x))))
(define (g x) (+ x (f x)))
(display (g x))
EOF

out=$($RUN "$LIBLANG" run --profile=json "$WORK/shadow.scm" 2>/dev/null)
# Program output precedes the JSON object on stdout; the counter line is
# unambiguous either way.
hits=$(printf '%s\n' "$out" | sed -n 's/.*"expand\.resolve_hits": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "${hits:-}" ]; then
  echo "perf_smoke: FAIL: expand.resolve_hits missing from --profile=json output" >&2
  fail=1
elif [ "$hits" -le 0 ]; then
  echo "perf_smoke: FAIL: expand.resolve_hits = $hits (resolver cache not exercised)" >&2
  fail=1
else
  echo "perf_smoke: resolver cache exercised (expand.resolve_hits = $hits)"
fi

# -- 2. the bytecode VM is wired (vm.instructions > 0 under --engine vm) -----
# Same answer under both engines, and the VM run must actually retire
# bytecode: a zero counter means every form fell back to the interpreter,
# which the parity gates cannot see (fallback is observably identical by
# design -- docs/backend.md).
cat > "$WORK/flloop.scm" <<'EOF'
#lang typed/racket
(: run (Float -> Float))
(define (run n)
  (let loop : Float ([i : Float 0.0] [s : Float 0.0])
    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))
(display (run 1000.0))
EOF

interp_out=$($RUN "$LIBLANG" run "$WORK/flloop.scm" 2>/dev/null)
vm_answer=$($RUN "$LIBLANG" run --engine vm "$WORK/flloop.scm" 2>/dev/null)
if [ "$interp_out" != "$vm_answer" ]; then
  echo "perf_smoke: FAIL: --engine vm output '$vm_answer' != interpreter '$interp_out'" >&2
  fail=1
fi
# The profile JSON follows the program output on stdout; the counter line
# is unambiguous either way.
vm_out=$($RUN "$LIBLANG" run --profile=json --engine vm "$WORK/flloop.scm" 2>/dev/null)
instrs=$(printf '%s\n' "$vm_out" | sed -n 's/.*"vm\.instructions": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "${instrs:-}" ]; then
  echo "perf_smoke: FAIL: vm.instructions missing from --engine vm --profile=json output" >&2
  fail=1
elif [ "$instrs" -le 0 ]; then
  echo "perf_smoke: FAIL: vm.instructions = $instrs (VM fell back to the interpreter)" >&2
  fail=1
else
  echo "perf_smoke: bytecode VM wired (vm.instructions = $instrs)"
fi

# -- 3. the 0CFA analysis is wired (facts found and consumed) -----------------
# Every call in this program is monomorphic, so the analysis must report
# call sites and the optimizer must turn at least one of them into a
# direct call.  Zero on either counter means the flow-analysis pipeline
# is inert -- parity gates cannot see that (an unoptimized program is
# observably identical by design -- docs/analysis.md).
cat > "$WORK/mono.scm" <<'EOF'
#lang typed/racket
(define (add2 [x : Integer]) : Integer (+ x 2))
(define (go [v : (Vectorof Integer)]) : Integer
  (let ([n (vector-length v)])
    (let loop : Integer ([j : Integer 0] [acc : Integer 0])
      (if (< j n) (loop (+ j 1) (+ acc (vector-ref v j))) acc))))
(display (add2 (go (make-vector 16 3))))
EOF

mono_out=$($RUN "$LIBLANG" run --profile=json "$WORK/mono.scm" 2>/dev/null)
sites=$(printf '%s\n' "$mono_out" | sed -n 's/.*"analysis\.call_sites": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
directs=$(printf '%s\n' "$mono_out" | sed -n 's/.*"opt\.direct_calls": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "${sites:-}" ] || [ "$sites" -le 0 ]; then
  echo "perf_smoke: FAIL: analysis.call_sites = ${sites:-missing} (0CFA pass inert)" >&2
  fail=1
elif [ -z "${directs:-}" ] || [ "$directs" -le 0 ]; then
  echo "perf_smoke: FAIL: opt.direct_calls = ${directs:-missing} (facts not consumed)" >&2
  fail=1
else
  echo "perf_smoke: 0CFA wired (analysis.call_sites = $sites, opt.direct_calls = $directs)"
fi

# -- 4. no bytecode on the default path ----------------------------------------
# Only --engine vm lowers, at a form's first evaluation; compiling and
# warm-running through the store must not.  The warm run must really load
# from the store (cache hits), or the no-`lower` half would pass vacuously.
counter() {
  printf '%s\n' "$2" | sed -n "s/.*\"$1\": *\([0-9][0-9]*\).*/\1/p" | head -n 1
}
CACHE="$WORK/cache"
if ! cold=$($RUN "$LIBLANG" compile --cache-dir "$CACHE" --profile=json "$WORK/flloop.scm" 2>/dev/null); then
  echo "perf_smoke: FAIL: cold compile --cache-dir of the float loop failed" >&2
  fail=1
else
  warm=$($RUN "$LIBLANG" run --cache-dir "$CACHE" --profile=json "$WORK/flloop.scm" 2>/dev/null)
  hits=$(counter 'module\.cache_hits' "$warm")
  if printf '%s\n' "$cold" | grep -q '"name": *"lower"'; then
    echo "perf_smoke: FAIL: cold compile --cache-dir lowered to bytecode (lower span present)" >&2
    fail=1
  elif printf '%s\n' "$warm" | grep -q '"name": *"lower"'; then
    echo "perf_smoke: FAIL: warm run --cache-dir lowered to bytecode (lower span present)" >&2
    fail=1
  elif [ -z "${hits:-}" ] || [ "$hits" -le 0 ]; then
    echo "perf_smoke: FAIL: warm run loaded nothing from the store (module.cache_hits = ${hits:-missing})" >&2
    fail=1
  elif grep -l '^(bytecode' "$CACHE"/*.lart >/dev/null 2>&1; then
    echo "perf_smoke: FAIL: an artifact carries a (bytecode ...) section" >&2
    fail=1
  else
    echo "perf_smoke: no bytecode on the default path (no lower span cold or warm; module.cache_hits = $hits)"
  fi
fi

# -- 5. resolution work stays flat across compiles in one process ------------
# A reference probes only the anchors of its own scope set, and an import is
# one bulk entry, so what a compile scans on resolver-cache misses must not
# depend on how many modules the process compiled before it.  Run the
# shadowing program of check 1 once, then 40 copies of it in one
# invocation (40 module compiles in one process: a file named twice on
# one command line compiles once and runs twice): the 40 must scan at
# most 40 times what
# one does, plus ten compiles' worth of slack -- the first compile binds
# some names for the first time and resolves them without the cache, so
# each later one scans a little more.  Binder lists that every compile
# appends to make the total grow quadratically instead.
one=$($RUN "$LIBLANG" run --profile=json "$WORK/shadow.scm" 2>/dev/null)
set --
i=0
while [ "$i" -lt 40 ]; do
  i=$((i + 1))
  cp "$WORK/shadow.scm" "$WORK/shadow$i.scm"
  set -- "$@" "$WORK/shadow$i.scm"
done
forty=$($RUN "$LIBLANG" run --profile=json "$@" 2>/dev/null)
scan1=$(counter 'expand\.resolve_scanned' "$one")
scan40=$(counter 'expand\.resolve_scanned' "$forty")
compiles40=$(counter 'module\.compiles' "$forty")
if [ -z "${scan1:-}" ] || [ -z "${scan40:-}" ]; then
  echo "perf_smoke: FAIL: expand.resolve_scanned missing from --profile=json output" >&2
  fail=1
elif [ "${compiles40:-0}" -ne 40 ]; then
  echo "perf_smoke: FAIL: expected 40 module.compiles in one process, got ${compiles40:-missing}" >&2
  fail=1
elif [ "$scan1" -le 0 ]; then
  echo "perf_smoke: FAIL: expand.resolve_scanned = $scan1 for one compile (nothing scanned?)" >&2
  fail=1
elif [ "$scan40" -gt $((50 * scan1)) ]; then
  echo "perf_smoke: FAIL: 40 compiles scanned $scan40 entries, over 50x one compile's $scan1 (resolution work grows with process history)" >&2
  fail=1
else
  echo "perf_smoke: resolution work flat (expand.resolve_scanned: 1 compile $scan1, 40 compiles $scan40)"
fi

# -- 6. warm loads never send bodies through the expander --------------------
# An artifact's names alone fix their bindings, so the loader compiles
# each body form from its datum: no syntax object is built for a body,
# so no scope is ever pushed, and a name resolves once per load in the
# module context.  Re-expanding bodies (the replay this replaced) pushes
# scopes by the hundred thousand and resolves every identifier occurrence.
WIDE="$WORK/wide"
if ! $RUN "$LIBLANG" gen-modules --dir "$WIDE" --shape wide 8 >/dev/null 2>&1; then
  echo "perf_smoke: FAIL: gen-modules --shape wide 8 failed" >&2
  fail=1
elif ! $RUN "$LIBLANG" compile --cache-dir "$WIDE/cache" "$WIDE/main.scm" >/dev/null 2>&1; then
  echo "perf_smoke: FAIL: cold compile --cache-dir of the wide project failed" >&2
  fail=1
else
  warm=$($RUN "$LIBLANG" run --cache-dir "$WIDE/cache" --profile=json "$WIDE/main.scm" 2>/dev/null)
  pushes=$(counter 'stx\.scope_pushes' "$warm")
  rhits=$(counter 'expand\.resolve_hits' "$warm")
  rmisses=$(counter 'expand\.resolve_misses' "$warm")
  loaded=$(counter 'module\.cache_hits' "$warm")
  resolutions=$(( ${rhits:-0} + ${rmisses:-0} ))
  if [ -z "${loaded:-}" ] || [ "$loaded" -le 0 ]; then
    echo "perf_smoke: FAIL: warm run loaded nothing from the store (module.cache_hits = ${loaded:-missing})" >&2
    fail=1
  elif [ -z "${pushes:-}" ] || [ "$pushes" -ne 0 ]; then
    echo "perf_smoke: FAIL: warm run pushed scopes (stx.scope_pushes = ${pushes:-missing}): bodies went through the expander" >&2
    fail=1
  elif [ "$resolutions" -gt $((100 * loaded)) ]; then
    echo "perf_smoke: FAIL: warm run made $resolutions resolutions for $loaded loaded modules (over 100 each): bodies resolve per occurrence" >&2
    fail=1
  else
    echo "perf_smoke: warm loads skip the expander (stx.scope_pushes = 0; $resolutions resolutions for $loaded modules)"
  fi
fi

# -- 7. a warm compile parses no deferred body --------------------------------
# Importers need only what a header and the forms read at load hold:
# requires, provides, transformers and compile-time declarations.  Each
# artifact's index records those forms' byte ranges as (load START END
# LINE); everything else is a deferred range.  Reading any of it on a
# compile-only path takes reader.bytes over the bound.
if [ -d "$WIDE/cache" ]; then
  warm=$($RUN "$LIBLANG" compile --cache-dir "$WIDE/cache" --profile=json "$WIDE/main.scm" 2>/dev/null)
  parsed=$(counter 'reader\.bytes' "$warm")
  loaded=$(counter 'module\.cache_hits' "$warm")
  bound=0
  for a in "$WIDE/cache"/*.lart; do
    head_bytes=$(( $(head -n 2 "$a" | wc -c) - 1 ))
    load_bytes=$(sed -n 2p "$a" | grep -o '(load [0-9]* [0-9]*' | awk '{s += $3 - $2} END {print s + 0}')
    bound=$((bound + head_bytes + load_bytes))
  done
  if [ -z "${loaded:-}" ] || [ "$loaded" -le 0 ]; then
    echo "perf_smoke: FAIL: warm compile loaded nothing from the store (module.cache_hits = ${loaded:-missing})" >&2
    fail=1
  elif [ -z "${parsed:-}" ]; then
    echo "perf_smoke: FAIL: reader.bytes missing from --profile=json output" >&2
    fail=1
  elif [ "$parsed" -gt "$bound" ]; then
    echo "perf_smoke: FAIL: warm compile parsed $parsed bytes, over the $bound bytes of headers and forms read at load: it read deferred bodies" >&2
    fail=1
  else
    echo "perf_smoke: warm compile parses no deferred body (reader.bytes = $parsed of $bound header and load-time bytes; $loaded modules loaded)"
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "perf_smoke: FAILED" >&2
  exit 1
fi
echo "perf_smoke: OK"
