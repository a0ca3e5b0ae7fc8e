#!/bin/sh
# Chaos gate: drive seeded fault schedules through the CLI and
# assert the closed-loop robustness property of the separate-compilation
# layer (docs/robustness.md):
#
#   for every seeded fault plan over every gen-modules graph shape, a
#   -j2 build either succeeds, fails with ordinary diagnostics (exit 1),
#   or dies on an injected crash (exit 42 -- kill -9 semantics, temp
#   files stranded); it never hangs (the per-run timeout fails the gate)
#   and never exits any other way.  Afterwards a fault-free -j2 build
#   over the damaged cache must succeed, every artifact must be
#   byte-identical to a fault-free -j1 reference store, the warm program
#   must print the generator's expected output, and no *.tmp.* orphans
#   may remain (quarantined *.bad post-mortems are allowed by design).
#
#   a read fault alone never fails anything: over a copy of the warm
#   fault-free store, three seeded plans of store.read=error~0.5 per
#   shape, each with no other fault, must leave a -j2 build exiting 0 and
#   a cached run exiting 0 with the generator's expected output -- an
#   unreadable artifact degrades to a recompile (docs/robustness.md).
#   The seeded schedules cannot see this: their other faults fail builds
#   anyway, and the fault-free recovery build heals the store.
#
# Unlike the in-process fault-plan tests in test/test_compiled.ml
# (error/torn/delay only), this gate runs each schedule in a subprocess,
# so it exercises the crash mode and the tmp-file sweep for real.
#
# Usage: sh tools/chaos_check.sh path/to/liblang.exe.  `dune runtest`
# runs it (tools/dune): 18 seeds x 3 shapes = 54 schedules.

set -u

LIBLANG=${1:-}
if [ ! -x "$LIBLANG" ]; then
  echo "usage: chaos_check.sh path/to/liblang.exe" >&2
  exit 2
fi
LIBLANG=$(cd "$(dirname "$LIBLANG")" && pwd)/$(basename "$LIBLANG")

if command -v timeout >/dev/null 2>&1; then RUN="timeout 60"; else RUN=""; fi

SEEDS=18

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

fail=0
bad() { printf 'chaos_check FAIL: %s\n' "$*" >&2; fail=1; }

schedules=0
crashes=0
diag_fails=0
read_runs=0

for shape in wide diamond chain; do
  DIR="$WORK/$shape"
  mkdir -p "$DIR"
  gen=$("$LIBLANG" gen-modules --dir "$DIR" --shape "$shape" 6)
  root=$(printf '%s\n' "$gen" | sed -n 's/^root: //p')
  expected=$(printf '%s\n' "$gen" | sed -n 's/^expected output: //p')
  if [ -z "$root" ] || [ -z "$expected" ]; then
    bad "$shape: gen-modules did not report a root/expected output"
    continue
  fi

  # fault-free -j1 reference store
  REF="$DIR/cache-ref"
  if ! $RUN "$LIBLANG" compile -j 1 --cache-dir "$REF" "$root" >/dev/null 2>&1; then
    bad "$shape: fault-free -j1 reference build failed"
    continue
  fi

  # read faults alone degrade: every build and run under them succeeds
  READ="$DIR/cache-read"
  cp -R "$REF" "$READ"
  for seed in 11 12 13; do
    plan="seed=$seed;store.read=error~0.5"
    if ! $RUN "$LIBLANG" compile -j 2 --cache-dir "$READ" --faults "$plan" "$root" >/dev/null 2>&1; then
      bad "$shape $plan: compile -j 2 failed (a read fault must degrade to a recompile)"
    fi
    got=$($RUN "$LIBLANG" run --cache-dir "$READ" --faults "$plan" "$root" 2>/dev/null)
    code=$?
    if [ "$code" -ne 0 ] || [ "$got" != "$expected" ]; then
      bad "$shape $plan: run --cache-dir exited $code printing '$got', expected '$expected'"
    fi
    read_runs=$((read_runs + 2))
  done

  CACHE="$DIR/cache-chaos"
  s=0
  while [ "$s" -lt "$SEEDS" ]; do
    s=$((s + 1))
    seed=$((s * 37))
    # rotate three plan templates; crash modes are the point of running
    # via the CLI (an in-process crash would kill the driver)
    case $((s % 3)) in
      0) plan="seed=$seed;deadline=20;store.read=error~0.25;store.write=torn@64~0.3;build.task=error~0.25" ;;
      1) plan="seed=$seed;deadline=20;store.rename=crash~0.08;store.write=torn@40~0.2;loader.replay=error~0.25;store.lock=delay@5~0.2" ;;
      2) plan="seed=$seed;deadline=20;build.spawn=error~0.3;build.task=delay@15~0.2;store.read=error~0.2" ;;
    esac
    $RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE" --faults "$plan" "$root" >/dev/null 2>&1
    code=$?
    schedules=$((schedules + 1))
    case $code in
      0) ;;                            # survived the schedule
      1) diag_fails=$((diag_fails + 1)) ;;  # contained diagnostics
      42) crashes=$((crashes + 1)) ;;  # injected crash (expected)
      124) bad "$shape seed=$seed: build timed out (pool hang?) plan=$plan" ;;
      *) bad "$shape seed=$seed: build exited $code (not 0/1/42) plan=$plan" ;;
    esac
  done

  # recovery: a fault-free warm build over the damaged cache must heal it
  if ! $RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE" "$root" >/dev/null 2>&1; then
    bad "$shape: fault-free recovery build failed over the damaged cache"
    continue
  fi
  # ... reach a fully warm steady state ...
  out=$($RUN "$LIBLANG" compile -j 2 --cache-dir "$CACHE" "$root" 2>/dev/null)
  case $out in
    *"compiles=0 "*) : ;;
    *) bad "$shape: post-recovery build is not fully warm: $out" ;;
  esac
  # ... print the generator's closed form ...
  got=$($RUN "$LIBLANG" run --cache-dir "$CACHE" "$root" 2>/dev/null)
  if [ "$got" != "$expected" ]; then
    bad "$shape: recovered run printed '$got', expected '$expected'"
  fi
  # ... with every artifact byte-identical to the fault-free -j1 store ...
  for a in "$CACHE"/*.lart; do
    [ -e "$a" ] || continue
    b="$REF/$(basename "$a")"
    if [ ! -f "$b" ]; then
      bad "$shape: $(basename "$a") exists in the chaos store but not the reference"
    elif ! cmp -s "$a" "$b"; then
      bad "$shape: $(basename "$a") differs from the fault-free reference after recovery"
    fi
  done
  for b in "$REF"/*.lart; do
    [ -e "$b" ] || continue
    if [ ! -f "$CACHE/$(basename "$b")" ]; then
      bad "$shape: $(basename "$b") missing from the chaos store after recovery"
    fi
  done
  # ... and no stranded temp files (the recovery build's store open swept
  # anything a crashed schedule left behind)
  leftover=$(find "$CACHE" -name '*.tmp.*' | wc -l)
  if [ "$leftover" -ne 0 ]; then
    bad "$shape: $leftover stranded *.tmp.* file(s) survived recovery"
  fi
done

if [ "$schedules" -lt 50 ]; then
  bad "only $schedules schedules ran (need >= 50)"
fi

# -- concurrent-server chaos (docs/server.md) --------------------------------
# The daemon's worker pool must extend the same blast-radius discipline:
# under seeded session/exec/worker-death/build faults and concurrent
# client load, the daemon survives and the artifact store stays
# crash-consistent -- a fresh fault-free daemon over the same cache must
# heal it, serve a fresh session fully warm (compiles=0), print the
# generator's closed form, and match a fault-free reference store byte
# for byte.
server_reqs=0
SRVDIR="$WORK/server"
mkdir -p "$SRVDIR"
sgen=$("$LIBLANG" gen-modules --dir "$SRVDIR" --shape diamond 6)
sroot=$(printf '%s\n' "$sgen" | sed -n 's/^root: //p')
sexpected=$(printf '%s\n' "$sgen" | sed -n 's/^expected output: //p')
SOCK="$SRVDIR/chaos.sock"
SCACHE="$SRVDIR/cache"
srv_pid=
if [ -z "$sroot" ] || [ -z "$sexpected" ]; then
  bad "server: gen-modules did not report a root/expected output"
else
  "$LIBLANG" serve --socket "$SOCK" --cache-dir "$SCACHE" --workers 2 \
    --session-ttl 2 --faults \
    "seed=91;deadline=20;server.session=error~0.12;server.exec=error~0.2;server.worker=error~0.08;build.task=error~0.15" \
    >/dev/null 2>&1 &
  srv_pid=$!
  tries=0
  while [ ! -S "$SOCK" ] && [ "$tries" -lt 50 ]; do
    tries=$((tries + 1)); sleep 0.1
  done
  if [ ! -S "$SOCK" ]; then
    bad "server: faulted daemon did not come up"
  else
    round=0
    while [ "$round" -lt 3 ]; do
      round=$((round + 1))
      pids=
      i=0
      while [ "$i" -lt 8 ]; do
        i=$((i + 1))
        # faults may cost any single client its request or connection --
        # any exit code but a hang is acceptable
        $RUN "$LIBLANG" client --socket "$SOCK" run "$sroot" >/dev/null 2>&1 &
        pids="$pids $!"
      done
      for p in $pids; do
        wait "$p"
        code=$?
        server_reqs=$((server_reqs + 1))
        if [ "$code" -eq 124 ]; then
          bad "server: a chaos client hung (round $round)"
        fi
      done
      if ! kill -0 "$srv_pid" 2>/dev/null; then
        bad "server: daemon died under chaos load (round $round)"
        break
      fi
    done
    # shut the faulted daemon down; the session fault can kill a shutdown
    # request's connection, so retry, then hard-kill as a last resort
    tries=0
    while kill -0 "$srv_pid" 2>/dev/null && [ "$tries" -lt 10 ]; do
      tries=$((tries + 1))
      $RUN "$LIBLANG" client --socket "$SOCK" shutdown >/dev/null 2>&1 && break
      sleep 0.1
    done
    sleep 0.2
    if kill -0 "$srv_pid" 2>/dev/null; then
      kill "$srv_pid" 2>/dev/null
    fi
    wait "$srv_pid" 2>/dev/null
  fi
fi
if [ -n "$srv_pid" ]; then
  # heal: a fresh fault-free daemon over the chaos-damaged cache
  SOCK2="$SRVDIR/heal.sock"
  "$LIBLANG" serve --socket "$SOCK2" --cache-dir "$SCACHE" --workers 2 \
    >/dev/null 2>&1 &
  heal_pid=$!
  tries=0
  while [ ! -S "$SOCK2" ] && [ "$tries" -lt 50 ]; do
    tries=$((tries + 1)); sleep 0.1
  done
  if [ ! -S "$SOCK2" ]; then
    bad "server: fault-free heal daemon did not come up"
    kill "$heal_pid" 2>/dev/null
  else
    # first client connection recovers whatever the chaos runs left cold
    if ! $RUN "$LIBLANG" client --socket "$SOCK2" compile "$sroot" >/dev/null 2>&1; then
      bad "server: fault-free recovery compile failed over the damaged cache"
    fi
    # each client invocation is a NEW connection = a fresh session, so a
    # warm store is the only way this reports compiles=0
    out=$($RUN "$LIBLANG" client --socket "$SOCK2" compile "$sroot" 2>/dev/null)
    case $out in
      *"compiles=0 "*) : ;;
      *) bad "server: post-recovery fresh session is not fully warm: $out" ;;
    esac
    got=$($RUN "$LIBLANG" client --socket "$SOCK2" run "$sroot" 2>/dev/null)
    if [ "$got" != "$sexpected" ]; then
      bad "server: recovered run printed '$got', expected '$sexpected'"
    fi
    $RUN "$LIBLANG" client --socket "$SOCK2" shutdown >/dev/null 2>&1
    wait "$heal_pid" 2>/dev/null
  fi
  # the healed store must match a fault-free reference byte for byte,
  # with no stranded temp files
  SREF="$SRVDIR/cache-ref"
  if ! $RUN "$LIBLANG" compile -j 1 --cache-dir "$SREF" "$sroot" >/dev/null 2>&1; then
    bad "server: fault-free reference build failed"
  else
    for a in "$SCACHE"/*.lart; do
      [ -e "$a" ] || continue
      b="$SREF/$(basename "$a")"
      if [ ! -f "$b" ]; then
        bad "server: $(basename "$a") exists in the chaos store but not the reference"
      elif ! cmp -s "$a" "$b"; then
        bad "server: $(basename "$a") differs from the fault-free reference after recovery"
      fi
    done
    for b in "$SREF"/*.lart; do
      [ -e "$b" ] || continue
      if [ ! -f "$SCACHE/$(basename "$b")" ]; then
        bad "server: $(basename "$b") missing from the chaos store after recovery"
      fi
    done
  fi
  leftover=$(find "$SCACHE" -name '*.tmp.*' | wc -l)
  if [ "$leftover" -ne 0 ]; then
    bad "server: $leftover stranded *.tmp.* file(s) survived recovery"
  fi
fi

if [ "$fail" -eq 0 ]; then
  echo "chaos_check OK: $schedules seeded schedules ($crashes injected crashes, $diag_fails contained failures), $read_runs builds and runs under read faults alone, $server_reqs concurrent-server chaos requests; all stores recovered byte-identical"
fi
exit "$fail"
