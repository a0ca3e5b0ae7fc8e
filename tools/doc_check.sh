#!/bin/sh
# Documentation coherence gate: the docs suite must not drift from
# itself or from the code.
#
#   links: every relative markdown link in README.md and docs/*.md must
#     resolve to an existing file (http/mailto/pure-anchor targets are
#     skipped; a trailing #fragment is stripped before the check) -- a
#     renamed doc or a typo'd cross-reference fails the gate;
#   metrics and spans: every metric name passed as a string literal to
#     Metrics.count / countn anywhere under lib/, bin/ or bench/ must
#     appear in docs/observability.md, and so must every span name passed
#     as a string literal to Trace.span / Trace.elapsed under lib/ or bin/
#     (as a `quoted` name) -- the catalogue is the contract, and an
#     instrumented counter or span nobody documented is drift by
#     definition.  Dynamic names built by concatenation ("optimize." ^ what)
#     contribute their literal prefix, which the catalogue's family rows
#     (optimize.<rule>, expand.fuel.<m>) cover;
#   stale rows: the converse -- every catalogue row naming one metric or
#     span (not a <...> family) must appear as a string literal under lib/
#     or bin/, so a row whose name the code no longer emits fails the gate;
#   nursery size: every size docs/server.md states for the compile
#     server's worker nursery, written on one line as
#     "`worker_minor_heap_words` (1M words, 8 MB", must be the `1 lsl N`
#     words lib/server/server.ml sets, and it must state one.
#
# Usage: sh tools/doc_check.sh, from anywhere: the script cd's to the
# directory above its own.  `dune runtest` runs it inside _build
# (tools/dune), where that directory holds the files the script reads;
# the greps read .ml files only, so build products there do not count.

set -u
cd "$(dirname "$0")/.." || exit 2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

fail=0
bad() { printf 'doc_check FAIL: %s\n' "$*" >&2; fail=1; }

# -- pass 1: relative links resolve ------------------------------------------
nlinks=0
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' >"$WORK/links" || :
  while IFS= read -r target; do
    case $target in
      http://* | https://* | mailto:* | '#'* | '') continue ;;
    esac
    t=${target%%#*}
    [ -n "$t" ] || continue
    nlinks=$((nlinks + 1))
    if [ ! -e "$dir/$t" ]; then
      bad "$doc: broken link ($target): $dir/$t does not exist"
    fi
  done <"$WORK/links"
done

if [ "$nlinks" -eq 0 ]; then
  bad "no relative links found at all (extraction is broken?)"
fi

# -- pass 2: the metric catalogue covers every instrumented name -------------
CATALOGUE=docs/observability.md
if [ ! -f "$CATALOGUE" ]; then
  bad "$CATALOGUE is missing"
else
  grep -rhoE --include='*.ml' 'Metrics\.(countn|count)[[:space:]]*\(?[[:space:]]*"[^"]+"' \
    lib bin bench 2>/dev/null \
    | sed 's/.*"\(.*\)"$/\1/' | sort -u >"$WORK/metrics"
  if [ ! -s "$WORK/metrics" ]; then
    bad "no Metrics.* literals found under lib/ bin/ bench/ (extraction is broken?)"
  fi
  while IFS= read -r name; do
    if ! grep -qF "$name" "$CATALOGUE"; then
      bad "metric \"$name\" is instrumented in the code but absent from $CATALOGUE"
    fi
  done <"$WORK/metrics"
  # a span literal is the first string after Trace.span/elapsed and its
  # labelled arguments (~level:2, ~detail:name, ?detail:file)
  grep -rhoE --include='*.ml' 'Trace\.(span|elapsed)([[:space:]]+[~?][a-z]+(:[^[:space:]]+)?)*[[:space:]]+\(?"[^"]+"' \
    lib bin 2>/dev/null \
    | sed 's/.*"\(.*\)"$/\1/' | sort -u >"$WORK/spans"
  if [ ! -s "$WORK/spans" ]; then
    bad "no Trace.span literals found under lib/ bin/ (extraction is broken?)"
  fi
  while IFS= read -r name; do
    if ! grep -qF "\`$name\`" "$CATALOGUE"; then
      bad "span \"$name\" is emitted by the code but absent from $CATALOGUE"
    fi
  done <"$WORK/spans"
fi

# -- pass 3: no stale catalogue rows ------------------------------------------
if [ -f "$CATALOGUE" ]; then
  grep -oE '^\| `[^`]+` \|' "$CATALOGUE" | sed 's/^| `//; s/` |$//' \
    | grep -v '[<{ ]' | sort -u >"$WORK/rows"
  if [ ! -s "$WORK/rows" ]; then
    bad "no catalogue rows found in $CATALOGUE (extraction is broken?)"
  fi
  while IFS= read -r name; do
    if ! grep -rqF --include='*.ml' "\"$name\"" lib bin; then
      bad "$CATALOGUE row \"$name\" names a metric no string literal under lib/ or bin/ emits"
    fi
  done <"$WORK/rows"
fi

# -- pass 4: docs/server.md states the daemon nursery's size -------------------
lsl=$(sed -n 's/^let worker_minor_heap_words = 1 lsl \([0-9][0-9]*\)$/\1/p' lib/server/server.ml)
if [ -z "$lsl" ]; then
  bad "lib/server/server.ml sets no 'let worker_minor_heap_words = 1 lsl N'"
else
  words=$((1 << lsl))
  if [ "$words" -ge 1048576 ]; then size="$((words / 1048576))M words"; else size="$((words / 1024))k words"; fi
  size="$size, $((words * 8 / 1048576)) MB"
  grep -o '`worker_minor_heap_words` ([^;)]*' docs/server.md | sed 's/^[^(]*(//' >"$WORK/nursery"
  if [ ! -s "$WORK/nursery" ]; then
    bad "docs/server.md states no size as \`worker_minor_heap_words\` (N words, M MB, on one line"
  fi
  while IFS= read -r stated; do
    if [ "$stated" != "$size" ]; then
      bad "docs/server.md states the worker nursery as \"$stated\"; lib/server/server.ml sets $size"
    fi
  done <"$WORK/nursery"
fi

if [ "$fail" -eq 0 ]; then
  nmetrics=$(wc -l <"$WORK/metrics" | tr -d ' ')
  nspans=$(wc -l <"$WORK/spans" | tr -d ' ')
  nrows=$(wc -l <"$WORK/rows" | tr -d ' ')
  echo "doc_check OK: $nlinks relative links resolve; $nmetrics metric and $nspans span literals documented in $CATALOGUE; its $nrows rows all emitted; docs/server.md states the worker nursery as $size"
fi
exit "$fail"
