#!/bin/sh
# Documentation coherence gate (CI): the docs suite must not drift from
# itself or from the code.
#
#   links: every relative markdown link in README.md and docs/*.md must
#     resolve to an existing file (http/mailto/pure-anchor targets are
#     skipped; a trailing #fragment is stripped before the check) -- a
#     renamed doc or a typo'd cross-reference fails the gate;
#   metrics: every metric name passed as a string literal to
#     Metrics.count / countn / time / add_time anywhere under lib/, bin/
#     or bench/ must appear in docs/observability.md -- the catalogue is
#     the contract, and an instrumented counter nobody documented is
#     drift by definition.  Dynamic names built by concatenation
#     ("optimize." ^ what) contribute their literal prefix, which the
#     catalogue's family rows (optimize.<rule>, expand.fuel.<m>) cover;
#   stale rows: the converse -- every catalogue row naming one metric
#     (not a <...> family) must appear as a string literal under lib/ or
#     bin/, so a row whose metric the code no longer emits fails the gate.
#
# Usage: tools/doc_check.sh   (from anywhere; the script cd's to the repo root)

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
  grep -rhoE 'Metrics\.(add_time|countn|count|time)[[:space:]]*\(?[[:space:]]*"[^"]+"' \
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
fi

# -- pass 3: no stale catalogue rows ------------------------------------------
if [ -f "$CATALOGUE" ]; then
  grep -oE '^\| `[^`]+` \|' "$CATALOGUE" | sed 's/^| `//; s/` |$//' \
    | grep -v '[<{ ]' | sort -u >"$WORK/rows"
  if [ ! -s "$WORK/rows" ]; then
    bad "no catalogue rows found in $CATALOGUE (extraction is broken?)"
  fi
  while IFS= read -r name; do
    if ! grep -rqF "\"$name\"" lib bin; then
      bad "$CATALOGUE row \"$name\" names a metric no string literal under lib/ or bin/ emits"
    fi
  done <"$WORK/rows"
fi

if [ "$fail" -eq 0 ]; then
  nmetrics=$(wc -l <"$WORK/metrics" | tr -d ' ')
  nrows=$(wc -l <"$WORK/rows" | tr -d ' ')
  echo "doc_check OK: $nlinks relative links resolve; $nmetrics metric literals documented in $CATALOGUE; its $nrows metric rows all emitted"
fi
exit "$fail"
