#!/bin/sh
# Build the benchmark and the liblang CLI from the sources of the checkout
# this is run from (its root), then run the benchmark with the given
# arguments.  See bench/e2e/README.md.  Dune's shared cache stays off, so
# nothing is written outside the checkout.
set -e
DUNE_CACHE=disabled dune build --root . ./bench/e2e/e2e.exe ./bin/liblang.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe --liblang ./_build/default/bin/liblang.exe "$@"
