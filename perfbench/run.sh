#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#   bash perfbench/run.sh --workload paper|scaleout|fleet --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the result object.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
