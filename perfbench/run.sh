#!/usr/bin/env bash
# Builds the benchmark program from source and runs it; every argument is
# passed through.  Run from the repository root:
#   bash perfbench/run.sh --workload rpc-paper --seed 1 --seconds 24 --trace 0
set -euo pipefail
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
