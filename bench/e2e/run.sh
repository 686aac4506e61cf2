#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments.  Run from the repository root:
#   bash bench/e2e/run.sh --workload rule_dev --seed 1 --seconds 20 --trace 0
set -euo pipefail
# the shared dune cache lives outside the checkout; build without it
DUNE_CACHE=disabled dune build --root . ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
