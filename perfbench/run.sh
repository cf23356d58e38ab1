#!/usr/bin/env bash
# Build the benchmark and the gcd2 CLI from source, then run one workload:
#
#   bash perfbench/run.sh --workload cold-zoo --seed 1 --seconds 15 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/gcd2_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
