#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.
#
#   bash e2ebench/run.sh --workload attest|flood|state --seed N \
#     --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to dune's _build; the
# traced run writes its spans under .bench_out/. The last line of
# standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
