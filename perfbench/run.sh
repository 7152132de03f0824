#!/usr/bin/env bash
# Build the benchmark and the resilience CLI it drives from source, then
# run one workload:
#
#   bash perfbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.  Run records,
# sockets, server logs and traces go to .perfbench-out/.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: not the root of a resilience checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi

# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/resilience_cli.exe 1>&2

exec ./_build/default/perfbench/main.exe --cli ./_build/default/bin/resilience_cli.exe "$@"
