#!/usr/bin/env bash
# Build ppcbench from source and measure one workload:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository.  Build output goes
# to stderr; the last line of stdout is the run's result as one JSON
# object.  Segment and report files go under _build/ppcbench.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/runtime ]; then
  echo "run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
dune build --root . --display quiet --cache=disabled ./bench/e2e/ppcbench.exe >&2
exec ./_build/default/bench/e2e/ppcbench.exe run --scratch _build/ppcbench "$@"
