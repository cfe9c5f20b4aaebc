#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through to wfrc_benchmark.exe. Run it from the repository root:
#
#   bash benchmark/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# The dune cache is disabled so the build writes only under _build/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "error: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
exec dune exec --root . --cache=disabled --display=quiet \
  ./benchmark/wfrc_benchmark.exe -- "$@"
