#!/usr/bin/env bash
# Build the host-cost benchmark from this checkout and run it.
#   bash hostbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash hostbench/run.sh --manifest
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "hostbench: dune-project or lib/ missing; run from a full checkout" >&2
  exit 2
fi
# Build inside the checkout only: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display quiet ./hostbench/main.exe 1>&2
exec ./_build/default/hostbench/main.exe "$@"
