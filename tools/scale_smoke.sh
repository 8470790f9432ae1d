#!/bin/sh
# Scale smoke test: the task-store data plane at 1024 processors —
# golden journal digest (replayed on a second domain too, so the rework
# cannot hide domain-local state) plus the QCheck property pinning the
# O(1) load counters to a brute-force recount.  Wraps the dune alias so
# CI and humans share one entry point:
#
#   tools/scale_smoke.sh            # == dune build @scale-smoke
#
# The same cases run inside `dune runtest`; this script exists for quick
# iteration on lib/machine/node.ml and lib/machine/cluster.ml.
set -eu
cd "$(dirname "$0")/.."
exec dune build @scale-smoke "$@"
