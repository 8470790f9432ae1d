#!/bin/sh
# Static-analysis gate: run the recflow checker over every built-in
# workload (and the quickstart example's embedded program) with warnings
# promoted to errors.  This includes the RF3xx cost band — a workload
# with statically unbounded recursion depth (RF301), exponential task
# blow-up flagged inside a non-terminating cycle (RF302) or a spawn in a
# non-decreasing cycle (RF303) fails the gate.  The same alias also fails
# when Stamp.digits appears under lib/ or bin/ outside lib/core/stamp.ml
# (tables key by the stamp itself).  Backed by the dune @lint
# alias so results are cached and the same gate runs inside
# `dune runtest`; the machine-readable twin is tools/check_smoke.sh.
set -e
cd "$(dirname "$0")/.."
exec dune build @lint
