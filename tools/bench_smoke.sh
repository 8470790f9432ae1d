#!/bin/sh
# Benchmark-harness smoke test: run the data-structure micro-benchmark
# group with a tiny sampling quota and validate that the emitted results
# file parses with the in-tree strict JSON parser (the same codec the
# observability exports use).  Wraps the dune alias so CI and humans
# share one entry point:
#
#   tools/bench_smoke.sh            # == dune build @bench-smoke
#
# A full harness run (micro rows, cost pass and profiler A/B at the real
# quota) is `dune exec bench/main.exe -- --json FILE`; the end-to-end
# benchmark is `python3 recbench/run.py`.
set -eu
cd "$(dirname "$0")/.."
exec dune build @bench-smoke "$@"
