#!/usr/bin/env python3
"""recbench: the recflow benchmark.

    python3 recbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python3 recbench/run.py --selftest [--seed N]

Run from the root of a recflow checkout.  Builds recbench/bench.exe and the
host-speed probe calib.exe with dune, then runs the workload's cases, every
repetition in a fresh single-domain process, until --seconds have passed.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Without --workload every workload runs
in turn, one such line each, tagged with its name.  Exit status 1 means a
wrong answer or a failed determinism check; 2 means the benchmark could not
be built or run.

--selftest checks the benchmark itself: two untraced runs of each workload
at one seed must agree on every exact figure, a traced run must reproduce
the simulated ones, and BENCHMARK.json must list the workloads and metrics
run.py prints.  See recbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "recbench", "bench.exe")
CALIB = os.path.join(ROOT, "_build", "default", "recbench", "calib.exe")

# Host times are reported in reference seconds: each repetition's wall
# times are scaled by how fast the host-speed probe (calib.exe, no recflow
# code) ran just before it, to a host where the probe takes this long, and
# its CPU time by the probe's CPU time likewise.  A shared host drifts by up
# to ±20% between runs a minute apart; the probe drifts with it.
PROBE_NOMINAL_S = 0.25

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # never used while sizing or tuning; re-check claims on it

# Cases per run.  A case is one input drawn from the seed (case i of seed s
# runs at seed s*K+i), and a run's figures cover all its cases.
# fault_storm's cost depends on where its kills land, and service_stream's
# p95 sojourn on which requests its kills disturb, so one run measures a
# family of inputs; tree_scale's seed changes nothing it measures.
CASES = {"tree_scale": 1, "fault_storm": 6, "service_stream": 2}

# A run must end within 180 s of starting to measure.
RUN_LIMIT_S = 165.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("requests_per_cpu_s", "1/s"),
    ("peak_heap_words", "words"),
    ("alloc_words_per_event", "words"),
    ("events_per_task", "ratio"),
    ("msgs_per_task", "ratio"),
    ("makespan_ticks", "ticks"),
    ("useful_work_frac", "ratio"),
    ("sojourn_p50_ticks", "ticks"),
    ("sojourn_p95_ticks", "ticks"),
    ("goodput_per_kticks", "1/kticks"),
    ("success_frac", "ratio"),
]

JOURNAL_KINDS = [
    "spawned", "activated", "acked", "completed", "inlined", "aborted", "lost", "respawned",
    "inherited", "result_accepted", "duplicate_ignored", "relayed", "relay_dropped",
    "orphan_dropped", "failure",
]

PER_LAYER = (
    [
        ("sim.events", "count"),
        ("sim.dispatch_self_s", "s"),
        ("sim.engine_ns_per_event", "ns"),
        ("lang.activations", "count"),
        ("lang.eval_ns_per_activation", "ns"),
        ("lang.eval_share", "ratio"),
        ("ckpt.record_calls", "count"),
        ("ckpt.recorded", "count"),
        ("ckpt.covered", "count"),
        ("ckpt.record_ns", "ns"),
        ("ckpt.discharge_ns", "ns"),
        ("ckpt.self_share", "ratio"),
        ("recovery.reissued", "count"),
        ("recovery.reissue_stale", "count"),
        ("recovery.reissue_useful_frac", "ratio"),
        ("recovery.relayed", "count"),
        ("recovery.inherited", "count"),
        ("recovery.aborted", "count"),
        ("recovery.lost", "count"),
        ("recovery.redone_work_frac", "ratio"),
        ("recovery.self_s", "s"),
        ("journal.entries", "count"),
    ]
    + [("journal.entries." + k, "count") for k in JOURNAL_KINDS]
    + [
        ("journal.record_ns", "ns"),
        ("net.msgs", "count"),
        ("net.retransmits", "count"),
        ("net.dup_suppressed", "count"),
        ("net.msg_dropped", "count"),
        ("net.acks", "count"),
        ("net.bounced", "count"),
        ("net.suspected", "count"),
        ("net.false_suspicion", "count"),
        ("net.retransmit_frac", "ratio"),
        ("net.distance_ns", "ns"),
        ("balance.static_reassigned", "count"),
        ("service.offered", "count"),
        ("service.completed", "count"),
        ("service.masked", "count"),
        ("service.recovered", "count"),
        ("service.shed", "count"),
        ("service.vote_inconclusive", "count"),
        ("service.redispatches", "count"),
        ("gc.minor_words", "words"),
        ("gc.promoted_words", "words"),
        ("gc.promoted_frac", "ratio"),
        ("gc.minor_collections", "count"),
        ("gc.major_collections", "count"),
        ("gc.top_heap_words", "words"),
        ("setup.program_s", "s"),
        ("setup.cluster_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ]
)


class Unrunnable(Exception):
    """The benchmark cannot be built or started here."""


def log(msg):
    print("recbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise Unrunnable("no dune-project next to recbench/: the recflow sources are missing")
    dune = shutil.which("dune")
    if dune is None:
        raise Unrunnable("dune is not on PATH")
    cmd = [dune, "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
           "./recbench/bench.exe", "./recbench/calib.exe"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise Unrunnable("dune build failed")


def run_process(cmd, deadline):
    """Run [cmd] to completion (killed at [deadline]): its last stdout line,
    or None."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    lines = p.stdout.strip().splitlines()
    return lines[-1] if p.returncode == 0 and lines else None


class Run:
    """Every repetition of one benchmark invocation, grouped by case."""

    def __init__(self, workload, seed):
        k = CASES[workload]
        self.workload = workload
        self.seeds = [seed * k + i for i in range(k)]
        self.plain = {s: [] for s in self.seeds}
        self.traced = {s: [] for s in self.seeds}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def rep(self, seed, traced, deadline):
        """The host-speed probe, then one repetition, each in a fresh
        process."""
        probe = run_process([CALIB], deadline)
        if probe is None:
            self.errors.append("calib.exe failed")
            return
        cmd = [EXE, "--workload", self.workload, "--seed", str(seed)]
        line = run_process(cmd + (["--trace"] if traced else []), deadline)
        if line is None:
            self.errors.append("seed %d: bench.exe failed or timed out" % seed)
            self.attempted += 1
            self.failed += 1
            return
        rec = json.loads(line)
        probe_wall, probe_cpu = (float(x) for x in probe.split())
        rec["scale"] = {"wall": PROBE_NOMINAL_S / probe_wall, "cpu": PROBE_NOMINAL_S / probe_cpu}
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.errors += ["seed %d: %s" % (seed, e) for e in rec["errors"]]
        (self.traced if traced else self.plain)[seed].append(rec)

    def check(self):
        """Determinism: repetitions of a case agree on every exact figure,
        and a traced repetition on every simulated one."""
        for s in self.seeds:
            plain = self.plain[s]
            for rec in plain[1:]:
                for block in ("simulated", "gc"):
                    if rec[block] != plain[0][block]:
                        self.errors.append("seed %d: %s figures differ between repetitions"
                                           % (s, block))
            for rec in self.traced[s]:
                if plain and rec["simulated"] != plain[0]["simulated"]:
                    self.errors.append("seed %d: tracing changed the simulation" % s)

    def correct(self):
        return not self.errors and self.failed == 0


def typical(xs):
    """A case's host time over its repetitions: the mean without the fastest
    and the slowest.  On a shared 2-vCPU VM the noise is broad and
    two-humped (one tree_scale repetition reads 3.4 s, the next 4.4 s);
    resampling 42 such repetitions, this estimate spread about a third less
    from run to run than the median of the same repetitions."""
    xs = sorted(xs)
    if len(xs) >= 4:
        xs = xs[1:-1]
    return statistics.mean(xs)


def ref(rec, key):
    """A host time of one repetition, in reference seconds."""
    return rec["timing"][key] * rec["scale"]["cpu" if key == "cpu_s" else "wall"]


def end_to_end(run):
    cases = [recs for recs in (run.plain[s] for s in run.seeds) if recs]
    if not cases:
        return {}
    sim = [recs[0]["simulated"] for recs in cases]
    gc = [recs[0]["gc"] for recs in cases]

    def total(key, block=sim):
        return sum(b[key] for b in block)

    def host(key):
        return sum(typical([ref(r, key) for r in recs]) for recs in cases)

    wall = host("wall_s")
    cpu = host("cpu_s")
    setups = [ref(r, "program_s") + ref(r, "cluster_s") for recs in cases for r in recs]
    events, tasks = total("events"), total("tasks")
    work = total("work")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "events_per_s": events / wall,
        "tasks_per_s": tasks / wall,
        "requests_per_cpu_s": total("finished") / cpu,
        "peak_heap_words": statistics.mean(g["top_heap_words"] for g in gc),
        "alloc_words_per_event": total("minor_words", gc) / events,
        "events_per_task": events / tasks,
        "msgs_per_task": total("msgs") / tasks,
        "makespan_ticks": statistics.mean(b["makespan"] for b in sim),
        "useful_work_frac": 1.0 - (total("waste") / work if work else 0.0),
        "sojourn_p50_ticks": statistics.mean(b["sojourn_p50"] for b in sim),
        "sojourn_p95_ticks": statistics.mean(b["sojourn_p95"] for b in sim),
        "goodput_per_kticks": 1000.0 * total("finished") / total("sim_time"),
        "success_frac": 1.0 - run.failed / max(1, run.attempted),
    }


def per_layer(run):
    paired = [s for s in run.seeds if run.plain[s] and run.traced[s]]
    if not paired:
        return {}
    plain = [r for s in paired for r in run.plain[s]]
    traced = [r for s in paired for r in run.traced[s]]
    out = {}
    for name, unit in PER_LAYER:
        if name in traced[0]["layers"]:
            scale = unit in ("s", "ns")
            out[name] = statistics.median(
                [r["layers"][name] * (r["scale"]["wall"] if scale else 1.0) for r in traced])
    gc = [run.plain[s][0]["gc"] for s in paired]
    for key in ("minor_words", "promoted_words", "minor_collections", "major_collections",
                "top_heap_words"):
        out["gc." + key] = statistics.median([g[key] for g in gc])
    out["gc.promoted_frac"] = statistics.median(
        [g["promoted_words"] / g["minor_words"] if g["minor_words"] else 0.0 for g in gc])
    out["setup.program_s"] = statistics.median([ref(r, "program_s") for r in plain])
    out["setup.cluster_s"] = statistics.median([ref(r, "cluster_s") for r in plain])

    def wall(recs):
        return sum(typical([ref(r, "wall_s") for r in recs[s]]) for s in paired)

    out["trace.overhead_frac"] = wall(run.traced) / wall(run.plain) - 1.0
    return out


def measure(workload, seed, seconds, trace):
    """Repeat the workload's cases, round-robin, until [seconds] have passed;
    an untraced run covers every case at least once, a traced run at least
    the first."""
    run = Run(workload, seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cost = {}
    minimum = 1 if trace else len(run.seeds)
    i = 0
    while True:
        s = run.seeds[i % len(run.seeds)]
        elapsed = time.monotonic() - start
        if i >= minimum and elapsed + cost.get(s, max(cost.values(), default=0.0)) > seconds:
            break
        if elapsed > RUN_LIMIT_S / 2:
            break  # a host far slower than planned: keep time to finish
        t0 = time.monotonic()
        run.rep(s, False, deadline)
        if trace:
            run.rep(s, True, deadline)
        cost[s] = time.monotonic() - t0
        if run.errors:
            break
        i += 1
    run.check()
    metrics = per_layer(run) if trace else end_to_end(run)
    names = PER_LAYER if trace else END_TO_END
    for e in run.errors:
        log(e)
    return {
        "correct": run.correct() and all(n in metrics for n, _ in names),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names if n in metrics},
    }


def selftest(seed):
    """Two untraced repetitions and one traced repetition of each workload's
    first case at [seed]; the run's own checks must pass and the listed
    metrics must match BENCHMARK.json when it is present."""
    ok = True
    for workload in CASES:
        run = Run(workload, seed)
        s = run.seeds[0]
        deadline = time.monotonic() + RUN_LIMIT_S
        for traced in (False, False, True):
            run.rep(s, traced, deadline)
        run.check()
        status = "ok" if run.correct() else "FAILED: " + "; ".join(run.errors)
        log("selftest %s seed %d: %s" % (workload, s, status))
        ok = ok and run.correct()
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as f:
            b = json.load(f)
        listed = {
            "workloads": sorted(w["name"] for w in b["workloads"]),
            "end_to_end": sorted((m["name"], m["unit"]) for m in b["end_to_end"]),
            "per_layer": sorted((m["name"], m["unit"]) for m in b["per_layer"]),
        }
        mine = {
            "workloads": sorted(CASES),
            "end_to_end": sorted(END_TO_END),
            "per_layer": sorted(PER_LAYER),
        }
        for key in listed:
            if listed[key] != mine[key]:
                log("selftest: BENCHMARK.json %s differ from run.py" % key)
                ok = False
    return ok


def main():
    # Terminated: unwind through subprocess.run, which kills and reaps the
    # running repetition.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="recflow benchmark")
    ap.add_argument("--workload", choices=sorted(CASES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        build()
        if args.selftest:
            return 0 if selftest(args.seed) else 1
        correct = True
        for workload in [args.workload] if args.workload else list(CASES):
            result = measure(workload, args.seed, args.seconds, args.trace == 1)
            if args.workload is None:
                result = dict(workload=workload, **result)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
        return 0 if correct else 1
    except Unrunnable as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
