#!/usr/bin/env python3
"""Layered benchmark for qheis: one workload, one run, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload torsion-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload lie-closure --seed 1 --seconds 20 --trace 1 --out runs.jsonl

Each run is a single-process, single-client closed loop: the next
operation starts when the previous one returns.  ``--trace 0`` draws
one round from the seed and repeats it for ``--seconds`` seconds; each
operation's time is the mean of its repetitions, scaled to a host of
fixed speed by a reference job timed between operations.
``--trace 1`` runs one round untraced and the same round traced, and
reports the per-layer metrics.  Every output is checked against
``reference.json``.  The last line of standard output is the result
object; ``--out`` also appends the run, with an environment record, to
a JSON-lines results file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
REFERENCE_S = 0.001     # the reference job's time on an idle core of a 2-core Xeon VM
SAMPLE_EVERY_S = 0.01   # least time between two reference samples in a round
SETUP_SAMPLES = 10      # reference samples before and after each set-up


def _import_qheis() -> None:
    """Put the checkout's own sources first on the path; refuse any other qheis."""
    package = SRC / "qheis"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no qheis sources at {package}")
    sys.path.insert(0, str(SRC))
    import qheis

    if Path(qheis.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported qheis from {qheis.__file__}, not from {package}")


def import_seconds() -> float:
    """Time to import the package and its CLI in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import qheis.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def weighted_quantile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank quantile of (value, weight) samples."""
    ordered = sorted(samples)
    target = q * sum(w for _, w in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def reference_job():
    """Fixed pure-Python work of the library's kind: Fraction arithmetic and tuple-keyed dicts."""
    acc = {}
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7)
        key = (i % 13, i % 17)
        acc[key] = acc.get(key, 0) + i * i
    return x, len(acc)


class HostSpeed:
    """Times the reference job between operations, to follow the shared host's speed.

    On a shared VM the same code runs up to twice as slow while other
    tenants load the physical cores, in phases from milliseconds to
    minutes.  A time measured over a stretch of the run, multiplied by
    ``scale()``, is what it would have been on a host where the reference
    job takes REFERENCE_S.  Both are means over the same stretch, so a
    slowdown that stretches both alike cancels.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_job()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


class Tally:
    """One round's operations attempted and failed, and each pick's time (None if it failed)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float | None] = []


def run_round(workload, state, pool, reference, picks, host: HostSpeed | None = None) -> Tally:
    """Run one round; an operation counts as failed if it raises or disagrees with the reference.

    With ``host``, the reference job is sampled between operations, outside their timing.
    """
    tally = Tally()
    clock = time.perf_counter
    for i in picks:
        if host is not None:
            host.maybe_sample()
        item = pool[i]
        want_digest, want_ops, want_violations = reference[i]
        tally.attempted += want_ops
        tally.times.append(None)
        t0 = clock()
        try:
            result = workload.call(state, i, item)
        except Exception:  # a raising operation is a failed one; keep measuring the rest
            tally.failed += want_ops
            print(f"operation {item!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        dt = clock() - t0
        got_digest, ops, violations = workload.outcome(item, result)
        if (got_digest, ops, violations) != (want_digest, want_ops, want_violations):
            tally.failed += want_ops
            print(f"operation {item!r} disagrees with the reference: digest {got_digest}, "
                  f"{ops} ops, violations {violations}", file=sys.stderr)
            continue
        tally.times[-1] = dt
    return tally


def setup(workload, pool, reference, seed: int):
    """Fresh contexts and inputs, then one warm-up round; returns (state, rng, seconds)."""
    t0 = time.perf_counter()
    state = workload.new_state(pool)
    rng = random.Random(seed)
    run_round(workload, state, pool, reference, workload.round(pool, rng))
    return state, rng, time.perf_counter() - t0


def measure(workload, pool, reference, seed: int, seconds: float):
    """End-to-end metrics from an untraced, time-bounded run of one repeated round.

    The seed draws one round; the run repeats it for ``seconds``.  Each
    pick of the round is timed once per repetition, and its time is the
    mean of its repetitions, scaled by the run's HostSpeed to a host of
    fixed speed.  The rate and the latency quantiles are computed from
    those per-pick times.

    The run is cut into SETUP_REPS segments, each opened by an import in
    a fresh interpreter and a full set-up whose state the segment's
    rounds then use.  Each set-up is scaled by reference samples taken
    just before and after it, and ``setup_s`` is their median.
    """
    host = HostSpeed()
    setups, rounds = [], []
    picks = None
    for segment in range(SETUP_REPS):
        around = HostSpeed()
        for _ in range(SETUP_SAMPLES):
            around.sample()
        import_s = import_seconds()
        state, rng, setup_s = setup(workload, pool, reference, seed)
        for _ in range(SETUP_SAMPLES):
            around.sample()
        setups.append((import_s + setup_s) * around.scale())
        if picks is None:
            picks = workload.round(pool, rng)
        end = time.perf_counter() + seconds / SETUP_REPS
        while time.perf_counter() < end or len(rounds) <= segment:
            rounds.append(run_round(workload, state, pool, reference, picks, host))

    scale = host.scale()
    per_pick = []                  # (scaled mean time, ops) of each pick that passed at least once
    for j, i in enumerate(picks):
        times = [r.times[j] for r in rounds if r.times[j] is not None]
        if times:
            per_pick.append((statistics.fmean(times) * scale, reference[i][1]))
    latencies = [(t / ops, ops) for t, ops in per_pick]
    busy_s = sum(t for t, _ in per_pick)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(ops for _, ops in per_pick) / busy_s if busy_s else 0.0, "1/s"),
        "op_p50_ms": (1000 * weighted_quantile(latencies, 0.5) if latencies else 0.0, "ms"),
        "op_p90_ms": (1000 * weighted_quantile(latencies, 0.9) if latencies else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {"rounds": len(rounds), "host_scale": scale,
              "reference_job_ms": [1000 * t for t in statistics.quantiles(host.samples, n=4)]}
    return attempted, failed, metrics, detail


def trace(workload, pool, reference, seed: int):
    """Per-layer metrics from one traced round, after the same round untraced."""
    import tracer

    problems = tracer.selfcheck()
    if problems:
        sys.exit("error: tracer self-check failed:\n  " + "\n  ".join(problems))
    state, rng, _ = setup(workload, pool, reference, seed)
    picks = workload.round(pool, rng)

    t0 = time.perf_counter()
    plain = run_round(workload, state, pool, reference, picks)
    plain_s = time.perf_counter() - t0

    spans = tracer.Tracer()
    spans.contexts.extend(workload.contexts(state))
    spans.install()
    try:
        t0 = time.perf_counter()
        traced = run_round(workload, state, pool, reference, picks)
        traced_s = time.perf_counter() - t0
    finally:
        spans.restore()
    metrics = spans.layer_metrics()
    metrics["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    detail = {
        "exact_counts": spans.exact_counts(),
        "spans": {name: {"calls": spans.calls[name], "total_s": spans.total_s[name],
                         "self_s": spans.self_s[name]} for name in sorted(spans.calls)},
    }
    return (plain.attempted + traced.attempted, plain.failed + traced.failed, metrics, detail)


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run, with an environment record, to a JSON-lines file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_start = os.getloadavg()
    _import_qheis()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    pool = workload.pool()
    recorded = json.loads((HERE / "reference.json").read_text())["workloads"][workload.name]
    if recorded["pool"] != digest(pool):
        sys.exit(f"error: reference.json holds no outputs for this {workload.name} pool; "
                 "record them with bench/record.py on the baseline commit")
    reference = [(d, n, v) for d, n, v in recorded["items"]]

    if args.trace:
        attempted, failed, metrics, detail = trace(workload, pool, reference, args.seed)
    else:
        attempted, failed, metrics, detail = measure(workload, pool, reference, args.seed,
                                                     args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, **detail,
                  "environment": {**environment(), "loadavg_start": load_start,
                                  "loadavg_end": os.getloadavg()}}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
