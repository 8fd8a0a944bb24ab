#!/usr/bin/env python3
"""Compare two results files written by ``run.py --out``.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For each workload it prints, per end-to-end metric, the median and the
quartiles of the untraced runs on each side and the ratio of the
medians, then a per-layer table of traced medians and their ratio.  It
is a report, not a gate: it always exits 0 when both files can be read.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str):
    """{(workload, trace): {metric: [values]}} and the environment records of a file."""
    runs = defaultdict(lambda: defaultdict(list))
    envs = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, metric in rec["result"]["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(metric["value"])
            env = rec.get("environment", {})
            envs.append((env.get("git_revision", "unknown"), env.get("python"), env.get("nproc")))
    return runs, sorted(set(envs))


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def ratio(new: float, base: float) -> str:
    return f"{new / base:.3f}" if base else "-"


def quartiles_text(values: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    for label, envs in (("base", base_env), ("new", new_env)):
        for revision, python, nproc in envs:
            print(f"{label}: revision {revision}, python {python}, nproc {nproc}")
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        for trace, title in ((0, "end-to-end"), (1, "per-layer")):
            b, n = base.get((workload, trace), {}), new.get((workload, trace), {})
            names = [m for m in b if m in n]
            if not names:
                continue
            runs = f"{len(next(iter(b.values())))} vs {len(next(iter(n.values())))} runs"
            print(f"\n{workload} {title} ({runs})")
            if trace == 0:
                print(f"  {'metric':<24}{'base q1/med/q3':>34}{'new q1/med/q3':>34}{'new/base':>10}")
                for m in names:
                    bs, ns = summary(b[m]), summary(n[m])
                    print(f"  {m:<24}{quartiles_text(bs):>34}{quartiles_text(ns):>34}"
                          f"{ratio(ns[1], bs[1]):>10}")
            else:
                print(f"  {'metric':<36}{'base median':>14}{'new median':>14}{'new/base':>10}")
                for m in names:
                    bm, nm = statistics.median(b[m]), statistics.median(n[m])
                    print(f"  {m:<36}{bm:>14.4g}{nm:>14.4g}{ratio(nm, bm):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
