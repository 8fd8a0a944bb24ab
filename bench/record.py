#!/usr/bin/env python3
"""Record reference outputs for every pool operation of every workload.

Run from the repository root on the commit whose outputs are the
reference:

    python3 bench/record.py

It runs each pool operation once, on fresh contexts, and writes
``bench/reference.json``: per workload, a digest of the pool and, per
pool operation, the output digest, the number of operations it counts
as, and (for verify suites) each claim's ``violations_total``.  A pool
operation that raises or exits nonzero is refused, since every workload
operation must succeed on the reference code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, GenericQueries, digest

    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    workloads = {}
    for workload in WORKLOADS.values():
        pool = workload.pool()
        state = workload.new_state(pool)
        items = []
        # pool order runs every closure before the reads that use its basis
        for i, item in enumerate(pool):
            result = workload.call(state, i, item)
            if isinstance(workload, GenericQueries) and result[0] != 0:
                sys.exit(f"error: {item!r} exited with {result[0]}")
            items.append(list(workload.outcome(item, result)))
        workloads[workload.name] = {"pool": digest(pool), "items": items}
        print(f"{workload.name}: {len(items)} operations recorded", file=sys.stderr)

    # one pool operation per line keeps the file diffable
    lines = [f'{{"revision": {json.dumps(revision)}, "workloads": {{']
    for n, (name, rec) in enumerate(workloads.items()):
        lines.append(f'{json.dumps(name)}: {{"pool": {json.dumps(rec["pool"])}, "items": [')
        lines.append(",\n".join(json.dumps(it, sort_keys=True) for it in rec["items"]))
        lines.append("]}" + ("," if n + 1 < len(workloads) else ""))
    lines.append("}}")
    (HERE / "reference.json").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
