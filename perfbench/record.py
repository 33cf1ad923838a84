#!/usr/bin/env python3
"""Record the benchmark's reference data at the current commit.

    python3 perfbench/record.py expected   # writes perfbench/expected.json
    python3 perfbench/record.py baseline   # writes perfbench/baseline.json

``expected`` stores the status of every verify-all check and, for the
default seed, the digests of the canonical output of pass 0 of
arith-mix and cli-oneshot. Run it only at a commit whose outputs are
known to be right: the benchmark compares later commits against it.
``baseline`` runs every workload untraced and traced at the default
seed and stores the results, with the run summaries from standard
error, the Python version and the CPU count.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run
from clock import ScaledClock

EXPECTED = run.HERE / "expected.json"
BASELINE = run.HERE / "baseline.json"


def record_expected():
    sys.path.insert(0, str(run.ROOT / "src"))
    from skewring import suites

    checks = {}
    for name in suites.SUITE_NAMES:
        for record in suites.run_suite(name).checks:
            checks[record.id] = record.status
    expected = {"default_seed": run.DEFAULT_SEED, "verify-all": {"checks": checks}}
    for name in ("arith-mix", "cli-oneshot"):
        wl = run.make_workload(name, run.DEFAULT_SEED, expected)
        try:
            wl.setup()
            inputs = wl.inputs(0)
            clock = ScaledClock(wl.clock_probe).start()
            try:
                ops = wl.run(inputs, clock)
            finally:
                clock.stop()
            verdicts = wl.check(inputs, ops)
            expected[name] = {
                "digests": [d if v == "ok" else None
                            for d, v in zip(wl.digests(inputs, ops), verdicts)],
            }
        finally:
            wl.close()
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def record_baseline():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {
        "commit": commit or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": run.DEFAULT_SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for name in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["failed_frac"] = result["failed"] / result["attempted"]
            result["summary"] = proc.stderr.strip().splitlines()
            entry["traced" if trace else "end_to_end"] = result
        doc["workloads"][name] = entry
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "expected":
        record_expected()
    elif what == "baseline":
        record_baseline()
    else:
        sys.exit(__doc__)
