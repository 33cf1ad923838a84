"""verify-all: every named suite once per pass, then its rendered report.

This is ``skewring verify --suite all`` in process, one suite at a time.
The suites seed their own randomness from check ids, so the benchmark
seed does not change the work. Each check counts as one operation; it
must keep the status it had when the benchmark was defined
(``expected.json``), and every check id recorded there must still run.
"""

from __future__ import annotations

import importlib
import json

# the suites named when the benchmark was defined; each gets a per-layer
# metric (a pass runs whatever ``suites.SUITE_NAMES`` holds)
SUITES = ("nuclei", "laurent-axioms", "associativity", "simplicity", "finite-order-ideals",
          "hilbert-reduction", "series", "jordan", "quantum-torus", "d-structure")


def canonical_report(text):
    """A rendered JSON report without its timing fields."""
    doc = json.loads(text)
    for check in doc.get("checks", []):
        check.pop("elapsed", None)
    return json.dumps(doc, sort_keys=True)


class VerifyAll:
    name = "verify-all"
    min_passes = 2
    clock_probe = "timer"

    def __init__(self, root, seed, expected):
        self.root = root
        self.seed = seed
        self.expected = expected["verify-all"]["checks"]

    def setup(self):
        self.suites = importlib.import_module("skewring.suites")

    def inputs(self, pass_index):
        return list(self.suites.SUITE_NAMES)

    def run(self, names, clock, tracer=None):
        ops = []
        for name in names:
            frame = tracer.open(f"suites.{name}") if tracer is not None else None
            start = clock()
            report = self.suites.run_suite(name)
            text = self.suites.emit_report(report)
            elapsed = clock() - start
            if frame is not None:
                tracer.close(frame)
            ops.append((name, elapsed, (report, text)))
        return ops

    def check(self, names, ops):
        seen = {}
        for _name, _elapsed, (report, _text) in ops:
            for record in report.checks:
                seen[record.id] = record.status
        verdicts = []
        for check_id, status in self.expected.items():
            if check_id not in seen:
                verdicts.append("failed")
            else:
                verdicts.append("ok" if seen[check_id] == status else "wrong")
        # checks added after the benchmark was defined must not fail
        for check_id, status in seen.items():
            if check_id not in self.expected:
                verdicts.append("wrong" if status == "fail" else "ok")
        return verdicts

    @staticmethod
    def latencies(ops):
        """One sample per check: its suite's time over the suite's checks.

        Ten suites of very different lengths put any percentile of
        per-suite times between two suites, where it jumps from run to
        run; per check, the median lies among the nuclei checks."""
        return [elapsed / len(report.checks)
                for _name, elapsed, (report, _text) in ops for _check in report.checks]

    def canonical(self, ops):
        return [canonical_report(text) for _name, _elapsed, (_report, text) in ops]

    @staticmethod
    def check_count(ops):
        return sum(len(report.checks) for _name, _elapsed, (report, _text) in ops)

    def close(self):
        pass
