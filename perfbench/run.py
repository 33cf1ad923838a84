#!/usr/bin/env python3
"""The skewring benchmark: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify-all,arith-mix,cli-oneshot}
                             --seed N --seconds S --trace {0,1}

A run imports the library from ``src/``, sets up (import, input
generation and one warm-up pass), then runs passes until their wall
time adds up to ``--seconds`` (and at least the workload's minimum).
Every output is checked outside the timed region. The last line of standard output is one JSON
object: ``correct`` (no output was wrong), ``attempted`` and ``failed``
(operations that did not give their expected result, so failed_frac is
failed/attempted), and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones. With ``--trace 1`` the run repeats pass 1 with the
tracer installed after its untraced passes and reports the per-layer
metrics (see README.md). Load comes from this one process and thread;
the cli-oneshot children run one at a time. Times are read from
``clock.ScaledClock``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import ScaledClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
PROBE_RUNS = 5  # interpreter and import probes in traced runs

WORKLOADS = ("verify-all", "arith-mix", "cli-oneshot")
LAYER_OPS = {
    "rings.mul": ("calls", "self_s"),
    "rings.invert": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s"),
    "maps.twist": ("calls", "self_s"),
    "maps.pi": ("calls", "self_s"),
    "poly.mul": ("calls", "self_s"),
    "poly.dstructure": ("self_s",),
    "series.mul": ("calls", "self_s"),
    "series.invert": ("calls", "self_s"),
    "structure.scan": ("calls", "self_s"),
    "structure.reduce": ("calls", "self_s"),
    "parsing.parse": ("self_s",),
    "parsing.format": ("self_s",),
    "config.load": ("self_s",),
}


def make_workload(name, seed, expected):
    if name == "verify-all":
        from verify_all import VerifyAll
        return VerifyAll(str(ROOT), seed, expected)
    if name == "arith-mix":
        from arith_mix import ArithMix
        return ArithMix(str(ROOT), seed)
    from cli_oneshot import CliOneshot
    return CliOneshot(str(ROOT), seed, expected)


class Tally:
    """Verdicts of every checked operation: ok, failed, or wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, verdicts):
        self.attempted += len(verdicts)
        self.failed += sum(1 for v in verdicts if v != "ok")
        self.wrong += sum(1 for v in verdicts if v == "wrong")

    def flag(self, count):
        """Mark ``count`` already-counted operations as wrong."""
        self.failed += count
        self.wrong += count


def checked(wl, tally, pass_index, inputs, ops, expected, seed):
    """Check one pass's outputs; pass 0 of the default seed also against digests."""
    verdicts = wl.check(inputs, ops)
    want = expected.get(wl.name, {}).get("digests")
    if pass_index == 0 and seed == DEFAULT_SEED and want is not None:
        got = wl.digests(inputs, ops)
        if len(got) != len(want) or len(verdicts) != len(got):
            verdicts = ["wrong"] * max(len(verdicts), 1)
        else:
            verdicts = [v if w is None or g == w or v != "ok" else "wrong"
                        for v, g, w in zip(verdicts, got, want)]
    tally.add(verdicts)


def warm_start(wl, clock, tally, expected, seed):
    """Import, pass-0 inputs and one warm-up pass; returns setup seconds."""
    start = clock()
    wl.setup()
    inputs = wl.inputs(0)
    ops = wl.run(inputs, clock)
    setup_s = clock() - start
    checked(wl, tally, 0, inputs, ops, expected, seed)
    return setup_s


def timed_passes(wl, clock, tally, expected, seed, seconds, min_passes):
    """Passes 1, 2, ... until their wall time adds up to ``seconds``.

    Returns [(pass seconds, [(op kind, op seconds), ...], latency samples),
    ...] and the canonical outputs of pass 1; other outputs are dropped
    once checked, so they do not add to peak_rss_mb."""
    passes = []
    first = None
    wall = 0.0
    while len(passes) < min_passes or wall < seconds:
        index = len(passes) + 1
        inputs = wl.inputs(index)
        wall_start = perf_counter()
        start = clock()
        ops = wl.run(inputs, clock)
        elapsed = clock() - start
        wall += perf_counter() - wall_start
        checked(wl, tally, index, inputs, ops, expected, seed)
        if first is None:
            first = wl.canonical(ops)
        passes.append((elapsed, [(kind, op_s) for kind, op_s, _out in ops],
                       wl.latencies(ops)))
        del inputs, ops
    return passes, first


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, clock, tally, expected, seed, seconds):
    setup_s = warm_start(wl, clock, tally, expected, seed)
    passes, _first = timed_passes(wl, clock, tally, expected, seed, seconds, wl.min_passes)
    latencies = [sample for _elapsed, _ops, samples in passes for sample in samples]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    print(f"{wl.name}: {len(passes)} passes, {len(latencies)} op samples",
          file=sys.stderr)
    return {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(statistics.median(p[0] for p in passes), "s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def probe_ms(code):
    """Median wall time (ms) of a fresh interpreter running ``code``, or of
    the seconds it prints, when it prints any. Not scaled: the cli-oneshot
    clock is itself calibrated on interpreter start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(PROBE_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed = perf_counter() - start
        printed = proc.stdout.strip()
        samples.append(float(printed) if printed else elapsed)
    return statistics.median(samples) * 1e3


def layer_metrics(summary):
    layers = summary.get("layers", {})
    out = {}
    for layer, fields in LAYER_OPS.items():
        calls, self_s = layers.get(layer, (0, 0.0))
        if "calls" in fields:
            out[f"{layer}.calls"] = metric(calls, "count")
        out[f"{layer}.self_s"] = metric(self_s, "s")
    muls = summary.get("ring_muls", 0)
    pairs = summary.get("scan_pairs", 0)
    scan_s = summary.get("scan_pass_s", 0.0)
    shrinks = summary.get("shrinks", 0)
    out["rings.mul.repeat_share"] = metric(
        summary.get("ring_mul_repeats", 0) / muls if muls else 0.0, "ratio")
    out["structure.scan.pairs"] = metric(pairs, "count")
    out["structure.scan.pairs_per_s"] = metric(pairs / scan_s if scan_s else 0.0, "1/s")
    out["structure.scan.ring_muls_per_pair"] = metric(
        summary.get("scan_pass_ring_muls", 0) / pairs if pairs else 0.0, "count")
    out["structure.reduce.steps"] = metric(summary.get("reduce_steps", 0), "count")
    out["structure.probe.useful_ratio"] = metric(
        summary.get("useful_shrinks", 0) / shrinks if shrinks else 0.0, "ratio")
    return out


def per_kind_ms(passes, kinds):
    """Median op time (ms) of each kind over the untraced passes; 0 if absent."""
    out = {}
    for kind in kinds:
        samples = [op_s for _elapsed, ops, _samples in passes
                   for op_kind, op_s in ops if op_kind == kind]
        out[kind] = statistics.median(samples) * 1e3 if samples else 0.0
    return out


def traced(wl, clock, tally, expected, seed, seconds):
    from arith_mix import KINDS
    from tracer import Tracer
    from verify_all import SUITES, VerifyAll

    warm_start(wl, clock, tally, expected, seed)
    passes, first = timed_passes(wl, clock, tally, expected, seed, seconds, 1)

    # the traced pass repeats pass 1 on freshly generated inputs
    inputs = wl.inputs(1)
    tracer = Tracer(clock).install()
    try:
        start = clock()
        ops = wl.run(inputs, clock, tracer)
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    checked(wl, tally, 1, inputs, ops, expected, seed)
    # tracing must not change any output
    tally.flag(sum(a != b for a, b in zip(first, wl.canonical(ops))))

    # children of cli-oneshot trace themselves and hand back their sums
    summary = wl.traces[-1] if wl.name == "cli-oneshot" else tracer.summary()
    out = layer_metrics(summary)
    for name, ms in per_kind_ms(passes, SUITES).items():
        out[f"suites.{name}.s"] = metric(ms / 1e3, "s")
    out["suites.checks"] = metric(
        VerifyAll.check_count(ops) if wl.name == "verify-all" else 0, "count")
    out["cli.interp_ms"] = metric(probe_ms("pass"), "ms")
    out["cli.import_ms"] = metric(probe_ms(
        "import time; t = time.perf_counter(); import skewring.cli; "
        "print(time.perf_counter() - t)"), "ms")
    for kind, ms in per_kind_ms(passes, KINDS).items():
        out[f"arith.op.{kind}_ms"] = metric(ms, "ms")
    out["trace.overhead_ratio"] = metric(traced_s / passes[0][0], "ratio")
    print(f"{wl.name}: traced pass {traced_s:.3f} s, same inputs untraced "
          f"{passes[0][0]:.3f} s ({len(passes)} untraced passes)", file=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewring" / "__init__.py").is_file():
        print(f"error: no skewring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    wl = make_workload(args.workload, args.seed, expected)
    tally = Tally()
    try:  # one CPU for the work, the clock's probes and any children
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    clock = ScaledClock(wl.clock_probe).start()
    try:
        run = traced if args.trace else end_to_end
        metrics = run(wl, clock, tally, expected, args.seed, args.seconds)
    finally:
        clock.stop()
        wl.close()
    print(f"{wl.name}: clock scale median {statistics.median(clock.scales):.3f} "
          f"(min {min(clock.scales):.3f}, max {max(clock.scales):.3f})", file=sys.stderr)
    print(f"{wl.name}: attempted {tally.attempted}, failed {tally.failed} "
          f"(failed_frac {tally.failed / tally.attempted:.4f}), wrong {tally.wrong}",
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
