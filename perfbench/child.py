"""Run one skewring CLI command under the tracer (traced cli-oneshot runs).

Usage: PERFBENCH_TRACE_OUT=FILE python3 perfbench/child.py <skewring cli args>

Behaves like ``python -m skewring.cli``; on exit it writes the
tracer's per-layer aggregates as JSON to FILE.
"""

import json
import os
import sys

from clock import ScaledClock
from tracer import Tracer


def main():
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    clock = ScaledClock().start()
    tracer = Tracer(clock).install()
    from skewring import cli

    sys.argv[0] = "skewring"
    try:
        cli.main()
    finally:
        tracer.uninstall()
        clock.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main()
