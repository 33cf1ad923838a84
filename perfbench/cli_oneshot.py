"""cli-oneshot: one fresh ``python -m skewring.cli`` process per command.

Children run one at a time (a closed loop with one client). Each pass
is a fixed list of twenty commands with operands drawn from the seed:
``mul`` over Laurent, Ore/Weyl and ``O(X^N)`` series configs, both
reductions, ``pi``, ``classify`` and ``verify --suite simplicity``.
Six commands get malformed input and must exit 2 without a traceback,
the documented contract; two of them (``1/0`` and ``X^5000`` under the
conjugation twist) are known to crash instead and count as failed
until the program is fixed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from tracer import merge_summaries

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60

CONFIGS = {
    "laurent": {"ring": {"kind": "gaussian"}, "twist": {"kind": "q_twist", "q": "2"},
                "shape": "laurent", "variable": "X"},
    "conj": {"ring": {"kind": "gaussian"}, "twist": {"kind": "conjugation"},
             "shape": "laurent", "variable": "X"},
    "weyl": {"ring": {"kind": "polynomial", "base": "rationals", "variable": "Y",
                      "shape": "ore"},
             "delta": {"kind": "derivative"}, "shape": "ore", "variable": "X"},
    "series": {"ring": {"kind": "gaussian"}, "twist": {"kind": "q_twist", "q": "2"},
               "shape": "power_series", "precision": 8, "variable": "X"},
    "ore": {"ring": {"kind": "gaussian"}, "twist": {"kind": "q_twist", "q": "2"},
            "shape": "ore", "variable": "X"},
    "octconj": {"ring": {"kind": "octonions"}, "twist": {"kind": "conjugation"},
                "shape": "laurent", "variable": "X"},
    "bad": {"ring": {"kind": "no-such-ring"}, "shape": "laurent"},
}


class Command:
    """One child process: its arguments and what it must print."""

    def __init__(self, kind, args, expect_exit=0, check=None, digest=None):
        self.kind = kind
        self.args = args
        self.expect_exit = expect_exit
        self.check = check  # stdout -> bool, for exit-0 commands
        self.digest = digest  # stdout -> canonical format_* text, or None


def _small(rng, den=3):
    return Fraction(rng.randint(-5, 5), rng.randint(1, den))


class CliOneshot:
    name = "cli-oneshot"
    min_passes = 5  # 100 processes, so latency_p90_ms has ten samples beyond it
    # the clock times a bare interpreter start after each child
    clock_probe = "interpreter"

    def __init__(self, root, seed, expected):
        self.root = root
        self.seed = seed
        self.expected_checks = expected["verify-all"]["checks"]
        self.traces = []

    def setup(self):
        self.sk = {name: importlib.import_module(f"skewring.{name}")
                   for name in ("config", "errors", "parsing", "series", "structure", "maps")}
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        self.paths = {}
        self.configs = {}
        for key, doc in CONFIGS.items():
            path = self.work / f"{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[key] = str(path)
            if key != "bad":
                self.configs[key] = self.sk["config"].load_config(doc)
        self.env = dict(os.environ)
        src = str(Path(self.root) / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    # -- operands ------------------------------------------------------------

    def _coeff(self, config, rng):
        ring = config.ring_config.coefficients
        if hasattr(ring, "shape"):  # Weyl: coefficients are polynomials in Y
            terms = {e: ring.coefficients.scalar(_small(rng)) for e in range(rng.randint(1, 3))}
            return ring.from_terms(terms)
        return ring.element([_small(rng) for _ in range(ring.qdim)])

    def _poly(self, key, rng, exps):
        config = self.configs[key]
        rc = config.ring_config
        return rc.from_terms({e: self._coeff(config, rng) for e in exps})

    def _text(self, key, value):
        parsing = self.sk["parsing"]
        if self.configs[key].is_series:
            return parsing.format_series(value)
        return parsing.format_poly(value)

    def _mul(self, key, rng, exps):
        a = self._operand(key, rng, exps)
        b = self._operand(key, rng, exps)
        expected = self._text(key, a * b)
        return Command(f"mul-{key}", ["mul", "--config", self.paths[key], "--",
                                      self._text(key, a), self._text(key, b)],
                       check=lambda out: out == expected + "\n",
                       digest=lambda out: out)

    def _operand(self, key, rng, exps):
        value = self._poly(key, rng, rng.sample(exps, k=min(3, len(exps))))
        while not value:
            value = self._poly(key, rng, rng.sample(exps, k=min(3, len(exps))))
        return value

    def _series_operand(self, rng, precision):
        rc = self.configs["series"].ring_config
        terms = {e: self._coeff(self.configs["series"], rng) for e in range(0, precision + 1)
                 if rng.random() < 0.6}
        terms.setdefault(0, rc.coefficients.one)
        return self.sk["series"].TruncatedSeries(rc, terms, precision, 0)

    def _mul_series(self, rng):
        a, b = self._series_operand(rng, 8), self._series_operand(rng, 8)
        expected = self._text("series", a * b)
        return Command("mul-series", ["mul", "--config", self.paths["series"], "--",
                                      self._text("series", a), self._text("series", b)],
                       check=lambda out: out == expected + "\n",
                       digest=lambda out: out)

    def _reduce(self, rng, side, pass_index):
        key = "ore"
        rc = self.configs[key].ring_config
        g = self._poly(key, rng, range(3))
        while g.degree != 2:
            g = self._poly(key, rng, range(3))
        f = self._poly(key, rng, range(6))
        while f.degree < 3:
            f = self._poly(key, rng, range(6))
        gens_path = self.work / f"gens-{pass_index}-{side}.json"
        gens_path.write_text(json.dumps([self._text(key, g)]), encoding="utf-8")
        parsing, structure = self.sk["parsing"], self.sk["structure"]

        def check(out):
            doc = json.loads(out)
            remainder = parsing.parse_poly(doc["remainder"], rc)
            steps = []
            for step in doc["steps"]:
                (exp, coeff), = parsing.parse_poly(step["cofactor"], rc).terms.items()
                steps.append(structure.CofactorStep(step["generator"], step["side"],
                                                    coeff, exp))
            record = structure.ReductionResult(steps, remainder, doc["irreducible"])
            return (not doc["irreducible"]
                    and all(s.side == side for s in steps)
                    and (not remainder or remainder.degree < g.degree)
                    and structure.replay_reduction(record, [g]) == f)

        def digest(out):
            doc = json.loads(out)
            return "\n".join([doc["remainder"], *(s["cofactor"] for s in doc["steps"])])

        return Command(f"reduce-{side}", ["reduce", "--config", self.paths[key],
                                          "--gens", str(gens_path), "--side", side, "--",
                                          self._text(key, f)],
                       check=check, digest=digest)

    def _pi(self, rng, emit_words):
        m = rng.randint(2, 6)
        i = rng.randint(0, m)
        lines = [f"pi(i={i}, m={m}) = sum of {math.comb(m, i)} composition words"]
        args = ["pi", "--i", str(i), "--m", str(m)]
        if emit_words:
            args.append("--emit-words")
            lines += ["∘".join(word) for word in self.sk["maps"].pi_words(i, m)]
        expected = "\n".join(lines) + "\n"
        return Command("pi", args, check=lambda out: out == expected,
                       digest=lambda out: out)

    def _classify(self, key):
        config = self.configs[key].ring_config
        maps = self.sk["maps"]
        order = maps.detect_finite_order(config.sigma, 12)

        def check(out):
            doc = json.loads(out)
            sigma = doc["sigma"]
            return (doc["ring"] == config.describe()
                    and sigma["kind"] == config.sigma.kind
                    and all(a["passed"] for a in sigma["axioms"])
                    and sigma["finite_order"] == order)

        return Command(f"classify-{key}", ["classify", "--config", self.paths[key]],
                       check=check)

    def _verify(self):
        expected = {k: v for k, v in self.expected_checks.items()
                    if k.startswith("simplicity/")}

        def check(out):
            doc = json.loads(out)
            seen = {c["id"]: c["status"] for c in doc["checks"]}
            return (doc["summary"]["failed"] == 0
                    and all(seen.get(k) == v for k, v in expected.items()))

        return Command("verify-simplicity", ["verify", "--suite", "simplicity"], check=check)

    def _malformed(self, kind, key, left, right="i"):
        return Command(kind, ["mul", "--config", self.paths[key], "--", left, right],
                       expect_exit=2)

    def inputs(self, pass_index):
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        k = rng.randint(2, 9)
        return [
            self._mul("laurent", rng, list(range(-3, 4))),
            self._mul("laurent", rng, list(range(-3, 4))),
            self._mul("laurent", rng, list(range(-3, 4))),
            self._mul("weyl", rng, list(range(0, 3))),
            self._mul("weyl", rng, list(range(0, 3))),
            self._mul_series(rng),
            self._mul_series(rng),
            self._reduce(rng, "left", pass_index),
            self._reduce(rng, "right", pass_index),
            self._pi(rng, emit_words=False),
            self._pi(rng, emit_words=True),
            self._classify("laurent"),
            self._classify("octconj"),
            self._verify(),
            # documented bad input: exit 2, message on stderr
            self._malformed("bad-syntax", "laurent", f"X^^{k}"),
            self._malformed("bad-char", "laurent", f"X^{k}.5"),
            self._malformed("bad-config", "bad", "X"),
            self._malformed("bad-negative-exponent", "series", f"X^-{k} + O(X^8)",
                            "1 + O(X^8)"),
            # known defects: these crash with a traceback and exit 1
            self._malformed("defect-zero-division", "laurent", "1/0"),
            self._malformed("defect-deep-power", "conj", "X^5000"),
        ]

    # -- the timed pass ----------------------------------------------------

    def run(self, commands, clock, tracer=None):
        ops = []
        summaries = []
        for index, cmd in enumerate(commands):
            env = self.env
            if tracer is None:
                argv = [sys.executable, "-m", "skewring.cli", *cmd.args]
            else:
                trace_path = self.work / f"trace-{index}.json"
                env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_path))
                argv = [sys.executable, str(HERE / "child.py"), *cmd.args]
            start = clock()
            try:
                proc = subprocess.run(argv, cwd=self.root, env=env, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S)
                result = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                result = (None, "", "timeout")
            elapsed = clock() - start
            clock.tick()
            ops.append((cmd.kind, elapsed, result))
            if tracer is not None and trace_path.exists():
                summaries.append(json.loads(trace_path.read_text(encoding="utf-8")))
                trace_path.unlink()
        if tracer is not None:
            self.traces.append(merge_summaries(summaries))
        return ops

    # -- checks (outside the timed region) -----------------------------------

    def check(self, commands, ops):
        verdicts = []
        for cmd, (_kind, _elapsed, (code, out, err)) in zip(commands, ops):
            if cmd.expect_exit == 2:
                if code == 2 and not out and "Traceback" not in err:
                    verdicts.append("ok")
                else:
                    verdicts.append("wrong" if code == 0 else "failed")
                continue
            if code != 0:
                verdicts.append("failed")
                continue
            try:
                good = cmd.check(out)
            except (ValueError, KeyError, TypeError, ArithmeticError,
                    self.sk["errors"].SkewringError) as exc:
                good = False
                print(f"{cmd.kind}: unreadable output ({type(exc).__name__}: {exc})",
                      file=sys.stderr)
            verdicts.append("ok" if good else "wrong")
        return verdicts

    @staticmethod
    def latencies(ops):
        return [elapsed for _kind, elapsed, _out in ops]

    def canonical(self, ops):
        texts = []
        for kind, _elapsed, (code, out, _err) in ops:
            if kind == "verify-simplicity" and code == 0:
                try:
                    doc = json.loads(out)
                    for check in doc["checks"]:
                        check.pop("elapsed", None)
                    out = json.dumps(doc, sort_keys=True)
                except (ValueError, KeyError, TypeError):
                    pass  # compared as printed
            texts.append(f"{code}\n{out}")
        return texts

    def digests(self, commands, ops):
        """Hashes of the canonical format_* text each command printed."""
        out = []
        for cmd, (_kind, _elapsed, (code, stdout, _err)) in zip(commands, ops):
            if cmd.digest is None or code != 0:
                out.append(None)
                continue
            try:
                text = cmd.digest(stdout)
            except (ValueError, KeyError):
                text = stdout
            out.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        return out

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
