"""arith-mix: a fixed mix of dense random arithmetic, fresh operands per pass.

Every op kind runs once per rung of a coefficient bit-length ladder
(octonion products ninety times per pass), so no op kind takes more
than about a third of a pass. Operands come from the seed and the pass
index and are never reused, so memoisation cannot help here; the
structural scans are not used at all.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from fractions import Fraction

# numerator bit lengths of the operands; denominators get half as many
BIT_LADDER = (4, 16)
# enough products that the median op lies mid-way through their cluster
OCT_MULS_PER_RUNG = 45
SERIES_PRECISION = 30
KINDS = ("oct_mul", "oct_inv", "sed_inv", "laurent_gauss_mul", "laurent_oct_mul",
         "weyl_mul", "series_mul", "series_inv", "left_reduce", "right_reduce", "replay")


def _frac(rng, bits):
    num = 0
    while num == 0:
        num = rng.randint(-(1 << bits), 1 << bits)
    return Fraction(num, rng.randint(1, 1 << max(1, bits // 2)))


class ArithMix:
    name = "arith-mix"
    min_passes = 2
    clock_probe = "timer"

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def setup(self):
        sk = {name: importlib.import_module(f"skewring.{name}")
              for name in ("rings", "maps", "poly", "series", "structure", "parsing")}
        self.sk = sk
        rings, maps, poly = sk["rings"], sk["maps"], sk["poly"]
        self.octonions = rings.octonions()
        self.sedenions = rings.sedenions()
        gauss = rings.gaussian()
        q = rings.rationals()
        self.gauss_q2 = poly.RingConfig(gauss, maps.make_twist(gauss, "q_twist", q=2),
                                        None, "X", poly.LAURENT)
        o = self.octonions
        self.oct_conj = poly.RingConfig(o, maps.make_twist(o, "conjugation"), None, "X",
                                        poly.LAURENT)
        self.oct_conj_ore = poly.RingConfig(o, maps.make_twist(o, "conjugation"), None, "X",
                                            poly.ORE)
        qy = poly.RingConfig(q, maps.make_twist(q, "identity"), None, "Y", poly.ORE)
        self.weyl = poly.RingConfig(qy, maps.make_twist(qy, "identity"),
                                    maps.make_twist(qy, "derivative"), "X", poly.ORE)
        self.weyl_y = self.weyl.constant(qy.gen)

    # -- inputs --------------------------------------------------------------

    def _dense(self, ring, rng, bits):
        return ring.element([_frac(rng, bits) for _ in range(ring.qdim)])

    def _poly(self, config, rng, lo, hi, bits):
        return config.from_terms(
            {e: self._dense(config.coefficients, rng, bits) for e in range(lo, hi + 1)}
        )

    def _series(self, rng, bits):
        coeffs = {e: self._dense(self.gauss_q2.coefficients, rng, bits)
                  for e in range(SERIES_PRECISION + 1)}
        return self.sk["series"].TruncatedSeries(self.gauss_q2, coeffs, SERIES_PRECISION, 0)

    def _weyl_power(self, rng, bits):
        w = self.weyl
        linear = (w.gen.scale(_frac(rng, bits)) + self.weyl_y.scale(_frac(rng, bits))
                  + w.scalar(_frac(rng, bits)))
        return linear ** 6

    def inputs(self, pass_index):
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        rungs = []
        for bits in BIT_LADDER:
            o, s = self.octonions, self.sedenions
            rungs.append({
                "oct_pairs": [(self._dense(o, rng, bits), self._dense(o, rng, bits))
                              for _ in range(OCT_MULS_PER_RUNG)],
                "oct": self._dense(o, rng, bits),
                "sed": self._dense(s, rng, bits),
                "gauss": (self._poly(self.gauss_q2, rng, -10, 10, bits),
                          self._poly(self.gauss_q2, rng, -10, 10, bits)),
                "octpoly": (self._poly(self.oct_conj, rng, -5, 5, bits),
                            self._poly(self.oct_conj, rng, -5, 5, bits)),
                "weyl": (self._weyl_power(rng, bits), self._weyl_power(rng, bits)),
                "series": (self._series(rng, bits), self._series(rng, bits)),
                "reduce": (self._poly(self.oct_conj_ore, rng, 0, 12, bits),
                           self._poly(self.oct_conj_ore, rng, 0, 3, bits)),
            })
        return rungs

    # -- the timed pass ----------------------------------------------------

    def run(self, rungs, clock, tracer=None):
        sk = self.sk
        poly, series, structure = sk["poly"], sk["series"], sk["structure"]
        ops = []

        def op(kind, fn, *args):
            frame = tracer.open(f"arith.{kind}") if tracer is not None else None
            start = clock()
            out = fn(*args)
            elapsed = clock() - start
            if frame is not None:
                tracer.close(frame)
            ops.append((kind, elapsed, out))
            return out

        for rung in rungs:
            for x, y in rung["oct_pairs"]:
                op("oct_mul", lambda a, b: a * b, x, y)
            op("oct_inv", self.octonions.invert, rung["oct"])
            op("sed_inv", self.sedenions.invert, rung["sed"])
            op("laurent_gauss_mul", poly.poly_mul, *rung["gauss"])
            op("laurent_oct_mul", poly.poly_mul, *rung["octpoly"])
            op("weyl_mul", poly.poly_mul, *rung["weyl"])
            op("series_mul", series.series_mul, *rung["series"])
            op("series_inv", series.series_invert, rung["series"][0])
            f, g = rung["reduce"]
            op("left_reduce", structure.monic_left_reduce, f, g)
            gens = structure.GeneratorSet(self.oct_conj_ore, [g], "right")
            right = op("right_reduce", structure.right_reduce, f, gens)
            op("replay", structure.replay_reduction, right, gens)
        return ops

    # -- checks (outside the timed region) -----------------------------------

    def _verdicts(self, rung, rung_ops):
        """One True/False per op: does its output satisfy its identity?"""
        sk = self.sk
        series, structure = sk["series"], sk["structure"]
        out = iter(rung_ops)
        verdicts = []
        for x, y in rung["oct_pairs"]:
            xy = next(out)[2]
            verdicts.append(_norm(xy) == _norm(x) * _norm(y))
        for ring, el in ((self.octonions, rung["oct"]), (self.sedenions, rung["sed"])):
            inv = next(out)[2]
            verdicts.append(el * inv == ring.one == inv * el)
        for a, b in (rung["gauss"], rung["octpoly"], rung["weyl"]):
            ab = next(out)[2]
            verdicts.append(bool(ab) and ab.degree == a.degree + b.degree
                            and ab.order == a.order + b.order)
        a, b = rung["series"]
        ab = next(out)[2]
        as_poly = sk["poly"].poly_mul(self.gauss_q2.from_terms(a.coeffs),
                                      self.gauss_q2.from_terms(b.coeffs))
        verdicts.append(ab.precision == SERIES_PRECISION and ab.coeffs == {
            e: c for e, c in as_poly.terms.items() if e <= SERIES_PRECISION})
        inv = next(out)[2]
        one = series.series_one(self.gauss_q2, inv.precision)
        verdicts.append(series.equal_to_precision(series.series_mul(a, inv), one,
                                                  inv.precision))
        f, g = rung["reduce"]
        left = next(out)[2]
        verdicts.append(_below(left.remainder, g)
                        and structure.replay_reduction(left, [g]) == f)
        right = next(out)[2]
        verdicts.append(_below(right.remainder, g) and not right.irreducible)
        verdicts.append(next(out)[2] == f)
        return verdicts

    def check(self, rungs, ops):
        per_rung = len(ops) // len(rungs)
        verdicts = []
        for i, rung in enumerate(rungs):
            verdicts.extend(self._verdicts(rung, ops[i * per_rung:(i + 1) * per_rung]))
        return ["ok" if v else "wrong" for v in verdicts]

    def digests(self, rungs, ops):
        return self.canonical(ops)

    @staticmethod
    def latencies(ops):
        return [elapsed for _kind, elapsed, _out in ops]

    def canonical(self, ops):
        """Hash of the canonical text of every op's output (the parser's grammar)."""
        parsing = self.sk["parsing"]
        texts = []
        for kind, _elapsed, out in ops:
            if kind in ("oct_mul", "oct_inv", "sed_inv"):
                texts.append(parsing.format_element(out))
            elif kind in ("series_mul", "series_inv"):
                texts.append(parsing.format_series(out))
            elif kind in ("left_reduce", "right_reduce"):
                config = out.remainder.config
                steps = [f"{s.generator}:{s.side}:"
                         f"{parsing.format_monomial(config, s.coeff, s.exponent)}"
                         for s in out.steps]
                texts.append(" ; ".join([parsing.format_poly(out.remainder), *steps]))
            else:
                texts.append(parsing.format_poly(out))
        return [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]

    def close(self):
        pass


def _norm(x):
    return sum(c * c for c in x.coords)


def _below(remainder, divisor):
    return not remainder or remainder.degree < divisor.degree
