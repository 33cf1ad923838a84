"""Truncated skew power series and skew Laurent series.

A ``TruncatedSeries`` is a ``SkewPoly`` of a delta-free config with a
precision N and a window start w: ``terms`` holds the exact coefficients
on the window [w, N] of R[[X; sigma]] or R((X; sigma)), everything above
N is unknown (O(X^(N+1))) and everything below w is known to be zero.
A power series truncates the ore shape R[X; sigma] and a Laurent series
the laurent shape R[X^±; sigma]. Construction passes the terms through
the config's ``from_terms``, so its exponent rule refuses a negative
exponent in every power series, however it is built.
It shares the polynomial's coercion, ``+``, ``-``, coefficients and
order, and keeps only its own rules: construction drops the terms above
N, N(a+b) = min(N_a, N_b), the product is ``series_mul``, equality
includes the precision, and the leading exponent is the order. The
monomial rule is the delta-free one, (r·X^m)(s·X^n) = (r·sigma^m(s))·X^(m+n),
so sigma must be bijective, and precision propagates pessimistically
through products: N(a·b) = min(N_a + w_b, N_b + w_a), w(a·b) = w_a + w_b.
A monomial c·X^k is exact, so the shared ``times_monomial`` (a product
with a scalar, a coefficient or a reduction cofactor) shifts N and w by k.
A series and a polynomial never mix in one operation. Inversion solves
one coefficient per step with the polynomial's ``lead_quotient``.
"""

from __future__ import annotations

from .errors import ConstructionError, NotInvertibleError, RingMismatchError
from .poly import ORE, SkewPoly, product_terms
from .rings import Divisors


class TruncatedSeries(SkewPoly):
    """Exact coefficients on a finite exponent window with explicit precision."""

    __slots__ = ("precision", "window_start")
    _zero_message = "order undefined at this precision"

    def __init__(self, config, coeffs, precision, window_start=None):
        if config.delta is not None:
            raise ConstructionError("series take a delta-free config")
        clean = config.from_terms(coeffs).terms
        if window_start is None:
            window_start = min([0, *clean])
        if clean and min(clean) < window_start:
            raise ConstructionError("coefficient below the window start")
        if clean and max(clean) > precision:
            clean = {e: c for e, c in clean.items() if e <= precision}
        if window_start > precision + 1:
            raise ConstructionError("empty series window")
        super().__init__(config, clean)
        self.precision = precision
        self.window_start = window_start

    @property
    def coeffs(self):
        return self.terms

    def _like(self, terms, other=None):
        """A sum with other at their common precision, or a constant at this precision."""
        if other is None:
            return TruncatedSeries(self.config, terms, self.precision, min(0, self.window_start))
        return TruncatedSeries(self.config, terms, min(self.precision, other.precision),
                               min(self.window_start, other.window_start))

    def _product(self, other):
        return series_mul(self, other)

    def _shifted(self, terms, exp):
        return TruncatedSeries(self.config, terms, self.precision + exp, self.window_start + exp)

    @property
    def leading_exponent(self):
        """The order: a series is reduced from its lowest term up."""
        return self.order

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.precision == other.precision and super().__eq__(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.precision, super().__hash__()))

    def __repr__(self):
        from .parsing import format_series
        return format_series(self)


def series(config, terms, precision, window_start=None):
    """Build a series from an exponent-to-coefficient map."""
    return TruncatedSeries(config, dict(terms), precision, window_start)


def series_one(config, precision):
    return TruncatedSeries(config, {0: config.coefficients.one}, precision, 0)


def series_mul(a, b):
    """Twisted Cauchy product, truncated with pessimistic precision."""
    if type(a) is not TruncatedSeries or type(b) is not TruncatedSeries or a.config != b.config:
        raise RingMismatchError("incompatible rings")
    precision = min(a.precision + b.window_start, b.precision + a.window_start)
    window = a.window_start + b.window_start
    out = product_terms(a.config, [(a.terms, b.terms)], precision)
    return TruncatedSeries(a.config, out, precision, window)


def equal_to_precision(a, b, precision=None):
    """Coefficient-wise equality up to the given (or common) precision."""
    if precision is None:
        precision = min(a.precision, b.precision)
    exps = set(a.terms) | set(b.terms)
    return all(
        a.coefficient(e) == b.coefficient(e) for e in exps if e <= precision
    )


def series_invert(a, side="right"):
    """Inverse of a unit series, solved one coefficient at a time.

    ``side="right"`` returns b with a·b = 1, ``side="left"`` returns b
    with b·a = 1, each by its own triangular recurrence whose step n is
    the series' ``lead_quotient``: the b_n for which a·(b_n·X^n), or
    (b_n·X^n)·a for the left inverse, puts the missing coefficient on
    top (no associativity assumed). ``side="both"`` solves both recurrences and
    insists they agree -- that is the genuinely two-sided inverse, which
    exists whenever the twist is an automorphism but can fail to exist
    otherwise (the one-sided inverses of 1 - iX under the q=2 scaling
    twist differ from degree three on). The inverse of a series of
    order w known to precision N is known to precision N - 2w. A power
    series (the ore shape) is a unit only if its order is 0.

    Each step sums its products with one ``dot`` of the coefficient
    ring, which applies each product's power of sigma itself; a step's
    one ``power_apply`` is sigma^(-w) of the right inverse's new term or
    the left one's divisor sigma^n(lead). Each recurrence keeps its own
    ``Divisors``, so the right one factors the lead once and the left one
    each distinct sigma^n(lead) once.
    """
    config = a.config
    ring = config.coefficients
    sigma = config.sigma
    if side not in ("right", "left", "both"):
        raise ConstructionError(f"unknown inverse side: {side}")
    if not a:
        raise NotInvertibleError("series is not a unit")
    w = a.order
    out_precision = a.precision - 2 * w
    if out_precision < -w or (w > 0 and config.shape == ORE):
        raise NotInvertibleError("series is not a unit")

    one = ring.one
    zero = ring.zero
    lefts = {"right": (False,), "left": (True,), "both": (False, True)}[side]
    found = {left: {} for left in lefts}
    divisors = {left: Divisors(ring, "right" if left else "left") for left in lefts}
    for e in range(0, a.precision - w + 1):
        for left in lefts:
            b = found[left]
            # a·b = 1: sum_m a_m sigma^m(b_{e-m}) = [e == 0];
            # b·a = 1: sum_m b_{e-m} sigma^(e-m)(a_m) = [e == 0]
            acc = ring.dot([(b[e - m], e - m, am) if left else (am, m, b[e - m])
                            for m, am in a.terms.items() if m != w and e - m in b], sigma)
            u = a.lead_quotient(one - acc if e == 0 else -acc, e - w, left, divisors[left])
            if u is None:
                raise NotInvertibleError("series is not a unit")
            b[e - w] = u

    coeffs = found[side == "left"]
    if side == "both":
        right, left = found[False], found[True]
        if any(right.get(n, zero) != left.get(n, zero)
               for n in set(right) | set(left) if n <= out_precision):
            raise NotInvertibleError("series is not a unit")
    return TruncatedSeries(config, coeffs, out_precision, -w)
