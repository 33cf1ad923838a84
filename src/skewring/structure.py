"""Structural algorithms on twisted rings.

Degree-bounded certificates (nucleus membership, associativity) work by
exhausting associator identities over basis monomials c·V^e with
|e| <= bound; by biadditivity a pass certifies the identity on the span
of those monomials, and a failure hands back a concrete witness triple.

The reduction algorithms (central quotient rewriting, shrink-based
simplicity probing, monic left division, right reduction) mirror the
constructive steps of the Hilbert-style and simplicity proofs. Right
reduction is one leading-term loop for polynomials and series; only the
leading exponent (degree or order) depends on the type. Each reduction
produces a replayable record: generators combined with single-monomial
cofactors plus a remainder that reconstructs the input exactly; replay
rebuilds each step with the cofactor product the reduction subtracted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    ConstructionError,
    NotInvertibleError,
    ReductionError,
    RingMismatchError,
)
from .maps import Keyed, _power_is_identity, classify_multiplicativity
from .poly import LAURENT, SkewPoly, add_term, poly_mul
from .rings import Divisors, associator, first_associator
from .series import TruncatedSeries, times_monomial

SIDES = ("left", "middle", "right")


# ---------------------------------------------------------------------------
# nucleus membership and associativity certificates
# ---------------------------------------------------------------------------


class NucleusQuery(Keyed):
    def __init__(self, element, side, degree_bound):
        if side not in SIDES:
            raise ConstructionError(f"unknown nucleus side: {side}")
        if element and degree_bound < max(abs(element.degree), abs(element.order)):
            raise ConstructionError("degree_bound must cover the element's support")
        self.element, self.side, self.degree_bound = element, side, degree_bound

    def _key(self):
        return (self.element, self.side, self.degree_bound)


class CheckOutcome:
    """pass/witness result of a degree-bounded associator exhaustion."""

    def __init__(self, passed, witness=None):
        self.passed, self.witness = passed, witness  # witness: (a, b, c, associator value)

    def __bool__(self):
        return self.passed


def _ratio(num, den):
    """The reduced integer pair of num / den, with den > 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


_ZERO = (0, 1)
_ONE = (1, 1)


class _ScaledOps:
    """Memoized coefficient operations in scalar-split form.

    Elements are carried as (scalar, normalized element) pairs, where
    the normalized representative has its deterministically chosen first
    coordinate equal to one and the scalar is a reduced integer pair
    (num, den) with den > 0, so zero is ``_ZERO`` and one ``_ONE``.
    Products and twist powers are Q-bilinear / Q-linear by construction
    (structure constants, biadditive monomial rules), so scalars factor
    out; the exhaustive scans then hit only a few distinct normalized
    operands, each computed once. Scalars multiply and compare as ints;
    a ``Fraction`` is built only when ``split`` normalizes an element it
    has not seen. Two scalar-split values are equal iff their scalars
    match and their normalized parts are the same cached representative.
    """

    def __init__(self, sigma):
        self.sigma = sigma
        self._norm = {}
        self._intern = {}
        self._powers = {}
        self._products = {}

    @staticmethod
    def _first_scalar(el):
        while hasattr(el, "terms"):
            if not el.terms:
                return _ZERO
            el = el.terms[min(el.terms)]
        nums, den = el.pair
        return next((_ratio(v, den) for v in nums if v), _ZERO)

    def _canon(self, el):
        """One structurally-equal representative per value, so caches can
        key on object identity afterwards."""
        cached = self._intern.get(el)
        if cached is None:
            self._intern[el] = el
            return el
        return cached

    def split(self, el):
        cached = self._norm.get(el)
        if cached is None:
            scalar = self._first_scalar(el)
            if scalar in (_ZERO, _ONE):
                cached = (scalar, self._canon(el))
            else:
                cached = (scalar, self._canon(el.scale(Fraction(scalar[1], scalar[0]))))
            self._norm[el] = cached
        return cached

    def twist(self, p, value):
        scalar, el = value
        if p == 0 or not scalar[0]:
            return value
        key = (p, id(el))
        cached = self._powers.get(key)
        if cached is None:
            cached = self.split(self.sigma.power_apply(p, el))
            self._powers[key] = cached
        cs, ce = cached
        if cs == _ONE:
            return (scalar, ce)
        return (_ratio(scalar[0] * cs[0], scalar[1] * cs[1]), ce)

    def mul(self, left, right):
        ls, le = left
        rs, re = right
        if not ls[0]:
            return left
        if not rs[0]:
            return right
        key = (id(le), id(re))
        cached = self._products.get(key)
        if cached is None:
            cached = self.split(le * re)
            self._products[key] = cached
        cs, ce = cached
        if rs == _ONE and cs == _ONE:
            return (ls, ce)
        return (_ratio(ls[0] * rs[0] * cs[0], ls[1] * rs[1] * cs[1]), ce)

    @staticmethod
    def equal(left, right):
        ls, le = left
        rs, re = right
        if not ls[0] and not rs[0]:
            return True
        return ls == rs and (le is re or le == re)


def _slot_triple(side, x, u, v):
    """The associator triple with x in the given slot and u, v around it."""
    if side == "left":
        return (x, u, v)
    if side == "middle":
        return (u, x, v)
    return (u, v, x)


def _laurent_nucleus_scan(query, memo):
    """Monomial-level exhaustion of the sided associator identities.

    The twisted monomial rule (r·X^m)(s·X^n) = (r·sigma^m(s))·X^(m+n)
    closes laurent monomials under multiplication, so the associator of
    monomial pairs against each term of the queried element is a sum of
    monomials computed from cached coefficient products and twist
    powers; biadditivity makes accumulating over the element's terms
    exactly the polynomial product. A witness found here is rebuilt and
    re-verified through the generic polynomial arithmetic.

    With u = a·X^m in the first slot, the middle and right identities
    both read (a·E1)·E2 = a·E3 for every coefficient a, where E1, E2
    and E3 do not depend on a. The verdict over all a is memoised. The
    memo is exact: products are Q-bilinear, so with Ei = si·ni the
    identity is (s1·s2/s3)·(a·n1)·n2 = a·n3; the normalised parts ni
    are interned, one object per value, so their ids and the ratio
    determine which a fail. The ratio is keyed as the reduced integer
    pair of (p1·p2·q3)/(q1·q2·p3) for si = pi/qi, so equal ratios share
    one key. A zero scalar bypasses the memo.

    ``memo`` maps ``(config, degree_bound)`` to the ``_ScaledOps`` and
    the verdict dict of that pair. Neither depends on the queried
    element or slot: the products, twist powers and interned parts
    depend on the config alone, and a verdict names the first failing
    a of the coefficient spanning set at that bound. The ids in the
    verdict keys stay valid because the entry's ``_ScaledOps`` keeps
    every part it interned. So every scan of one config and bound may
    share one entry and get the verdicts and witnesses of a fresh scan.
    The caller owns the memo and drops it after its check; nothing here
    outlives it.
    """
    x = query.element
    config = x.config
    side = query.side
    key = (config, query.degree_bound)
    if key not in memo:
        memo[key] = (_ScaledOps(config.sigma), {})
    ops, verdicts = memo[key]
    coeffs = config.coefficients.spanning_set(query.degree_bound)
    exps = list(config.exponent_window(query.degree_bound))
    x_terms = [(k, ops.split(t)) for k, t in sorted(x.terms.items())]
    split_coeffs = [ops.split(c) for c in coeffs]
    equal = _ScaledOps.equal
    mul = ops.mul
    twist = ops.twist

    def report(a, m, b, n):
        # rebuild and re-verify the candidate through the generic
        # polynomial arithmetic before reporting it
        u = config.monomial(a[1].scale(Fraction(*a[0])), m)
        v = config.monomial(b[1].scale(Fraction(*b[0])), n)
        triple = _slot_triple(side, x, u, v)
        value = associator(*triple)
        if not value:
            raise AssertionError("monomial scan disagreed with the generic product")
        return CheckOutcome(False, (*triple, value))

    def first_failure(e1, e2, e3):
        """The first a with (a·e1)·e2 != a·e3, or None."""
        (s1, n1), (s2, n2), (s3, n3) = e1, e2, e3
        key = None
        if s1[0] and s2[0] and s3[0]:
            key = (id(n1), id(n2), id(n3),
                   _ratio(s1[0] * s2[0] * s3[1], s1[1] * s2[1] * s3[0]))
            if key in verdicts:
                return verdicts[key]
        failing = next(
            (a for a in split_coeffs if not equal(mul(mul(a, e1), e2), mul(a, e3))),
            None,
        )
        if key is not None:
            verdicts[key] = failing
        return failing

    # Distinct x-term exponents land on distinct result exponents, so the
    # accumulated associator vanishes iff every term's contribution does.
    # In the left and middle slots the coefficients are independent of the
    # second monomial's exponent (it only shifts the result), so v is
    # checked at exponent 0 and that covers its whole exponent range.
    if side == "left":
        for m in exps:
            for a in split_coeffs:
                ta = [(twist(k, a), k, t) for k, t in x_terms]
                for b in split_coeffs:
                    for pre, k, t in ta:
                        lhs = mul(mul(t, pre), twist(k + m, b))
                        rhs = mul(t, twist(k, mul(a, twist(m, b))))
                        if not equal(lhs, rhs):
                            return report(a, m, b, 0)
        return CheckOutcome(True)

    if side == "middle":
        # (u x) v vs u (x v): E1 = sigma^m(t), E2 = sigma^(m+k)(b),
        # E3 = sigma^m(t·sigma^k(b))
        for m in exps:
            for b in split_coeffs:
                for k, t in x_terms:
                    a = first_failure(
                        twist(m, t), twist(m + k, b), twist(m, mul(t, twist(k, b)))
                    )
                    if a is not None:
                        return report(a, m, b, 0)
        return CheckOutcome(True)

    # right slot: (u v) x vs u (v x): E1 = sigma^m(b), E2 = sigma^(m+n)(t),
    # E3 = sigma^m(b·sigma^n(t)); the exponent of v enters through the
    # twist powers applied to x's coefficients, so hoist per (b, n, m)
    for k, t in x_terms:
        for b in split_coeffs:
            for n in exps:
                bt = mul(b, twist(n, t))
                for m in exps:
                    a = first_failure(twist(m, b), twist(m + n, t), twist(m, bt))
                    if a is not None:
                        return report(a, m, b, n)
    return CheckOutcome(True)


def nucleus_membership(query, memo=None):
    """Exhaust (.,.,.)-identities with the element in the given slot.

    A pass means the associator vanishes with the element inserted in
    the queried slot against every pair of basis monomials up to the
    degree bound, hence (by biadditivity) against the whole span.

    ``memo`` is a dict owned by the caller. Scans of laurent configs
    that are passed the same dict share their coefficient products and
    slot verdicts, per config and degree bound, and return exactly what
    fresh scans return. ``None`` gives the scan a fresh memo. Keep a
    memo for one check at most: it holds every product it has seen.
    """
    x = query.element
    config = x.config
    if config.shape == LAURENT:
        return _laurent_nucleus_scan(query, {} if memo is None else memo)
    span = config.spanning_set(query.degree_bound)
    for u in span:
        for v in span:
            triple = _slot_triple(query.side, x, u, v)
            value = associator(*triple)
            if value:
                return CheckOutcome(False, (*triple, value))
    return CheckOutcome(True)


def associativity_certificate(config, degree_bound):
    """Exhaust all associator triples of basis monomials up to the bound."""
    witness = first_associator(config.spanning_set(degree_bound))
    return CheckOutcome(witness is None, witness)


def associativity_prediction(config):
    """The classification side of the associativity criterion.

    Independently of any monomial exhaustion: the twisted ring is
    associative iff the coefficient ring is associative and sigma is an
    automorphism. Returned for cross-checking against the certificate.
    """
    return (
        config.coefficients.is_associative
        and "automorphism" in classify_multiplicativity(config.sigma)
    )


# ---------------------------------------------------------------------------
# nuclear inverses
# ---------------------------------------------------------------------------

_HYPOTHESES = {
    "lm": (("left", "middle"), "left"),
    "full": (("left", "middle", "right"), "middle"),
    "mr": (("middle", "right"), "right"),
}


class NuclearInverseReport:
    def __init__(self, hypothesis, hypothesis_checks, conclusion_side, conclusion):
        self.hypothesis, self.hypothesis_checks = hypothesis, hypothesis_checks
        self.conclusion_side, self.conclusion = conclusion_side, conclusion  # CheckOutcome | None

    @property
    def hypothesis_satisfied(self):
        return all(outcome.passed for outcome in self.hypothesis_checks.values())

    @property
    def ok(self):
        """True unless the hypothesis holds and the conclusion fails."""
        if not self.hypothesis_satisfied:
            return True
        return self.conclusion is not None and self.conclusion.passed


def nuclear_inverse_check(x, hypothesis, degree_bound):
    """Check one clause of the nuclear-inverse lemma on basis monomials.

    hypothesis "lm": x in N_l∩N_m implies x⁻¹ in N_l; "full": x in N
    implies x⁻¹ in N_m; "mr": x in N_m∩N_r implies x⁻¹ in N_r. If the
    hypothesis fails on x the clause holds vacuously and the report says
    so; otherwise the concluded side is checked for x⁻¹.
    """
    if hypothesis not in _HYPOTHESES:
        raise ConstructionError(f"unknown hypothesis: {hypothesis}")
    hyp_sides, conclusion_side = _HYPOTHESES[hypothesis]
    try:
        x_inv = x.config.invert(x)
    except NotInvertibleError:
        raise ReductionError("inverse not representable") from None
    memo = {}
    checks = {
        side: nucleus_membership(NucleusQuery(x, side, degree_bound), memo)
        for side in hyp_sides
    }
    report = NuclearInverseReport(hypothesis, checks, conclusion_side, None)
    if report.hypothesis_satisfied:
        report.conclusion = nucleus_membership(
            NucleusQuery(x_inv, conclusion_side, degree_bound), memo
        )
    return report


# ---------------------------------------------------------------------------
# the finite-order central quotient
# ---------------------------------------------------------------------------


def central_reduction(p, m):
    """Canonical representative of p modulo the rewriting X^(m²) -> -1.

    Valid when sigma^m = id (checked on the coefficient spanning set):
    then X^(m²) is nuclear and central, the principal ideal it generates
    with 1 + X^(m²) rewrites X^(m²) to -1, coefficients pass through,
    and each term r·X^e maps to (-1)^floor(e/m²) · r · X^(e mod m²).
    p lies in the ideal iff its representative is zero.
    """
    if m <= 0:
        raise ConstructionError("order must be a positive integer")
    config = p.config
    if config.shape != LAURENT:
        raise ConstructionError("central reduction needs the laurent shape")
    if not _power_is_identity(config.sigma, m):
        raise ReductionError("finite order hypothesis fails")
    modulus = m * m
    out = {}
    for e, c in p.terms.items():
        add_term(out, e % modulus, -c if (e // modulus) % 2 else c)
    return SkewPoly(config, out)


# ---------------------------------------------------------------------------
# shrink and the simplicity probe
# ---------------------------------------------------------------------------


def _require_commutative_division(config):
    ring = config.coefficients
    if not (ring.is_commutative and ring.is_division):
        raise ReductionError(
            "proposition hypothesis requires commutative division ring"
        )
    if config.shape != LAURENT:
        raise ConstructionError("shrink needs the laurent shape")


def shrink(p, d):
    """p·d - sigma^(deg p)(d)·p after order-normalizing p.

    Over a commutative division coefficient ring the leading terms
    cancel, so a nonzero result has strictly smaller degree; the
    constant term survives exactly when sigma^(deg p)(d) differs from d.
    """
    config = p.config
    _require_commutative_division(config)
    ord_p = p.order
    if ord_p != 0:
        p = poly_mul(p, config.variable_power(-ord_p))
    m = p.degree
    d_const = config.constant(d)
    twisted = config.constant(config.sigma.power_apply(m, d))
    return poly_mul(p, d_const) - poly_mul(twisted, p)


class SimplicityResult:
    def __init__(self, status, unit, steps=None, note=""):
        self.status, self.unit, self.note = status, unit, note  # status: "unit" | "inconclusive"
        self.steps = [] if steps is None else steps

    @property
    def reached_unit(self):
        return self.status == "unit"


def simplicity_probe(config, p, budget):
    """Iterate shrink steps until the ideal generated by p exhibits a unit.

    Scans coefficient basis elements in fixed order and takes the first
    one whose shrink is nonzero (its degree is then strictly smaller).
    Reaching a nonzero constant certifies that the two-sided ideal
    generated by p is the whole ring. Returns inconclusive when every
    shrink vanishes (finite-order twists) or the budget runs out.
    """
    _require_commutative_division(config)
    if not p:
        raise ReductionError("simplicity probe needs a nonzero element")
    current = p
    steps = []
    for _ in range(budget + 1):
        ord_c = current.order
        if ord_c != 0:
            current = poly_mul(current, config.variable_power(-ord_c))
        if current.degree == 0:
            return SimplicityResult("unit", current.terms[0], steps, "reduced to a unit")
        if len(steps) == budget:
            break
        candidate = None
        chosen = None
        for d in config.coefficients.basis_elements():
            result = shrink(current, d)
            if result:
                candidate, chosen = result, d
                break
        if candidate is None:
            return SimplicityResult("inconclusive", None, steps, "all shrinks vanish")
        steps.append((chosen, candidate))
        current = candidate
    return SimplicityResult("inconclusive", None, steps, "budget exhausted")


# ---------------------------------------------------------------------------
# replayable reductions
# ---------------------------------------------------------------------------


class CofactorStep(Keyed):
    """One reduction step: generator index and a single monomial cofactor."""

    def __init__(self, generator, side, coeff, exponent):
        self.generator, self.side = generator, side  # side: "left" | "right"
        self.coeff, self.exponent = coeff, exponent

    def _key(self):
        return (self.generator, self.side, self.coeff, self.exponent)


class ReductionResult:
    def __init__(self, steps, remainder, irreducible=False):
        self.steps, self.remainder, self.irreducible = steps, remainder, irreducible


class GeneratorSet:
    def __init__(self, config, generators, side):
        if side not in ("left", "right"):
            raise ConstructionError(f"unknown generator side: {side}")
        if not generators:
            raise ConstructionError("generator set must be nonempty")
        kind = type(generators[0])
        for g in generators:
            if not g:
                raise ConstructionError("generators must be nonzero")
            if g.config != config or type(g) is not kind:
                raise RingMismatchError("incompatible rings")
        self.config, self.generators, self.side = config, generators, side


def _cofactor_factors(g, side, u, k):
    """The polynomial factors (g, u·V^k) of a right step, (u·V^k, g) of a left step."""
    mono = g.config.monomial(u, k)
    return (mono, g) if side == "left" else (g, mono)


def _cofactor_product(g, side, u, k):
    """g·(u·V^k) for a right step, (u·V^k)·g for a left step."""
    if isinstance(g, TruncatedSeries):
        if side != "right":
            raise ConstructionError("series replay supports right cofactors")
        return times_monomial(g, u, k)
    return poly_mul(*_cofactor_factors(g, side, u, k))


def monic_left_reduce(f, p):
    """Left-divide f by p over division-ring coefficients.

    Each step subtracts (t·V^(n-m))·p where t solves
    t·sigma^(n-m)(lead p) = lead f, cancelling the top term; the proof's
    preliminary monic normalization is folded into that solve, and each
    distinct value of sigma^(n-m)(lead p) is factored once per call. The
    remainder ends with degree < deg p and the recorded steps replay to
    f exactly.
    """
    config = f.config
    if p.config != config:
        raise RingMismatchError("incompatible rings")
    if not p:
        raise ReductionError("cannot divide by zero")
    if not config.coefficients.is_division:
        raise ReductionError("left division requires division ring")
    m = p.degree
    c = p.leading_coefficient
    sigma = config.sigma
    divisors = Divisors(config.coefficients, "right")
    steps = []
    rem = f
    while rem and rem.degree >= m:
        n = rem.degree
        t = divisors[sigma.power_apply(n - m, c)](rem.leading_coefficient)
        if t is None:
            raise ReductionError("left division requires division ring")
        steps.append(CofactorStep(0, "left", t, n - m))
        rem = rem - _cofactor_product(p, "left", t, n - m)
    return ReductionResult(steps, rem)


def right_reduce(f, gens, max_steps=None):
    """Reduce f against a right generator set, recording replayable steps.

    One leading-term loop for polynomials and series: n is the element's
    ``leading_exponent``, the degree of a polynomial and the order of a
    series. Each step cancels the leading coefficient by subtracting
    g·(u·V^(n-m_g)), where m_g is g's leading exponent,
    u = sigma^(-m_g)(w) and w solves (lead g)·w = lead f; the first
    generator with m_g <= n whose solve succeeds is used (one always
    does over division-ring coefficients), and a generator's leading
    coefficient is factored once per call, on its first use. A series
    step raises the order, so the loop ends when the remainder's window
    is exhausted.
    When no generator has m_g <= n, a polynomial remainder is a true
    remainder, but a series is flagged ``irreducible``; so is any
    remainder whose leading coefficient no single eligible generator
    matches. At most ``max_steps`` steps are taken.
    """
    if gens.side != "right":
        raise ConstructionError("right_reduce needs a right generator set")
    config = f.config
    if gens.config != config or type(f) is not type(gens.generators[0]):
        raise RingMismatchError("incompatible rings")
    is_series = isinstance(f, TruncatedSeries)
    sigma = config.sigma
    divisors = Divisors(config.coefficients, "left")
    rem = f
    steps = []
    irreducible = False
    while rem:
        if max_steps is not None and len(steps) >= max_steps:
            break
        n = rem.leading_exponent
        eligible = [(i, g) for i, g in enumerate(gens.generators) if g.leading_exponent <= n]
        if not eligible and not is_series:
            break
        for idx, g in eligible:
            w = divisors[g.leading_coefficient](rem.leading_coefficient)
            if w is not None:
                break
        else:
            irreducible = True
            break
        mg = g.leading_exponent
        u = sigma.power_apply(-mg, w)
        steps.append(CofactorStep(idx, "right", u, n - mg))
        rem = rem - _cofactor_product(g, "right", u, n - mg)
    return ReductionResult(steps, rem, irreducible)


def replay_reduction(result, gens):
    """Rebuild the reduced input: the remainder plus every recorded cofactor product.

    Polynomials and series share this replay up to the one rule where a
    series differs: its cofactor product is a ``times_monomial`` shift
    with its own precision, so the shifts are added one at a time and the
    sum keeps the least precision, and a left step raises
    ``ConstructionError``. A polynomial's cofactor products are summed by
    one ``dot`` of its config, so each output coefficient is one sum.
    """
    generators = gens.generators if isinstance(gens, GeneratorSet) else list(gens)
    total = result.remainder
    steps = [(generators[step.generator], step.side, step.coeff, step.exponent)
             for step in result.steps]
    if isinstance(total, TruncatedSeries):
        return sum((_cofactor_product(*step) for step in steps), total)
    return total + total.config.dot([_cofactor_factors(*step) for step in steps])
