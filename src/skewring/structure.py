"""Structural algorithms on twisted rings.

Degree-bounded certificates (nucleus membership, associativity) work by
exhausting associator identities over basis monomials c·V^e with
|e| <= bound; by biadditivity a pass certifies the identity on the span
of those monomials, and a failure hands back a concrete witness triple.
The shift lemma: p·(c·V^n) = (p·c)·V^n, by sigma^m(1) = 1 (laurent) or
axiom D2, pi_i^m(1) = delta_im (ore). So whether (u, v, c·V^n) vanishes
never depends on n, and a search over the exponent-major span whose last
slot is cut to the first block (lowest exponent) finds the first witness.
A left- or middle-slot witness's last factor sits at that lowest exponent,
so u's left-slot witness is ``first_associator([u], span, block)``.
The right-slot corollary: (u, v, c·V^k) = (u, v, c)·V^k, so with the
queried element c·V^k in the right slot the first failing (u, v) depends
on c alone (up to c's rational scalar, which cancels). If c = q·1 then
(u, v, c) = q·(uv - uv) = 0, as 1 is a unit of S (sigma(1) = 1,
delta(1) = 0): a right-slot query whose coefficients all lie in Q·1
passes with no scan (rational lemma).
The left-slot corollary: with x = t·X^k, u = a·X^m and v = b, the laurent
identity (t·sigma^k(a))·sigma^(k+m)(b) = t·sigma^k(a·sigma^m(b)) reads,
for b' = sigma^m(b), (t·sigma^k(a))·sigma^k(b') = t·sigma^k(a·b'), free
of m. sigma^m maps the span of the coefficient spanning set onto itself
(a bijective linear sigma on a finite-dimensional R; the polynomial twists
keep Y-degrees), so u is scanned at one exponent, the window's lowest.

The ore window [0, B] without a delta. With delta = 0 the ore monomial
rule is the laurent one, (r·V^m)(s·V^n) = (r·sigma^m(s))·V^(m+n), on
exponents m, n >= 0, so each step above holds on [0, B]:
- shift lemma: (s·V^j)·(1·V^n) = s·sigma^j(1)·V^(j+n) = s·V^(j+n) as
  sigma^j(1) = 1, so p·(c·V^n) = (p·c)·V^n for every n >= 0;
- right-slot corollary: the shift lemma on (uv)·(c·V^k) and v·(c·V^k),
  then on u·((vc)·V^k), gives (u, v, c·V^k) = (u, v, c)·V^k for k >= 0;
- left-slot corollary: the identity and b' = sigma^m(b) are as above,
  for m >= 0 only. sigma is bijective, so sigma^m maps the coefficient
  span onto itself for every m >= 0, and u is scanned at exponent 0,
  the window's lowest, where b' = b; no negative power of sigma enters.
With a delta the rule is a sum over pi_i^m, and only the shift lemma
(by D2) is used: those queries are the cut triple search.

The reduction algorithms (central quotient rewriting, shrink-based
simplicity probing, leading-term reduction) mirror the constructive
steps of the Hilbert-style and simplicity proofs. Reduction is one
leading-term loop for left and right generator sets, polynomials and
series: the generator set's side picks the solve and the cofactor's
side, and the type picks the leading exponent (degree or order). Each
reduction produces a replayable record: generators combined with
single-monomial cofactors plus a remainder that reconstructs the input
exactly; replay rebuilds each step with the cofactor product the
reduction subtracted.
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
from .poly import LAURENT, SkewPoly, add_term
from .rings import Divisors, first_associator
from .series import TruncatedSeries

SIDES = ("left", "middle", "right")


# ---------------------------------------------------------------------------
# nucleus membership and associativity certificates
# ---------------------------------------------------------------------------


class NucleusQuery(Keyed):
    def __init__(self, element, side, degree_bound):
        if side not in SIDES:
            raise ConstructionError(f"unknown nucleus side: {side}")
        if degree_bound < 0:
            raise ConstructionError("degree_bound must be non-negative")
        element.config._own(element)
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
    """The reduced integer pair of num / den, with den > 0, or (±1, 0) for
    den = 0, which in a verdict key stands for a zero right side."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


_ZERO = (0, 1)
_ONE = (1, 1)


class _ScaledOps:
    """One config's nucleus memo: coefficient operations in scalar-split form.

    Elements are carried as (scalar, normalized element) pairs, where
    the normalized representative has its deterministically chosen first
    coordinate equal to one and the scalar is a reduced integer pair
    (num, den) with den > 0, so zero is ``_ZERO`` and one ``_ONE``.
    Products and twist powers are Q-bilinear / Q-linear by construction
    (structure constants, biadditive monomial rules), so scalars factor
    out; the exhaustive scans then hit only a few distinct normalized
    operands, each computed once. Scalars multiply and compare as ints;
    a ``Fraction`` is built only when ``split`` normalizes an element it
    has not seen. ``_norm`` is the one table of parts: ``split`` records
    each normalized part under its own entry (``_ONE``, part), or
    (``_ZERO``, part) for zero, so equal values share one part object (zero
    is always ``_ZERO`` with the one zero part), and two scalar-split
    values are equal iff their scalars match and their parts are the same
    object.

    Products, twist powers and parts serve every degree bound.
    ``verdicts`` holds the monomial scan's slot verdicts, ``outcomes`` maps
    each ``NucleusQuery`` to its ``CheckOutcome``, and ``inverses`` each
    element ``nuclear_inverse_check`` inverted to x⁻¹, or None.
    """

    def __init__(self, sigma):
        self.sigma = sigma
        self._norm = {}
        self._powers = {}
        self._products = {}
        self.verdicts = {}
        self.outcomes = {}
        self.inverses = {}

    @staticmethod
    def _first_scalar(el):
        while hasattr(el, "terms"):
            if not el.terms:
                return _ZERO
            el = el.terms[min(el.terms)]
        nums, den = el.pair
        return next((_ratio(v, den) for v in nums if v), _ZERO)

    def split(self, el):
        cached = self._norm.get(el)
        if cached is None:
            scalar = self._first_scalar(el)
            if scalar in (_ZERO, _ONE):
                cached = (scalar, el)
            else:
                cached = (scalar, self.split(el.scale(Fraction(scalar[1], scalar[0])))[1])
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

    def part_mul(self, le, re):
        """The split product of two normalised parts, computed once per pair."""
        key = (id(le), id(re))
        cached = self._products.get(key)
        if cached is None:
            cached = self.split(le * re)
            self._products[key] = cached
        return cached

    def mul(self, left, right):
        ls, le = left
        rs, re = right
        if not ls[0]:
            return left
        if not rs[0]:
            return right
        cs, ce = self.part_mul(le, re)
        if rs == _ONE and cs == _ONE:
            return (ls, ce)
        return (_ratio(ls[0] * rs[0] * cs[0], ls[1] * rs[1] * cs[1]), ce)

    @staticmethod
    def equal(left, right):
        return left[0] == right[0] and left[1] is right[1]


def _slot_triple(side, x, u, v):
    """The associator triple with x in the given slot and u, v around it."""
    if side == "left":
        return (x, u, v)
    if side == "middle":
        return (u, x, v)
    return (u, v, x)


def _ops(memo, config):
    """The memo's ``_ScaledOps`` of config, made on first use."""
    if config not in memo:
        memo[config] = _ScaledOps(config.sigma)
    return memo[config]


def _monomial_scan(query, ops):
    """Monomial-level exhaustion of the sided associator identities (delta = 0).

    The twisted monomial rule (r·X^m)(s·X^n) = (r·sigma^m(s))·X^(m+n)
    closes monomials under multiplication, so the associator of
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
    are one object per value, so their ids and the ratio determine which
    a fail. The ratio is keyed as the reduced integer pair of
    (p1·p2·q3)/(q1·q2·p3) for si = pi/qi, so equal ratios share one key.
    E1 and E2 are never zero (sigma is bijective, and x's terms and the
    spanning elements are nonzero); a zero E3 gives the ratio (±1, 0),
    and then a fails iff (a·n1)·n2 != 0. On a miss each a is
    decided on the parts alone: with a·n1 = c1·m1, m1·n2 = c2·m2 and
    a·n3 = c3·m3 from the product cache, a passes iff both sides vanish,
    or m2 is m3 and c1·c2·r = c3 for r = s1·s2/s3, compared by
    cross-multiplying integers. a's own scalar cancels from both sides.
    m1·n2 is formed only when c1 is nonzero, as a split product would be,
    so the product cache fills exactly as with split values. A verdict is
    the spanning-set index of the first failing a, or None.

    In the right slot the term exponent k never enters (the module's
    right-slot corollary), so each term is scanned at its normalised part
    and ``report`` rebuilds the witness from x itself. The left slot fails
    at some exponent m of u iff at the lowest (the module's left-slot
    corollary), so it scans that one. Its v, and a middle-slot witness's,
    sits at the window's lowest exponent. The middle and right slots stop
    at the first m with a failure and take the least (a, n, b) there, so
    every witness is the span search's first, u and v exponent-major.

    ``ops`` is the config's memo. Nothing in it depends on the queried
    element or slot; a verdict's key carries the bound, as a polynomial
    coefficient ring's spanning set depends on it, and the ids in the keys
    stay valid because ``ops`` keeps every part in ``_norm``. So scans that
    share one ``ops`` get the verdicts and witnesses of fresh scans.
    """
    x = query.element
    config = x.config
    side = query.side
    bound = query.degree_bound
    verdicts = ops.verdicts
    coeffs = config.coefficients.spanning_set(bound)
    exps = list(config.exponent_window(bound))
    x_terms = [(k, ops.split(t)) for k, t in sorted(x.terms.items())]
    split_coeffs = [ops.split(c) for c in coeffs]
    equal = _ScaledOps.equal
    mul = ops.mul
    twist = ops.twist
    part_mul = ops.part_mul

    def report(i, m, j, n):
        u, v = config.monomial(coeffs[i], m), config.monomial(coeffs[j], n)
        witness = first_associator(*_slot_triple(side, [x], [u], [v]))
        if witness is None:
            raise AssertionError("monomial scan disagreed with the generic product")
        return CheckOutcome(False, witness)

    def first_failure(e1, e2, e3):
        """The index of the first a with (a·e1)·e2 != a·e3, or None."""
        (s1, n1), (s2, n2), (s3, n3) = e1, e2, e3
        ratio = _ratio(s1[0] * s2[0] * s3[1], s1[1] * s2[1] * s3[0])
        key = (bound, id(n1), id(n2), id(n3), ratio)
        if key in verdicts:
            return verdicts[key]
        rn, rd = ratio
        failing = None
        for i, (_, na) in enumerate(split_coeffs):
            (c1n, c1d), m1 = part_mul(na, n1)
            if c1n:
                (c2n, c2d), m2 = part_mul(m1, n2)
            else:
                c2n = 0
            (c3n, c3d), m3 = part_mul(na, n3)
            if (c2n or c3n) and not (c2n and c3n and m2 is m3
                                     and c1n * c2n * rn * c3d == c3n * c1d * c2d * rd):
                failing = i
                break
        verdicts[key] = failing
        return failing

    # Distinct x-term exponents land on distinct result exponents, so the
    # accumulated associator vanishes iff every term's contribution does.
    # In the left and middle slots v is last, so by the shift lemma it is
    # checked at the lowest exponent and that covers its whole range; in
    # the left slot u's exponent is fixed too (the left-slot corollary).
    low = exps[0]
    if side == "left":
        for i, a in enumerate(split_coeffs):
            ta = [(twist(k, a), k, t) for k, t in x_terms]
            for j, b in enumerate(split_coeffs):
                for pre, k, t in ta:
                    lhs = mul(mul(t, pre), twist(k + low, b))
                    rhs = mul(t, twist(k, mul(a, twist(low, b))))
                    if not equal(lhs, rhs):
                        return report(i, low, j, low)
        return CheckOutcome(True)

    # With u = a·X^m, both identities read E1 = sigma^m(p), E2 =
    # sigma^(m+s)(q), E3 = sigma^m(p·sigma^s(q)) for a cell (p, s, q) free
    # of m, so p·sigma^s(q) is formed once per cell. (u x) v vs u (x v):
    # p = t, s = k, q = b for each term t·X^k of x, v = b at the lowest
    # exponent; (u v) x vs u (v x): p = b, s = n, q = t for v = b·X^n and
    # each term's part t. A failure is ranked by (a, n, b), v = b·X^n.
    if side == "middle":
        cells = [(j, low, t, k, b) for j, b in enumerate(split_coeffs) for k, t in x_terms]
    else:
        cells = [(j, n, b, n, (_ONE, part)) for _, (_, part) in x_terms
                 for j, b in enumerate(split_coeffs) for n in exps]
    cells = [(j, n, p, s, q, mul(p, twist(s, q))) for j, n, p, s, q in cells]
    for m in exps:
        failures = []
        for j, n, p, s, q, pq in cells:
            i = first_failure(twist(m, p), twist(m + s, q), twist(m, pq))
            if i is not None:
                failures.append((i, n, j))
        if failures:
            i, n, j = min(failures)
            return report(i, m, j, n)
    return CheckOutcome(True)


def nucleus_membership(query, memo=None):
    """Exhaust (.,.,.)-identities with the element in the given slot.

    A pass means the associator vanishes with the element inserted in
    the queried slot against every pair of basis monomials up to the
    degree bound, hence (by biadditivity) against the whole span. A
    delta-free config, laurent or ore, is scanned; with a delta the rule
    is a sum over pi_i^m, so the query is the triple search with its last
    slot cut to the first block. Either way a witness is the span search's
    first failing triple.

    ``memo`` is a dict owned by the caller, from each config to its
    ``_ScaledOps``. Queries that share it share their outcomes (a query
    asked again returns its recorded ``CheckOutcome``) and, on delta-free
    configs, coefficient products, twist powers and slot verdicts across
    degree bounds, and return exactly what fresh queries return. ``None``
    gives the query a fresh memo. Keep one memo per suite run, not
    longer: it holds every product it has seen. A right-slot query whose
    coefficients all lie in Q·1 passes by the module's rational lemma,
    with no scan.
    """
    x = query.element
    config = x.config
    ops = _ops({} if memo is None else memo, config)
    if query in ops.outcomes:
        return ops.outcomes[query]
    one = ops.split(config.coefficients.one)[1]  # Q·1 is one normalised part
    if query.side == "right" and all(ops.split(c)[1] is one for c in x.terms.values()):
        outcome = CheckOutcome(True)
    elif config.delta is None:
        outcome = _monomial_scan(query, ops)
    else:
        bound = query.degree_bound
        span = config.spanning_set(bound)
        block = span[:len(config.coefficients.spanning_set(bound))]
        last = span if query.side == "right" else block
        witness = first_associator(*_slot_triple(query.side, [x], span, last))
        outcome = CheckOutcome(witness is None, witness)
    ops.outcomes[query] = outcome
    return outcome


def associativity_certificate(config, degree_bound):
    """Exhaust all associator triples of basis monomials up to the bound.

    S is associative on the span iff each basis monomial u lies in its
    left nucleus there, so the certificate asks the left-slot query of
    each u in span order, sharing one memo, up to the first that fails,
    and returns that query's outcome; a pass needs no triple search. Its
    witness is the first failing triple in span order, as the query puts
    the last factor at the window's lowest exponent (the module's shift
    lemma).
    """
    if degree_bound < 0:
        raise ConstructionError("degree_bound must be non-negative")
    memo = {}
    for u in config.spanning_set(degree_bound):
        outcome = nucleus_membership(NucleusQuery(u, "left", degree_bound), memo)
        if not outcome:
            return outcome
    return CheckOutcome(True)


def variable_left_nuclear(config):
    """Whether X lies in N_l(S): sigma is an automorphism and delta, if any,
    a sigma-derivation, as (X, a, b) = (sigma(a)·sigma(b) - sigma(ab))·X
    + sigma(a)·delta(b) + delta(a)·b - delta(ab). Decided on the coefficient
    spanning set at bound 2, like ``classify_multiplicativity``."""
    sigma, delta = config.sigma, config.delta
    if "automorphism" not in classify_multiplicativity(sigma):
        return False
    span = config.coefficients.spanning_set(2)
    return delta is None or all(
        delta(a * b) == sigma(a) * delta(b) + delta(a) * b for a in span for b in span
    )


def associativity_prediction(config):
    """The classification side of the associativity criterion.

    Independently of any monomial exhaustion: the twisted ring is
    associative iff the coefficient ring is associative and X is
    left-nuclear (``variable_left_nuclear``). Returned for cross-checking
    against the certificate.
    """
    return config.coefficients.is_associative and variable_left_nuclear(config)


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


def nuclear_inverse_check(x, hypothesis, degree_bound, memo=None):
    """Check one clause of the nuclear-inverse lemma on basis monomials.

    hypothesis "lm": x in N_l∩N_m implies x⁻¹ in N_l; "full": x in N
    implies x⁻¹ in N_m; "mr": x in N_m∩N_r implies x⁻¹ in N_r. If the
    hypothesis fails on x the clause holds vacuously and the report says
    so; otherwise the concluded side is checked for x⁻¹. ``memo`` is
    passed to every query, as in ``nucleus_membership``, and x is inverted
    once per memo.
    """
    if hypothesis not in _HYPOTHESES:
        raise ConstructionError(f"unknown hypothesis: {hypothesis}")
    hyp_sides, conclusion_side = _HYPOTHESES[hypothesis]
    memo = {} if memo is None else memo
    inverses = _ops(memo, x.config).inverses
    if x not in inverses:
        try:
            inverses[x] = x.config.invert(x)
        except NotInvertibleError:
            inverses[x] = None
    x_inv = inverses[x]
    if x_inv is None:
        raise ReductionError("inverse not representable")
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
    terms = config._own(p)
    if config.shape != LAURENT:
        raise ConstructionError("central reduction needs the laurent shape")
    if not _power_is_identity(config.sigma, m):
        raise ReductionError("finite order hypothesis fails")
    modulus = m * m
    out = {}
    for e, c in terms.items():
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
    config._own(p)
    _require_commutative_division(config)
    ord_p = p.order
    if ord_p != 0:
        p = p.times_monomial(config.coefficients.one, -ord_p)
    twisted = config.sigma.power_apply(p.degree, d)
    return p.times_monomial(d, 0) - p.times_monomial(twisted, 0, left=True)


class SimplicityResult:
    def __init__(self, status, unit, steps, note):
        self.status, self.unit, self.note = status, unit, note  # status: "unit" | "inconclusive"
        self.steps = steps

    @property
    def reached_unit(self):
        return self.status == "unit"


def simplicity_probe(p):
    """Iterate shrink steps until the ideal generated by p exhibits a unit.

    The ring is p's config, and p must be one of its polynomials. Scans
    coefficient basis elements in fixed order and takes the first one
    whose shrink is nonzero (its degree is then strictly smaller).
    Reaching a nonzero constant certifies that the two-sided ideal
    generated by p is the whole ring. Returns inconclusive when every
    shrink vanishes (finite-order twists). Each step strictly lowers the
    order-normalized degree, so the probe ends within deg p - ord p steps.
    """
    config = p.config
    config._own(p)
    _require_commutative_division(config)
    if not p:
        raise ReductionError("simplicity probe needs a nonzero element")
    current = p
    steps = []
    while True:
        ord_c = current.order
        if ord_c != 0:
            current = current.times_monomial(config.coefficients.one, -ord_c)
        if current.degree == 0:
            return SimplicityResult("unit", current.terms[0], steps, "reduced to a unit")
        for d in config.coefficients.basis_elements():
            candidate = shrink(current, d)
            if candidate:
                break
        else:
            return SimplicityResult("inconclusive", None, steps, "all shrinks vanish")
        steps.append((d, candidate))
        current = candidate


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
    """The untwisted ``dot`` item (g, 0, u·V^k) of a right step, (u·V^k, 0, g) of a left step."""
    mono = g.config.monomial(u, k)
    return (mono, 0, g) if side == "left" else (g, 0, mono)


def reduce(f, gens, max_steps=None):
    """Reduce f against a generator set on its side, recording replayable steps.

    One leading-term loop for both sides, polynomials and series: n is the
    element's ``leading_exponent``, the degree of a polynomial and the order
    of a series, m_g is g's and k = n - m_g. A right step subtracts
    g·(u·V^k), where u = sigma^(-m_g)(w) and w solves (lead g)·w = lead f;
    a left step subtracts (t·V^k)·g, where t solves
    t·sigma^k(lead g) = lead f. Either cancels the leading coefficient.
    The first generator with m_g <= n whose solve succeeds is used, and
    each distinct divisor (lead g, or sigma^k(lead g) on the left) is
    factored once per call, on its first use. A series step raises the
    order, so the loop ends when the remainder's window is exhausted.
    When no generator has m_g <= n, a polynomial remainder is a true
    remainder, but a series is flagged ``irreducible``; so is any
    remainder whose leading coefficient no single eligible generator
    matches. At most ``max_steps`` steps are taken.
    """
    config = f.config
    if gens.config != config or type(f) is not type(gens.generators[0]):
        raise RingMismatchError("incompatible rings")
    left = gens.side == "left"
    is_series = isinstance(f, TruncatedSeries)
    sigma = config.sigma
    divisors = Divisors(config.coefficients, "right" if left else "left")
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
            k = n - g.leading_exponent
            lead = sigma.power_apply(k, g.leading_coefficient) if left else g.leading_coefficient
            w = divisors[lead](rem.leading_coefficient)
            if w is not None:
                break
        else:
            irreducible = True
            break
        u = w if left else sigma.power_apply(-g.leading_exponent, w)
        steps.append(CofactorStep(idx, gens.side, u, k))
        rem = rem - g.times_monomial(u, k, left=left)
    return ReductionResult(steps, rem, irreducible)


def monic_left_reduce(f, p):
    """Left-divide the polynomial f by p over division-ring coefficients.

    ``reduce`` by the left set {p}: sigma is bijective, so
    sigma^k(lead p) != 0, and over a division ring every step matches.
    The remainder ends with degree < deg p and the recorded steps replay
    to f exactly. The proof's preliminary monic normalization is folded
    into each step's solve.
    """
    config = f.config
    config._own(f)
    config._own(p)
    if not p:
        raise ReductionError("cannot divide by zero")
    if not config.coefficients.is_division:
        raise ReductionError("left division requires division ring")
    return reduce(f, GeneratorSet(config, [p], "left"))


def right_reduce(f, gens, max_steps=None):
    """``reduce`` by a right generator set; a left set raises ``ConstructionError``."""
    if gens.side != "right":
        raise ConstructionError("right_reduce needs a right generator set")
    return reduce(f, gens, max_steps)


def replay_reduction(result, gens):
    """Rebuild the reduced input: the remainder plus every recorded cofactor product.

    Each step's product is g·(u·V^k) on the right and (u·V^k)·g on the
    left. A series adds each step's ``times_monomial`` shift with its own
    precision, one at a time, so the sum keeps the least precision. A
    polynomial's cofactor products are summed by one ``dot`` of its
    config, so each output coefficient is one sum.
    """
    generators = gens.generators if isinstance(gens, GeneratorSet) else list(gens)
    total = result.remainder
    steps = [(generators[step.generator], step.side, step.coeff, step.exponent)
             for step in result.steps]
    if isinstance(total, TruncatedSeries):
        return sum((g.times_monomial(u, k, left=side == "left") for g, side, u, k in steps),
                   total)
    return total + total.config.dot([_cofactor_factors(*step) for step in steps])
