"""Twisted polynomial and Laurent polynomial rings.

A ``RingConfig`` fixes a coefficient ring, a twist sigma (additive
bijection respecting 1), an optional delta (additive, delta(1) = 0,
only for the ore shape), a variable name, and the exponent shape:

* ``ore``     -- exponents in N, monomial rule
                 (r·V^m)(s·V^n) = sum_i (r·pi_i^m(s))·V^(i+n);
* ``laurent`` -- exponents in Z, monomial rule
                 (r·V^m)(s·V^n) = (r·sigma^m(s))·V^(m+n).

Polynomials are immutable sparse exponent-to-coefficient maps in
canonical form (no zero coefficients stored). A config is itself a
coefficient ring, which is how iterated constructions such as the
quantum torus arise; configs are shareable read-only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import (
    ConstructionError,
    NotInvertibleError,
    RingMismatchError,
    ZeroElementError,
)
from .maps import Keyed, PiFamily, PolyTwist, make_twist, pi_apply, pi_rows, validate_twist_axioms
from .rings import AlgebraElement, first_associator

ORE = "ore"
LAURENT = "laurent"


class RingConfig:
    """Configuration (and ring object) of a twisted polynomial ring."""

    def __init__(self, coefficients, sigma, delta=None, variable="X", shape=ORE):
        if shape not in (ORE, LAURENT):
            raise ConstructionError(f"unknown shape: {shape}")
        for role, tm in (("sigma", sigma), ("delta", delta)):
            if tm is not None and tm.ring is not coefficients and tm.ring != coefficients:
                raise ConstructionError(
                    f"{role} acts on {tm.ring.describe()}, "
                    f"not on the coefficient ring {coefficients.describe()}"
                )
        # the one sigma/delta axiom check; `classify` prints these reports
        self.sigma_report = validate_twist_axioms(sigma, "sigma").require()
        self.delta_report = None
        if delta is not None:
            if shape == LAURENT:
                raise ConstructionError("laurent shape admits no delta")
            self.delta_report = validate_twist_axioms(delta, "delta").require()
        self.coefficients = coefficients
        self.sigma = sigma
        self.delta = delta
        self.variable = variable
        self.shape = shape
        self._assoc = None
        self._comm = None
        self._span_cache = {}

    # -- element constructors ------------------------------------------

    @property
    def zero(self):
        return SkewPoly(self, {})

    @property
    def one(self):
        return SkewPoly(self, {0: self.coefficients.one})

    def monomial(self, coeff, exp):
        return self.from_terms({exp: coeff})

    def variable_power(self, exp):
        return self.monomial(self.coefficients.one, exp)

    @property
    def gen(self):
        return self.variable_power(1)

    def scalar(self, value):
        return self.monomial(self.coefficients.scalar(value), 0)

    def constant(self, coeff):
        return self.monomial(coeff, 0)

    def from_terms(self, terms):
        clean = {}
        for exp, coeff in terms.items():
            if not coeff:
                continue
            if self.shape == ORE and exp < 0:
                raise ConstructionError("negative exponent")
            clean[exp] = coeff
        return SkewPoly(self, clean)

    # -- ring protocol ---------------------------------------------------

    def exponent_window(self, bound):
        """The exponents e with |e| <= bound (and e >= 0 in the ore shape)."""
        return range(-bound if self.shape == LAURENT else 0, bound + 1)

    def spanning_set(self, bound):
        """Basis monomials c·V^e with coefficient spanning c and e in the window."""
        cached = self._span_cache.get(bound)
        if cached is None:
            cached = [
                self.monomial(c, e)
                for e in self.exponent_window(bound)
                for c in self.coefficients.spanning_set(bound)
            ]
            self._span_cache[bound] = cached
        return list(cached)

    def random_element(self, rng, max_degree=4):
        exps = rng.sample(self.exponent_window(max_degree), k=rng.randint(1, 3))
        return SkewPoly(self, random_terms(self.coefficients, rng, exps))

    @property
    def is_finite_dimensional(self):
        return False

    @property
    def is_division(self):
        return False

    @property
    def is_commutative(self):
        if self._comm is None:
            span = self.spanning_set(2)
            self._comm = all(
                a * b == b * a for a in span for b in span
            )
        return self._comm

    @property
    def is_associative(self):
        if self._assoc is None:
            self._assoc = first_associator(self.spanning_set(2)) is None
        return self._assoc

    def invert(self, el):
        """Two-sided inverse of an invertible monomial; raises otherwise.

        A monomial c·V^e has the right-inverse candidate
        sigma^(-e)(c⁻¹)·V^(-e) and the left-inverse candidate
        (sigma^(-e)(c))⁻¹·V^(-e); when sigma is not multiplicative these
        can differ, in which case no two-sided inverse exists. Both
        candidates are tried and verified on both sides.
        """
        terms = self._own(el)
        if len(terms) != 1:
            raise NotInvertibleError("not invertible")
        (exp, coeff), = terms.items()
        if self.shape == ORE and exp != 0:
            raise NotInvertibleError("not invertible")
        candidates = []
        try:
            candidates.append(
                self.sigma.power_apply(-exp, self.coefficients.invert(coeff))
            )
        except NotInvertibleError:
            pass
        try:
            candidates.append(
                self.coefficients.invert(self.sigma.power_apply(-exp, coeff))
            )
        except NotInvertibleError:
            pass
        for u in candidates:
            inverse = self.monomial(u, -exp)
            if poly_mul(el, inverse) == self.one and poly_mul(inverse, el) == self.one:
                return inverse
        raise NotInvertibleError("not invertible")

    def _own(self, el):
        """The terms of el, a polynomial of this config; raises RingMismatchError otherwise."""
        if type(el) is SkewPoly and (el.config is self or el.config == self):
            return el.terms
        raise RingMismatchError("incompatible rings")

    def dot(self, products):
        """The sum of a·b over the (a, b) pairs of ``products``.

        Every pair's term products go into one ``product_terms`` grouping,
        so the coefficient ring's ``dot`` runs once per output exponent and
        no partial sum is built.
        """
        pairs = [(self._own(a), self._own(b)) for a, b in products]
        return SkewPoly(self, product_terms(self, pairs))

    def solver(self, c, side):
        """The function r -> u with c·u = r (side "left") or u·c = r ("right"), or None.

        A commutative config divides exactly (see ``_divide``) through one
        solver of c's leading coefficient; any other config inverts c once,
        which succeeds for a unit monomial, and keeps c⁻¹·r (r·c⁻¹ on the
        right) only if it solves the equation.
        """
        if self.is_commutative:
            if not c:
                return lambda r: None
            solve = self.coefficients.solver(c.leading_coefficient, "left")
            return lambda r: self._divide(c, solve, r)
        try:
            inverse = self.invert(c)
        except NotInvertibleError:
            return lambda r: None

        def solve(r):
            if side == "left":
                u = poly_mul(inverse, r)
                return u if poly_mul(c, u) == r else None
            u = poly_mul(r, inverse)
            return u if poly_mul(u, c) == r else None

        return solve

    def solve_left_mul(self, c, r):
        return self.solver(c, "left")(r)

    def solve_right_mul(self, c, r):
        return self.solver(c, "right")(r)

    def _divide(self, c, solve, r):
        """u with c·u = r by exact long division in a commutative config, or None.

        Each step cancels the top term of the remainder by ``solve``, the
        coefficient ring's solver of c's leading coefficient. Quotient
        exponents run down to 0 in the ore shape and to ord r - ord c in
        the laurent shape, where a quotient ends when the coefficients
        have no zero divisors.
        """
        low = 0 if self.shape == ORE or not r else r.order - c.order
        quotient = {}
        rem = r
        while rem:
            e = rem.degree - c.degree
            if e < low:
                return None
            lead = solve(rem.leading_coefficient)
            if not lead:
                return None
            quotient[e] = lead
            rem = rem - poly_mul(c, self.monomial(lead, e))
        return self.from_terms(quotient)

    def describe(self):
        inner = self.coefficients.describe()
        var = self.variable + ("^±" if self.shape == LAURENT else "")
        twists = self.sigma.describe()
        if self.delta is not None:
            twists += f", {self.delta.describe()}"
        return f"{inner}[{var}; {twists}]"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingConfig):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.variable == other.variable
            and self.coefficients == other.coefficients
            and self.sigma == other.sigma
            and self.delta == other.delta
        )

    def __hash__(self):
        return hash((self.shape, self.variable))

    def __repr__(self):
        return self.describe()


class SkewPoly:
    """Sparse exponent-to-coefficient map over a ``RingConfig``.

    A truncated series (``series.TruncatedSeries``) is a subclass with a
    precision: it rebuilds its results through ``_like`` and multiplies
    through ``_product``, and the two kinds never mix in one operation.
    """

    __slots__ = ("config", "terms", "_hash")
    _zero_message = "zero polynomial has no degree"

    def __init__(self, config, terms):
        self.config = config
        self.terms = terms
        self._hash = None

    @property
    def ring(self):
        return self.config

    def _like(self, terms, other=None):
        """An element of this kind holding terms: a result of self and other, or a constant."""
        return SkewPoly(self.config, terms)

    # -- structure --------------------------------------------------------

    def _nonzero_or_raise(self):
        if not self.terms:
            raise ZeroElementError(self._zero_message)

    @property
    def degree(self):
        self._nonzero_or_raise()
        return max(self.terms)

    @property
    def order(self):
        self._nonzero_or_raise()
        return min(self.terms)

    @property
    def leading_exponent(self):
        """The exponent a reduction cancels first: the degree of a polynomial."""
        return self.degree

    @property
    def leading_coefficient(self):
        return self.terms[self.leading_exponent]

    def coefficient(self, exp):
        if exp in self.terms:
            return self.terms[exp]
        return self.config.coefficients.zero

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        """other as an element of this kind and config, a scalar or coefficient as a constant."""
        if isinstance(other, SkewPoly):
            if type(other) is not type(self):
                return None
            if other.config is self.config or other.config == self.config:
                return other
            raise RingMismatchError("incompatible rings")
        if isinstance(other, (int, Fraction)):
            other = self.config.coefficients.scalar(other)
        elif not (isinstance(other, AlgebraElement) and other.ring == self.config.coefficients):
            return None
        return self._like({0: other} if other else {})

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            add_term(terms, e, c)
        return self._like(terms, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()}, self)

    def _product(self, other):
        return poly_mul(self, other)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other._product(self)

    def __pow__(self, n):
        if n < 0:
            raise NotInvertibleError("use config.invert for negative powers")
        out = self if n else self._check(1)
        for _ in range(n - 1):
            out = out * self
        return out

    def scale(self, q):
        q = Fraction(q)
        return self._like({e: c.scale(q) for e, c in self.terms.items()} if q else {}, self)

    def inverse(self):
        return self.config.invert(self)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.config == other.config and self.terms == other.terms
        # a bool is not a rational, so it compares unequal
        if type(other) is int or isinstance(other, Fraction):
            return self == self._check(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        from .parsing import format_poly
        return format_poly(self)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def add_term(terms, exp, value):
    """Add value to the coefficient at exp of a sparse map, dropping zeros."""
    acc = terms.get(exp)
    acc = value if acc is None else acc + value
    if acc:
        terms[exp] = acc
    elif exp in terms:
        del terms[exp]


def random_terms(ring, rng, exps):
    """One random coefficient of ``ring`` per exponent, in order, zeros dropped."""
    terms = {}
    for e in exps:
        c = ring.random_element(rng)
        if c:
            terms[e] = c
    return terms


def product_terms(config, pairs, top=None):
    """The sparse map of the sum of left·right over the (left, right) term maps in pairs.

    The one product-sum kernel: every coefficient product is grouped by
    its output exponent, and each exponent's coefficient is one ``dot``
    of the coefficient ring, zeros dropped. A series passes its precision
    as ``top``, and products above it are skipped. Without a delta the
    monomial rule is (r·V^m)(s·V^n) = (r·sigma^m(s))·V^(m+n). With a delta
    it is sum_i (r·pi_i^m(s))·V^(i+n), and each right-hand coefficient s
    takes one ``pi_rows`` sweep up to the left degree, read at the rows m
    where the left side has a term; no row is rebuilt, and no row cache
    outlives the call.
    """
    groups = {}
    if config.delta is None:
        sigma = config.sigma
        for left, right in pairs:
            for m, r in left.items():
                for n, s in right.items():
                    if top is None or m + n <= top:
                        groups.setdefault(m + n, []).append((r, sigma.power_apply(m, s)))
    else:
        fam = PiFamily(config.sigma, config.delta)
        for left, right in pairs:
            for n, s in right.items():
                for m, row in enumerate(pi_rows(fam, max(left, default=0), s)):
                    r = left.get(m)
                    if r is not None:
                        for i, t in enumerate(row):
                            if t:
                                groups.setdefault(i + n, []).append((r, t))
    ring = config.coefficients
    out = {}
    for e, products in groups.items():
        value = ring.dot(products)
        if value:
            out[e] = value
    return out


def poly_mul(p, q):
    """Biadditive extension of the twisted monomial rules: one ``product_terms`` call.

    With a delta, each term of q takes one pi sweep up to deg p, read at
    every exponent of p, so no pi row of the product is built twice.
    """
    config = p.config
    if type(p) is not SkewPoly or type(q) is not SkewPoly or config != q.config:
        raise RingMismatchError("incompatible rings")
    return SkewPoly(config, product_terms(config, [(p.terms, q.terms)]))


# ---------------------------------------------------------------------------
# right-form conversion (coefficients on the right of the variable)
# ---------------------------------------------------------------------------


def to_right_form(p):
    """Write p = sum V^e · c_e; returns the ascending list of (e, c_e).

    Laurent shape: c_e = sigma^(-e)(r_e) directly. Ore shape: descending
    induction, subtracting V^m · sigma^(-m)(leading) which strictly
    lowers the degree (the delta spill-over lands below m).
    """
    config = p.config
    if config.shape == LAURENT:
        return [
            (e, config.sigma.power_apply(-e, c)) for e, c in p.sorted_terms()
        ]
    out = []
    rem = p
    while rem:
        m = rem.degree
        c = config.sigma.power_apply(-m, rem.leading_coefficient)
        out.append((m, c))
        rem = rem - poly_mul(config.variable_power(m), config.constant(c))
    out.reverse()
    return out


def from_right_form(config, pairs):
    """Rebuild sum V^e · c_e as a left-form polynomial, one ``dot`` of the config."""
    return config.dot([(config.variable_power(e), config.constant(c)) for e, c in pairs])


# ---------------------------------------------------------------------------
# D-structures (the twisted monoid layer)
# ---------------------------------------------------------------------------


class DStructure(Keyed):
    """A family of maps pi_b^a over a monoid, candidate Ore-monoid data.

    ``pi(a, b, s)`` is the value pi_b^a(s), and ``support(a)`` holds the
    exponents b where pi_b^a may be nonzero.
    """

    def __init__(self, monoid, name, pi, support):
        if monoid not in ("naturals", "integers"):
            raise ConstructionError(f"unsupported monoid: {monoid}")
        self.monoid, self.name, self.pi, self.support = monoid, name, pi, support

    def _key(self):
        return (self.monoid, self.name, self.pi, self.support)

    def in_monoid(self, a):
        return a >= 0 if self.monoid == "naturals" else True


def laurent_d_structure(sigma):
    """pi_b^a = sigma^a when a = b, else 0, over the integers."""
    return DStructure(
        "integers", "laurent",
        lambda a, b, s: sigma.power_apply(a, s) if a == b else s.ring.zero,
        lambda a: (a,),
    )


def ore_d_structure(sigma, delta):
    """The word-sum family of the Ore product, over the naturals."""
    fam = PiFamily(sigma, delta)
    return DStructure(
        "naturals", "ore", lambda a, b, s: pi_apply(fam, b, a, s), lambda a: range(a + 1)
    )


def corrupted_d_structure(base):
    """base with pi_e^e forced to zero; must fail axiom D1."""
    return DStructure(
        base.monoid, f"{base.name}-corrupted",
        lambda a, b, s: s.ring.zero if a == b == 0 else base.pi(a, b, s),
        base.support,
    )


class DStructureReport:
    def __init__(self, name, entries=None):
        self.name = name
        self.entries = [] if entries is None else entries

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.entries)


def validate_d_structure(d, exponents, elements):
    """Check axioms D0-D4 on the sampled exponents and ring elements.

    ``exponents`` bounds the monoid window: pairs and triples are drawn
    from it, and D0's finite-support check probes a margin beyond the
    declared support inside the window. Each axiom is a pass detail and
    a lazy stream of failing samples; an axiom passes when its stream is
    empty, and a failing one reports its first failing sample.
    """
    exps = [a for a in exponents if d.in_monoid(a)]
    one = elements[0].ring.one
    zero = elements[0].ring.zero
    pi = d.pi
    window = range(min(exps) - 2, max(exps) + 3)

    def d4_failures():
        for a in exps:
            for b in exps:
                sa, sb = d.support(a), d.support(b)
                for c in sorted({x + y for x in sa for y in sb}):
                    for r in elements:
                        total = sum((pi(a, x, pi(b, c - x, r)) for x in sa if c - x in sb), zero)
                        if pi(a + b, c, r) != total:
                            yield f"D4 fails at a={a}, b={b}, c={c}"

    axioms = (
        ("D0", "finite support on sampled window", (
            f"pi_{b}^{a} nonzero outside declared support"
            for a in exps for b in window
            if d.in_monoid(b) and b not in d.support(a)
            for r in elements if pi(a, b, r)
        )),
        ("D1", "pi_e^e = id and pi_a^e = 0", chain(
            ("pi_0^0 is not the identity" for r in elements if pi(0, 0, r) != r),
            (f"pi_{a}^0 is nonzero" for a in exps if a != 0 for r in elements if pi(0, a, r)),
        )),
        ("D2", "pi_b^a(1) is the Kronecker delta", (
            f"pi_{b}^{a}(1) is not the Kronecker delta"
            for a in exps for b in exps if pi(a, b, one) != (one if a == b else zero)
        )),
        ("D3", "additivity on sampled pairs", (
            f"pi_{b}^{a} is not additive"
            for a in exps for b in d.support(a) for r in elements for s in elements
            if pi(a, b, r + s) != pi(a, b, r) + pi(a, b, s)
        )),
        ("D4", "composition identity on sampled triples", d4_failures()),
    )
    report = DStructureReport(name=d.name)
    for axiom, detail, failures in axioms:
        failure = next(failures, None)
        report.entries.append((axiom, failure is None, failure or detail))
    return report


# ---------------------------------------------------------------------------
# iterated constructions
# ---------------------------------------------------------------------------


def iterated_extend(base_config, variable, twist_spec):
    """Adjoin a fresh Laurent variable over an already twisted ring.

    ``twist_spec`` holds a ``"kind"`` and the ``make_twist`` parameters of
    the twist on ``base_config``: {"kind": "y_scale", "q": q} or {"kind":
    "coefficientwise", "base": map-on-coefficients}. The lifted twist
    acts coefficient-wise and fixes (or uniformly scales) the inner
    variable; it exists exactly when the coefficient-level twists
    commute, which is checked on basis elements.
    """
    spec = dict(twist_spec)
    lifted = make_twist(base_config, spec.pop("kind"), **spec)
    if isinstance(lifted, PolyTwist) and lifted.coeff_map is not None:
        inner_sigma = base_config.sigma
        coeff_map = lifted.coeff_map
        for b in base_config.coefficients.spanning_set(2):
            if inner_sigma(coeff_map(b)) != coeff_map(inner_sigma(b)):
                raise ConstructionError(
                    "iterated construction requires commuting automorphisms"
                )
    return RingConfig(
        coefficients=base_config,
        sigma=lifted,
        delta=None,
        variable=variable,
        shape=LAURENT,
    )


def quantum_torus(coefficients, q):
    """R[Y±][X±; Y -> qY], in the variables Y and X: the ring with X·Y = q·Y·X."""
    inner = RingConfig(
        coefficients=coefficients,
        sigma=make_twist(coefficients, "identity"),
        delta=None,
        variable="Y",
        shape=LAURENT,
    )
    return iterated_extend(inner, "X", {"kind": "y_scale", "q": q})
