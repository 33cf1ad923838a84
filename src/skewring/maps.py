"""Additive twist maps on coefficient rings.

A twist map is a Q-linear endomorphism of a ring. Skew multiplication
needs two of them: a bijection sigma with sigma(1) = 1 and a map delta
with delta(1) = 0; ``poly.RingConfig`` checks these axioms, whatever
kind of map plays each role. A map on a finite-dimensional ring is
stored as the canonical integer pairs of its columns on the flattened
coordinate space, whatever its kind; maps on polynomial coefficient
rings are stored structurally (coefficient-wise action plus a variable
scaling, or the formal derivative). Both roles report their axioms in
one shape, an ``AxiomReport``, which D-structures share.

A twist map is a value. ``TwistMap.power_apply`` is the one power rule:
it checks the element's ring (``check_ring``, which a ring's ``dot``
runs too), then loops for m > 0 and takes ``inverse()`` or raises
``NotInvertibleError`` for m < 0. A matrix map replaces the loop by its
cached power, and ``PolyTwist`` by its closed formula. Equality and
hashing come from ``_key()``, so equal maps of different kinds (the
identity and the matrix [[1]]) are equal. ``describe()`` is the ``kind`` with an
optional ``label``: the "2" of ``q_twist(2)``. A map's ``order`` is
decided exactly and cached: ``(m, None)`` for the least m >= 1 with
map^m = id, or ``(None, reason)``; a matrix map reads it off its minimal
polynomial (``_cyclotomic_order``).

Each power of a matrix map runs as straight-line code that the product
kernels' source generator writes from its integer columns, applied to
the argument's canonical integer pair (see :mod:`skewring.linalg`); a
power that is the identity, such as an even power of a conjugation, gets
no kernel and applies nothing. Powers of a map and their kernels are
cached on the map object when first asked for, which keeps the
degree-bounded exhaustive checks in :mod:`skewring.structure` cheap,
and a coefficient ring's ``dot`` applies them itself (``power_columns``).

The Ore product X^m·s = sum_i pi_i^m(s)·X^i needs the operator sums
pi_i^m, each the sum of all words in i sigmas and m-i deltas. One
dynamic-programming sweep, :func:`pi_rows`, yields every row
pi_0^k(s), ..., pi_k^k(s) for k = 0..m, so a product reads all the
rows one right-hand coefficient needs from a single sweep. A
:class:`PiFamily` caches each requested row, keyed by the value of
(m, s), for as long as the family lives, so :func:`pi_apply` is a row
lookup. A miss resumes the sweep of s from the furthest row it has
reached, so asking for m = 0, 1, 2, ... in turn costs one sweep. The
word enumeration (:func:`pi_word_sum`) applies the twists itself and
stays as the oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg, rings
from .errors import ConstructionError, NotInvertibleError, RingMismatchError, UnsupportedRingError
from .rings import MatrixRing, associator, commutator


class Keyed:
    """Value equality and hashing: equal when of one class with equal ``_key()``."""

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class TwistMap(Keyed):
    """A Q-linear map on ``ring``, which implements ``_step`` (itself) or ``_power``."""

    kind = "twist"
    label = None

    def __init__(self, ring):
        self.ring = ring

    def __call__(self, el):
        ring = getattr(el, "ring", None)
        if ring is not self.ring:  # the common case skips a call
            self.check_ring(ring)
        return self._step(el)

    def inverse(self):
        """The inverse map, or None when the map is not bijective."""
        return None

    @property
    def order(self):
        """``(m, None)`` for the least m >= 1 with map^m = id, else ``(None, reason)``."""
        return None, f"{self.kind} has no inverse, so no power of it is the identity"

    def check_ring(self, ring):
        """This map, if it acts on ``ring``; RingMismatchError otherwise. Every
        application of a twist, ``power_apply``'s and a ring's ``dot``'s, checks."""
        if ring is self.ring or ring == self.ring:
            return self
        raise RingMismatchError(f"incompatible rings: {self.describe()} on {self.ring.describe()}")

    def power_apply(self, m, el):
        """Apply the m-fold composition (the inverse's for m < 0) to an element of ``ring``."""
        ring = getattr(el, "ring", None)
        if ring is not self.ring:
            self.check_ring(ring)
        return self._power(m, el)

    def _step(self, el):
        return self._power(1, el)

    def _power(self, m, el):
        if m < 0:
            inv = self.inverse()
            if inv is None:
                raise NotInvertibleError("inverse unavailable")
            return inv._power(-m, el)
        for _ in range(m):
            el = self._step(el)
        return el

    def _key(self):
        return (self.ring,)

    def describe(self):
        return f"{self.kind}({self.label})" if self.label else self.kind

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()} on {self.ring.describe()}>"


class LinearTwist(TwistMap):
    """Exact linear map on a finite-dimensional ring.

    ``pairs[j]`` is the canonical pair (see :mod:`skewring.linalg`) of
    the flattened image of the j-th flat basis vector, so application
    is a sparse linear combination of columns, and equal maps have
    equal pairs.
    """

    def __init__(self, ring, pairs, kind, label=None):
        super().__init__(ring)
        self.pairs = tuple(pairs)
        self.kind = kind
        self.label = label
        # m -> the pairs of the images of the m-th power, and its generated kernel
        self._pow, self._kernels = {0: _diagonal([1] * len(self.pairs)), 1: self.pairs}, {}
        self._inverse = None
        self._inverse_known = False
        self._identity = self.pairs == self._pow[0]

    @classmethod
    def from_function(cls, ring, fn, kind):
        return cls(ring, [fn(b).pair for b in ring.basis_elements()], kind)

    def __getstate__(self):  # a copy generates its own kernels
        return {**self.__dict__, "_kernels": {}}

    def _images_power(self, m):
        if m not in self._pow:
            prev, kernel = self._images_power(m - 1), self.power_columns(1)
            self._pow[m] = tuple(linalg.canonical(*kernel(col)) for col in prev)
        return self._pow[m]

    def power_columns(self, m):
        """The m-th power's kernel, code generated from its integer columns that maps a
        pair to the unreduced pair of its image, or None for an identity power; for
        m < 0 the inverse's, which raise NotInvertibleError without one."""
        kernels = self._kernels
        if m not in kernels:
            if m < 0:
                inv = self.inverse()
                if inv is None:
                    raise NotInvertibleError("inverse unavailable")
                kernels[m] = inv.power_columns(-m)
            elif self._identity or (images := self._images_power(m)) == self._pow[0]:
                kernels[m] = None
            else:
                kernels[m] = rings._linear_kernel(linalg.compile_columns(images))
        return kernels[m]

    def _power(self, m, el):
        kernel = self.power_columns(m)
        return el if kernel is None else self.ring.from_pair(linalg.canonical(*kernel(el.pair)))

    @cached_property
    def order(self):
        """``_cyclotomic_order`` of the minimal polynomial: the first linear
        dependency of id, sigma, sigma^2, ..., each with its columns stacked."""
        def flat(pairs):  # the pair, not reduced, of the stacked columns
            den = lcm(*[d for _, d in pairs])
            return [v * (den // d) for nums, d in pairs for v in nums], den
        powers = [flat(self._pow[0]), flat(self.pairs)]
        while (x := linalg.solve_columns(powers[:-1], powers[-1])) is None:
            powers.append(flat(self._images_power(len(powers))))
        return _cyclotomic_order([-Fraction(v, x[1]) for v in x[0]] + [1])

    def inverse(self):
        if not self._inverse_known:
            self._inverse_known = True
            pairs = linalg.invert_columns(self.pairs)
            if pairs is not None:
                self._inverse = LinearTwist(self.ring, pairs, f"{self.kind}^-1", self.label)
                self._inverse._inverse = self
                self._inverse._inverse_known = True
        return self._inverse

    def _key(self):
        return (self.ring, self.pairs)


class PolyTwist(TwistMap):
    """Structural map on a polynomial-shaped ring.

    Sends r·V^m to scale^m · base(r) · V^m: the coefficient map applied
    coefficient-wise, with the variable scaled by a fixed nonzero
    rational. Covers the identity, coefficient-wise lifts, and V -> qV.
    """

    def __init__(self, ring, coeff_map, var_scale, kind, label=None):
        super().__init__(ring)
        self.coeff_map = coeff_map
        self.var_scale = Fraction(var_scale)
        if self.var_scale == 0:
            raise ConstructionError("not bijective")
        self.kind = kind
        self.label = label

    def _power(self, m, el):
        if m == 0 or (self.coeff_map is None and self.var_scale == 1):
            return el
        terms = {}
        for exp, coeff in el.terms.items():
            if self.coeff_map is not None:
                coeff = self.coeff_map.power_apply(m, coeff)
            factor = self.var_scale ** (m * exp)
            terms[exp] = coeff if factor == 1 else coeff.scale(factor)
        return self.ring.from_terms(terms)

    def inverse(self):
        inv_base = None
        if self.coeff_map is not None:
            inv_base = self.coeff_map.inverse()
            if inv_base is None:
                return None
        return PolyTwist(self.ring, inv_base, 1 / self.var_scale, f"{self.kind}^-1")

    @cached_property
    def order(self):
        """The lcm of the variable scaling's order and the coefficient map's."""
        (m, reason), (n, inner) = (_scalar_order(self.var_scale, "variable"),
                                   (1, None) if self.coeff_map is None else self.coeff_map.order)
        return (lcm(m, n), None) if m and n else (None, reason or inner)

    def _key(self):
        return (self.ring, self.coeff_map, self.var_scale)


class DerivativeMap(TwistMap):
    """Formal derivative with respect to the polynomial variable."""

    kind = "derivative"

    def _step(self, el):
        return self.ring.from_terms(
            {exp - 1: coeff.scale(exp) for exp, coeff in el.terms.items() if exp}
        )


class YCoeffScale(TwistMap):
    """Scales only the degree-one coefficient; additive bijection, not multiplicative."""

    kind = "y_coeff_scale"

    def __init__(self, ring, q):
        super().__init__(ring)
        self.q = Fraction(q)
        if self.q == 0:
            raise ConstructionError("not bijective")
        self.label = str(self.q)

    def _step(self, el):
        terms = dict(el.terms)
        if 1 in terms:
            terms[1] = terms[1].scale(self.q)
        return self.ring.from_terms(terms)

    def inverse(self):
        return YCoeffScale(self.ring, 1 / self.q)

    @property
    def order(self):
        return _scalar_order(self.q, "degree-one coefficient")

    def _key(self):
        return (self.ring, self.q)


class ZeroMap(TwistMap):
    """The zero map; the trivial delta."""

    kind = "zero"

    def _step(self, el):
        return self.ring.zero


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

TWIST_KINDS = (
    "identity", "q_twist", "conjugation", "transpose", "diag_swap",
    "conj_transpose", "inner", "matrix", "coefficientwise", "y_scale",
    "y_coeff_scale", "derivative", "zero",
)
FINITE_TWIST_KINDS = ("q_twist", "conjugation", "inner", "matrix")
MATRIX_TWIST_KINDS = ("transpose", "diag_swap", "conj_transpose")
POLY_TWIST_KINDS = ("coefficientwise", "y_scale", "y_coeff_scale", "derivative")


def check_twist_kind(ring, kind):
    """Raise ``ConstructionError`` unless ``kind`` is a twist kind that fits ``ring``."""
    if kind not in TWIST_KINDS:
        raise ConstructionError(f"unknown twist kind: {kind}")
    if kind in FINITE_TWIST_KINDS and not ring.is_finite_dimensional:
        raise ConstructionError(
            f"twist {kind!r} needs a finite-dimensional ring, not {ring.describe()}"
        )
    if kind in MATRIX_TWIST_KINDS and not isinstance(ring, MatrixRing):
        raise ConstructionError(f"twist {kind!r} needs a matrix ring, not {ring.describe()}")
    if kind in POLY_TWIST_KINDS and ring.is_finite_dimensional:
        raise ConstructionError(f"twist {kind!r} needs a polynomial ring, not {ring.describe()}")


def _diagonal(scales):
    """The pairs of the diagonal map scaling flat basis vector j by ``scales[j]``,
    an int or a Fraction."""
    d = len(scales)
    return tuple((tuple(s.numerator if i == j else 0 for i in range(d)), s.denominator)
                 for j, s in enumerate(scales))


def make_twist(ring, kind, **params):
    """Build one of the named twist maps on the given ring.

    Finite-dimensional kinds build the canonical pairs of their matrix
    columns; polynomial-ring kinds stay structural. Construction checks
    only that the kind fits the ring (``check_twist_kind``) and what a
    kind needs to exist (a nonzero scaling, an invertible conjugating
    unit); the sigma/delta axioms belong to a role and
    ``poly.RingConfig`` checks them.
    """
    check_twist_kind(ring, kind)
    if kind == "identity":
        if not ring.is_finite_dimensional:
            return PolyTwist(ring, None, 1, "identity")
        return LinearTwist(ring, _diagonal([1] * ring.qdim), "identity")

    if kind == "q_twist":
        q = Fraction(params["q"])
        if q == 0:
            raise ConstructionError("not bijective")
        unit = ring.one.pair[0]
        if sum(1 for v in unit if v) != 1:
            raise UnsupportedRingError("q_twist needs the unit as a basis direction")
        pivot = next(i for i, v in enumerate(unit) if v)
        scales = [1 if j == pivot else q for j in range(ring.qdim)]
        return LinearTwist(ring, _diagonal(scales), "q_twist", str(q))

    if kind == "conjugation":
        if getattr(ring, "involution", None) is None:
            raise ConstructionError("not a *-algebra")
        return LinearTwist.from_function(ring, lambda el: el.conjugate(), "conjugation")

    if kind == "transpose":
        def fn(el):
            n = el.ring.n
            return el.ring.element(
                tuple(tuple(el.entries[j][i] for j in range(n)) for i in range(n))
            )
        return LinearTwist.from_function(ring, fn, "transpose")

    if kind == "diag_swap":
        if ring.n != 2:
            raise ConstructionError("diag_swap is defined for 2x2 matrices")
        def fn(el):
            e = el.entries
            return el.ring.element(((e[1][1], e[0][1]), (e[1][0], e[0][0])))
        return LinearTwist.from_function(ring, fn, "diag_swap")

    if kind == "conj_transpose":
        return LinearTwist.from_function(
            ring, lambda el: el.conjugate_transpose(), "conj_transpose"
        )

    if kind == "inner":
        u = params["u"]
        try:
            u_inv = u.ring.invert(u)
        except NotInvertibleError:
            raise ConstructionError("inner automorphism requires unit") from None
        return LinearTwist.from_function(ring, lambda el: (u * el) * u_inv, "inner")

    if kind == "matrix":
        matrix = [[Fraction(v) for v in row] for row in params["matrix"]]
        d = ring.qdim
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise ConstructionError(
                f"a matrix twist on {ring.describe()} needs {d} rows of {d} rationals"
            )
        return LinearTwist(ring, [linalg.integer_vector(col) for col in zip(*matrix)], "matrix")

    if kind == "coefficientwise":
        return PolyTwist(ring, params["base"], 1, "coefficientwise")

    if kind == "y_scale":
        q = Fraction(params["q"])  # PolyTwist refuses q = 0
        return PolyTwist(ring, None, q, "y_scale", str(q))

    if kind == "y_coeff_scale":
        return YCoeffScale(ring, params["q"])

    if kind == "derivative":
        return DerivativeMap(ring)

    return ZeroMap(ring)  # "zero", the one kind left


# ---------------------------------------------------------------------------
# the pi operator family of Ore multiplication
# ---------------------------------------------------------------------------


class PiFamily(Keyed):
    """A sigma/delta pair driving the Ore product's operator sums.

    The row cache is keyed by the value of (m, s) and holds only the
    requested rows; ``_front`` maps each s to the furthest m swept. Both
    take no part in equality or hashing and live exactly as long as the
    family.
    """

    def __init__(self, sigma, delta=None):
        self.sigma, self.delta, self._rows, self._front = sigma, delta, {}, {}

    def _key(self):
        return (self.sigma, self.delta)

    def row(self, m, s):
        """(pi_0^m(s), ..., pi_m^m(s)), swept once per (m, s) value.

        A miss at m at or past the front of s resumes from the front row;
        a miss below it sweeps again from row 0.
        """
        key = (m, s)
        cached = self._rows.get(key)
        if cached is None:
            k = self._front.get(s, -1)
            start = (k, self._rows[k, s]) if 0 <= k <= m else None
            for cached in pi_rows(self, m, s, start):
                pass
            self._rows[key] = cached
            self._front[s] = max(k, m)
        return cached


def pi_rows(fam, m, s, start=None):
    """The rows k = 0..m of the pi table of s, (pi_0^k(s), ..., pi_k^k(s)), in one sweep.

    Row k comes from row k-1 by pi(i,k) = sigma∘pi(i-1,k-1) + delta∘pi(i,k-1),
    so row k applies sigma k times and delta (when there is one) k times.
    A ``start`` pair (k0, row k0) begins the sweep there, at row k0.
    """
    k0, row = start or (0, (s,))
    yield row
    for k in range(k0 + 1, m + 1):
        nxt = []
        for i in range(k + 1):
            value = None
            if i >= 1:
                value = fam.sigma(row[i - 1])
            if fam.delta is not None and i <= k - 1:
                dpart = fam.delta(row[i])
                value = dpart if value is None else value + dpart
            nxt.append(value if value is not None else s.ring.zero)
        row = tuple(nxt)
        yield row


def pi_apply(fam, i, m, s):
    """Sum of all compositions of i sigmas and m-i deltas, applied to s.

    Zero whenever i lies outside 0..m; otherwise entry i of the family's
    cached row ``fam.row(m, s)``. Agrees with the explicit word
    enumeration (see pi_word_sum), which never reads the cache and stays
    around as the test oracle.
    """
    if i < 0 or i > m:
        return s.ring.zero
    return fam.row(m, s)[i]


def pi_words(i, m):
    """Yield, one at a time, each length-m word over {sigma, delta} with i sigmas."""
    for positions in itertools.combinations(range(m), i):
        yield tuple("sigma" if p in positions else "delta" for p in range(m))


def pi_word_apply(fam, word, s):
    """Apply one composition word (leftmost letter outermost)."""
    for letter in reversed(word):
        if letter == "sigma":
            s = fam.sigma(s)
        else:
            if fam.delta is None:
                return s.ring.zero
            s = fam.delta(s)
    return s


def pi_word_sum(fam, i, m, s):
    """Enumeration oracle: the literal sum over all words."""
    total = s.ring.zero
    for word in pi_words(i, m):
        total = total + pi_word_apply(fam, word, s)
    return total


# ---------------------------------------------------------------------------
# classification and structural probes
# ---------------------------------------------------------------------------


def classify_multiplicativity(tm):
    """Which of automorphism / antiautomorphism / involution hold.

    Decided exhaustively on the ring's spanning set (the basis for
    finite-dimensional rings; basis monomials with exponents in [-2, 2]
    for polynomial rings, where the structural maps act monomial-wise so
    the bounded check spans every product shape that occurs). An
    antiautomorphism is an involution when its ``order`` is 1 or 2.
    """
    span = tm.ring.spanning_set(2)
    bijective = tm.inverse() is not None
    auto = True
    anti = True
    for a in span:
        fa = tm(a)
        for b in span:
            fab = tm(a * b)
            fb = tm(b)
            if auto and fab != fa * fb:
                auto = False
            if anti and fab != fb * fa:
                anti = False
            if not auto and not anti:
                break
        if not auto and not anti:
            break
    tags = set()
    if auto and bijective:
        tags.add("automorphism")
    if anti and bijective:
        tags.add("antiautomorphism")
        if tm.order[0] in (1, 2):
            tags.add("involution")
    return frozenset(tags)


def detect_finite_order(tm, bound=8):
    """The order of tm if it is at most ``bound``, else None: a bounded view of ``order``."""
    return tm.order[0] if (tm.order[0] or bound + 1) <= bound else None


def _scalar_order(q, what):
    """The order of the map that scales ``what`` by the rational q; a base of q^m
    that is not a positive integer is parenthesised, as in (1/2)^m."""
    if q in (1, -1):
        return (1 if q == 1 else 2), None
    base = q if q > 0 and q.denominator == 1 else f"({q})"
    return None, f"{what} is scaled by {q}; {base}^m is never 1 for m >= 1"


def _cyclotomic_order(mu):
    """The order of a linear map with minimal polynomial mu, lowest coefficient first.

    map^m = id iff mu divides x^m - 1, the product of the Phi_n with n | m: iff
    mu is a product of distinct Phi_n, whose lcm is then the order. A Phi_n
    that divides mu has phi(n) <= deg mu and phi(n) >= sqrt(n/2), so n <= 2·deg².
    """
    def divide(num, den):  # quotient and remainder by the monic den, lowest first
        num, k = list(num), len(den) - 1
        quotient = [0] * max(len(num) - k, 0)
        for i in reversed(range(len(quotient))):
            quotient[i] = c = num[i + k]
            num[i:i + k + 1] = [a - c * v for a, v in zip(num[i:], den)]
        return quotient, num[:k]

    def text(coeffs):  # x^2 - 3/2x + 1 for [1, -3/2, 1], as the expression grammar prints
        terms = [("" if c == 1 and k else "-" if c == -1 and k else str(c)) + ("x" if k else "")
                 + (f"^{k}" if k > 1 else "") for k, c in reversed(list(enumerate(coeffs))) if c]
        return " + ".join(terms).replace("+ -", "- ")

    rest, ns, phi, cyclotomic = mu, [], list(range(2 * (len(mu) - 1) ** 2 + 1)), {}
    for n in range(1, len(phi)):
        if phi[n] == n > 1:  # n is prime: sieve Euler's phi
            phi[n::n] = [v - v // n for v in phi[n::n]]
        if phi[n] < len(rest):  # Phi_n is x^n - 1 over each Phi_d, d | n, d < n
            cyclotomic[n] = [-1] + [0] * (n - 1) + [1]
            for d in [d for d in cyclotomic if d < n and n % d == 0]:
                cyclotomic[n] = divide(cyclotomic[n], cyclotomic[d])[0]
        while phi[n] < len(rest) and not any((split := divide(rest, cyclotomic[n]))[1]):
            if n in ns:
                return None, (f"the minimal polynomial {text(mu)} has the factor "
                              f"{text(cyclotomic[n])} twice, a Jordan block")
            rest, ns = split[0], ns + [n]
    if len(rest) > 1:
        return None, (f"the minimal polynomial {text(mu)} has the factor {text(rest)}, "
                      "whose roots are no roots of unity")
    return lcm(*ns), None


def standard_derivation(a, b):
    """The derivation c -> [[a,b],c] - 3(a,b,c) on a finite-dimensional ring."""
    ring = a.ring
    bracket = commutator(a, b)

    def fn(c):
        return commutator(bracket, c) - associator(a, b, c).scale(3)

    return LinearTwist.from_function(ring, fn, "standard_derivation")


_AXIOM_ERRORS = {
    "respects_one": "does not respect one",
    "bijective": "sigma must be bijective",
    "kills_one": "delta must kill one",
}


class AxiomReport:
    """The verdicts of one map's or family's axioms: ``entries`` holds an
    ``(axiom, passed, detail)`` triple per axiom, in checking order."""

    def __init__(self, name, entries):
        self.name, self.entries = name, entries

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.entries)

    def require(self):
        """This report, or ``ConstructionError`` naming the first failed axiom."""
        for axiom, passed, detail in self.entries:
            if not passed:
                raise ConstructionError(_AXIOM_ERRORS.get(axiom, detail))
        return self


def validate_twist_axioms(tm, role):
    """Check the defining sigma/delta axioms and report per axiom, under the role's name."""
    if role not in ("sigma", "delta"):
        raise ConstructionError(f"unknown twist role: {role}")
    entries = [("additive", True, "exact linear representation")]
    one = tm.ring.one
    image = tm(one)
    if role == "sigma":
        entries.append(("respects_one", image == one, f"sigma(1) = {image!r}"))
        entries.append(("bijective", tm.inverse() is not None, "inverse construction"))
    else:
        entries.append(("kills_one", not image, f"delta(1) = {image!r}"))
    return AxiomReport(role, entries)
