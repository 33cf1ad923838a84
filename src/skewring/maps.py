"""Additive twist maps on coefficient rings.

A twist map is a Q-linear endomorphism of a ring. Skew multiplication
needs two of them: a bijection sigma with sigma(1) = 1 and a map delta
with delta(1) = 0; ``poly.RingConfig`` checks these axioms, whatever
kind of map plays each role. Maps on finite-dimensional rings are
stored as exact rational matrices on the flattened coordinate space;
maps on polynomial coefficient rings are stored structurally
(coefficient-wise action plus a variable scaling, or the formal
derivative).

A twist map is a value. ``TwistMap.power_apply`` is the one power rule:
a loop for m > 0, ``inverse()`` or ``NotInvertibleError`` for m < 0. A
matrix map replaces the loop by its cached matrix power, and
``PolyTwist`` by its closed formula. Equality and hashing come from
``_key()``, so equal maps of different kinds (the identity and the
matrix [[1]]) are equal. ``describe()`` is the ``kind`` with an
optional ``label``: the "2" of ``q_twist(2)``.

A matrix map is applied through its compiled form, sparse integer
columns over one denominator, straight to the argument's canonical
integer pair (see :mod:`skewring.linalg`). Powers of a map, with their
compiled columns, are cached on the map object, which keeps the
degree-bounded exhaustive checks in :mod:`skewring.structure` cheap.

The Ore product X^m·s = sum_i pi_i^m(s)·X^i needs the operator sums
pi_i^m, each the sum of all words in i sigmas and m-i deltas. One
dynamic-programming sweep, :func:`pi_rows`, yields every row
pi_0^k(s), ..., pi_k^k(s) for k = 0..m, so a product reads all the
rows one right-hand coefficient needs from a single sweep;
:func:`pi_row` is its last row. A :class:`PiFamily` caches its rows
keyed by the value of (m, s), for as long as the family lives, so
:func:`pi_apply` is a row lookup. The word enumeration
(:func:`pi_word_sum`) applies the twists itself and stays as the
oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .errors import (
    ConstructionError,
    NotInvertibleError,
    UnsupportedRingError,
)
from .rings import MatrixRing, associator, commutator


class Keyed:
    """Value equality and hashing: equal when of one class with equal ``_key()``."""

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class TwistMap(Keyed):
    """A Q-linear map on ``ring``; concrete maps implement __call__."""

    kind = "twist"
    label = None

    def __init__(self, ring):
        self.ring = ring

    def __call__(self, el):
        raise NotImplementedError

    def inverse(self):
        """The inverse map, or None when the map is not bijective."""
        return None

    def power_apply(self, m, el):
        """Apply the m-fold composition (inverse composition for m < 0)."""
        if m < 0:
            inv = self.inverse()
            if inv is None:
                raise NotInvertibleError("inverse unavailable")
            return inv.power_apply(-m, el)
        for _ in range(m):
            el = self(el)
        return el

    def _key(self):
        return (self.ring,)

    def describe(self):
        return f"{self.kind}({self.label})" if self.label else self.kind

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()} on {self.ring.describe()}>"


class LinearTwist(TwistMap):
    """Exact Q-matrix map on a finite-dimensional ring.

    ``images[j]`` is the flattened image of the j-th flat basis vector,
    so application is a sparse linear combination of columns.
    """

    def __init__(self, ring, images, kind, label=None):
        super().__init__(ring)
        self.images = tuple(tuple(row) for row in images)
        self.kind = kind
        self.label = label
        pairs = tuple(linalg.integer_vector(col) for col in self.images)
        self._columns = linalg.compile_columns(pairs)
        # m -> (pairs of the images of the m-th power, their compiled columns)
        self._pow = {1: (pairs, self._columns)}
        self._inverse = None
        self._inverse_known = False
        d = len(self.images)
        self._identity = all(
            col[i] == (1 if i == j else 0)
            for j, col in enumerate(self.images)
            for i in range(d)
        )

    @classmethod
    def from_function(cls, ring, fn, kind):
        return cls(ring, [ring.flatten(fn(b)) for b in ring.basis_elements()], kind)

    def __call__(self, el):
        return self.power_apply(1, el)

    def _images_power(self, m):
        if m not in self._pow:
            prev = self._images_power(m - 1)[0]
            images = tuple(linalg.apply_columns(self._columns, col) for col in prev)
            self._pow[m] = (images, linalg.compile_columns(images))
        return self._pow[m]

    def power_apply(self, m, el):
        if m == 0 or self._identity:
            return el
        if m < 0:
            return super().power_apply(m, el)
        return self.ring.from_pair(linalg.apply_columns(self._images_power(m)[1], el.pair))

    def inverse(self):
        if not self._inverse_known:
            self._inverse_known = True
            # the images are the rows of A^T, and (A^T)^-1 = (A^-1)^T, so
            # the rows of the inverse are the inverse map's images
            rows = linalg.invert_matrix(self.images)
            if rows is not None:
                self._inverse = LinearTwist(self.ring, rows, f"{self.kind}^-1", self.label)
                self._inverse._inverse = self
                self._inverse._inverse_known = True
        return self._inverse

    def _key(self):
        return (self.ring, self.images)


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

    def __call__(self, el):
        return self.power_apply(1, el)

    def power_apply(self, m, el):
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

    def _key(self):
        return (self.ring, self.coeff_map, self.var_scale)


class DerivativeMap(TwistMap):
    """Formal derivative with respect to the polynomial variable."""

    kind = "derivative"

    def __call__(self, el):
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

    def __call__(self, el):
        terms = dict(el.terms)
        if 1 in terms:
            terms[1] = terms[1].scale(self.q)
        return self.ring.from_terms(terms)

    def inverse(self):
        return YCoeffScale(self.ring, 1 / self.q)

    def _key(self):
        return (self.ring, self.q)


class ZeroMap(TwistMap):
    """The zero map; the trivial delta."""

    kind = "zero"

    def __call__(self, el):
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


def make_twist(ring, kind, **params):
    """Build one of the named twist maps on the given ring.

    Finite-dimensional kinds compile to an exact matrix; polynomial-ring
    kinds stay structural. Construction checks only that the kind fits
    the ring (``check_twist_kind``) and what a kind needs to exist (a
    nonzero scaling, an invertible conjugating unit); the sigma/delta
    axioms belong to a role and ``poly.RingConfig`` checks them.
    """
    check_twist_kind(ring, kind)
    if kind == "identity":
        if not ring.is_finite_dimensional:
            return PolyTwist(ring, None, 1, "identity")
        return LinearTwist(ring, linalg.identity_matrix(ring.qdim), "identity")

    if kind == "q_twist":
        q = Fraction(params["q"])
        if q == 0:
            raise ConstructionError("not bijective")
        unit = ring.flatten(ring.one)
        if sum(1 for v in unit if v) != 1:
            raise UnsupportedRingError("q_twist needs the unit as a basis direction")
        pivot = next(i for i, v in enumerate(unit) if v)
        images = [
            tuple(v if j == pivot else q * v for v in row)
            for j, row in enumerate(linalg.identity_matrix(ring.qdim))
        ]
        return LinearTwist(ring, images, "q_twist", str(q))

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
        return LinearTwist(ring, list(zip(*matrix)), "matrix")

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

    The row cache is keyed by the value of (m, s), takes no part in
    equality or hashing, and lives exactly as long as the family.
    """

    def __init__(self, sigma, delta=None):
        self.sigma, self.delta, self._rows = sigma, delta, {}

    def _key(self):
        return (self.sigma, self.delta)

    def row(self, m, s):
        """``pi_row(self, m, s)``, computed once per (m, s) value."""
        key = (m, s)
        cached = self._rows.get(key)
        if cached is None:
            cached = self._rows[key] = pi_row(self, m, s)
        return cached


def pi_rows(fam, m, s):
    """The rows k = 0..m of the pi table of s, (pi_0^k(s), ..., pi_k^k(s)), in one sweep.

    Row k comes from row k-1 by pi(i,k) = sigma∘pi(i-1,k-1) + delta∘pi(i,k-1),
    so row k applies sigma k times and delta (when there is one) k times.
    """
    row = (s,)
    yield row
    for k in range(1, m + 1):
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


def pi_row(fam, m, s):
    """(pi_0^m(s), ..., pi_m^m(s)): the last row of ``pi_rows``, uncached."""
    for row in pi_rows(fam, m, s):
        pass
    return row


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
    """All length-m words over {sigma, delta} with exactly i sigmas."""
    words = []
    for positions in itertools.combinations(range(m), i):
        word = tuple("sigma" if p in positions else "delta" for p in range(m))
        words.append(word)
    return words


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
    the bounded check spans every product shape that occurs).
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
        if all(tm(tm(a)) == a for a in span):
            tags.add("involution")
    return frozenset(tags)


def _power_is_identity(tm, m):
    """Whether tm^m = id.

    The check runs on the spanning set, which determines a linear map
    completely on finite-dimensional rings and monomial-wise structural
    maps on polynomial rings.
    """
    return all(tm.power_apply(m, b) == b for b in tm.ring.spanning_set(2))


def detect_finite_order(tm, bound=8):
    """Least m in [1, bound] with sigma^m = id, or None."""
    return next((m for m in range(1, bound + 1) if _power_is_identity(tm, m)), None)


def infinite_order_reason(tm):
    """A scaling-direction certificate that no power of tm is the identity.

    Looks for a basis direction b with tm(b) = q·b for q outside {1,-1};
    then tm^m(b) = q^m·b never returns to b. Returns a human-readable
    reason, or None when no such certificate is found.
    """
    if isinstance(tm, PolyTwist):
        if tm.var_scale not in (1, -1):
            return (
                f"variable is scaled by {tm.var_scale}; "
                f"{tm.var_scale}^m is never 1 for m >= 1"
            )
        if tm.coeff_map is not None:
            return infinite_order_reason(tm.coeff_map)
        return None
    if isinstance(tm, LinearTwist):
        images = tm.images
        d = len(images)
        for j in range(d):
            col = images[j]
            q = col[j]
            if q in (0, 1, -1):
                continue
            if all(col[i] == 0 for i in range(d) if i != j):
                return (
                    f"basis direction {j} is scaled by {q}; "
                    f"{q}^m is never 1 for m >= 1"
                )
    return None


def standard_derivation(a, b):
    """The derivation c -> [[a,b],c] - 3(a,b,c) on a finite-dimensional ring."""
    ring = a.ring
    bracket = commutator(a, b)

    def fn(c):
        return commutator(bracket, c) - associator(a, b, c).scale(3)

    return LinearTwist.from_function(ring, fn, "standard_derivation")


class AxiomCheck:
    def __init__(self, axiom, passed, detail=""):
        self.axiom, self.passed, self.detail = axiom, passed, detail


_AXIOM_ERRORS = {
    "respects_one": "does not respect one",
    "bijective": "sigma must be bijective",
    "kills_one": "delta must kill one",
}


class TwistReport:
    def __init__(self, role, checks):
        self.role, self.checks = role, checks

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def require(self):
        """This report, or ``ConstructionError`` naming the first failed axiom."""
        for c in self.checks:
            if not c.passed:
                raise ConstructionError(_AXIOM_ERRORS[c.axiom])
        return self


def validate_twist_axioms(tm, role):
    """Check the defining sigma/delta axioms and report per axiom."""
    if role not in ("sigma", "delta"):
        raise ConstructionError(f"unknown twist role: {role}")
    checks = [AxiomCheck("additive", True, "exact linear representation")]
    one = tm.ring.one
    image = tm(one)
    if role == "sigma":
        checks.append(AxiomCheck("respects_one", image == one, f"sigma(1) = {image!r}"))
        checks.append(
            AxiomCheck("bijective", tm.inverse() is not None, "inverse construction")
        )
    else:
        checks.append(AxiomCheck("kills_one", not image, f"delta(1) = {image!r}"))
    return TwistReport(role=role, checks=checks)
