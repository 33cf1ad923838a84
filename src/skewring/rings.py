"""Exact non-associative coefficient rings over the rationals.

Two concrete ring shapes live here:

* ``AlgebraSpec`` -- a finite-dimensional algebra given by structure
  constants on a named basis (the rationals, the Gaussian rationals,
  rational quaternions and octonions, their Jordan plus-algebras, and
  anything a user supplies as JSON).
* ``MatrixRing`` -- n x n matrices over such an algebra.

Both expose the informal ring protocol the rest of the library relies
on: ``zero``/``one``, ``qdim``, ``flatten``/``unflatten`` (coordinates
over Q), ``basis_elements``, ``spanning_set(bound)``,
``random_element(rng)``, ``invert``, ``solve_left_mul(c, r)`` and
``solve_right_mul(c, r)`` (a u with c·u = r, resp. u·c = r, or None),
and the cached structural predicates ``is_associative``/
``is_commutative``. Both shapes invert and solve through one routine:
``operator_matrix`` builds the matrix of left or right multiplication
by c on the flat coordinates, and :func:`skewring.linalg.solve` solves
it exactly. Twisted polynomial rings implement the same protocol in
:mod:`skewring.poly`; there ``RingConfig.solve_left_mul`` and
``solve_right_mul`` are exact long division in a commutative ring and,
in any other ring, multiply by the inverse of c when c is a unit
monomial and check the result.

All arithmetic is exact; equality is coordinate-wise equality of
reduced fractions. Elements are immutable values and every operation is
a pure function, so everything here is safe to share across threads.

Coordinates are tuples of reduced ``Fraction``s, but products and the
involution run on integers: each ``AlgebraSpec`` compiles its structure
constants once into sparse integer entries over a single table
denominator (a Cayley-Dickson table is a signed permutation, so the
octonions keep 64 of their 512 constants). A product scales both
operands to integer numerators over their common denominators,
accumulates the entries, and converts back to reduced fractions only
for the result (see :mod:`skewring.linalg`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import ConstructionError, NotInvertibleError, RingMismatchError

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConstructionError(f"not an exact rational: {value!r}")


class AlgebraSpec:
    """A finite-dimensional algebra over Q given by structure constants.

    ``table[p][q]`` is the coordinate vector of ``basis_p * basis_q``.
    The unit vector must act as a two-sided identity, and the optional
    involution must satisfy (rs)* = s*r* and (r*)* = r; both are checked
    exhaustively on basis pairs at construction time.
    """

    def __init__(self, name, basis_labels, table, unit, involution=None,
                 division=False):
        self.name = name
        self.basis_labels = tuple(basis_labels)
        dim = len(self.basis_labels)
        if dim == 0:
            raise ConstructionError("algebra needs at least one basis element")
        self.dimension = dim
        self.table = tuple(
            tuple(tuple(_frac(v) for v in cell) for cell in row) for row in table
        )
        self.unit = tuple(_frac(v) for v in unit)
        self.involution = (
            tuple(tuple(_frac(v) for v in row) for row in involution)
            if involution is not None else None
        )
        self.is_division = division
        self._assoc = None
        self._comm = None
        self._basis_cache = None
        if len(self.table) != dim or any(len(row) != dim for row in self.table):
            raise ConstructionError("structure-constant table must be dim x dim")
        if any(len(cell) != dim for row in self.table for cell in row):
            raise ConstructionError("structure-constant entries must have length dim")
        if len(self.unit) != dim:
            raise ConstructionError("unit vector length must equal dimension")
        if self.involution is not None and (
            len(self.involution) != dim or any(len(row) != dim for row in self.involution)
        ):
            raise ConstructionError("involution must be dim x dim")
        # row p of the compiled table lists (q, i, c): basis_p * basis_q has
        # coordinate c / _mul_den at basis_i; zero entries are dropped
        cells, self._mul_den = linalg.compile_columns(
            [cell for row in self.table for cell in row]
        )
        self._mul_rows = tuple(
            tuple((q, i, c) for q in range(dim) for i, c in cells[p * dim + q])
            for p in range(dim)
        )
        self._involution_map = (
            linalg.compile_columns(self.involution) if self.involution is not None else None
        )
        self._check_unit()
        if self.involution is not None:
            self._check_involution()

    # -- construction-time checks ------------------------------------

    def _check_unit(self):
        for p in range(self.dimension):
            e = self._basis_coords(p)
            if self.mul_coords(self.unit, e) != e or self.mul_coords(e, self.unit) != e:
                raise ConstructionError(
                    f"unit vector is not a two-sided identity (fails on basis {self.basis_labels[p]})"
                )

    def _check_involution(self):
        for p in range(self.dimension):
            ep = self._basis_coords(p)
            if self.involve_coords(self.involve_coords(ep)) != ep:
                raise ConstructionError("involution is not self-inverse")
            for q in range(self.dimension):
                eq = self._basis_coords(q)
                lhs = self.involve_coords(self.mul_coords(ep, eq))
                rhs = self.mul_coords(self.involve_coords(eq), self.involve_coords(ep))
                if lhs != rhs:
                    raise ConstructionError(
                        "involution fails (rs)* = s*r* on basis pair "
                        f"({self.basis_labels[p]}, {self.basis_labels[q]})"
                    )

    # -- coordinate arithmetic ---------------------------------------

    def _basis_coords(self, p):
        return tuple(_ONE if i == p else _ZERO for i in range(self.dimension))

    def mul_coords(self, a, b):
        na, da = linalg.integer_vector(a)
        nb, db = linalg.integer_vector(b)
        acc = [0] * self.dimension
        for x, row in zip(na, self._mul_rows):
            if x:
                for q, i, c in row:
                    y = nb[q]
                    if y:
                        acc[i] += c * x * y
        return linalg.fraction_vector(acc, da * db * self._mul_den)

    def involve_coords(self, a):
        if self._involution_map is None:
            raise ConstructionError(f"{self.name} is not a *-algebra")
        return linalg.apply_columns(self._involution_map, a)

    # -- ring protocol -------------------------------------------------

    @property
    def qdim(self):
        return self.dimension

    @property
    def zero(self):
        return AlgebraElement(self, (_ZERO,) * self.dimension)

    @property
    def one(self):
        return AlgebraElement(self, self.unit)

    def element(self, coords):
        coords = tuple(_frac(v) for v in coords)
        if len(coords) != self.dimension:
            raise ConstructionError(
                f"expected {self.dimension} coordinates, got {len(coords)}"
            )
        return AlgebraElement(self, coords)

    def scalar(self, value):
        return self.one.scale(_frac(value))

    def basis_element(self, p):
        return AlgebraElement(self, self._basis_coords(p))

    def basis_elements(self):
        if self._basis_cache is None:
            self._basis_cache = [self.basis_element(p) for p in range(self.dimension)]
        return list(self._basis_cache)

    def spanning_set(self, bound=0):
        return self.basis_elements()

    def flatten(self, el):
        return el.coords

    def unflatten(self, coords):
        return AlgebraElement(self, tuple(coords))

    def random_element(self, rng, max_num=6, max_den=3):
        coords = tuple(
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            for _ in range(self.dimension)
        )
        return AlgebraElement(self, coords)

    @property
    def is_finite_dimensional(self):
        return True

    @property
    def is_associative(self):
        if self._assoc is None:
            self._assoc = self.associativity_witness() is None
        return self._assoc

    @property
    def is_commutative(self):
        if self._comm is None:
            self._comm = all(
                self.table[p][q] == self.table[q][p]
                for p in range(self.dimension)
                for q in range(self.dimension)
            )
        return self._comm

    def associativity_witness(self):
        """First basis triple with nonzero associator, as (a, b, c, value), or None."""
        return first_associator(self.basis_elements())

    def invert(self, el):
        return invert_element(self, el)

    def solve_left_mul(self, c, r):
        return solve_mul(self, c, r, "left")

    def solve_right_mul(self, c, r):
        return solve_mul(self, c, r, "right")

    def describe(self):
        return self.name

    # -- serialization -------------------------------------------------

    def to_json(self):
        doc = {
            "name": self.name,
            "basis": list(self.basis_labels),
            "table": [
                [[str(v) for v in cell] for cell in row] for row in self.table
            ],
            "unit": [str(v) for v in self.unit],
        }
        if self.involution is not None:
            doc["involution"] = [[str(v) for v in row] for row in self.involution]
        return doc

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.basis_labels == other.basis_labels
            and self.table == other.table
            and self.unit == other.unit
            and self.involution == other.involution
        )

    def __hash__(self):
        return hash((self.name, self.basis_labels))

    def __repr__(self):
        return f"AlgebraSpec({self.name}, dim={self.dimension})"


def algebra_from_json(doc, division=False):
    return AlgebraSpec(
        name=doc["name"],
        basis_labels=doc["basis"],
        table=doc["table"],
        unit=doc["unit"],
        involution=doc.get("involution"),
        division=division,
    )


class AlgebraElement:
    """An exact element of an ``AlgebraSpec``: a coordinate vector."""

    __slots__ = ("ring", "coords", "_hash")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords
        self._hash = None

    def _check(self, other):
        if isinstance(other, AlgebraElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatchError("incompatible rings")
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(
            self.ring, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(
            self.ring, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return AlgebraElement(self.ring, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, q):
        q = _frac(q)
        return AlgebraElement(self.ring, tuple(q * a for a in self.coords))

    def conjugate(self):
        return AlgebraElement(self.ring, self.ring.involve_coords(self.coords))

    def inverse(self):
        return self.ring.invert(self)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.ring == other.ring and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self):
        from .parsing import format_element
        return format_element(self)


# ---------------------------------------------------------------------------
# standard algebras and the Cayley-Dickson chain
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rationals():
    """Q as a one-dimensional *-algebra with the identity involution."""
    return AlgebraSpec(
        name="QQ",
        basis_labels=("1",),
        table=(((_ONE,),),),
        unit=(_ONE,),
        involution=((_ONE,),),
        division=True,
    )


def cayley_dickson_double(spec, name=None, labels=None):
    """Double a *-algebra: (a,b)(c,d) = (ac - d*b, da + bc*), (a,b)* = (a*,-b)."""
    if spec.involution is None:
        raise ConstructionError("not a *-algebra")
    d = spec.dimension
    dim2 = 2 * d
    if labels is None:
        labels = tuple(f"e{i}" for i in range(dim2))
    if name is None:
        name = f"CD({spec.name})"
    zero = (_ZERO,) * d

    def pair_mul(a, b, c, dd):
        first = tuple(
            x - y
            for x, y in zip(
                spec.mul_coords(a, c),
                spec.mul_coords(spec.involve_coords(dd), b),
            )
        )
        second = tuple(
            x + y
            for x, y in zip(
                spec.mul_coords(dd, a),
                spec.mul_coords(b, spec.involve_coords(c)),
            )
        )
        return first, second

    table = []
    for p in range(dim2):
        a, b = (spec._basis_coords(p), zero) if p < d else (zero, spec._basis_coords(p - d))
        row = []
        for q in range(dim2):
            c, dd = (spec._basis_coords(q), zero) if q < d else (zero, spec._basis_coords(q - d))
            first, second = pair_mul(a, b, c, dd)
            row.append(first + second)
        table.append(tuple(row))

    involution = []
    for p in range(dim2):
        if p < d:
            involution.append(spec.involve_coords(spec._basis_coords(p)) + zero)
        else:
            involution.append(zero + tuple(-v for v in spec._basis_coords(p - d)))

    return AlgebraSpec(
        name=name,
        basis_labels=labels,
        table=tuple(table),
        unit=spec.unit + zero,
        involution=tuple(involution),
        division=spec.is_division and dim2 <= 8,
    )


@lru_cache(maxsize=None)
def gaussian():
    """Q(i), the Gaussian rationals, with complex conjugation."""
    return cayley_dickson_double(rationals(), name="QQ(i)", labels=("1", "i"))


@lru_cache(maxsize=None)
def quaternions():
    """The rational quaternions H_Q with i^2 = j^2 = k^2 = ijk = -1."""
    return cayley_dickson_double(gaussian(), name="HH", labels=("1", "i", "j", "k"))


@lru_cache(maxsize=None)
def octonions():
    """The rational octonions O_Q on the basis e0..e7."""
    return cayley_dickson_double(quaternions(), name="OO")


@lru_cache(maxsize=None)
def sedenions():
    """One doubling past the octonions; has zero divisors, kept for probing."""
    return cayley_dickson_double(
        octonions(), name="SS", labels=tuple(f"s{i}" for i in range(16))
    )


def jordan_algebra(spec, name=None):
    """The plus-algebra of an associative algebra: {a,b} = (ab + ba)/2."""
    if not spec.is_associative:
        raise ConstructionError("Jordan construction requires associative input")
    half = Fraction(1, 2)
    table = tuple(
        tuple(
            tuple(
                half * (x + y)
                for x, y in zip(spec.table[p][q], spec.table[q][p])
            )
            for q in range(spec.dimension)
        )
        for p in range(spec.dimension)
    )
    # not operator-sense division even over H: {i, j} = 0 makes the
    # multiplication operators singular, so reductions cannot solve there
    return AlgebraSpec(
        name=name or f"{spec.name}+",
        basis_labels=spec.basis_labels,
        table=table,
        unit=spec.unit,
        involution=spec.involution,
        division=False,
    )


# ---------------------------------------------------------------------------
# matrix rings
# ---------------------------------------------------------------------------


class MatrixRing:
    """n x n matrices over a finite-dimensional coefficient algebra."""

    def __init__(self, base, n):
        if n < 1:
            raise ConstructionError("matrix size must be at least 1")
        self.base = base
        self.n = n
        self._basis_cache = None

    @property
    def qdim(self):
        return self.n * self.n * self.base.qdim

    @property
    def zero(self):
        z = self.base.zero
        return MatrixElement(self, tuple(tuple(z for _ in range(self.n)) for _ in range(self.n)))

    @property
    def one(self):
        z, u = self.base.zero, self.base.one
        return MatrixElement(
            self,
            tuple(tuple(u if r == c else z for c in range(self.n)) for r in range(self.n)),
        )

    def element(self, entries):
        rows = []
        for row in entries:
            cells = []
            for v in row:
                if isinstance(v, AlgebraElement):
                    cells.append(v)
                else:
                    cells.append(self.base.scalar(v))
            rows.append(tuple(cells))
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ConstructionError(f"expected a {self.n}x{self.n} matrix")
        return MatrixElement(self, tuple(rows))

    def scalar(self, value):
        return self.one.scale(_frac(value))

    def unit_matrix(self, r, c, coeff=None):
        """E_rc with the given base coefficient (default 1); 1-based-free: r, c from 0."""
        coeff = self.base.one if coeff is None else coeff
        z = self.base.zero
        return MatrixElement(
            self,
            tuple(
                tuple(coeff if (i, j) == (r, c) else z for j in range(self.n))
                for i in range(self.n)
            ),
        )

    def basis_elements(self):
        if self._basis_cache is None:
            self._basis_cache = [
                self.unit_matrix(r, c, b)
                for r in range(self.n)
                for c in range(self.n)
                for b in self.base.basis_elements()
            ]
        return list(self._basis_cache)

    def spanning_set(self, bound=0):
        return self.basis_elements()

    def flatten(self, el):
        flat = []
        for row in el.entries:
            for cell in row:
                flat.extend(cell.coords)
        return tuple(flat)

    def unflatten(self, coords):
        d = self.base.qdim
        rows = []
        idx = 0
        for _ in range(self.n):
            row = []
            for _ in range(self.n):
                row.append(self.base.unflatten(tuple(coords[idx:idx + d])))
                idx += d
            rows.append(tuple(row))
        return MatrixElement(self, tuple(rows))

    def random_element(self, rng, max_num=6, max_den=3):
        return MatrixElement(
            self,
            tuple(
                tuple(self.base.random_element(rng, max_num, max_den) for _ in range(self.n))
                for _ in range(self.n)
            ),
        )

    @property
    def is_finite_dimensional(self):
        return True

    @property
    def is_associative(self):
        # matrix multiplication is associative exactly when the entries are
        return self.base.is_associative

    @property
    def is_commutative(self):
        return self.n == 1 and self.base.is_commutative

    @property
    def is_division(self):
        return self.n == 1 and self.base.is_division

    def invert(self, el):
        return invert_element(self, el)

    def solve_left_mul(self, c, r):
        return solve_mul(self, c, r, "left")

    def solve_right_mul(self, c, r):
        return solve_mul(self, c, r, "right")

    def describe(self):
        return f"M{self.n}({self.base.describe()})"

    def __eq__(self, other):
        if not isinstance(other, MatrixRing):
            return NotImplemented
        return self.n == other.n and self.base == other.base

    def __hash__(self):
        return hash(("MatrixRing", self.n, self.base))

    def __repr__(self):
        return self.describe()


class MatrixElement:
    """An n x n matrix of coefficient-algebra elements."""

    __slots__ = ("ring", "entries", "_hash")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = entries
        self._hash = None

    def _check(self, other):
        if isinstance(other, MatrixElement):
            if other.ring == self.ring:
                return other
            raise RingMismatchError("incompatible rings")
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return MatrixElement(
            self.ring,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MatrixElement(
            self.ring, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        n = self.ring.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.ring.base.zero
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return MatrixElement(self.ring, tuple(rows))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, q):
        q = _frac(q)
        return MatrixElement(
            self.ring, tuple(tuple(a.scale(q) for a in row) for row in self.entries)
        )

    def conjugate_transpose(self):
        n = self.ring.n
        return MatrixElement(
            self.ring,
            tuple(tuple(self.entries[j][i].conjugate() for j in range(n)) for i in range(n)),
        )

    def inverse(self):
        return self.ring.invert(self)

    def __bool__(self):
        return any(any(cell for cell in row) for row in self.entries)

    def __eq__(self, other):
        if isinstance(other, MatrixElement):
            return self.ring == other.ring and self.entries == other.entries
        if isinstance(other, (int, Fraction)):
            return self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        from .parsing import format_element
        return format_element(self)


def matrix_algebra(base, n):
    """The matrix ring M_n over a finite-dimensional coefficient algebra."""
    return MatrixRing(base, n)


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------


def operator_matrix(ring, c, side):
    """Matrix of u -> c·u (side "left") or u -> u·c (side "right").

    Column j is the flattened product of c with the j-th flat basis
    vector, so the matrix acts on the coordinates of ``ring.flatten``.
    """
    d = ring.qdim
    columns = []
    for j in range(d):
        b = ring.unflatten(tuple(_ONE if i == j else _ZERO for i in range(d)))
        columns.append(ring.flatten(c * b if side == "left" else b * c))
    return list(zip(*columns))


def solve_mul(ring, c, r, side):
    """u with c·u = r (side "left") or u·c = r (side "right"), or None."""
    solution = linalg.solve(operator_matrix(ring, c, side), ring.flatten(r))
    return None if solution is None else ring.unflatten(tuple(solution))


def invert_element(ring, el):
    """Two-sided inverse: el·x = 1 and x·el = 1 solved as one exact system."""
    if el.ring is not ring and el.ring != ring:
        raise RingMismatchError("incompatible rings")
    if not el:
        raise NotInvertibleError("not invertible")
    one = ring.flatten(ring.one)
    stacked = operator_matrix(ring, el, "left") + operator_matrix(ring, el, "right")
    solution = linalg.solve(stacked, one + one)
    if solution is None:
        raise NotInvertibleError("not invertible")
    return ring.unflatten(tuple(solution))


# ---------------------------------------------------------------------------
# generic measures of non-associativity
# ---------------------------------------------------------------------------


def associator(a, b, c):
    """(a,b,c) = (ab)c - a(bc)."""
    return (a * b) * c - a * (b * c)


def first_associator(span):
    """First triple of ``span`` with nonzero associator, as (a, b, c, value), or None."""
    for a in span:
        for b in span:
            ab = a * b
            for c in span:
                value = ab * c - a * (b * c)
                if value:
                    return a, b, c, value
    return None


def commutator(a, b):
    """[a,b] = ab - ba."""
    return a * b - b * a


def invert(a):
    """Two-sided inverse of a ring element; raises NotInvertibleError."""
    return a.ring.invert(a)
