"""Exact non-associative coefficient rings over the rationals.

Two concrete ring shapes live here, both ``CompiledAlgebra``s:

* ``AlgebraSpec`` -- a finite-dimensional algebra given by structure
  constants on a named basis (the rationals, the Gaussian rationals,
  rational quaternions and octonions, their Jordan plus-algebras, and
  anything a user supplies as JSON).
* ``MatrixRing`` -- n x n matrices over such an algebra, or over another
  matrix ring. M_n(A) is M_n(Q) (x) A, itself a structure-constant
  algebra: (E_ij (x) a)(E_jl (x) b) = E_il (x) ab.

They expose the informal ring protocol the rest of the library relies
on: ``zero``/``one``, ``qdim``, ``flatten``/``unflatten`` (``Fraction``
coordinates over Q), ``basis_elements``, ``spanning_set(bound)``,
``random_element(rng)``, ``invert``, ``dot(products, sigma)`` (the sum
of a·sigma^m(b) over a list of (a, m, b) items, sigma a twist of the
ring or None for the identity), ``solver(c, side)`` (the function
r -> u with c·u = r for side "left", u·c = r for side "right", or
None; a single solve is ``solver(c, side)(r)``), and the cached
predicates ``is_associative``/``is_commutative``. Twisted polynomial rings
implement the same protocol in :mod:`skewring.poly`, and ``Divisors``
keeps one call's solvers by divisor.

``dot`` accumulates every product's numerators into one integer vector
over the least common multiple of their denominators and canonicalises
once, so a product sum builds no partial sums; in its one loop over the
items it runs sigma^m's generated kernel on b's pair, building no twisted
element, and an identity power applies nothing. ``solver`` builds the
multiplication operator of c from ``mul_pairs`` on basis pairs and
factors it once with :func:`skewring.linalg.factor`; each solve is then
one :func:`skewring.linalg.solve_pair` on the right-hand side's pair, so
a loop that divides by one coefficient many times eliminates once.
``invert`` solves on the same path, the stacked left/right system only
when the left one does not decide.

An element stores its coordinates as the canonical pair ``(nums, den)``
of :mod:`skewring.linalg`, so equality and hashing compare the pair, and
sums, scalings, products and the involution run on integers alone; the
``Fraction`` view ``coords`` is built only when asked for. Each ring
compiles its product once into sparse integer rows over one table
denominator (the octonions keep 64 of their 512 constants; a matrix ring
builds its rows from its base's). A ring's first product generates
straight-line Python from its rows: ``mul`` behind ``mul_pairs`` and
``sum_products`` behind ``dot``, and from its involution's columns the
``apply`` behind ``involve_pair``. The same source generator writes every
linear map's kernel, a twist power's too. Elements are immutable values, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import linalg
from .errors import ConstructionError, NotInvertibleError, RingMismatchError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        # bool is a subclass of int, so JSON `true` needs the exact type test
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConstructionError(f"not an exact rational: {value!r}")


# products per generated statement: CPython's compiler recurses once per
# operator, and a sum of 5,000 products exceeds its recursion limit
_TERMS_PER_STATEMENT = 256


def _generate(dimension, terms, factors, source):
    """The functions that ``source(unpack, assign, chunks, names)`` lists: the one
    source generator of every kernel. Coordinate i sums c·``factors.format(*indices)``
    over the (i, c, *indices) of ``terms``, ``chunks[i]`` its parts of at most
    ``_TERMS_PER_STATEMENT`` products; ``assign`` sets s<i> to it and ``unpack(v)``
    unpacks n<v> into v0, v1, .... Every entry must be an int, so the source holds
    int literals and fixed names alone, whatever document the table came from."""
    sums = [[] for _ in range(dimension)]
    for i, c, *indices in terms:
        if not all(type(v) is int for v in (i, c, *indices)):
            raise ConstructionError(f"structure constant is not an int: {c!r}")
        coeff = "" if abs(c) == 1 else f"{abs(c)}*"
        sums[i].append(f"{'+' if c > 0 else '-'} {coeff}{factors.format(*indices)}")
    chunks = [[" ".join(terms[k:k + _TERMS_PER_STATEMENT]).removeprefix("+ ")
               for k in range(0, len(terms), _TERMS_PER_STATEMENT)] for terms in sums]
    assign = [f"s{i} {'+=' if k else '='} {chunk}"
              for i, parts in enumerate(chunks) for k, chunk in enumerate(parts or ["0"])]
    names = ", ".join(f"s{i}" for i in range(dimension))
    return _define("\n".join(source(lambda v: "".join(f"{v}{p}, " for p in range(dimension))
                                    + f"= n{v}", assign, chunks, names)))


@lru_cache(maxsize=64)  # equal rings and maps are rebuilt, as each suite run builds them
def _define(source):
    exec(source, namespace := {"__builtins__": {}})
    return namespace


def _product_kernels(rows, dimension):
    """Straight-line ``(mul, sum_products)`` for the compiled table ``rows``.

    ``mul(na, nb)`` returns the numerators of a·b over the table
    denominator, ``sum_products(items)`` those of the sum of f·a·b over
    (f, na, nb) items: coordinate i sums c·a<p>·b<q> over row p's (q, i, c).
    """
    kernels = _generate(
        dimension, ((i, c, p, q) for p, row in enumerate(rows) for q, i, c in row), "a{}*b{}",
        lambda unpack, assign, chunks, names: [
            "def mul(na, nb):", *("    " + line for line in (unpack("a"), unpack("b"), *assign)),
            f"    return ({names},)",
            "def sum_products(items):", f"    {' = '.join(f's{i}' for i in range(dimension))} = 0",
            "    for f, na, nb in items:", f"        {unpack('a')}", f"        {unpack('b')}",
            *(f"        s{i} += f * ({chunk})"
              for i, parts in enumerate(chunks) for chunk in parts),
            f"    return ({names},)"])
    return kernels["mul"], kernels["sum_products"]


def _linear_kernel(compiled):
    """Straight-line ``apply(pair)`` for the compiled columns ``(cols, den)`` of a
    square map (:func:`skewring.linalg.compile_columns`): the unreduced pair of the
    image of a vector's pair, its numerators over the pair's denominator times den."""
    cols, den = compiled
    if type(den) is not int:
        raise ConstructionError(f"denominator is not an int: {den!r}")
    return _generate(
        len(cols), ((i, c, j) for j, col in enumerate(cols) for i, c in col), "a{}",
        lambda unpack, assign, chunks, names: [
            "def apply(pair):", "    na, d = pair", f"    {unpack('a')}",
            *("    " + line for line in assign), f"    return ({names},), d * {den}"])["apply"]


class CompiledAlgebra:
    """A finite-dimensional algebra over Q with a compiled product.

    A subclass sets ``dimension``, ``unit`` (the coordinates of 1) and
    the compiled table: row p of ``_mul_rows`` lists (q, i, c) where
    basis_p * basis_q has coordinate c / ``_mul_den`` at basis_i, with
    zero entries dropped. It also defines ``from_pair(pair)``, which
    picks the element class.

    A ring's first product generates ``_kernels`` from the table, so no
    product loops over it. The table holds ints alone, which the generator
    checks, so no text of a user's document reaches its source. Pickling
    leaves the kernels and the cached unit out; a copy builds its own.
    """

    _basis_cache = None
    _involution_map = None

    @cached_property
    def _kernels(self):
        """The generated ``(mul, sum_products)`` of ``_mul_rows`` and ``apply`` of
        ``_involution_map`` (None without one), built on first use."""
        return (*_product_kernels(self._mul_rows, self.dimension),
                self._involution_map and _linear_kernel(self._involution_map))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_kernels", "one")}

    def mul_pairs(self, a, b):
        """The canonical pair of a·b, from the pairs of a and b."""
        (na, da), (nb, db) = a, b
        return linalg.canonical(self._kernels[0](na, nb), da * db * self._mul_den)

    def _own(self, el):
        """The pair of el, an element of this ring; raises RingMismatchError otherwise."""
        if isinstance(el, AlgebraElement) and (el.ring is self or el.ring == self):
            return el.pair
        raise RingMismatchError("incompatible rings")

    def dot(self, products, sigma=None):
        """The sum of a·sigma^m(b) over the (a, m, b) items of ``products``, canonicalised
        once; sigma is a ``LinearTwist`` on this ring, or None for the identity. Each
        sigma^m runs as its kernel on b's pair, and an identity power applies nothing."""
        own = self._own
        identity = sigma is None or sigma.check_ring(self).power_columns(1) is None
        power = None if identity else sigma.power_columns
        pairs = [(own(a), kernel(own(b)) if power and (kernel := power(m)) else own(b))
                 for a, m, b in products]
        if len(pairs) == 1:
            return self.from_pair(self.mul_pairs(*pairs[0]))
        den = lcm(*[da * db for (_, da), (_, db) in pairs])
        acc = self._kernels[1]([(den // (da * db), na, nb) for (na, da), (nb, db) in pairs])
        return self.from_pair(linalg.canonical(acc, den * self._mul_den))

    @property
    def qdim(self):
        return self.dimension

    def unflatten(self, coords):
        return self.from_pair(linalg.integer_vector(coords))

    @property
    def zero(self):
        return self.from_pair(((0,) * self.dimension, 1))

    @cached_property
    def one(self):
        return self.unflatten(self.unit)

    def scalar(self, value):
        return self.one.scale(_frac(value))

    def basis_element(self, p):
        return self.from_pair((tuple(int(i == p) for i in range(self.dimension)), 1))

    def basis_elements(self):
        if self._basis_cache is None:
            self._basis_cache = [self.basis_element(p) for p in range(self.dimension)]
        return list(self._basis_cache)

    def spanning_set(self, bound=0):
        return self.basis_elements()

    def involve_pair(self, a):
        """The canonical pair of a*, from the pair of a."""
        if self._involution_map is None:
            raise ConstructionError(f"{self.describe()} is not a *-algebra")
        return linalg.canonical(*self._kernels[2](a))

    def flatten(self, el):
        return el.coords

    def random_element(self, rng):
        """Coordinates n/d with n in -6..6 and d in 1..3, drawn n then d, over 6."""
        return self.from_pair(linalg.canonical(
            [rng.randint(-6, 6) * (6 // rng.randint(1, 3)) for _ in range(self.dimension)], 6
        ))

    @property
    def is_finite_dimensional(self):
        return True

    def _operator_columns(self, c, sides):
        """The columns of u -> c·u (side "left") and u -> u·c ("right"), stacked.

        Column j holds the coordinates of the products of c with the j-th
        basis vector, one block per entry of ``sides``, as a pair. Every
        such product has a denominator dividing den(c)·``_mul_den``, so
        the blocks share that one.
        """
        pair = self._own(c)
        den = pair[1] * self._mul_den
        columns = []
        for e in self.basis_elements():
            column = []
            for side in sides:
                if side == "left":
                    nums, d = self.mul_pairs(pair, e.pair)
                else:
                    nums, d = self.mul_pairs(e.pair, pair)
                column.extend(v * (den // d) for v in nums)
            columns.append((column, den))
        return columns

    def solver(self, c, side):
        """The function r -> u with c·u = r (side "left") or u·c = r ("right"), or None.

        c's operator is factored once; each call solves on r's pair.
        """
        factored = linalg.factor(self._operator_columns(c, (side,)))

        def solve(r):
            pair = linalg.solve_pair(factored, self._own(r))
            return None if pair is None else self.from_pair(pair)

        return solve


class AlgebraSpec(CompiledAlgebra):
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
        cells, self._mul_den = linalg.compile_columns(
            [linalg.integer_vector(cell) for row in self.table for cell in row]
        )
        self._mul_rows = tuple(
            tuple((q, i, c) for q in range(dim) for i, c in cells[p * dim + q])
            for p in range(dim)
        )
        self._involution_map = (
            linalg.compile_columns([linalg.integer_vector(row) for row in self.involution])
            if self.involution is not None else None
        )
        self._check_unit()
        if self.involution is not None:
            self._check_involution()

    # -- construction-time checks ------------------------------------

    def _check_unit(self):
        unit = linalg.integer_vector(self.unit)
        for p, e in enumerate(self.basis_elements()):
            if self.mul_pairs(unit, e.pair) != e.pair or self.mul_pairs(e.pair, unit) != e.pair:
                raise ConstructionError(
                    f"unit vector is not a two-sided identity (fails on basis {self.basis_labels[p]})"
                )

    def _check_involution(self):
        basis = [e.pair for e in self.basis_elements()]
        for p, ep in enumerate(basis):
            if self.involve_pair(self.involve_pair(ep)) != ep:
                raise ConstructionError("involution is not self-inverse")
            for q, eq in enumerate(basis):
                lhs = self.involve_pair(self.mul_pairs(ep, eq))
                rhs = self.mul_pairs(self.involve_pair(eq), self.involve_pair(ep))
                if lhs != rhs:
                    raise ConstructionError(
                        "involution fails (rs)* = s*r* on basis pair "
                        f"({self.basis_labels[p]}, {self.basis_labels[q]})"
                    )

    # -- ring protocol -------------------------------------------------

    def element(self, coords):
        coords = tuple(_frac(v) for v in coords)
        if len(coords) != self.dimension:
            raise ConstructionError(
                f"expected {self.dimension} coordinates, got {len(coords)}"
            )
        return self.unflatten(coords)

    def from_pair(self, pair):
        return AlgebraElement(self, pair)

    @property
    def is_associative(self):
        if self._assoc is None:
            basis = self.basis_elements()
            self._assoc = first_associator(basis, basis, basis) is None
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

    def invert(self, el):
        return invert_element(self, el)

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


class AlgebraElement:
    """An exact element of a ``CompiledAlgebra``: the canonical pair of its coordinates."""

    __slots__ = ("ring", "pair", "_hash")

    def __init__(self, ring, pair):
        self.ring = ring
        self.pair = pair
        self._hash = None

    @property
    def coords(self):
        """The coordinates as a tuple of reduced ``Fraction``s."""
        return linalg.fraction_vector(*self.pair)

    def _check(self, other):
        if isinstance(other, AlgebraElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatchError("incompatible rings")
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def _combine(self, other, sign):
        """self + sign·other, for sign 1 or -1, with the operators' coercion."""
        other = self._check(other)
        if other is None:
            return NotImplemented
        (na, da), (nb, db) = self.pair, other.pair
        if da == db:
            nums = [x + sign * y for x, y in zip(na, nb)]
        else:
            nums = [x * db + sign * y * da for x, y in zip(na, nb)]
            da *= db
        return type(self)(self.ring, linalg.canonical(nums, da))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        nums, den = self.pair
        return type(self)(self.ring, (tuple(-v for v in nums), den))

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return type(self)(self.ring, self.ring.mul_pairs(self.pair, other.pair))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, q):
        nums, den = self.pair
        if type(q) is int:  # the pair is reduced, so gcd(den, q·nums) = gcd(den, q)
            g = gcd(den, q)
            q //= g
            return type(self)(self.ring, (tuple(q * v for v in nums), den // g))
        q = _frac(q)
        p = q.numerator
        return type(self)(self.ring, linalg.canonical([p * v for v in nums], den * q.denominator))

    def conjugate(self):
        return type(self)(self.ring, self.ring.involve_pair(self.pair))

    def inverse(self):
        return self.ring.invert(self)

    def __bool__(self):
        return any(self.pair[0])

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.ring == other.ring and self.pair == other.pair
        # a bool is not a rational (see _frac), so it compares unequal
        if type(other) is int or isinstance(other, Fraction):
            return self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.pair)
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
    dim2 = 2 * spec.dimension
    if labels is None:
        labels = tuple(f"e{i}" for i in range(dim2))
    if name is None:
        name = f"CD({spec.name})"
    zero = spec.zero
    basis = spec.basis_elements()
    halves = [(e, zero) for e in basis] + [(zero, e) for e in basis]
    table = tuple(
        tuple((a * c - dd.conjugate() * b).coords + (dd * a + b * c.conjugate()).coords
              for c, dd in halves)
        for a, b in halves
    )
    return AlgebraSpec(
        name=name,
        basis_labels=labels,
        table=table,
        unit=spec.unit + zero.coords,
        involution=tuple(a.conjugate().coords + (-b).coords for a, b in halves),
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


def jordan_algebra(spec):
    """The plus-algebra of an associative algebra: {a,b} = (ab + ba)/2."""
    if not isinstance(spec, AlgebraSpec):
        raise ConstructionError(
            f"Jordan construction needs a structure-constant algebra, not {spec.describe()}"
        )
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
        name=f"{spec.name}+",
        basis_labels=spec.basis_labels,
        table=table,
        unit=spec.unit,
        involution=spec.involution,
        division=False,
    )


# ---------------------------------------------------------------------------
# matrix rings
# ---------------------------------------------------------------------------


class MatrixRing(CompiledAlgebra):
    """n x n matrices over an ``AlgebraSpec`` or another ``MatrixRing``.

    E_ij (x) e_a has flat index (i·n + j)·d + a, d the base dimension.
    Since (E_ij (x) e_a)(E_jl (x) e_q) = E_il (x) e_a·e_q, the product
    compiles from the base's rows, over the base's denominator. When the
    base has an involution, (E_ij (x) e_a)* = E_ji (x) e_a* compiles the
    conjugate transpose the same way.
    """

    def __init__(self, base, n):
        if not isinstance(base, CompiledAlgebra):
            raise ConstructionError(
                f"matrix entries need a finite-dimensional algebra, not {base.describe()}"
            )
        if n < 1:
            raise ConstructionError("matrix size must be at least 1")
        self.base = base
        self.n = n
        d = base.dimension
        self.dimension = n * n * d
        self.unit = tuple(
            v for i in range(n) for j in range(n)
            for v in (base.unit if i == j else (_ZERO,) * d)
        )
        self._mul_den = base._mul_den
        self._mul_rows = tuple(
            tuple(
                ((j * n + l) * d + q, (i * n + l) * d + k, c)
                for l in range(n) for q, k, c in base._mul_rows[a]
            )
            for i in range(n) for j in range(n) for a in range(d)
        )
        if base._involution_map is not None:
            cols, den = base._involution_map
            self._involution_map = tuple(
                tuple(((j * n + i) * d + k, c) for k, c in cols[a])
                for i in range(n) for j in range(n) for a in range(d)
            ), den

    def element(self, entries):
        """The matrix with the given rows of base elements or rationals."""
        rows = [tuple(row) for row in entries]
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ConstructionError(f"expected a {self.n}x{self.n} matrix")
        cells = [v if isinstance(v, AlgebraElement) else self.base.scalar(v)
                 for row in rows for v in row]
        if any(cell.ring != self.base for cell in cells):
            raise RingMismatchError("matrix entries must lie in the base ring")
        return self.unflatten(tuple(v for cell in cells for v in cell.coords))

    def from_pair(self, pair):
        return MatrixElement(self, pair)

    def unit_matrix(self, r, c, coeff=None):
        """E_rc with the given base coefficient (default 1); r and c count from 0."""
        coeff = self.base.one if coeff is None else coeff
        return self.element(
            tuple(tuple(coeff if (i, j) == (r, c) else 0 for j in range(self.n))
                  for i in range(self.n))
        )

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


class MatrixElement(AlgebraElement):
    """An element of a ``MatrixRing``, stored as its flat coordinates."""

    __slots__ = ()

    @property
    def entries(self):
        """The n x n tuple of base-ring entries."""
        ring = self.ring
        n, d = ring.n, ring.base.dimension
        nums, den = self.pair
        cells = [ring.base.from_pair(linalg.canonical(nums[k:k + d], den))
                 for k in range(0, ring.dimension, d)]
        return tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))

    conjugate_transpose = AlgebraElement.conjugate


def matrix_algebra(base, n):
    """The matrix ring M_n over a finite-dimensional coefficient algebra."""
    return MatrixRing(base, n)


# ---------------------------------------------------------------------------
# divisions
# ---------------------------------------------------------------------------


def invert_element(ring, el):
    """Two-sided inverse: el·x = 1 and x·el = 1 solved as one exact system.

    The left system alone decides most elements: it has no solution, or
    its solution x (free variables 0) also has x·el = 1, and then x is
    the stacked system's solution too, since every free variable of the
    stacked system is free in the left one. Only otherwise is the stacked
    system solved. Each system has one right-hand side, so each is one
    elimination of ``[M | b]`` (``linalg.solve_columns``), with no factoring.
    """
    one = ring.one.pair
    x = linalg.solve_columns(ring._operator_columns(el, ("left",)), one)
    if x is None:
        raise NotInvertibleError("not invertible")
    if ring.mul_pairs(x, el.pair) != one:
        nums, den = one
        x = linalg.solve_columns(ring._operator_columns(el, ("left", "right")), (nums + nums, den))
        if x is None:
            raise NotInvertibleError("not invertible")
    return ring.from_pair(x)


class Divisors(dict):
    """The solvers ``ring.solver(c, side)`` of one call, each built on first use.

    Keyed by the divisor's value, so a loop that divides by equal
    coefficients (one generator's lead, or the powers of a finite-order
    twist applied to one lead) factors each of them once. The call that
    makes it owns it and drops it on return.
    """

    def __init__(self, ring, side):
        super().__init__()
        self.ring = ring
        self.side = side

    def __missing__(self, c):
        solve = self[c] = self.ring.solver(c, self.side)
        return solve


# ---------------------------------------------------------------------------
# generic measures of non-associativity
# ---------------------------------------------------------------------------


def associator(a, b, c):
    """(a,b,c) = (ab)c - a(bc)."""
    return (a * b) * c - a * (b * c)


def first_associator(firsts, seconds, thirds):
    """The first (a, b, c, value) of firsts × seconds × thirds with value != 0, or None."""
    for a in firsts:
        for b in seconds:
            ab = a * b
            for c in thirds:
                value = ab * c - a * (b * c)
                if value:
                    return a, b, c, value
    return None


def commutator(a, b):
    """[a,b] = ab - ba."""
    return a * b - b * a
