"""Exact linear algebra over the rationals on an integer kernel.

Values enter and leave as reduced ``Fraction``s, but the arithmetic in
between runs on Python integers: a rational vector is carried as
integer numerators over one common denominator (``integer_vector``),
and only the final result is turned back into reduced fractions
(``fraction_vector``). Linear maps are compiled once into sparse integer
columns over a single denominator (``compile_columns``) and applied
with ``apply_columns``.

``solve`` and ``invert_matrix`` share one fraction-free Gauss-Jordan
elimination: every row is scaled to a primitive integer vector, rows
are combined by integer cross-multiplication and divided by the gcd of
their entries, and a solution is read off the reduced rows as
``Fraction(rhs, pivot)``. Reduced row echelon form is unique, so the
results equal those of elimination over ``Fraction`` rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def integer_vector(values):
    """(numerators, denominator) with values[i] == numerators[i] / denominator.

    The denominator is the least common multiple of the denominators of
    the values (ints and Fractions alike), so it is positive.
    """
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def fraction_vector(numerators, den):
    """The tuple of reduced Fractions numerators[i] / den."""
    return tuple(Fraction(n, den) if n else ZERO for n in numerators)


def compile_columns(columns):
    """Sparse integer form of a linear map given by its column vectors.

    ``columns[j]`` is the image of the j-th basis vector. Returns
    ``(cols, den)``: ``cols[j]`` lists the ``(i, c)`` with
    ``columns[j][i] == c / den`` and ``c != 0``.
    """
    dim = len(columns[0]) if columns else 0
    nums, den = integer_vector([v for col in columns for v in col])
    cols = tuple(
        tuple((i, c) for i, c in enumerate(nums[j * dim:(j + 1) * dim]) if c)
        for j in range(len(columns))
    )
    return cols, den


def apply_columns(compiled, coords):
    """Image of a coordinate vector under a square compiled map."""
    cols, den = compiled
    nums, d = integer_vector(coords)
    acc = [0] * len(nums)
    for j, x in enumerate(nums):
        if x:
            for i, c in cols[j]:
                acc[i] += c * x
    return fraction_vector(acc, d * den)


def _primitive_row(values):
    """The values scaled to integers with no common factor."""
    nums, _ = integer_vector(values)
    g = gcd(*nums)
    return [v // g for v in nums] if g > 1 else nums


def _eliminate(rows, n_cols):
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Pivots are taken from the first ``n_cols`` columns; returns the pivot
    columns. Afterwards row r has its pivot in column ``pivot_cols[r]``
    and zeros in every other pivot column, and the rows past the last
    pivot row are zero in the first ``n_cols`` columns. Rows stay
    primitive, which bounds entry growth like Bareiss's division does.
    """
    n_rows = len(rows)
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n_rows):
            f = rows[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * v - b * w for v, w in zip(rows[i], prow)]
            g = gcd(*row)
            rows[i] = [v // g for v in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def solve(matrix, rhs):
    """Solve matrix·x = rhs exactly; return a solution or None if inconsistent.

    The system may be rectangular or singular; free variables are set to 0.
    """
    n_cols = len(matrix[0]) if matrix else 0
    rows = [_primitive_row([*row, b]) for row, b in zip(matrix, rhs)]
    pivot_cols = _eliminate(rows, n_cols)
    if any(row[n_cols] for row in rows[len(pivot_cols):]):
        return None
    solution = [ZERO] * n_cols
    for row, c in zip(rows, pivot_cols):
        solution[c] = Fraction(row[n_cols], row[c])
    return solution


def invert_matrix(matrix):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(matrix)
    rows = [_primitive_row([*row, *unit]) for row, unit in zip(matrix, identity_matrix(n))]
    if len(_eliminate(rows, n)) < n:
        return None
    return [[Fraction(v, row[c]) for v in row[n:]] for c, row in enumerate(rows)]
