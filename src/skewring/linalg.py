"""Exact linear algebra over the rationals on an integer kernel.

A rational vector is carried as its canonical pair ``(nums, den)``: a
tuple of integer numerators over one positive denominator, with no
factor common to all of them, so zero is ``((0, ..., 0), 1)``. The form
is unique, so pairs compare and hash exactly. ``integer_vector`` reads
the pair of ``Fraction`` values, ``canonical`` restores the form after
integer arithmetic, and ``fraction_vector`` gives the ``Fraction`` view
back. A linear map is compiled once into sparse integer columns over one
denominator (``compile_columns``) and applied to pairs (``apply_columns``).

``solve`` and ``invert_matrix`` take and return ``Fraction``s and share
one fraction-free Gauss-Jordan elimination: rows are scaled to primitive
integer vectors, combined by integer cross-multiplication and divided by
the gcd of their entries, and a solution is read off as
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


def canonical(nums, den):
    """The canonical pair of the vector nums / den, for den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(v // g for v in nums), den // g


def integer_vector(values):
    """The canonical pair of a vector of ints and reduced Fractions.

    Its denominator is the least common multiple of the values'
    denominators, which leaves no factor common to all numerators.
    """
    den = lcm(*[v.denominator for v in values])
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def fraction_vector(numerators, den):
    """The tuple of reduced Fractions numerators[i] / den."""
    return tuple(Fraction(n, den) if n else ZERO for n in numerators)


def compile_columns(columns):
    """Sparse integer form of a linear map given by the pairs of its columns.

    ``columns[j]`` is the pair of the image of the j-th basis vector.
    Returns ``(cols, den)``: ``cols[j]`` lists the ``(i, c)`` with
    coordinate i of column j equal to ``c / den`` and ``c != 0``.
    """
    den = lcm(*[d for _, d in columns])
    cols = tuple(
        tuple((i, c * (den // d)) for i, c in enumerate(nums) if c) for nums, d in columns
    )
    return cols, den


def apply_columns(compiled, pair):
    """The pair of the image of a vector's pair under a square compiled map."""
    cols, den = compiled
    nums, d = pair
    acc = [0] * len(nums)
    for j, x in enumerate(nums):
        if x:
            for i, c in cols[j]:
                acc[i] += c * x
    return canonical(acc, d * den)


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
