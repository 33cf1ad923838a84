"""Exact linear algebra over the rationals on an integer kernel.

A rational vector is carried as its canonical pair ``(nums, den)``: a
tuple of integer numerators over one positive denominator, with no
factor common to all of them, so zero is ``((0, ..., 0), 1)``. The form
is unique, so pairs compare and hash exactly. ``integer_vector`` reads
the pair of ``Fraction`` values, ``canonical`` restores the form after
integer arithmetic, and ``fraction_vector`` gives the ``Fraction`` view
back. A linear map is compiled once into sparse integer columns over one
denominator (``compile_columns``), from which :mod:`skewring.rings`
generates the straight-line code that applies it to pairs.

A linear system is factored once and solved for any number of
right-hand sides: ``factor`` runs one fraction-free Gauss-Jordan
elimination of ``[M | I]`` on integer rows (rows are combined by integer
cross-multiplication and divided by the gcd of their entries, which
bounds entry growth like Bareiss's division does), and ``solve_pair``
applies the recorded row operations to a right-hand side's pair, one
integer matrix-vector product and one ``canonical`` per solve. A
one-off solve (``solve_columns``) eliminates ``[M | b]`` instead. A
solution sets the free variables to 0, so it is the one that reduced
row echelon form gives, and reduced row echelon form is unique: the
results equal those of elimination over ``Fraction`` rows.
``invert_columns`` is the same path from a square matrix's column pairs
to its inverse's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


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


def _augmented(columns, blocks):
    """The integer rows ``[C | blocks[i]]`` of ``[M | B]`` for M = C / den, and den."""
    den = lcm(*[d for _, d in columns])
    cols = [[v * (den // d) for v in nums] for nums, d in columns]
    return [[col[i] for col in cols] + block for i, block in enumerate(blocks)], den


def factor(columns):
    """The factorisation of the matrix whose j-th column has the pair ``columns[j]``.

    There is at least one column; the pairs need not be canonical, and
    all have one length, the number of rows. Eliminating ``[M | I]`` leaves rows ``[R | T]`` with
    ``T·M`` equal to R up to the scale of M's columns. Returns
    ``(pivot_cols, solution_rows, null_rows, scale, n_cols)`` for
    ``solve_pair``: the pivot variable of pivot row r of a solution of
    M·x = b is ``solution_rows[r]·b / scale`` (the T part rescaled so
    that every pivot row shares ``scale``), and the null rows, the T
    parts of R's zero rows, span the left null space of M, which must
    annihilate a consistent b.
    """
    n_cols = len(columns)
    n_rows = len(columns[0][0]) if columns else 0
    # the unit entry keeps every initial row primitive
    rows, den = _augmented(columns, [[int(k == i) for k in range(n_rows)] for i in range(n_rows)])
    pivot_cols = _eliminate(rows, n_cols)
    rank = len(pivot_cols)
    pivots = [row[c] for row, c in zip(rows, pivot_cols)]
    # M = cols / den, so a pivot variable is den·(T·b) / pivot; bring the
    # pivots to one positive denominator and cancel what den shares with it
    common = lcm(*pivots)
    g = gcd(common, den)
    solution_rows = tuple(
        tuple(v * (den // g) * (common // p) for v in row[n_cols:])
        for row, p in zip(rows, pivots)
    )
    scale = common // g
    null_rows = tuple(tuple(row[n_cols:]) for row in rows[rank:])
    return pivot_cols, solution_rows, null_rows, scale, n_cols


def solve_pair(factored, pair):
    """The canonical pair of a solution x of M·x = b, or None if there is none.

    ``factored`` is ``factor``'s result for M and ``pair`` the pair of b;
    free variables are set to 0.
    """
    pivot_cols, solution_rows, null_rows, scale, n_cols = factored
    nums, den = pair
    support = [(k, v) for k, v in enumerate(nums) if v]
    for row in null_rows:
        if sum(row[k] * v for k, v in support):
            return None
    x = [0] * n_cols
    for c, row in zip(pivot_cols, solution_rows):
        x[c] = sum(row[k] * v for k, v in support)
    return canonical(x, den * scale)


def solve_columns(columns, pair):
    """``solve_pair(factor(columns), pair)`` by one elimination of ``[M | b]``, not ``[M | I]``.

    As in ``factor``, a pivot variable is den·b_r / pivot, here over b's
    denominator; free variables are 0, so the two solutions agree.
    """
    nums, d = pair
    rows, den = _augmented(columns, [[v] for v in nums])
    pivot_cols = _eliminate(rows, len(columns))
    if any(row[-1] for row in rows[len(pivot_cols):]):
        return None
    pivots = [row[c] for row, c in zip(rows, pivot_cols)]
    common = lcm(*pivots)
    x = [0] * len(columns)
    for row, c, p in zip(rows, pivot_cols, pivots):
        x[c] = den * row[-1] * (common // p)
    return canonical(x, common * d)


def invert_columns(columns):
    """The pairs of the columns of M^-1, for the square matrix M whose j-th
    column has the pair ``columns[j]``, or None if M is singular."""
    pivot_cols, solution_rows, _null, scale, _n = factor(columns)
    if len(pivot_cols) < len(columns):
        return None
    # full rank: pivot row i solves for x_i, so it is row i of the inverse
    return tuple(canonical(col, scale) for col in zip(*solution_rows))
