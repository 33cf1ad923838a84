"""The integer coefficient kernel against dense Fraction oracles.

The oracles below are the plain Fraction loops the kernel replaced:
dense structure-constant products, column-by-column application of a
linear map, and Gauss-Jordan elimination over Fraction rows. Reduced
fractions and reduced row echelon form are unique, so the kernel must
agree with them exactly, coordinate for coordinate.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewring import linalg, maps, poly, rings
from skewring.errors import ConstructionError, NotInvertibleError

ZERO = Fraction(0)
ONE = Fraction(1)


def tier1_budget(examples):
    """``examples`` on the tier1 profile, the loaded profile's own budget on any
    other, so a kernel test with a Tier-1 budget still fuzzes at full size."""
    if settings.get_current_profile_name() == "tier1":
        return examples
    return settings.default.max_examples


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_table_mul(spec, a, b):
    acc = [ZERO] * spec.dimension
    for p, ap in enumerate(a):
        if not ap:
            continue
        row = spec.table[p]
        for q, bq in enumerate(b):
            if not bq:
                continue
            scale = ap * bq
            for i, c in enumerate(row[q]):
                if c:
                    acc[i] += scale * c
    return tuple(acc)


def oracle_apply(images, coords):
    out = [ZERO] * len(coords)
    for j, cj in enumerate(coords):
        if not cj:
            continue
        for i, v in enumerate(images[j]):
            if v:
                out[i] += cj * v
    return tuple(out)


def oracle_solve(matrix, rhs):
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    n_cols = len(matrix[0]) if matrix else 0
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n_cols] != 0:
            return None
    solution = [ZERO] * n_cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = rows[row_idx][n_cols]
    return solution


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def oracle_invert_matrix(matrix):
    n = len(matrix)
    aug = [list(row) + ident for row, ident in zip(matrix, identity_matrix(n))]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = ONE / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * p for v, p in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def assert_fractions(values):
    assert all(type(v) is Fraction for v in values)


# ---------------------------------------------------------------------------
# strategies: mixed denominators, with zeros so sparse paths run too
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.just(ZERO),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(1 << 40), 1 << 40), st.integers(1, 1 << 20)),
)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def matrix_units():
    """M_2(Q) on the matrix units E11, E12, E21, E22: E_ab E_cd = [b == c] E_ad."""
    def cell(p, q):
        (a, b), (c, d) = divmod(p, 2), divmod(q, 2)
        return tuple(int(b == c and i == 2 * a + d) for i in range(4))

    table = [[cell(p, q) for q in range(4)] for p in range(4)]
    return rings.AlgebraSpec("M2(QQ)", ("E11", "E12", "E21", "E22"), table, (1, 0, 0, 1))


def wide_algebra(n):
    """A unit e0 and e_p·e_q = e0 for 1 <= p, q <= n: coordinate 0 of a
    product sums n² + 1 structure constants."""
    def cell(p, q):
        i = 0 if p and q else p + q
        return tuple(ONE if k == i else ZERO for k in range(n + 1))

    table = [[cell(p, q) for q in range(n + 1)] for p in range(n + 1)]
    return rings.AlgebraSpec(f"W{n}", [f"e{p}" for p in range(n + 1)], table,
                             (1,) + (0,) * n)


JORDAN_H = rings.jordan_algebra(rings.quaternions())
# {E12, E21} = (E11 + E22)/2: a table with half-integer entries
JORDAN_M2 = rings.jordan_algebra(matrix_units())
# 4,097 constants in one coordinate, past what one generated statement could hold
WIDE = wide_algebra(64)
ALGEBRAS = {
    "QQ": rings.rationals(),
    "QQ(i)": rings.gaussian(),
    "HH": rings.quaternions(),
    "OO": rings.octonions(),
    "SS": rings.sedenions(),
    "HH+": JORDAN_H,
    "M2(QQ)+": JORDAN_M2,
    "W64": WIDE,
}


def algebra_and_pair(names):
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(
            st.just(ALGEBRAS[name]),
            vectors(ALGEBRAS[name].dimension),
            vectors(ALGEBRAS[name].dimension),
        )
    )


# ---------------------------------------------------------------------------
# coefficient products and the involution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=tier1_budget(12), deadline=None)
@given(data=st.data())
def test_mul_pairs_matches_fraction_oracle(name, data):
    """Each algebra on its own budget: one derandomized draw over all of them
    can miss an algebra altogether."""
    spec = ALGEBRAS[name]
    a, b = data.draw(vectors(spec.dimension)), data.draw(vectors(spec.dimension))
    out = linalg.fraction_vector(*spec.mul_pairs(linalg.integer_vector(a),
                                                 linalg.integer_vector(b)))
    assert out == oracle_table_mul(spec, a, b)
    assert_fractions(out)


@settings(max_examples=40, deadline=None)
@given(algebra_and_pair(["QQ", "QQ(i)", "HH", "OO", "SS"]))
def test_involution_matches_fraction_oracle(case):
    spec, a, _ = case
    out = linalg.fraction_vector(*spec.involve_pair(linalg.integer_vector(a)))
    assert out == oracle_apply(spec.involution, a)
    assert_fractions(out)


def oracle_cayley_dickson(spec):
    """The doubled table, involution and unit of spec, from Fraction coordinate arithmetic."""
    zero = (ZERO,) * spec.dimension
    basis = [tuple(Fraction(int(i == p)) for i in range(spec.dimension))
             for p in range(spec.dimension)]
    halves = [(e, zero) for e in basis] + [(zero, e) for e in basis]

    def star(v):
        return oracle_apply(spec.involution, v)

    def mul(x, y):
        return oracle_table_mul(spec, x, y)

    # (a,b)(c,d) = (ac - d*b, da + bc*) and (a,b)* = (a*,-b)
    table = tuple(
        tuple(
            tuple(x - y for x, y in zip(mul(a, c), mul(star(d), b)))
            + tuple(x + y for x, y in zip(mul(d, a), mul(b, star(c))))
            for c, d in halves
        )
        for a, b in halves
    )
    involution = tuple(star(a) + tuple(-v for v in b) for a, b in halves)
    return table, involution, spec.unit + zero


@pytest.mark.parametrize("name", ["QQ", "QQ(i)", "HH", "OO"])
def test_cayley_dickson_double_matches_fraction_oracle(name):
    spec = ALGEBRAS[name]
    doubled = rings.cayley_dickson_double(spec)
    table, involution, unit = oracle_cayley_dickson(spec)
    assert doubled.table == table
    assert doubled.involution == involution
    assert doubled.unit == unit


def oracle_matrix_mul(ring, a, b):
    """Flat coordinates of a·b by the entry sum over k, recursing into matrix entries."""
    if not isinstance(ring, rings.MatrixRing):
        return oracle_table_mul(ring, a.coords, b.coords)
    n, base = ring.n, ring.base
    out = []
    for i in range(n):
        for j in range(n):
            acc = (ZERO,) * base.qdim
            for k in range(n):
                term = oracle_matrix_mul(base, a.entries[i][k], b.entries[k][j])
                acc = tuple(u + v for u, v in zip(acc, term))
            out.extend(acc)
    return tuple(out)


MATRIX_RINGS = {
    "M2-gaussian": rings.matrix_algebra(rings.gaussian(), 2),
    "M2-octonions": rings.matrix_algebra(rings.octonions(), 2),  # non-associative entries
    "M3-rationals": rings.matrix_algebra(rings.rationals(), 3),
    "M2-M2-rationals": rings.matrix_algebra(rings.matrix_algebra(rings.rationals(), 2), 2),
}


@pytest.mark.parametrize("name", sorted(MATRIX_RINGS))
@settings(max_examples=tier1_budget(30), deadline=None)
@given(data=st.data())
def test_matrix_product_matches_fraction_oracle(name, data):
    ring = MATRIX_RINGS[name]
    x, y = data.draw(vectors(ring.qdim)), data.draw(vectors(ring.qdim))
    a, b = ring.unflatten(x), ring.unflatten(y)
    out = ring.flatten(a * b)
    assert out == oracle_matrix_mul(ring, a, b)
    assert_fractions(out)


@pytest.mark.parametrize("name", sorted(MATRIX_RINGS))
def test_matrix_basis_and_random_match_entrywise(name):
    ring = MATRIX_RINGS[name]
    n, base = ring.n, ring.base
    basis = ring.basis_elements()
    assert basis == [ring.unit_matrix(r, c, e) for r in range(n) for c in range(n)
                     for e in base.basis_elements()]
    # flat order: row-major entries, base coordinates inside each entry
    assert [ring.flatten(e) for e in basis] == [tuple(row) for row in identity_matrix(ring.qdim)]
    for seed in range(5):
        flat, entrywise = random.Random(seed), random.Random(seed)
        el = ring.random_element(flat)
        assert el == ring.element(
            [[base.random_element(entrywise) for _ in range(n)] for _ in range(n)]
        )
        assert ring.element(el.entries) == el


# ---------------------------------------------------------------------------
# linear twists, their powers and inverses
# ---------------------------------------------------------------------------


def oracle_power(tm, m, coords):
    images = [linalg.fraction_vector(*pair) for pair in tm.pairs]
    if m < 0:
        inv = oracle_invert_matrix(
            [[images[j][i] for j in range(len(images))] for i in range(len(images))]
        )
        images = tuple(tuple(inv[i][j] for i in range(len(inv))) for j in range(len(inv)))
        m = -m
    for _ in range(m):
        coords = oracle_apply(images, coords)
    return coords


# the order-24 signed permutation of O that CI's classify step reads from a config
OCTONION_24 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
]
# diagonal twists of infinite order, the sign flips of three conjugations
# (order 2), the dense inner automorphism of H by 1+i+j+k (order 3) and a
# signed permutation of order 24
TWISTS = [
    maps.make_twist(rings.gaussian(), "conjugation"),
    maps.make_twist(rings.octonions(), "conjugation"),
    maps.make_twist(rings.gaussian(), "q_twist", q="-7/3"),
    maps.make_twist(JORDAN_H, "q_twist", q="5/2"),
    maps.make_twist(rings.quaternions(), "inner", u=rings.quaternions().element((1, 1, 1, 1))),
    maps.make_twist(rings.octonions(), "matrix", matrix=OCTONION_24),
    maps.make_twist(rings.sedenions(), "conjugation"),
]


def oracle_is_identity(tm, m):
    d = tm.ring.qdim
    units = [tuple(ONE if i == j else ZERO for i in range(d)) for j in range(d)]
    return all(oracle_power(tm, m, e) == e for e in units)


@settings(max_examples=tier1_budget(80), deadline=None)
@given(
    st.sampled_from(range(len(TWISTS))).flatmap(
        lambda k: st.tuples(st.just(TWISTS[k]), vectors(TWISTS[k].ring.qdim))
    ),
    st.integers(-4, 5),
)
def test_twist_powers_match_fraction_oracle(case, m):
    """sigma^m's generated kernel against the oracle; an identity power gets no
    kernel and applies nothing."""
    tm, coords = case
    el = tm.ring.unflatten(coords)
    if m == 1:
        out = tm.ring.flatten(tm(el))
    else:
        out = tm.ring.flatten(tm.power_apply(m, el))
    assert out == oracle_power(tm, m, coords)
    assert_fractions(out)
    assert (tm.power_columns(m) is None) == oracle_is_identity(tm, m)


@pytest.mark.parametrize("k", range(len(TWISTS)))
def test_exactly_the_identity_powers_get_no_kernel(k):
    """Over powers -6..25, past every finite order above: sigma^m gets no kernel
    exactly when the oracle finds it the identity, at the multiples of the order."""
    tm = TWISTS[k]
    order = tm.order[0]
    assert order in (None, 2, 3, 24)
    for m in range(-6, 26):
        assert (tm.power_columns(m) is None) == oracle_is_identity(tm, m) \
            == (m == 0 or order is not None and m % order == 0), m


@settings(max_examples=20, deadline=None)
@given(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
def test_q_twist_inverse_images_match_oracle(q):
    tm = maps.make_twist(rings.gaussian(), "q_twist", q=q)
    images = [linalg.fraction_vector(*pair) for pair in tm.pairs]
    expected = oracle_invert_matrix([[images[j][i] for j in range(2)] for i in range(2)])
    assert tm.inverse().pairs == tuple(column_pairs(expected))


# ---------------------------------------------------------------------------
# the fraction-free solver
# ---------------------------------------------------------------------------


@st.composite
def systems(draw):
    """Square, rectangular, singular and inconsistent systems."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    matrix = [draw(st.lists(rationals, min_size=n_cols, max_size=n_cols))
              for _ in range(n_rows)]
    if n_rows > 1 and draw(st.booleans()):
        # a dependent row makes the system singular
        k = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
        other = matrix[1] if n_rows > 2 else [ZERO] * n_cols
        matrix[-1] = [u + k * v for u, v in zip(matrix[0], other)]
    if draw(st.booleans()):
        # consistent by construction
        x0 = draw(st.lists(rationals, min_size=n_cols, max_size=n_cols))
        rhs = [sum((a * x for a, x in zip(row, x0)), ZERO) for row in matrix]
    else:
        rhs = draw(st.lists(rationals, min_size=n_rows, max_size=n_rows))
    return matrix, rhs


def column_pairs(matrix):
    """The pairs of a Fraction matrix's columns, as ``solve_columns`` takes them."""
    return [linalg.integer_vector(col) for col in zip(*matrix)]


@settings(max_examples=80, deadline=None)
@given(systems())
def test_solve_matches_fraction_oracle(system):
    matrix, rhs = system
    out = linalg.solve_columns(column_pairs(matrix), linalg.integer_vector(rhs))
    expected = oracle_solve(matrix, rhs)
    if expected is None:
        assert out is None
    else:
        solution = linalg.fraction_vector(*out)
        assert list(solution) == expected
        assert_fractions(solution)
        for row, b in zip(matrix, rhs):
            assert sum((a * x for a, x in zip(row, solution)), ZERO) == b


def test_solve_free_variables_and_inconsistency():
    half = Fraction(1, 2)
    pair = linalg.integer_vector
    # x + 2y = 3 (y free, set to 0) and a duplicate of it
    duplicate = column_pairs([[ONE, 2 * ONE], [half, ONE]])
    assert linalg.solve_columns(duplicate, pair([3 * ONE, 3 * half])) == pair([3, 0])
    assert linalg.solve_columns(duplicate, pair([3 * ONE, ONE])) is None
    # a zero column leaves its variable free
    zero_column = column_pairs([[ZERO, Fraction(2, 3)]])
    assert linalg.solve_columns(zero_column, pair([Fraction(4, 9)])) == pair([0, Fraction(2, 3)])
    # no unknowns: consistent exactly when the right-hand side is zero
    assert linalg.solve_columns([], pair([ZERO, ONE])) is None
    assert linalg.solve_columns([], pair([ZERO, ZERO])) == ((), 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(vectors(n).map(list), min_size=n, max_size=n)
))
def test_invert_columns_matches_fraction_oracle(matrix):
    """The inverse's column pairs, canonical, are those of the oracle's inverse."""
    out = linalg.invert_columns(column_pairs(matrix))
    expected = oracle_invert_matrix(matrix)
    if expected is None:
        assert out is None
    else:
        assert out == tuple(column_pairs(expected))
        assert all(linalg.canonical(*pair) == pair for pair in out)


def test_invert_columns_singular():
    assert linalg.invert_columns(column_pairs([[ONE, 2 * ONE], [Fraction(1, 2), ONE]])) is None
    assert linalg.invert_columns(column_pairs([[ZERO]])) is None


@st.composite
def systems_with_right_hand_sides(draw):
    """One system and several right-hand sides, consistent and not."""
    matrix, rhs = draw(systems())
    n_cols = len(matrix[0])
    sides = [rhs]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x0 = draw(st.lists(rationals, min_size=n_cols, max_size=n_cols))
            sides.append([sum((a * x for a, x in zip(row, x0)), ZERO) for row in matrix])
        else:
            sides.append(draw(st.lists(rationals, min_size=len(matrix), max_size=len(matrix))))
    return matrix, sides


@settings(max_examples=60, deadline=None)
@given(systems_with_right_hand_sides())
def test_one_factorisation_solves_every_right_hand_side(case):
    matrix, sides = case
    factored = linalg.factor([linalg.integer_vector(col) for col in zip(*matrix)])
    for rhs in sides:
        out = linalg.solve_pair(factored, linalg.integer_vector(rhs))
        expected = oracle_solve(matrix, rhs)
        if expected is None:
            assert out is None
        else:
            assert out == linalg.integer_vector(expected)


# ---------------------------------------------------------------------------
# compiled table sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, entries",
    [
        (rings.rationals(), 1),
        (rings.gaussian(), 4),
        (rings.quaternions(), 16),
        (rings.octonions(), 64),
        (rings.sedenions(), 256),
    ],
)
def test_cayley_dickson_tables_compile_to_signed_permutations(spec, entries):
    assert sum(len(row) for row in spec._mul_rows) == entries == spec.dimension ** 2
    assert spec._mul_den == 1
    assert all(abs(c) == 1 for row in spec._mul_rows for _q, _i, c in row)


def test_jordan_table_denominators():
    # ij + ji = 0 in H, so the halves cancel; E12 E21 + E21 E12 = E11 + E22
    assert JORDAN_H._mul_den == 1
    assert JORDAN_M2._mul_den == 2


# ---------------------------------------------------------------------------
# generated product kernels
# ---------------------------------------------------------------------------


def test_wide_table_splits_one_coordinate_over_statements():
    """W64's products need several statements per coordinate: the oracle test
    above checks ``mul_pairs`` on it, and a product sum must agree with that."""
    assert sum(i == 0 for row in WIDE._mul_rows for _q, i, _c in row) == 64 * 64 + 1
    assert rings._TERMS_PER_STATEMENT < 4096
    rng = random.Random("wide product sum")
    # denominators in 1..6, so the items carry factors other than 1
    products = [(WIDE.random_element(rng), WIDE.random_element(rng)) for _ in range(4)]
    out = WIDE.dot([(a, 0, b) for a, b in products])
    assert out == sum((a * b for a, b in products), WIDE.zero) and out.pair[0][0]


@pytest.mark.parametrize("constant", [Fraction(1), 1.0, True, "1"])
def test_kernels_refuse_a_constant_that_is_not_an_int(constant):
    """Product tables and linear maps' columns share one source generator, and
    a linear map's denominator is a literal of its source too."""
    with pytest.raises(ConstructionError, match="not an int"):
        rings._product_kernels((((0, 0, constant),),), 1)
    with pytest.raises(ConstructionError, match="not an int"):
        rings._linear_kernel(((((0, constant),),), 1))
    with pytest.raises(ConstructionError, match="not an int"):
        rings._linear_kernel(((((0, 1),),), constant))


_GQ2 = maps.make_twist(rings.gaussian(), "q_twist", q=2)
# every algebra and matrix ring above, and a Laurent ring over one of them
PICKLE_CASES = {**ALGEBRAS, **MATRIX_RINGS,
                "QQ(i)[X^±; q=2]": poly.RingConfig(_GQ2.ring, _GQ2, None, "X", poly.LAURENT)}


@pytest.mark.parametrize("name", sorted(PICKLE_CASES))
def test_rings_pickle_after_use(name):
    """A ring that has multiplied pickles, though its generated kernels do not;
    the copy is equal and multiplies alike."""
    ring = PICKLE_CASES[name]
    rng = random.Random(f"pickle {name}")
    a, b = ring.random_element(rng), ring.random_element(rng)
    product = a * b
    ring2, a2, b2, product2 = pickle.loads(pickle.dumps((ring, a, b, product)))
    assert ring2 is not ring and ring2 == ring
    assert a2 * b2 == product2 == product
    if isinstance(ring, rings.CompiledAlgebra):
        assert ring2.dot([(a2, 0, b2), (b2, 0, a2)]) == ring.dot([(a, 0, b), (b, 0, a)])


# ---------------------------------------------------------------------------
# canonical pairs
# ---------------------------------------------------------------------------

G = rings.gaussian()
SS = rings.sedenions()
M2G = MATRIX_RINGS["M2-gaussian"]
# each ring with a linear twist whose powers the test applies
CANONICAL_CASES = {
    "QQ": maps.make_twist(rings.rationals(), "matrix", matrix=[["-2/3"]]),
    "QQ(i)": maps.make_twist(G, "q_twist", q="-7/3"),
    "OO": maps.make_twist(rings.octonions(), "conjugation"),
    "SS": maps.make_twist(SS, "conjugation"),
    "M2(QQ(i))": maps.make_twist(M2G, "conj_transpose"),
}
nonzero_rationals = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12))


def assert_canonical(el):
    """The stored pair: int numerators over a positive int denominator, no common factor."""
    nums, den = el.pair
    assert type(nums) is tuple and len(nums) == el.ring.qdim
    assert all(type(v) is int for v in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1
    assert el.coords == linalg.fraction_vector(nums, den)
    assert bool(el) == any(el.coords)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CANONICAL_CASES)), st.data(), nonzero_rationals,
       nonzero_rationals, st.integers(-3, 4))
def test_every_operation_leaves_a_canonical_pair(name, data, q, r, m):
    tm = CANONICAL_CASES[name]
    ring = tm.ring
    x, y = data.draw(vectors(ring.qdim)), data.draw(vectors(ring.qdim))
    a, b = ring.unflatten(x), ring.unflatten(y)
    neg_q = -abs(q)
    expected = {
        "a + b": (a + b, tuple(u + v for u, v in zip(x, y))),
        "a - b": (a - b, tuple(u - v for u, v in zip(x, y))),
        "-a": (-a, tuple(-u for u in x)),
        "a.scale(-q)": (a.scale(neg_q), tuple(neg_q * u for u in x)),
        "a.scale(0)": (a.scale(0), (ZERO,) * ring.qdim),
        "a - a": (a - a, (ZERO,) * ring.qdim),
    }
    for label, (value, coords) in expected.items():
        assert_canonical(value)
        assert value.coords == coords, label
    for value in (a * b, a.conjugate(), tm(a), tm.power_apply(m, a)):
        assert_canonical(value)
    # the sedenion zero-divisor pair, scaled so that the product cancels
    # over a denominator before it reduces to ((0, ..., 0), 1)
    s = SS.basis_elements()
    product = (s[3] + s[10]).scale(q) * (s[6] - s[15]).scale(r)
    assert_canonical(product)
    assert product.pair == ((0,) * 16, 1) and product == SS.zero
    # one value reached two ways is one pair: equal and hashing equal
    for u, v in ((ring.unflatten(ring.flatten(a)), a), ((a + b) - b, a),
                 (a.scale(q).scale(1 / q), a), (a - a, ring.zero)):
        assert u == v and hash(u) == hash(v) and u.pair == v.pair


# ---------------------------------------------------------------------------
# product sums and reused solvers
# ---------------------------------------------------------------------------

# table denominators: 1 for the Cayley-Dickson chain, 2 for the Jordan algebra
DOT_RINGS = {
    "QQ": rings.rationals(),
    "QQ(i)": G,
    "OO": rings.octonions(),
    "SS": SS,
    "M2(QQ(i))": M2G,
    "M2(OO)": MATRIX_RINGS["M2-octonions"],
    "M2(QQ)+": JORDAN_M2,
}


def oracle_product(ring, a, b):
    if isinstance(ring, rings.MatrixRing):
        return oracle_matrix_mul(ring, a, b)
    return oracle_table_mul(ring, a.coords, b.coords)


@pytest.mark.parametrize("name", sorted(DOT_RINGS))
@given(data=st.data())
def test_dot_matches_sequential_sum(name, data):
    ring = DOT_RINGS[name]
    n = data.draw(st.integers(1, 4))
    products = [
        (ring.unflatten(data.draw(vectors(ring.qdim))), ring.unflatten(data.draw(vectors(ring.qdim))))
        for _ in range(n)
    ]
    items = [(a, 0, b) for a, b in products]
    out = ring.dot(items)
    assert_canonical(out)
    sequential = ring.zero
    coords = (ZERO,) * ring.qdim
    for a, b in products:
        sequential = sequential + a * b
        coords = tuple(u + v for u, v in zip(coords, oracle_product(ring, a, b)))
    assert out == sequential and out.pair == sequential.pair
    assert out.coords == coords
    # the same products again with one factor negated cancel to zero
    cancelled = ring.dot(items + [(-a, 0, b) for a, b in products])
    assert_canonical(cancelled)
    assert cancelled.pair == ((0,) * ring.qdim, 1)
    assert ring.dot(items[:1]) == products[0][0] * products[0][1]


def test_dot_of_nothing_is_zero():
    for ring in DOT_RINGS.values():
        assert ring.dot([]).pair == ((0,) * ring.qdim, 1)


def _invertible_matrix(n, rng):
    """A random n x n integer matrix with entries in -2..2 and an inverse."""
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.invert_columns(column_pairs(matrix)) is not None:
            return matrix


H = rings.quaternions()
# sparse twists (diagonal or a signed permutation) and two dense ones: an
# inner automorphism of H mixes i, j, k, and a random matrix mixes all of O
TWISTED_DOT_CASES = {
    "QQ(i)/q_twist(2)": maps.make_twist(G, "q_twist", q=2),
    "QQ(i)/conjugation": maps.make_twist(G, "conjugation"),
    "M2(QQ)/diag_swap": maps.make_twist(rings.matrix_algebra(rings.rationals(), 2), "diag_swap"),
    "OO/conjugation": maps.make_twist(rings.octonions(), "conjugation"),
    "SS/conjugation": maps.make_twist(SS, "conjugation"),
    "HH/inner": maps.make_twist(H, "inner", u=H.element((1, 2, -1, 3))),
    "OO/matrix": maps.make_twist(
        rings.octonions(), "matrix",
        matrix=_invertible_matrix(8, random.Random("dense octonion twist")),
    ),
}


@pytest.mark.parametrize("name", sorted(TWISTED_DOT_CASES))
@given(data=st.data())
def test_twisted_dot_matches_fraction_oracle(name, data):
    """dot(items, sigma) is the sum of a·sigma^m(b), sigma^m's images applied by the oracle.

    Budget from the Hypothesis profile, so the fuzz profile runs it at scale;
    zero items give zero and one item takes the one-product path."""
    tm = TWISTED_DOT_CASES[name]
    ring = tm.ring
    items = [
        (ring.unflatten(data.draw(vectors(ring.qdim))), data.draw(st.integers(-3, 3)),
         ring.unflatten(data.draw(vectors(ring.qdim))))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    out = ring.dot(items, tm)
    assert_canonical(out)
    coords = (ZERO,) * ring.qdim
    for a, m, b in items:
        twisted = ring.unflatten(oracle_power(tm, m, b.coords))
        coords = tuple(u + v for u, v in zip(coords, oracle_product(ring, a, twisted)))
    assert out.coords == coords


def test_twisted_dot_refuses_negative_powers_of_a_singular_twist():
    singular = maps.make_twist(G, "matrix", matrix=[[1, 0], [0, 0]])
    a, b = G.element((1, 2)), G.element((3, -1))
    # a positive power needs no inverse
    assert G.dot([(a, 2, b)], singular).coords == oracle_table_mul(
        G, a.coords, oracle_power(singular, 2, b.coords))
    for items in ([(a, -1, b)], [(a, 1, b), (b, -2, a)]):
        with pytest.raises(NotInvertibleError, match="inverse unavailable"):
            G.dot(items, singular)


def oracle_operator(ring, c, side):
    """The Fraction matrix of u -> c·u (side "left") or u -> u·c ("right")."""
    columns = [
        oracle_product(ring, c, e) if side == "left" else oracle_product(ring, e, c)
        for e in ring.basis_elements()
    ]
    return [list(row) for row in zip(*columns)]


_S = SS.basis_elements()
_E = matrix_units().basis_elements()
# singular operators: a sedenion zero divisor, a matrix unit and a
# Jordan element whose products with j and k vanish
SINGULAR_DIVISORS = {
    "SS-zero-divisor": (SS, (_S[3] + _S[10]).scale(Fraction(3, 2))),
    "M2(QQ)-E11": (_E[0].ring, _E[0]),
    "M2(QQ)-E12": (_E[0].ring, _E[1]),
    "HH+-i": (JORDAN_H, JORDAN_H.basis_element(1)),
    "M2(QQ)+-E12": (JORDAN_M2, JORDAN_M2.basis_element(1)),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_DIVISORS))
@pytest.mark.parametrize("side", ["left", "right"])
def test_reused_solver_matches_oracle_on_singular_operators(name, side):
    ring, c = SINGULAR_DIVISORS[name]
    matrix = oracle_operator(ring, c, side)
    assert oracle_invert_matrix(matrix) is None  # the operator is singular
    solve = ring.solver(c, side)
    rng = random.Random(name)
    consistent = inconsistent = 0
    for k in range(12):
        x = ring.random_element(rng)
        r = (c * x if side == "left" else x * c) if k % 2 else ring.random_element(rng)
        expected = oracle_solve(matrix, list(r.coords))
        out = solve(r)
        if expected is None:
            inconsistent += 1
            assert out is None
        else:
            consistent += 1
            assert out.coords == tuple(expected)  # free variables are 0
            assert (c * out if side == "left" else out * c) == r
    assert consistent and inconsistent


def oracle_inverse(ring, el):
    """The stacked left/right system el·x = 1, x·el = 1 over Fractions."""
    one = list(ring.one.coords)
    matrix = oracle_operator(ring, el, "left") + oracle_operator(ring, el, "right")
    return oracle_solve(matrix, one + one)


M2O = MATRIX_RINGS["M2-octonions"]
# the left system of this M2(O) element is consistent, but its solution
# is no right inverse, so the stacked system decides
M2O_LEFT_ONLY = M2O.unflatten(tuple(
    {1: Fraction(-2, 3), 12: Fraction(-1, 2), 27: -ONE}.get(k, ZERO) for k in range(32)
))


@pytest.mark.parametrize("ring, el", [
    *[(ring, c) for ring, c in SINGULAR_DIVISORS.values()],
    (SS, _S[3] + _S[10] + _S[0]),
    (M2O, M2O_LEFT_ONLY),
    (M2O, M2O.one + M2O_LEFT_ONLY),
], ids=[*sorted(SINGULAR_DIVISORS), "SS-unit-shift", "M2(OO)-left-only", "M2(OO)-shift"])
def test_invert_matches_stacked_oracle(ring, el):
    expected = oracle_inverse(ring, el)
    if el is M2O_LEFT_ONLY:
        assert oracle_solve(oracle_operator(ring, el, "left"), list(ring.one.coords))
        assert expected is None
    try:
        out = ring.invert(el).coords
    except NotInvertibleError:
        out = None
    assert out == (None if expected is None else tuple(expected))


def _coefficient_systems(ring, rng):
    """Seeded systems of ``ring``: the left and stacked operators of a random
    element, of one, and of a singular divisor when ``ring`` has one, and the
    singular commutator map u -> c·u - u·c (one is in its kernel)."""
    c = ring.random_element(rng)
    basis = ring.basis_elements()
    singular = {"SS": _S[3] + _S[10], "M2(QQ)": _E[0]}.get(ring.describe())
    for el in (c, ring.one) + ((singular,) if singular else ()):
        yield ring._operator_columns(el, ("left",))
        yield ring._operator_columns(el, ("left", "right"))
    yield [(c * e - e * c).pair for e in basis]


@pytest.mark.parametrize("ring", [rings.octonions(), SS, matrix_units().basis_elements()[0].ring],
                         ids=["OO", "SS", "M2(QQ)"])
def test_one_off_solve_matches_the_factored_solve(ring):
    """``solve_columns`` eliminates [M | b] once; ``solve_pair`` applies the
    factorisation of [M | I]. Both give reduced row echelon form's solution,
    on consistent and inconsistent right-hand sides of square, stacked and
    singular systems."""
    rng = random.Random(f"solve-{ring.describe()}")
    outcomes = set()
    for columns in _coefficient_systems(ring, rng):
        factored = linalg.factor(columns)
        n_rows = len(columns[0][0])
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in columns]
        image = [sum((Fraction(nums[i], den) * w for (nums, den), w in zip(columns, weights)),
                     ZERO) for i in range(n_rows)]
        noise = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_rows)]
        unit = [ONE] + [ZERO] * (n_rows - 1)
        for rhs in (image, noise, unit):
            pair = linalg.integer_vector(rhs)
            out = linalg.solve_columns(columns, pair)
            assert out == linalg.solve_pair(factored, pair)
            outcomes.add((len(factored[0]) < len(columns), out is None))
    # singular systems, and right-hand sides with and without a solution
    assert {(True, True), (True, False), (False, False)} <= outcomes
