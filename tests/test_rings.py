import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewring import config, linalg, rings
from skewring.errors import ConstructionError, NotInvertibleError, RingMismatchError


H = rings.quaternions()
O = rings.octonions()
G = rings.gaussian()


def quat(*coords):
    return H.element(coords)


def test_quaternion_table():
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j
    assert i * i == -H.one
    assert j * j == -H.one
    assert (i * j) * k == -H.one


def test_unit_law_all_builtins():
    for spec in (rings.rationals(), G, H, O, rings.sedenions()):
        for b in spec.basis_elements():
            assert b * spec.one == b
            assert spec.one * b == b


def test_octonion_non_associative_witness():
    e = O.basis_elements()
    assert (e[1] * e[2]) * e[4] != e[1] * (e[2] * e[4])
    value = rings.associator(e[1], e[2], e[4])
    assert value == e[7].scale(2)


def test_associator_with_unit_vanishes():
    rng = random.Random(1)
    for _ in range(20):
        a, b = O.random_element(rng), O.random_element(rng)
        assert not rings.associator(a, b, O.one)
        assert not rings.associator(a, O.one, b)
        assert not rings.associator(O.one, a, b)


def test_commutator_values():
    i, j = H.basis_element(1), H.basis_element(2)
    assert rings.commutator(i, j) == H.basis_element(3).scale(2)
    assert not rings.commutator(i, i)
    gi = G.basis_element(1)
    assert not rings.commutator(gi, G.one + gi)


def test_cayley_dickson_chain_structure():
    assert G.is_commutative and G.is_associative
    assert H.is_associative and not H.is_commutative
    assert not O.is_associative
    basis = O.basis_elements()
    assert rings.first_associator(basis, basis, basis) is not None
    assert rings.sedenions().dimension == 16
    assert not rings.sedenions().is_division


def test_octonions_are_alternative():
    rng = random.Random(2)
    pairs = [(a, b) for a in O.basis_elements() for b in O.basis_elements()]
    pairs += [(O.random_element(rng), O.random_element(rng)) for _ in range(25)]
    for a, b in pairs:
        assert not rings.associator(a, a, b)
        assert not rings.associator(a, b, b)
        assert not rings.associator(a, b, a)  # flexible law


def test_cayley_dickson_base_case():
    doubled = rings.cayley_dickson_double(rings.rationals())
    gen = doubled.basis_element(1)
    assert gen * gen == -doubled.one


def test_double_requires_involution():
    bare = rings.AlgebraSpec(
        name="bare",
        basis_labels=("1",),
        table=(((Fraction(1),),),),
        unit=(Fraction(1),),
    )
    with pytest.raises(ConstructionError, match="not a \\*-algebra"):
        rings.cayley_dickson_double(bare)


def test_involution_shape_checked():
    with pytest.raises(ConstructionError, match="involution must be dim x dim"):
        rings.AlgebraSpec("bad", ("1", "i"), G.table, G.unit, involution=((1, 0), (0,)))


def test_involution_axioms_exhaustive():
    for spec in (G, H, O):
        for a in spec.basis_elements():
            assert a.conjugate().conjugate() == a
            for b in spec.basis_elements():
                assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_invert_gaussian():
    i = G.basis_element(1)
    assert i.inverse() == -i


def test_invert_octonion_sum():
    e = O.basis_elements()
    x = e[1] + e[2]
    inv = x.inverse()
    assert inv == (-e[1] - e[2]).scale(Fraction(1, 2))
    assert x * inv == O.one
    assert inv * x == O.one


def test_invert_random_quaternions():
    rng = random.Random(7)
    for _ in range(25):
        x = H.random_element(rng)
        if not x:
            continue
        inv = x.inverse()
        assert x * inv == H.one
        assert inv * x == H.one


def test_invert_zero_raises():
    with pytest.raises(NotInvertibleError, match="not invertible"):
        O.zero.inverse()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError, match="incompatible rings"):
        H.basis_element(1) * O.basis_element(1)


def test_matrix_ring_basics():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    e12, e21 = m2.unit_matrix(0, 1), m2.unit_matrix(1, 0)
    assert e12 * e21 == m2.unit_matrix(0, 0)
    assert m2.one * e12 == e12 == e12 * m2.one
    perm = e12 + e21
    assert perm.inverse() == perm
    with pytest.raises(NotInvertibleError):
        e12.inverse()


def test_matrix_over_octonions_inherits_witness():
    m2 = rings.matrix_algebra(O, 2)
    assert not m2.is_associative
    e = O.basis_elements()
    a = m2.unit_matrix(0, 0, e[1])
    b = m2.unit_matrix(0, 0, e[2])
    c = m2.unit_matrix(0, 0, e[4])
    assert rings.associator(a, b, c)


def test_matrix_solve_left_right():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    rng = random.Random(5)
    perm = m2.unit_matrix(0, 1) + m2.unit_matrix(1, 0)
    r = m2.random_element(rng)
    u = m2.solver(perm, "left")(r)
    assert perm * u == r
    v = m2.solver(perm, "right")(r)
    assert v * perm == r
    # singular left multiplication may be unsolvable
    assert m2.solver(m2.unit_matrix(0, 1), "left")(m2.one) is None


def _entrywise_conjugate_transpose(m):
    e, n = m.entries, m.ring.n
    return m.ring.element(
        tuple(tuple(e[j][i].conjugate() for j in range(n)) for i in range(n))
    )


def test_matrix_conjugate_is_entrywise_conjugate_transpose():
    rng = random.Random(11)
    m2g = rings.matrix_algebra(G, 2)
    m2m2 = rings.matrix_algebra(rings.matrix_algebra(rings.rationals(), 2), 2)
    for ring in (m2g, m2m2):
        assert ring.one.conjugate() == ring.one
        elements = ring.basis_elements() + [ring.random_element(rng) for _ in range(5)]
        for a in elements:
            assert a.conjugate() == _entrywise_conjugate_transpose(a)
            assert a.conjugate_transpose() == a.conjugate()
            assert a.conjugate().conjugate() == a
        for a, b in zip(elements, reversed(elements)):
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    i = G.basis_element(1)
    e12 = m2g.unit_matrix(0, 1, i)
    assert e12.conjugate() == m2g.unit_matrix(1, 0, -i)


def test_matrix_conjugate_needs_base_involution():
    bare = rings.AlgebraSpec(
        name="bare",
        basis_labels=("1",),
        table=(((Fraction(1),),),),
        unit=(Fraction(1),),
    )
    m2 = rings.matrix_algebra(bare, 2)
    assert not hasattr(m2, "involution")
    with pytest.raises(ConstructionError, match="not a \\*-algebra"):
        m2.one.conjugate()
    with pytest.raises(ConstructionError, match="not a \\*-algebra"):
        m2.one.conjugate_transpose()


# -- identity oracles: laws of the coefficient algebras, checked on values ----
# (Baez, "The Octonions", Bull. AMS 39 (2002); Schafer, "An Introduction to
# Nonassociative Algebras" (1966)); none of them reads a structure table


def _octonion_samples():
    rng = random.Random(12)
    basis = O.basis_elements()
    return basis[1:4] + [basis[1] + basis[6]] + [O.random_element(rng) for _ in range(6)]


def test_octonion_moufang_identities():
    samples = _octonion_samples()
    for x in samples:
        for y in samples[::2]:
            for z in samples[1::2]:
                assert z * (x * (z * y)) == ((z * x) * z) * y
                assert x * (z * (y * z)) == ((x * z) * y) * z
                assert (z * x) * (y * z) == (z * (x * y)) * z


def test_octonion_norm_is_multiplicative():
    def norm(a):
        value = a * a.conjugate()
        assert value == O.scalar(sum(c * c for c in a.coords))
        return sum(c * c for c in a.coords)

    samples = _octonion_samples()
    for a in samples:
        for b in samples:
            assert norm(a * b) == norm(a) * norm(b)


def test_sedenions_have_zero_divisors():
    s = rings.sedenions().basis_elements()
    a, b = s[3] + s[10], s[6] - s[15]
    assert a and b
    assert not a * b


def test_jordan_identity_in_quaternion_plus_algebra():
    hp = rings.jordan_algebra(H)
    rng = random.Random(13)
    samples = hp.basis_elements() + [hp.random_element(rng) for _ in range(6)]
    for a in samples:
        a2 = a * a
        for b in samples:
            assert (a2 * b) * a == a2 * (b * a)
    i, j = hp.basis_element(1), hp.basis_element(2)
    assert rings.associator(i, i, j)  # the plus-algebra is not associative


def test_jordan_values():
    hp = rings.jordan_algebra(H)
    i, j = hp.basis_element(1), hp.basis_element(2)
    assert i * j == hp.zero
    assert i * i == -hp.one
    assert rings.associator(i, i, j) == -j
    assert hp.is_commutative


def test_jordan_unit_preserved():
    hp = rings.jordan_algebra(H)
    rng = random.Random(3)
    for _ in range(10):
        a = hp.random_element(rng)
        assert a * hp.one == a


def test_jordan_rejects_non_associative():
    with pytest.raises(ConstructionError, match="Jordan construction requires associative input"):
        rings.jordan_algebra(O)


def test_json_round_trip():
    for spec in (G, H, O):
        doc = spec.to_json()
        rebuilt = config.ring_from_descriptor({"kind": "algebra", "spec": doc})
        assert rebuilt == spec
        # serialized tables are plain rational strings
        assert isinstance(doc["table"][0][0][0], str)


def test_json_validation_catches_bad_unit():
    doc = G.to_json()
    doc["unit"] = ["0", "1"]
    with pytest.raises(ConstructionError):
        config.ring_from_descriptor({"kind": "algebra", "spec": doc})


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(small_rationals, small_rationals, small_rationals, small_rationals),
    st.tuples(small_rationals, small_rationals, small_rationals, small_rationals),
    st.tuples(small_rationals, small_rationals, small_rationals, small_rationals),
)
def test_quaternion_ring_axioms(a, b, c):
    x, y, z = quat(*a), quat(*b), quat(*c)
    assert (x + y) * z == x * z + y * z
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(small_rationals, small_rationals),
    st.tuples(small_rationals, small_rationals),
)
def test_gaussian_commutativity(a, b):
    x, y = G.element(a), G.element(b)
    assert x * y == y * x


def test_random_additive_group_axioms():
    rng = random.Random(11)
    for spec in (G, H, O):
        for _ in range(67):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            assert a + b == b + a
            assert a - a == spec.zero
            assert -(-a) == a
            assert a + spec.zero == a


def test_random_element_matches_fraction_draws():
    """The integer draw gives the pair the Fraction draw did, from the same randint calls."""
    for spec in (rings.rationals(), G, H, O, rings.sedenions(), rings.matrix_algebra(G, 2)):
        fast, slow = random.Random(17), random.Random(17)
        for _ in range(100):
            drawn = spec.random_element(fast)
            oracle = spec.unflatten(tuple(
                Fraction(slow.randint(-6, 6), slow.randint(1, 3)) for _ in range(spec.dimension)
            ))
            assert drawn.pair == oracle.pair
        assert fast.getstate() == slow.getstate()


def test_distributivity_exhaustive_on_basis():
    for spec in (G, H, O):
        basis = spec.basis_elements()
        for a in basis:
            for b in basis:
                ab_sum = a + b
                for c in basis:
                    assert ab_sum * c == a * c + b * c
                    assert c * ab_sum == c * a + c * b


def test_solves_and_dot_reject_foreign_rings():
    i = G.basis_element(1)
    h = H.element([1, 2, 3, 4])
    o = O.element([1, 2, 3, 4, 5, 6, 7, 8])
    for ring, c, r in ((G, i, h), (H, h, o), (G, h, i)):
        with pytest.raises(RingMismatchError):
            ring.solver(c, "left")(r)
        with pytest.raises(RingMismatchError):
            ring.solver(c, "right")(r)
    solve = H.solver(h, "left")
    assert h * solve(H.one) == H.one and solve(h) == H.one
    with pytest.raises(RingMismatchError):
        solve(o)
    for products in ([(i, h)], [(i, i), (h, h)], [(i, i), (i, G.one), (h, i)]):
        with pytest.raises(RingMismatchError):
            G.dot([(a, 0, b) for a, b in products])


@pytest.mark.parametrize(
    "ring",
    [rings.rationals(), G, H, O, rings.sedenions(), rings.jordan_algebra(H),
     rings.matrix_algebra(G, 2)],
    ids=["QQ", "QQ(i)", "HH", "OO", "SS", "HH+", "M2(QQ(i))"],
)
def test_int_scale_matches_fraction_scale(ring):
    """An int scales the numerators and divides by gcd(den, k) alone; the pair
    is ``canonical``'s and the Fraction path's."""
    rng = random.Random(f"int scale {ring.describe()}")
    for el in [ring.random_element(rng) for _ in range(6)] + [ring.zero, ring.one]:
        nums, den = el.pair
        for q in (0, 1, -1, 2, -3, 12, -(1 << 70)):
            out = el.scale(q)
            expected = el.scale(Fraction(q))
            assert type(out) is type(expected) and out.pair == expected.pair
            assert out.pair == linalg.canonical([q * v for v in nums], den)
        # a bool is no rational, as in every other coercion
        with pytest.raises(ConstructionError):
            el.scale(True)


def test_bool_compares_unequal_without_raising():
    for el in (G.one, G.zero, H.one, rings.matrix_algebra(G, 2).one):
        assert el != True and el != False  # noqa: E712
        assert not el == True  # noqa: E712
        assert el not in [True, False]
    assert G.one == 1 and G.zero == 0 and G.one == Fraction(1)
