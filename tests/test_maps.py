import random
from fractions import Fraction

import pytest

from skewring import maps, poly, rings
from skewring.errors import ConstructionError, NotInvertibleError

G = rings.gaussian()
H = rings.quaternions()
O = rings.octonions()


def poly_ring():
    q = rings.rationals()
    return poly.RingConfig(q, maps.make_twist(q, "identity"), None, "Y", poly.ORE)


def test_q_twist_values():
    tm = maps.make_twist(G, "q_twist", q=2)
    assert tm(G.element([3, 4])) == G.element([3, 8])
    assert tm(G.one) == G.one


def test_q_twist_rejects_zero():
    with pytest.raises(ConstructionError, match="not bijective"):
        maps.make_twist(G, "q_twist", q=0)


@pytest.mark.parametrize("rows", [
    [[1, 0], [0]], [], [[1]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
], ids=["ragged", "empty", "1x1", "2x3", "3x3"])
def test_matrix_twist_needs_qdim_square(rows):
    with pytest.raises(ConstructionError, match="needs 2 rows of 2 rationals"):
        maps.make_twist(G, "matrix", matrix=rows)


def test_apply_power_negative():
    tm = maps.make_twist(G, "q_twist", q=2)
    i = G.basis_element(1)
    assert tm.power_apply(-2, i) == i.scale(Fraction(1, 4))
    assert tm.power_apply(0, i) == i
    assert tm.power_apply(3, i) == i.scale(8)


def test_apply_power_composes():
    tm = maps.make_twist(G, "q_twist", q=3)
    rng = random.Random(2)
    for _ in range(10):
        r = G.random_element(rng)
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert tm.power_apply(m + n, r) == tm.power_apply(m, tm.power_apply(n, r))


def test_apply_power_without_inverse():
    qy = poly_ring()
    der = maps.make_twist(qy, "derivative")
    with pytest.raises(NotInvertibleError, match="inverse unavailable"):
        der.power_apply(-1, qy.gen)


def test_diag_swap_has_order_two():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    swap = maps.make_twist(m2, "diag_swap")
    rng = random.Random(4)
    for _ in range(10):
        r = m2.random_element(rng)
        assert swap.power_apply(2, r) == r
    assert maps.detect_finite_order(swap, 8) == 2


def test_inner_automorphism_values():
    tm = maps.make_twist(H, "inner", u=H.basis_element(1))
    assert tm(H.basis_element(2)) == -H.basis_element(2)
    assert tm(H.basis_element(3)) == -H.basis_element(3)
    assert tm(H.basis_element(1)) == H.basis_element(1)
    assert "automorphism" in maps.classify_multiplicativity(tm)


def test_inner_rejects_non_units():
    with pytest.raises(ConstructionError, match="inner automorphism requires unit"):
        maps.make_twist(H, "inner", u=H.zero)


def test_random_inner_maps_are_automorphisms():
    rng = random.Random(12)
    done = 0
    while done < 10:
        u = H.random_element(rng)
        if not u:
            continue
        done += 1
        tm = maps.make_twist(H, "inner", u=u)
        assert "automorphism" in maps.classify_multiplicativity(tm)


def test_conjugation_tags():
    conj = maps.make_twist(O, "conjugation")
    tags = maps.classify_multiplicativity(conj)
    assert "involution" in tags
    assert "antiautomorphism" in tags
    assert "automorphism" not in tags


def test_q_twist_automorphism_dichotomy():
    for q, expected in ((1, True), (-1, True), (2, False), (Fraction(1, 2), False),
                        (3, False), (Fraction(-2, 3), False)):
        tm = maps.make_twist(G, "q_twist", q=q)
        assert ("automorphism" in maps.classify_multiplicativity(tm)) == expected


def test_diag_swap_not_multiplicative():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    swap = maps.make_twist(m2, "diag_swap")
    e12, e21 = m2.unit_matrix(0, 1), m2.unit_matrix(1, 0)
    assert swap(e12) * swap(e21) == m2.unit_matrix(0, 0)
    assert swap(e12 * e21) == m2.unit_matrix(1, 1)
    tags = maps.classify_multiplicativity(swap)
    assert "automorphism" not in tags
    assert "antiautomorphism" in tags


def test_conj_transpose_is_involution():
    m2 = rings.matrix_algebra(G, 2)
    star = maps.make_twist(m2, "conj_transpose")
    tags = maps.classify_multiplicativity(star)
    assert "involution" in tags
    assert maps.detect_finite_order(star, 4) == 2


def test_transpose_on_matrix_ring():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    tr = maps.make_twist(m2, "transpose")
    e12 = m2.unit_matrix(0, 1)
    assert tr(e12) == m2.unit_matrix(1, 0)
    assert "antiautomorphism" in maps.classify_multiplicativity(tr)


def test_finite_order_detection():
    conj = maps.make_twist(G, "conjugation")
    assert maps.detect_finite_order(conj, 8) == 2
    ident = maps.make_twist(G, "identity")
    assert maps.detect_finite_order(ident, 8) == 1
    q2 = maps.make_twist(G, "q_twist", q=2)
    assert maps.detect_finite_order(q2, 10) is None
    assert maps.infinite_order_reason(q2) is not None
    assert maps.infinite_order_reason(conj) is None


def test_infinite_order_for_variable_scaling():
    g_cfg = poly.RingConfig(G, maps.make_twist(G, "identity"), None, "Y", poly.LAURENT)
    scale = maps.make_twist(g_cfg, "y_scale", q=2)
    assert maps.detect_finite_order(scale, 6) is None
    assert "never 1" in maps.infinite_order_reason(scale)
    flip = maps.make_twist(g_cfg, "y_scale", q=-1)
    assert maps.detect_finite_order(flip, 6) == 2


def test_pi_word_enumeration():
    assert maps.pi_words(1, 3) == [
        ("sigma", "delta", "delta"),
        ("delta", "sigma", "delta"),
        ("delta", "delta", "sigma"),
    ]
    assert len(maps.pi_words(2, 5)) == 10


def test_pi_recursion_matches_enumeration():
    qy = poly_ring()
    fam = maps.PiFamily(
        maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")
    )
    rng = random.Random(9)
    elements = [qy.random_element(rng) for _ in range(25)]
    for m in range(7):
        for i in range(m + 1):
            for s in elements:
                assert maps.pi_apply(fam, i, m, s) == maps.pi_word_sum(fam, i, m, s)


def pi_families():
    qy = poly_ring()
    weyl = maps.PiFamily(maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"))
    octonion = maps.PiFamily(
        maps.make_twist(O, "conjugation"),
        maps.standard_derivation(O.basis_element(1), O.basis_element(2)),
    )
    return [(qy, weyl), (O, octonion)]


def test_pi_cached_rows_match_enumeration():
    for ring, fam in pi_families():
        rng = random.Random(12)
        elements = [ring.random_element(rng) for _ in range(3)]
        for m in range(7):
            for s in elements:
                assert (m, s) not in fam._rows
                cold = [maps.pi_apply(fam, i, m, s) for i in range(m + 1)]
                assert (m, s) in fam._rows
                cached = [maps.pi_apply(fam, i, m, s) for i in range(m + 1)]
                oracle = [maps.pi_word_sum(fam, i, m, s) for i in range(m + 1)]
                assert cold == oracle
                assert cached == oracle


def test_pi_cache_is_keyed_by_value():
    _, fam = pi_families()[1]
    coords = [1, Fraction(-2, 3), 0, 5, 0, 0, Fraction(1, 2), 7]
    s1, s2 = O.element(coords), O.element(list(coords))
    assert s1 is not s2
    first = maps.pi_apply(fam, 1, 3, s1)
    assert maps.pi_apply(fam, 1, 3, s2) == first
    assert list(fam._rows) == [(3, s1)]
    # the cache takes no part in equality or hashing
    fresh = maps.PiFamily(fam.sigma, fam.delta)
    assert fresh == fam
    assert hash(fresh) == hash(fam)


def test_poly_mul_keeps_no_pi_cache_on_its_config():
    qy = poly_ring()
    config = poly.RingConfig(
        qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"), "X", poly.ORE
    )
    holders = (config, config.sigma, config.delta)

    def state():
        return [{k: (dict(v) if isinstance(v, dict) else v) for k, v in vars(h).items()}
                for h in holders]

    rng = random.Random(13)
    before = state()
    for _ in range(5):
        config.random_element(rng) * config.random_element(rng)
    assert state() == before
    assert not any(isinstance(v, maps.PiFamily) for v in vars(config).values())


def test_pi_out_of_range_is_zero():
    qy = poly_ring()
    fam = maps.PiFamily(
        maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")
    )
    assert not maps.pi_apply(fam, 4, 2, qy.gen)


def test_pi_without_delta_collapses():
    tm = maps.make_twist(G, "q_twist", q=2)
    fam = maps.PiFamily(tm)
    rng = random.Random(6)
    s = G.random_element(rng)
    for m in range(5):
        for i in range(m + 1):
            expected = tm.power_apply(m, s) if i == m else G.zero
            assert maps.pi_apply(fam, i, m, s) == expected


def test_pi_derivative_example():
    qy = poly_ring()
    fam = maps.PiFamily(
        maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")
    )
    y2 = qy.gen * qy.gen
    assert maps.pi_apply(fam, 1, 2, y2) == qy.monomial(rings.rationals().scalar(4), 1)


def test_standard_derivation_on_octonions():
    e1, e2 = O.basis_element(1), O.basis_element(2)
    der = maps.standard_derivation(e1, e2)
    assert not der(O.one)
    basis = O.basis_elements()
    for x in basis:
        for y in basis:
            assert der(x * y) == der(x) * y + x * der(y)


def test_standard_derivation_diagonal_vanishes():
    rng = random.Random(8)
    a = O.random_element(rng)
    der = maps.standard_derivation(a, a)
    for x in O.basis_elements():
        assert not der(x)


def test_validate_twist_axioms():
    q3 = maps.make_twist(G, "q_twist", q=3)
    report = maps.validate_twist_axioms(q3, "sigma")
    assert report.ok

    zero = maps.make_twist(G, "zero")
    report = maps.validate_twist_axioms(zero, "delta")
    assert report.ok

    report = maps.validate_twist_axioms(q3, "delta")
    assert not report.ok
    failed = [c.axiom for c in report.checks if not c.passed]
    assert failed == ["kills_one"]

    with pytest.raises(ConstructionError, match="unknown twist role: tau"):
        maps.validate_twist_axioms(q3, "tau")


def test_y_coeff_scale_is_additive_bijection_not_multiplicative():
    qy = poly_ring()
    tm = maps.make_twist(qy, "y_coeff_scale", q=2)
    y = qy.gen
    sample = qy.scalar(2) - y + qy.monomial(rings.rationals().scalar(3), 2)
    image = tm(sample)
    assert image == qy.scalar(2) - y.scale(2) + qy.monomial(rings.rationals().scalar(3), 2)
    assert maps.validate_twist_axioms(tm, "sigma").ok
    assert "automorphism" not in maps.classify_multiplicativity(tm)


def test_coefficientwise_lift():
    inner = poly.RingConfig(G, maps.make_twist(G, "identity"), None, "Y", poly.LAURENT)
    lifted = maps.make_twist(
        inner, "coefficientwise", base=maps.make_twist(G, "conjugation")
    )
    i = G.basis_element(1)
    p = inner.monomial(i, 3)
    assert lifted(p) == inner.monomial(-i, 3)
    assert maps.detect_finite_order(lifted, 4) == 2


def test_equal_twists_hash_equal():
    q = rings.rationals()
    laurent = poly.RingConfig(q, maps.make_twist(q, "identity"), None, "Y", poly.LAURENT)
    pairs = [
        (maps.make_twist(q, "identity"), maps.make_twist(q, "matrix", matrix=[[1]])),
        (maps.make_twist(laurent, "identity"), maps.make_twist(laurent, "y_scale", q=1)),
    ]
    for a, b in pairs:
        assert a.kind != b.kind and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_twists_of_one_kind_differ_by_value():
    qy = poly_ring()
    assert maps.make_twist(qy, "y_coeff_scale", q=2) != maps.make_twist(qy, "y_coeff_scale", q=3)
    assert maps.make_twist(G, "zero") != maps.make_twist(rings.rationals(), "zero")


def nested_ore_family():
    """sigma: Z -> 2Z and delta = d/dZ on the Weyl algebra Q[Y][Z; id, d/dY]."""
    qy = poly_ring()
    a1 = poly.RingConfig(qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
                         "Z", poly.ORE)
    return a1, maps.PiFamily(maps.make_twist(a1, "y_scale", q=2),
                             maps.make_twist(a1, "derivative"))


def test_pi_row_is_the_last_row_of_the_sweep():
    """Row k of one pi_rows sweep is pi_row(fam, k, s), entry by entry pi_word_sum."""
    for ring, fam in [*pi_families(), nested_ore_family()]:
        rng = random.Random(20)
        for s in [ring.random_element(rng) for _ in range(3)]:
            rows = list(maps.pi_rows(fam, 5, s))
            assert len(rows) == 6
            for m, row in enumerate(rows):
                assert maps.pi_row(fam, m, s) == row
                assert list(row) == [maps.pi_word_sum(fam, i, m, s) for i in range(m + 1)]
