import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from skewring import config, linalg, maps, poly, rings, suites
from skewring.errors import ConstructionError, NotInvertibleError, RingMismatchError

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


def _laurent_y(ring):
    return poly.RingConfig(ring, maps.make_twist(ring, "identity"), None, "Y", poly.LAURENT)


@pytest.mark.parametrize("twist, el", [
    (maps.make_twist(O, "conjugation"), G.basis_element(1)),
    (maps.make_twist(G, "q_twist", q=2), O.basis_element(1)),
    (maps.make_twist(_laurent_y(rings.rationals()), "y_scale", q=2),
     _laurent_y(G).monomial(G.basis_element(1), 1)),
], ids=["OO-conjugation-on-QQ(i)", "QQ(i)-q-twist-on-OO", "QQ[Y]-y-scale-on-QQ(i)[Y]"])
def test_a_twist_refuses_an_element_of_another_ring(twist, el):
    """Every application checks the element's ring, as a ring's dot checks the twist's."""
    for apply in (twist, lambda x: twist.power_apply(0, x), lambda x: twist.power_apply(-3, x)):
        with pytest.raises(RingMismatchError, match="incompatible rings"):
            apply(el)
    if isinstance(el.ring, rings.CompiledAlgebra):
        with pytest.raises(RingMismatchError, match="incompatible rings"):
            el.ring.dot([(el, 1, el)], twist)


def test_diag_swap_has_order_two():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    swap = maps.make_twist(m2, "diag_swap")
    rng = random.Random(4)
    for _ in range(10):
        r = m2.random_element(rng)
        assert swap.power_apply(2, r) == r
    assert swap.order == (2, None)


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
    assert star.order == (2, None)


def test_transpose_on_matrix_ring():
    m2 = rings.matrix_algebra(rings.rationals(), 2)
    tr = maps.make_twist(m2, "transpose")
    e12 = m2.unit_matrix(0, 1)
    assert tr(e12) == m2.unit_matrix(1, 0)
    assert "antiautomorphism" in maps.classify_multiplicativity(tr)


def test_finite_order_detection():
    conj = maps.make_twist(G, "conjugation")
    assert conj.order == (2, None)
    assert maps.make_twist(G, "identity").order == (1, None)
    q2 = maps.make_twist(G, "q_twist", q=2)
    assert q2.order == (None, "the minimal polynomial x^2 - 3x + 2 has the factor x - 2, "
                              "whose roots are no roots of unity")
    # detect_finite_order is the order seen through a bound
    assert [maps.detect_finite_order(conj, b) for b in (1, 2, 8)] == [None, 2, 2]
    assert maps.detect_finite_order(q2, 10) is None


def test_infinite_order_for_variable_scaling():
    g_cfg = poly.RingConfig(G, maps.make_twist(G, "identity"), None, "Y", poly.LAURENT)
    scale = maps.make_twist(g_cfg, "y_scale", q=2)
    assert scale.order == (None, "variable is scaled by 2; 2^m is never 1 for m >= 1")
    flip = maps.make_twist(g_cfg, "y_scale", q=-1)
    assert flip.order == (2, None)
    # the lcm of the variable's order and the coefficient map's
    lifted = maps.make_twist(g_cfg, "coefficientwise", base=maps.make_twist(G, "conjugation"))
    assert lifted.order == (2, None)
    both = maps.PolyTwist(g_cfg, maps.make_twist(G, "conjugation"), -1, "coefficientwise")
    assert both.order == (2, None)
    q = rings.rationals()
    qy = poly.RingConfig(q, maps.make_twist(q, "identity"), None, "Y", poly.LAURENT)
    assert maps.make_twist(qy, "y_coeff_scale", q=-1).order == (2, None)
    assert maps.make_twist(qy, "y_coeff_scale", q=3).order[0] is None
    # a map with no inverse has no power that is the identity
    assert maps.make_twist(qy, "derivative").order[0] is None


# cyclotomic polynomials Phi_n, lowest coefficient first, written out by hand
PHI = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1],
       6: [1, -1, 1], 7: [1] * 7, 8: [1, 0, 0, 0, 1], 9: [1, 0, 0, 1, 0, 0, 1],
       10: [1, -1, 1, -1, 1], 12: [1, 0, -1, 0, 1]}
S = rings.sedenions()


def probe_order(tm, limit):
    """The least m <= limit with tm^m = id, by applying tm to the basis m times, or None."""
    basis = tm.ring.basis_elements()
    images = basis
    for m in range(1, limit + 1):
        images = [tm.power_apply(1, b) for b in images]
        if images == basis:
            return m
    return None


def companion_twist(ring, polys, rng):
    """The matrix twist on ``ring`` made of companion blocks of the monic ``polys``
    (lowest coefficient first, degrees summing to the ring's dimension), conjugated
    by a random integer matrix P with P·e0 = e0, so sigma(1) = 1 when polys[0] is Phi_1."""
    d, cols = ring.qdim, []
    for poly in polys:
        base, k = len(cols), len(poly) - 1
        for i in range(k):
            col = [0] * d
            if i < k - 1:
                col[base + i + 1] = 1
            else:
                for j in range(k):
                    col[base + j] = -Fraction(poly[j])
            cols.append(col)
    assert len(cols) == d
    block = maps.make_twist(ring, "matrix", matrix=list(zip(*cols)))
    while True:
        p_cols = [[int(i == 0) for i in range(d)]] + [
            [rng.randint(-1, 1) for _ in range(d)] for _ in range(d - 1)]
        change = maps.make_twist(ring, "matrix", matrix=list(zip(*p_cols)))
        back = change.inverse()
        if back is not None:
            return maps.LinearTwist.from_function(ring, lambda el: change(block(back(el))),
                                                  "matrix")


@pytest.mark.parametrize("ring, ns", [
    (S, [1, 2, 3, 4, 5, 7]),  # order 420, on a 16-dimensional ring
    (S, [1, 2, 9, 5, 10]),  # 90
    (S, [1, 1, 7, 8, 3, 4]),  # 168
    (O, [1, 3, 8, 1]),  # 24
    (O, [1, 3, 3, 6, 2]),  # Phi_3 in two blocks is still one factor of mu: 6
    (H, [1, 2, 4]),
    (H, [1, 1, 6]),
    (G, [1, 1]),
    (G, [1, 2]),
], ids=["S-420", "S-90", "S-168", "O-24", "O-6", "H-4", "H-6", "G-1", "G-2"])
def test_order_of_distinct_cyclotomic_blocks_matches_the_probe(ring, ns):
    tm = companion_twist(ring, [PHI[n] for n in ns], random.Random(f"{ring.name}{ns}"))
    assert tm(ring.one) == ring.one
    order = math.lcm(*ns)
    assert tm.order == (order, None)
    assert probe_order(tm, order) == order


def test_random_cyclotomic_blocks_match_the_probe():
    rng = random.Random(42)
    for ring in (G, H, O, S, H, O, S):
        ns = [1]
        while True:
            n = rng.choice([n for n in PHI if len(PHI[n]) - 1 <= ring.qdim - 1])
            if sum(len(PHI[k]) - 1 for k in ns) + len(PHI[n]) - 1 > ring.qdim:
                break
            ns.append(n)
        ns += [rng.choice([1, 2])] * (ring.qdim - sum(len(PHI[k]) - 1 for k in ns))
        tm = companion_twist(ring, [PHI[n] for n in ns], rng)
        order = math.lcm(*ns)
        assert tm.order == (order, None), ns
        assert probe_order(tm, order) == order, ns


@pytest.mark.parametrize("ring, polys, certificate", [
    (G, [[1, -2, 1]], "x - 1 twice"),  # the shear: Phi_1 squared
    (O, [PHI[1], PHI[2], [1, 2, 3, 2, 1], PHI[6]], "x^2 + x + 1 twice"),  # Phi_3 squared
    (O, [PHI[1], [1, 0, 2, 0, 1], PHI[2], PHI[1], PHI[1]], "x^2 + 1 twice"),  # Phi_4 squared
    (G, [PHI[1], [-2, 1]], "the factor x - 2, whose"),
    (H, [PHI[1], [1, Fraction(-6, 5), 1], PHI[2]], "the factor x^2 - 6/5x + 1, whose"),
    (H, [PHI[1], [0, 1], PHI[4]], "the factor x, whose"),  # singular
], ids=["shear", "jordan-Phi3", "jordan-Phi4", "q2", "unit-circle", "singular"])
def test_a_repeated_or_non_cyclotomic_factor_certifies_infinite_order(ring, polys, certificate):
    tm = companion_twist(ring, polys, random.Random(7))
    order, reason = tm.order
    assert order is None and certificate in reason
    assert probe_order(tm, 60) is None


def test_random_matrices_judged_infinite_have_no_small_power_the_identity():
    """Integer matrices with entries in -1..1 and first column e0: an exact finite
    order is the probe's least m, and an infinite one leaves sigma^m != id up to 60."""
    rng = random.Random(3)
    seen = set()
    for ring in (G, G, G, G, H, H, H, O) * 4:
        d = ring.qdim
        cols = [[int(i == 0) for i in range(d)]] + [
            [rng.randint(-1, 1) for _ in range(d)] for _ in range(d - 1)]
        tm = maps.make_twist(ring, "matrix", matrix=list(zip(*cols)))
        order, reason = tm.order
        assert (order is None) != (reason is None)
        assert probe_order(tm, order or 60) == order
        seen.add(order is None)
    assert seen == {True, False}


def test_pi_word_enumeration():
    assert list(maps.pi_words(1, 3)) == [
        ("sigma", "delta", "delta"),
        ("delta", "sigma", "delta"),
        ("delta", "delta", "sigma"),
    ]
    assert len(list(maps.pi_words(2, 5))) == 10


def test_pi_words_stream(monkeypatch):
    """The first of C(60, 30) ≈ 1.2e17 words comes without building the rest.

    Positions past the first raise, so an enumeration that builds its whole
    list fails here instead of filling memory.
    """
    def first_only(pool, r):
        combinations = itertools.combinations(pool, r)
        yield next(combinations)
        raise AssertionError("pi_words read past the word it was asked for")

    monkeypatch.setattr(maps, "itertools", SimpleNamespace(combinations=first_only))
    assert next(iter(maps.pi_words(30, 60))) == ("sigma",) * 30 + ("delta",) * 30


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
    assert not report.ok and report.name == "delta"
    failed = [axiom for axiom, passed, _ in report.entries if not passed]
    assert failed == ["kills_one"]
    with pytest.raises(ConstructionError, match="delta must kill one"):
        report.require()

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
    assert lifted.order == (2, None)


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


def matrix_document(tm):
    """The ``matrix`` twist document of a linear twist: row i lists coordinate i of each image."""
    images = [linalg.fraction_vector(*pair) for pair in tm.pairs]
    return {"kind": "matrix", "matrix": [[str(col[i]) for col in images]
                                         for i in range(len(images))]}


M2Q = rings.matrix_algebra(rings.rationals(), 2)
KIND_TWISTS = {
    "gaussian-conjugation": maps.make_twist(G, "conjugation"),
    "octonion-conjugation": maps.make_twist(O, "conjugation"),
    "diag_swap": maps.make_twist(M2Q, "diag_swap"),
    "transpose": maps.make_twist(rings.matrix_algebra(G, 2), "transpose"),
    "inner": maps.make_twist(H, "inner", u=H.element((1, 2, -1, 3))),
    "q_twist": maps.make_twist(G, "q_twist", q="-7/3"),
}


@pytest.mark.parametrize("name", KIND_TWISTS)
def test_a_twist_by_kind_is_its_matrix_document(name):
    """One value however a linear twist is built: by its kind, from its matrix document,
    or as an inverse, with equal canonical column pairs and equal hashes."""
    tm = KIND_TWISTS[name]
    from_doc = config.twist_from_descriptor(tm.ring, matrix_document(tm))
    assert from_doc.kind == "matrix" and from_doc == tm and hash(from_doc) == hash(tm)
    inverse = tm.inverse()
    assert inverse.inverse() == tm
    assert config.twist_from_descriptor(tm.ring, matrix_document(inverse)) == inverse
    assert all(linalg.canonical(*pair) == pair for pair in inverse.pairs)


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
    """Row k of one pi_rows sweep is the family's cached row (k, s), entry by entry pi_word_sum."""
    for ring, fam in [*pi_families(), nested_ore_family()]:
        rng = random.Random(20)
        for s in [ring.random_element(rng) for _ in range(3)]:
            rows = list(maps.pi_rows(fam, 5, s))
            assert len(rows) == 6
            for m, row in enumerate(rows):
                assert fam.row(m, s) == row
                assert list(row) == [maps.pi_word_sum(fam, i, m, s) for i in range(m + 1)]


_ROW_ORDERS = {
    "ascending": list(range(7)),
    "descending": list(range(6, -1, -1)),
    "interleaved": [3, 0, 5, 1, 6, 2, 4],
}


@pytest.mark.parametrize("order", list(_ROW_ORDERS))
def test_resumed_rows_match_fresh_sweeps(order):
    """Rows asked for in any order, for two elements in turn, equal a fresh sweep and the words."""
    requests = _ROW_ORDERS[order]
    for ring, fam in [*pi_families(), nested_ore_family()]:
        rng = random.Random(21)
        elements = [ring.random_element(rng) for _ in range(2)]
        for m in requests:
            for s in elements:
                row = fam.row(m, s)
                assert row == list(maps.pi_rows(fam, m, s))[-1]
                assert list(row) == [maps.pi_word_sum(fam, i, m, s) for i in range(m + 1)]
        assert fam._front == {s: max(requests) for s in elements}


def test_pi_sweeps_resume_at_the_front_and_keep_only_requested_rows():
    qy = poly_ring()
    calls = [0]

    def counted(tm):
        def apply(el):
            calls[0] += 1
            return tm(el)
        return apply

    fam = maps.PiFamily(counted(maps.make_twist(qy, "identity")),
                        counted(maps.make_twist(qy, "derivative")))
    s = qy.random_element(random.Random(22))
    # row k applies sigma k times and delta k times
    for m, first_row, rows, front in [
        (200, 1, [200], 200),
        (210, 201, [200, 210], 210),  # resumed at the front row
        (5, 1, [200, 210, 5], 210),   # below the front: swept again from row 0
    ]:
        calls[0] = 0
        maps.pi_apply(fam, 0, m, s)
        assert calls[0] == sum(2 * k for k in range(first_row, m + 1))
        assert list(fam._rows) == [(k, s) for k in rows]
        assert fam._front == {s: front}


class DroppedDeltaFamily(maps.PiFamily):
    """A mutant whose row ``m`` keeps only the sigma term of entry ``i``."""

    def __init__(self, sigma, delta, i, m):
        super().__init__(sigma, delta)
        self.entry = (i, m)

    def row(self, m, s):
        rows = list(maps.pi_rows(self, m, s))
        row = list(rows[m])
        i, mutated = self.entry
        if m == mutated:
            row[i] = self.sigma(rows[m - 1][i - 1]) if i else s.ring.zero
        return tuple(row)


def _families(label, mutant=None):
    """``suites._pi_families()`` narrowed to one label, its family optionally a mutant."""
    (_, ring, fam), = [entry for entry in suites._pi_families() if entry[0] == label]
    if mutant is not None:
        fam = DroppedDeltaFamily(fam.sigma, fam.delta, *mutant)
    return [(label, ring, fam)]


def _random_verdict(families):
    """The sampled check the basis check replaced: 25 random s per family."""
    for label, ring, fam in families:
        rng = suites._rng(f"pi-enum-{label}")
        elements = [ring.random_element(rng) for _ in range(25)]
        for m in range(7):
            for i in range(m + 1):
                if any(maps.pi_apply(fam, i, m, s) != maps.pi_word_sum(fam, i, m, s)
                       for s in elements):
                    return False
    return True


MUTANTS = [(0, 1), (1, 3), (2, 4), (5, 6)]


@pytest.mark.parametrize("mutant", [None, *MUTANTS],
                         ids=["sound", *(f"drop-delta-pi{i}-{m}" for i, m in MUTANTS)])
@pytest.mark.parametrize("label", ["weyl", "octonion"])
def test_pi_basis_check_kills_mutants_and_matches_the_sampled_check(monkeypatch, label, mutant):
    """A family whose row drops the delta term of one entry fails the basis check at that
    entry; on the family and on every mutant, the verdict equals the 25-sample check's."""
    sampled = _random_verdict(_families(label, mutant))
    families = _families(label, mutant)
    monkeypatch.setattr(suites, "_pi_families", lambda: families)
    failure = None
    try:
        suites._check_pi_recursion_enumeration()
    except AssertionError as exc:
        failure = str(exc)
    if mutant is None:
        assert failure is None
    else:
        i, m = mutant
        assert failure == f"pi({i},{m}) recursion != enumeration over {label}"
    assert sampled == (failure is None)


def test_pi_check_word_budget(monkeypatch):
    """One pi check applies the 127 words of m <= 6 to each of 8 + 7 basis elements.

    The sampled check it replaced applied them to 25 random s per family: 6,350 words.
    """
    suites._pi_families()  # build the cached configs outside the count
    words = 0
    word_apply = maps.pi_word_apply

    def counted(fam, word, s):
        nonlocal words
        words += 1
        return word_apply(fam, word, s)

    monkeypatch.setattr(maps, "pi_word_apply", counted)
    for _ in range(2):
        words = 0
        suites._check_pi_recursion_enumeration()
        assert words == 1905


def _poly_elements(ring, coefficients):
    exponents = st.integers(min(ring.exponent_window(3)), 3)
    return st.dictionaries(exponents, coefficients, max_size=4).map(ring.from_terms)


def _flat_elements(ring):
    return st.lists(RATIONALS, min_size=ring.qdim, max_size=ring.qdim).map(
        lambda coords: ring.unflatten(tuple(coords))
    )


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def _linear_cases():
    """(name, twist, elements) for each twist class and construction the pi checks rely on."""
    qy = poly_ring()
    g_laurent = poly.RingConfig(G, maps.make_twist(G, "identity"), None, "Y", poly.LAURENT)
    o_laurent = poly.RingConfig(O, maps.make_twist(O, "identity"), None, "Y", poly.LAURENT)
    rational_coeffs = _flat_elements(rings.rationals())
    shear = [[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0], [0, 3, 0, 1]]
    return [
        ("linear-conjugation", maps.make_twist(O, "conjugation"), _flat_elements(O)),
        ("linear-q_twist", maps.make_twist(G, "q_twist", q="3/2"), _flat_elements(G)),
        ("linear-matrix", maps.make_twist(H, "matrix", matrix=shear), _flat_elements(H)),
        ("poly-identity", maps.make_twist(qy, "identity"), _poly_elements(qy, rational_coeffs)),
        ("poly-coefficientwise",
         maps.make_twist(g_laurent, "coefficientwise", base=maps.make_twist(G, "conjugation")),
         _poly_elements(g_laurent, _flat_elements(G))),
        ("poly-y_scale", maps.make_twist(o_laurent, "y_scale", q=2),
         _poly_elements(o_laurent, _flat_elements(O))),
        ("derivative", maps.make_twist(qy, "derivative"), _poly_elements(qy, rational_coeffs)),
        ("y_coeff_scale", maps.make_twist(qy, "y_coeff_scale", q=3),
         _poly_elements(qy, rational_coeffs)),
        ("zero", maps.make_twist(G, "zero"), _flat_elements(G)),
        ("standard_derivation",
         maps.standard_derivation(O.basis_element(1), O.basis_element(2)), _flat_elements(O)),
    ]


LINEAR_CASES = _linear_cases()


@pytest.mark.parametrize("name, twist, elements", LINEAR_CASES,
                         ids=[case[0] for case in LINEAR_CASES])
@seed(26)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_twists_are_linear(name, twist, elements, data):
    """f(a·r + b·s) = a·f(r) + b·f(s): the premise that lets the pi checks run on a basis."""
    r, s = data.draw(elements), data.draw(elements)
    a, b = data.draw(RATIONALS), data.draw(RATIONALS)
    assert twist(r.scale(a) + s.scale(b)) == twist(r).scale(a) + twist(s).scale(b)
    # the pi checks reach every power through power_apply
    assert twist.power_apply(2, r.scale(a) + s.scale(b)) \
        == twist.power_apply(2, r).scale(a) + twist.power_apply(2, s).scale(b)


def test_pi_zero_above_clause_tests_the_oracle(monkeypatch):
    """An enumeration that counts min(i, m) sigmas is nonzero for i > m, and the check says so."""
    words = maps.pi_words
    monkeypatch.setattr(maps, "pi_words", lambda i, m: words(min(i, m), m))
    with pytest.raises(AssertionError, match="pi must vanish for i > m"):
        suites._check_pi_recursion_enumeration()
