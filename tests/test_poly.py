import pickle
import random
from collections import Counter
from itertools import combinations
from fractions import Fraction
from types import SimpleNamespace

import pytest

from skewring import linalg, maps, poly, rings, suites
from skewring.errors import (
    ConstructionError,
    NotInvertibleError,
    RingMismatchError,
    ZeroElementError,
)

G = rings.gaussian()
O = rings.octonions()
Q = rings.rationals()


def laurent_q2():
    return poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.LAURENT)


def rational_poly_ring():
    return poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)


def weyl():
    qy = rational_poly_ring()
    return poly.RingConfig(
        qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
        "X", poly.ORE,
    )


def test_config_validation():
    with pytest.raises(ConstructionError, match="does not respect one"):
        poly.RingConfig(G, maps.make_twist(G, "zero"), None, "X", poly.ORE)
    qy = rational_poly_ring()
    projector = maps.make_twist(G, "matrix", matrix=[[1, 0], [0, 0]])
    with pytest.raises(ConstructionError, match="bijective"):
        poly.RingConfig(G, projector, None, "X", poly.ORE)
    with pytest.raises(ConstructionError, match="laurent shape admits no delta"):
        poly.RingConfig(
            qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
            "X", poly.LAURENT,
        )
    with pytest.raises(ConstructionError, match="kill one"):
        poly.RingConfig(
            G, maps.make_twist(G, "identity"), maps.make_twist(G, "identity"),
            "X", poly.ORE,
        )


def test_twists_must_act_on_the_coefficient_ring():
    m2 = rings.matrix_algebra(Q, 2)
    message = r"sigma acts on HH, not on the coefficient ring M2\(QQ\)"
    with pytest.raises(ConstructionError, match=message):
        poly.RingConfig(m2, maps.make_twist(rings.quaternions(), "conjugation"), None, "X",
                        poly.LAURENT)
    qy = rational_poly_ring()
    with pytest.raises(ConstructionError, match=r"delta acts on QQ, not on the coefficient ring"):
        poly.RingConfig(qy, maps.make_twist(qy, "identity"), maps.make_twist(Q, "zero"), "X",
                        poly.ORE)
    # a twist on an equal ring built again acts on the coefficients: X·E11 = E22·X
    config = poly.RingConfig(rings.matrix_algebra(Q, 2), maps.make_twist(m2, "diag_swap"), None,
                             "X", poly.LAURENT)
    e11, e22 = m2.unit_matrix(0, 0), m2.unit_matrix(1, 1)
    assert config.gen * config.constant(e11) == config.monomial(e22, 1)


def test_axioms_checked_by_role_not_by_kind():
    inner = poly.RingConfig(G, maps.make_twist(G, "identity"), None, "Y", poly.LAURENT)
    doubles = maps.make_twist(G, "matrix", matrix=[[2, 0], [0, 1]])
    with pytest.raises(ConstructionError, match="does not respect one"):
        poly.RingConfig(
            inner, maps.make_twist(inner, "coefficientwise", base=doubles), None, "X", poly.ORE
        )
    # the lift of the zero map kills 1, so it is a valid delta
    zero_lift = maps.make_twist(inner, "coefficientwise", base=maps.make_twist(G, "zero"))
    config = poly.RingConfig(inner, maps.make_twist(inner, "identity"), zero_lift, "X", poly.ORE)
    assert config.delta_report.ok
    y = inner.gen
    i_y = inner.monomial(G.basis_element(1), 1)
    product = config.monomial(y, 1) * config.constant(i_y)
    assert product == config.monomial(inner.monomial(G.basis_element(1), 2), 1)


def test_weyl_relation():
    w = weyl()
    x = w.gen
    y = w.constant(rational_poly_ring().gen)
    assert x * y - y * x == w.one
    assert x * y == w.one + y * x


def test_laurent_monomial_products():
    cfg = laurent_q2()
    i = G.basis_element(1)
    assert cfg.monomial(i, 1) * cfg.monomial(i, -1) == cfg.scalar(-2)
    assert cfg.variable_power(3) * cfg.variable_power(-5) == cfg.variable_power(-2)


def test_negative_exponent_rejected_in_ore():
    cfg = poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.ORE)
    with pytest.raises(ConstructionError, match="negative exponent"):
        cfg.monomial(G.one, -1)


def test_spanning_set_is_exponent_major_from_the_lowest_exponent():
    """Certificate witnesses are first in this order, so the searches cut
    their last slot to the first block, the monomials at the lowest exponent."""
    one, i = G.basis_elements()
    cfg = laurent_q2()
    assert cfg.spanning_set(1) == [cfg.monomial(c, e) for e in (-1, 0, 1) for c in (one, i)]
    w = weyl()
    powers_of_y = [rational_poly_ring().variable_power(e) for e in (0, 1)]
    assert w.spanning_set(1) == [w.monomial(c, e) for e in (0, 1) for c in powers_of_y]


def test_degree_order_leading():
    cfg = laurent_q2()
    i = G.basis_element(1)
    p = cfg.monomial(G.scalar(2), 3) + cfg.monomial(i, 1)
    assert (p.degree, p.order, p.leading_coefficient) == (3, 1, G.scalar(2))
    q = cfg.variable_power(-2) + cfg.variable_power(5)
    assert (q.degree, q.order, q.leading_coefficient) == (5, -2, G.one)
    seven = cfg.scalar(7)
    assert (seven.degree, seven.order, seven.leading_coefficient) == (0, 0, G.scalar(7))
    with pytest.raises(ZeroElementError, match="zero polynomial has no degree"):
        cfg.zero.degree


def test_config_mismatch():
    with pytest.raises(RingMismatchError, match="incompatible rings"):
        laurent_q2().one * weyl().one


@pytest.mark.parametrize("name", sorted(suites.ROSTER))
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_times_monomial_matches_poly_mul(name, left):
    # the one exact monomial product agrees with poly_mul of the monomial on
    # that side, through the delta's pi sweep on the weyl ring too
    config = suites.builtin(name)
    rng = random.Random(f"times-monomial/{name}")
    for _ in range(4):
        p = config.random_element(rng, 3)
        coeff = config.coefficients.random_element(rng)
        exp = rng.choice(config.exponent_window(3))
        mono = config.monomial(coeff, exp)
        product = p.times_monomial(coeff, exp, left)
        assert type(product) is poly.SkewPoly
        assert product == (poly.poly_mul(mono, p) if left else poly.poly_mul(p, mono))


def test_right_form_laurent():
    cfg = laurent_q2()
    i = G.basis_element(1)
    p = cfg.monomial(i, 2)
    pairs = poly.to_right_form(p)
    assert pairs == [(2, i.scale(Fraction(1, 4)))]
    assert poly.from_right_form(cfg, pairs) == p


def test_right_form_weyl():
    w = weyl()
    y = rational_poly_ring().gen
    p = w.monomial(y, 1)
    pairs = poly.to_right_form(p)
    assert pairs == [(0, -rational_poly_ring().one), (1, y)]
    assert poly.from_right_form(w, pairs) == p


def test_right_form_constant():
    cfg = laurent_q2()
    i = G.basis_element(1)
    assert poly.to_right_form(cfg.constant(i)) == [(0, i)]


def test_right_form_round_trip_random():
    rng = random.Random(13)
    for cfg in (laurent_q2(), weyl()):
        for _ in range(50):
            p = cfg.random_element(rng, max_degree=8)
            assert poly.from_right_form(cfg, poly.to_right_form(p)) == p


def test_biadditivity_and_unit_random():
    rng = random.Random(17)
    for cfg in (laurent_q2(), weyl()):
        for _ in range(50):
            p, q, r = (cfg.random_element(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * (q + r) == p * q + p * r
            assert cfg.one * p == p
            assert p * cfg.one == p


def test_variable_associators_random():
    rng = random.Random(19)
    for cfg in (laurent_q2(), weyl()):
        x = cfg.gen
        for _ in range(25):
            p = cfg.random_element(rng, max_degree=4)
            q = cfg.random_element(rng, max_degree=4)
            assert (p * q) * x == p * (q * x)
            assert (p * x) * q == p * (x * q)


def test_degree_bound_and_division_equality():
    rng = random.Random(23)
    cfg = laurent_q2()
    for _ in range(40):
        p, q = cfg.random_element(rng), cfg.random_element(rng)
        if not p or not q:
            continue
        prod = p * q
        assert prod
        assert prod.degree == p.degree + q.degree


def test_monomial_inverse():
    cfg = laurent_q2()
    i = G.basis_element(1)
    # variable powers and constants are two-sided units under any twist
    for el in (cfg.variable_power(3), cfg.variable_power(-2), cfg.constant(i)):
        inv = cfg.invert(el)
        assert el * inv == cfg.one
        assert inv * el == cfg.one
    # i·X² has distinct one-sided inverses under the non-multiplicative
    # q=2 twist, hence no two-sided inverse at all
    with pytest.raises(NotInvertibleError):
        cfg.invert(cfg.monomial(i, 2))
    conj_cfg = poly.RingConfig(G, maps.make_twist(G, "conjugation"), None, "X", poly.LAURENT)
    p = conj_cfg.monomial(i, 2)
    inv = conj_cfg.invert(p)
    assert p * inv == conj_cfg.one
    assert inv * p == conj_cfg.one
    with pytest.raises(NotInvertibleError):
        cfg.invert(cfg.one + cfg.gen)
    ore = poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.ORE)
    with pytest.raises(NotInvertibleError):
        ore.invert(ore.gen)


def test_quantum_torus_relation():
    torus = poly.quantum_torus(O, 2)
    x = torus.gen
    y = torus.constant(torus.coefficients.gen)
    assert x * y == (y * x).scale(2)


def test_quantum_torus_trivial_q():
    torus = poly.quantum_torus(Q, 1)
    x = torus.gen
    y = torus.constant(torus.coefficients.gen)
    assert x * y == y * x


def test_quantum_torus_is_its_roster_document():
    """The library constructor and the configs built from documents give one ring."""
    assert poly.quantum_torus(O, 2) == suites.builtin("torus-octonion")
    assert poly.quantum_torus(Q, 1) == suites.builtin("torus-rational")


def test_config_hash_covers_every_compared_field():
    """Unequal roster configs hash apart (the Laurent ones in X once shared
    one hash; gaussian-q-1 is gaussian-conj); a pickled copy drops the cached
    hash, as string hashes differ between processes, and hashes again to an
    equal value here."""
    configs = [suites.builtin(name) for name in suites.ROSTER]
    assert all(hash(a) != hash(b) for a, b in combinations(configs, 2) if a != b)
    config = suites.builtin("torus-octonion")
    copy = pickle.loads(pickle.dumps(config))
    assert "_hash" not in vars(copy)
    assert copy == config and hash(copy) == hash(config)


def test_quantum_torus_coefficient_products():
    torus = poly.quantum_torus(O, 3)
    inner = torus.coefficients
    e1, e2 = O.basis_element(1), O.basis_element(2)
    left = torus.monomial(inner.constant(e1), 0) * torus.monomial(inner.constant(e2), 1)
    assert left == torus.monomial(inner.constant(e1 * e2), 1)
    # Y-crossing picks up the scaling factor
    a = torus.monomial(inner.monomial(e1, 1), 1)
    b = torus.monomial(inner.constant(e2), 0)
    assert a * b == torus.monomial(inner.monomial(e1 * e2, 1), 1)
    c = torus.monomial(inner.monomial(e2, 1), 0)
    assert torus.gen * c == torus.monomial(inner.monomial(e2.scale(3), 1), 1)


def test_quantum_torus_rejects_zero():
    with pytest.raises(ConstructionError):
        poly.quantum_torus(Q, 0)


def test_iterated_extend_requires_commuting():
    h = rings.quaternions()
    first = maps.make_twist(h, "inner", u=h.one + h.basis_element(1))
    second = maps.make_twist(h, "inner", u=h.one + h.basis_element(2))
    base = poly.RingConfig(h, first, None, "Y", poly.LAURENT)

    def lift(inner):
        sigma = maps.make_twist(base, "coefficientwise", base=inner)
        return poly.RingConfig(base, sigma, None, "X", poly.LAURENT)

    with pytest.raises(ConstructionError, match="commuting automorphisms"):
        lift(second)
    assert lift(first).coefficients is base


def test_iterated_identity_twists():
    base = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.LAURENT)
    outer = poly.RingConfig(base, maps.make_twist(base, "identity"), None, "X", poly.LAURENT)
    x = outer.gen
    y = outer.constant(base.gen)
    assert x * y == y * x


def test_d_structure_laurent_family():
    cfg = laurent_q2()
    family = poly.laurent_d_structure(cfg.sigma)
    rng = random.Random(29)
    elements = [G.random_element(rng) for _ in range(5)]
    report = poly.validate_d_structure(family, list(range(-4, 5)), elements)
    assert report.ok


def test_d_structure_ore_family():
    qy = rational_poly_ring()
    family = poly.ore_d_structure(
        maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")
    )
    rng = random.Random(31)
    elements = [qy.random_element(rng) for _ in range(4)]
    report = poly.validate_d_structure(family, list(range(0, 6)), elements)
    assert report.ok


class CountingTwist(maps.TwistMap):
    """Delegates to another twist and counts its applications."""

    def __init__(self, inner, counter):
        self.inner = inner
        self.ring = inner.ring
        self.kind = inner.kind
        self.counter = counter

    def __call__(self, el):
        self.counter[0] += 1
        return self.inner(el)


def test_d_structure_ore_octonion_twist_budget():
    # with the pi rows cached on the family, each sweep resumed from the
    # furthest row of its coefficient, and each pi value evaluated once per
    # validation, this takes 1,980 sigma/delta applications; with sweeps
    # restarted at row 0 and no per-call memo it took 5,170, and rebuilt
    # on every pi_apply call 47,550. The count is deterministic, so a
    # dropped cache or memo fails here without any timing noise.
    sigma = maps.make_twist(O, "conjugation")
    delta = maps.standard_derivation(O.basis_element(1), O.basis_element(2))
    counts = []
    for _ in range(2):
        counter = [0]
        family = poly.ore_d_structure(
            CountingTwist(sigma, counter), CountingTwist(delta, counter)
        )
        rng = random.Random(41)
        elements = [O.random_element(rng) for _ in range(3)]
        report = poly.validate_d_structure(family, range(0, 6), elements)
        assert report.ok
        counts.append(counter[0])
    # the cache lives with its family, so a fresh family starts cold
    assert counts == [1980, 1980]


def test_d_structure_validation_evaluates_each_pi_value_once():
    base = poly.ore_d_structure(
        maps.make_twist(O, "conjugation"),
        maps.standard_derivation(O.basis_element(1), O.basis_element(2)),
    )
    seen = Counter()

    def pi(a, b, r):
        seen[a, b, r] += 1
        return base.pi(a, b, r)

    family = poly.DStructure(base.monoid, base.name, pi, base.support)
    rng = random.Random(41)
    elements = [O.random_element(rng) for _ in range(3)]
    assert poly.validate_d_structure(family, range(0, 6), elements).ok
    assert seen and set(seen.values()) == {1}
    # the memo dies with the call: a second validation evaluates everything again
    assert poly.validate_d_structure(family, range(0, 6), elements).ok
    assert set(seen.values()) == {2}


def test_d_structure_non_additive_family_fails_d3():
    base = poly.ore_d_structure(maps.make_twist(G, "conjugation"), maps.make_twist(G, "zero"))

    def shifted(a, b, r):
        """Non-additive at (a, b) = (3, 3) only: adds 1."""
        value = base.pi(a, b, r)
        return value + G.one if (a, b) == (3, 3) else value

    rng = random.Random(37)
    elements = [G.random_element(rng) for _ in range(3)]
    family = poly.DStructure("naturals", "shifted", shifted, base.support)
    report = poly.validate_d_structure(family, range(0, 5), elements)
    assert any(axiom == "D3" and not passed for axiom, passed, _ in report.entries)


def test_d_structure_rejects_unknown_monoid():
    with pytest.raises(ConstructionError, match="unsupported monoid: reals"):
        poly.DStructure("reals", "bad", lambda a, b, s: s, lambda a: (a,))


def test_d_structure_corruption_fails_d1():
    cfg = laurent_q2()
    family = poly.corrupted_d_structure(poly.laurent_d_structure(cfg.sigma))
    rng = random.Random(37)
    elements = [G.random_element(rng) for _ in range(3)]
    report = poly.validate_d_structure(family, list(range(-2, 3)), elements)
    assert not report.ok
    assert any(axiom == "D1" and not passed for axiom, passed, _ in report.entries)


def test_power_operator():
    cfg = laurent_q2()
    assert cfg.gen ** 3 == cfg.variable_power(3)
    assert cfg.gen ** 0 == cfg.one


def test_ring_config_solves():
    qy = rational_poly_ring()
    y = qy.gen
    c = y + qy.one
    u = (y * y).scale(3) - qy.scalar(Fraction(1, 2))
    r = c * u
    assert qy.solver(c, "left")(r) == u
    assert qy.solver(c, "right")(r) == u
    assert qy.solver(c, "left")(qy.zero) == qy.zero
    # Y + 1 does not divide Y^2 + 2, and Y is not a unit of Q[Y]
    assert qy.solver(c, "left")(y * y + qy.scalar(2)) is None
    assert qy.solver(y, "right")(qy.one) is None
    # laurent shape: quotients may have negative exponents
    ly = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.LAURENT)
    assert ly.solver(ly.gen, "left")(ly.one) == ly.variable_power(-1)
    c2 = ly.gen + ly.variable_power(-1)
    u2 = ly.variable_power(-2).scale(3) - ly.gen
    assert ly.solver(c2, "left")(c2 * u2) == u2
    assert ly.solver(ly.gen + ly.one, "left")(ly.one) is None
    # the Weyl algebra is not commutative and X is not a unit there, yet
    # long division finds the exact multiple on both sides
    w = weyl()
    assert w.solver(w.gen, "left")(w.gen * w.gen) == w.gen
    assert w.solver(w.gen, "right")(w.gen * w.gen) == w.gen
    # a non-commutative laurent config divides by a monomial on both sides
    lq = laurent_q2()
    x = lq.gen
    u3 = x * x + lq.constant(G.element([0, 1]))
    assert lq.solver(x, "left")(x * u3) == u3
    assert lq.solver(x, "right")(u3 * x) == u3
    assert lq.solver(x + lq.one, "left")(x * u3) is None


def _division_oracle_rings():
    h = rings.quaternions()
    inner = maps.make_twist(h, "inner", u=h.one + h.basis_element(1))
    octonion_laurent = poly.RingConfig(O, maps.make_twist(O, "identity"), None, "Y", poly.LAURENT)
    return {
        "octonion-laurent": octonion_laurent,
        "quaternion-inner-ore": poly.RingConfig(h, inner, None, "Y", poly.ORE),
        "quaternion-inner-laurent": poly.RingConfig(h, inner, None, "Y", poly.LAURENT),
        "weyl": weyl(),
        "gauss-q2-laurent": laurent_q2(),
        "rational-ore": rational_poly_ring(),
    }


@pytest.mark.parametrize("name", list(_division_oracle_rings()))
def test_solver_recovers_every_exact_multiple(name):
    """Division oracle on O[Y^±], H[Y; inner by 1+i] in both shapes, the Weyl
    algebra, Q(i)[Y^±; q=2] and Q[Y], all domains: ``solver(c, "left")``
    returns u from c·u and ``solver(c, "right")`` returns it from u·c, for
    seeded random c and u (40 pairs, 80 divisions a ring)."""
    cfg = _division_oracle_rings()[name]
    rng = random.Random(44)
    for _ in range(40):
        c = u = cfg.zero
        while not c:
            c = cfg.random_element(rng, max_degree=2)
        while not u:
            u = cfg.random_element(rng, max_degree=2)
        assert cfg.solver(c, "left")(c * u) == u
        assert cfg.solver(c, "right")(u * c) == u


def test_solver_refuses_a_non_multiple():
    qy = rational_poly_ring()
    y = qy.gen
    assert qy.solver(y + qy.one, "left")(y * y + qy.scalar(2)) is None
    assert qy.solver(y + qy.one, "right")(y * y + qy.scalar(2)) is None


def test_bool_compares_unequal_without_raising():
    for cfg in (laurent_q2(), rational_poly_ring(), weyl()):
        for el in (cfg.one, cfg.zero, cfg.gen):
            assert el != True and el != False  # noqa: E712
            assert el not in [True, False]
        assert cfg.one == 1 and cfg.zero == 0


def test_laurent_product_canonicalises_once_per_exponent(monkeypatch):
    """A 21x21 product over Q(i) with q=2 sums each output exponent once."""
    config = laurent_q2()
    rng = random.Random(19)
    p, q = (
        config.from_terms({
            e: G.element([Fraction(rng.randint(1, 99), rng.randint(1, 9)),
                          Fraction(rng.randint(-99, -1), rng.randint(1, 9))])
            for e in range(-10, 11)
        })
        for _ in range(2)
    )
    expected = sum(
        (config.monomial(r, m) * config.monomial(s, n)
         for m, r in p.terms.items() for n, s in q.terms.items()),
        config.zero,
    )
    calls = 0

    def counted(nums, den):
        nonlocal calls
        calls += 1
        return linalg.canonical(nums, den)

    # the twist powers canonicalise in maps; only the coefficient ring's
    # products and sums are counted
    monkeypatch.setattr(rings, "linalg", SimpleNamespace(**{**vars(linalg), "canonical": counted}))
    product = poly.poly_mul(p, q)
    assert calls == 41 == len(product.terms)
    monkeypatch.undo()
    assert product == expected


def _oracle_mul(a, b):
    """a·b from sum_i (r·pi_i^m(s))·V^(i+n) with ``pi_word_sum``, recursing into coefficients.

    Only monomials, ``+`` and the word enumeration build a polynomial
    product, so no level runs the pi sweep or a ``dot``.
    """
    if not isinstance(a, poly.SkewPoly):
        return a * b
    config = a.config
    fam = maps.PiFamily(config.sigma, config.delta)
    total = config.zero
    for m, r in a.terms.items():
        for n, s in b.terms.items():
            for i in range(m + 1):
                total = total + config.monomial(_oracle_mul(r, maps.pi_word_sum(fam, i, m, s)),
                                                i + n)
    return total


def nested_weyl():
    """A1[X; Z -> 2Z, d/dZ] over the Weyl algebra A1 = Q[Y][Z; id, d/dY]."""
    qy = rational_poly_ring()
    a1 = poly.RingConfig(qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
                         "Z", poly.ORE)
    return poly.RingConfig(a1, maps.make_twist(a1, "y_scale", q=2),
                           maps.make_twist(a1, "derivative"), "X", poly.ORE)


@pytest.mark.parametrize("make", [
    weyl,
    lambda: poly.RingConfig(O, maps.make_twist(O, "conjugation"), None, "X", poly.ORE),
    lambda: poly.RingConfig(O, maps.make_twist(O, "conjugation"),
                            maps.standard_derivation(O.basis_element(1), O.basis_element(2)),
                            "X", poly.ORE),
    nested_weyl,
], ids=["weyl", "octonion-conj", "octonion-conj-derivation", "nested-weyl"])
def test_ore_product_matches_word_enumeration(make):
    config = make()
    rng = random.Random(20)
    for _ in range(6):
        p, q = (config.random_element(rng, max_degree=3) for _ in range(2))
        assert poly.poly_mul(p, q) == _oracle_mul(p, q)


@pytest.mark.parametrize("make", [
    rational_poly_ring,
    lambda: poly.quantum_torus(O, 2).coefficients,
    lambda: poly.quantum_torus(O, 2),
    weyl,
], ids=["QY", "OY", "torus", "weyl"])
def test_config_dot_matches_sequential_sum(make):
    config = make()
    rng = random.Random(22)
    products = [tuple(config.random_element(rng, max_degree=2) for _ in range(2))
                for _ in range(5)]
    expected = sum((a * b for a, b in products), config.zero)
    items = [(a, 0, b) for a, b in products]
    assert config.dot(items) == expected
    assert config.dot([]) == config.zero and not config.dot([]).terms
    (a, b), (c, d) = products[:2]
    assert config.dot([(a, 0, b)]) == a * b
    assert not config.dot(items + [(-x, 0, y) for x, y in products]).terms
    partial = config.dot([(a, 0, b), (-a, 0, b), (c, 0, d)])
    assert partial == c * d and all(partial.terms.values())
    foreign = laurent_q2().gen
    for x, y in ((a, foreign), (foreign, b), (a, config.coefficients.one)):
        with pytest.raises(RingMismatchError):
            config.dot([(x, 0, y)])


def test_laurent_product_applies_sigma_inside_dot(power_apply_count):
    """A 7-term by 7-term product over QQ(i)[X^±; q = 2] makes no ``power_apply``
    call: each sigma^m runs inside the coefficient ring's ``dot`` on the
    factor's numerators (70 calls when each twisted factor was an element)."""
    config = laurent_q2()
    rng = random.Random(7)
    p, q = (config.from_terms({e: G.random_element(rng) for e in range(-3, 4)})
            for _ in range(2))
    expected = config.zero
    for m, r in p.terms.items():
        for n, s in q.terms.items():
            expected = expected + config.monomial(r * config.sigma.power_apply(m, s), m + n)
    power_apply_count["calls"] = 0
    assert poly.poly_mul(p, q) == expected
    assert power_apply_count["calls"] == 0


def test_laurent_product_applies_only_the_odd_powers_of_a_conjugation(monkeypatch):
    """A 7-term by 7-term product over OO[X^±; conjugation]: each odd left
    exponent m runs sigma^m's kernel once per right term, and each even m, an
    identity power, applies nothing."""
    sigma = maps.make_twist(O, "conjugation")
    config = poly.RingConfig(O, sigma, None, "X", poly.LAURENT)
    rng = random.Random(7)
    p, q = (config.from_terms({e: O.random_element(rng) for e in range(-3, 4)})
            for _ in range(2))
    expected = config.zero
    for m, r in p.terms.items():
        for n, s in q.terms.items():
            expected = expected + config.monomial(r * sigma.power_apply(m, s), m + n)
    calls = Counter()
    power_columns = sigma.power_columns

    def counted(m):
        kernel = power_columns(m)
        if kernel is None:
            return None

        def apply(pair):
            calls[m] += 1
            return kernel(pair)

        return apply

    monkeypatch.setattr(sigma, "power_columns", counted)
    assert poly.poly_mul(p, q) == expected
    assert calls == {m: 7 for m in (-3, -1, 1, 3)}


def test_weyl_product_sweeps_pi_once_per_right_term(monkeypatch):
    """A dense degree-6 by degree-6 Weyl product: one pi sweep per term of the right factor."""
    config = weyl()
    qy = config.coefficients
    rng = random.Random(20)
    p, q = (
        config.from_terms({
            e: qy.from_terms({k: Q.scalar(Fraction(rng.randint(1, 99), rng.randint(1, 9)))
                              for k in range(7)})
            for e in range(7)
        })
        for _ in range(2)
    )
    expected = _oracle_mul(p, q)
    counts = {"twist": 0, "canonical": 0}

    def counted_twist(call):
        def wrapper(self, el):
            counts["twist"] += 1
            return call(self, el)
        return wrapper

    def counted_canonical(nums, den):
        counts["canonical"] += 1
        return linalg.canonical(nums, den)

    for cls in (maps.PolyTwist, maps.DerivativeMap):
        monkeypatch.setattr(cls, "__call__", counted_twist(cls.__call__))
    monkeypatch.setattr(rings, "linalg",
                        SimpleNamespace(**{**vars(linalg), "canonical": counted_canonical}))
    product = poly.poly_mul(p, q)
    monkeypatch.undo()
    # 7 right-hand terms, each sigma and delta 2k times in row k = 1..6:
    # 7 * 42 (one pi row per left exponent: 7 * 112 = 784)
    assert counts["twist"] == 294
    # 169 output sums, one per (X, Y) exponent, and 490 adds inside the
    # sweep (7,230 with a partial sum per inner product); scaling a term
    # by an integer exponent reduces by one gcd, without canonical
    assert counts["canonical"] == 659
    assert product == expected


def test_commutative_solver_factors_its_lead_once(factor_count):
    """One Q[Y] solver, several right-hand sides, one factorisation of the lead."""
    qy = rational_poly_ring()
    y = qy.gen
    c = y.scale(2) + qy.one
    rng = random.Random(21)
    cofactors = [qy.random_element(rng) for _ in range(3)]
    rhs = [c * u for u in cofactors] + [y * y + qy.scalar(2), qy.zero]
    factor_count["calls"] = 0
    solve = qy.solver(c, "left")
    assert [solve(r) for r in rhs] == [*cofactors, None, qy.zero]
    assert factor_count["calls"] == 1
    assert qy.solver(qy.zero, "left")(qy.one) is None
