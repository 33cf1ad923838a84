import random
from fractions import Fraction

import pytest

from skewring import config, maps, parsing, poly, rings, series
from skewring.errors import (
    ConstructionError,
    NotInvertibleError,
    RingMismatchError,
    ZeroElementError,
)

G = rings.gaussian()
Q = rings.rationals()


def cfg_q2():
    return poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.LAURENT)


def cfg_conj():
    return poly.RingConfig(G, maps.make_twist(G, "conjugation"), None, "X", poly.LAURENT)


def cfg_rational():
    return poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "X", poly.LAURENT)


def test_commutative_product():
    cfg = cfg_rational()
    a = series.series(cfg, {0: Q.one, 1: Q.one}, 4)
    b = series.series(cfg, {0: Q.one, 1: -Q.one}, 4)
    product = a * b
    assert product.coefficient(0) == Q.one
    assert not product.coefficient(1)
    assert product.coefficient(2) == -Q.one


def test_twisted_square():
    cfg = cfg_q2()
    i = G.basis_element(1)
    s = series.series(cfg, {1: i}, 4)
    assert (s * s).coefficient(2) == G.scalar(-2)


def test_unit_multiplication():
    cfg = cfg_q2()
    rng = random.Random(3)
    one = series.series_one(cfg, 5)
    for _ in range(10):
        terms = {e: G.random_element(rng) for e in range(-2, 3)}
        a = series.series(cfg, terms, 5)
        assert series.equal_to_precision(one * a, a)
        assert series.equal_to_precision(a * one, a)


def test_order_and_leading():
    cfg = cfg_rational()
    s = series.series(cfg, {3: Q.one, 5: -Q.one}, 6)
    assert (s.order, s.leading_coefficient) == (3, Q.one)
    laurent = series.series(cfg, {-2: Q.one, 0: Q.one}, 4)
    assert (laurent.order, laurent.leading_coefficient) == (-2, Q.one)
    with pytest.raises(ZeroElementError, match="order undefined at this precision"):
        series.series(cfg, {}, 4).order  # noqa: B018


def test_geometric_inverse():
    cfg = cfg_rational()
    g = series.series(cfg, {0: Q.one, 1: -Q.one}, 4)
    inv = series.series_invert(g, side="both")
    assert inv == series.series(cfg, {e: Q.one for e in range(5)}, 4)


def test_frozen_twisted_inverse():
    cfg = cfg_q2()
    i = G.basis_element(1)
    a = series.series(cfg, {0: G.one, 1: -i}, 4)
    b = series.series_invert(a)
    expected = series.series(
        cfg, {0: G.one, 1: i, 2: G.scalar(-2), 3: i.scale(-2), 4: G.scalar(4)}, 4
    )
    assert b == expected
    assert series.equal_to_precision(a * b, series.series_one(cfg, 4))


def test_one_sided_inverses_differ():
    cfg = cfg_q2()
    i = G.basis_element(1)
    a = series.series(cfg, {0: G.one, 1: -i}, 4)
    right = series.series_invert(a, side="right")
    left = series.series_invert(a, side="left")
    assert series.equal_to_precision(a * right, series.series_one(cfg, 4))
    assert series.equal_to_precision(left * a, series.series_one(cfg, 4))
    assert right.coefficient(3) == i.scale(-2)
    assert left.coefficient(3) == i.scale(-8)
    with pytest.raises(NotInvertibleError, match="series is not a unit"):
        series.series_invert(a, side="both")


def test_two_sided_round_trip_with_automorphism():
    cfg = cfg_conj()
    rng = random.Random(5)
    done = 0
    while done < 50:
        lead = G.random_element(rng)
        if not lead:
            continue
        terms = {0: lead}
        for e in range(1, 5):
            c = G.random_element(rng)
            if c:
                terms[e] = c
        done += 1
        a = series.series(cfg, terms, 6)
        b = series.series_invert(a, side="both")
        assert series.equal_to_precision(a * b, series.series_one(cfg, 6))
        assert series.equal_to_precision(b * a, series.series_one(cfg, 6))


def test_constant_unit_inverse():
    cfg = cfg_q2()
    i = G.basis_element(1)
    inv = series.series_invert(series.series(cfg, {0: i}, 4), side="both")
    assert inv.coefficient(0) == -i


def test_shifted_order_inverse():
    cfg = cfg_conj()
    i = G.basis_element(1)
    a = series.series(cfg, {-2: i, 0: G.one}, 3)
    b = series.series_invert(a, side="both")
    assert b.order == 2
    product = a * b
    assert series.equal_to_precision(product, series.series_one(cfg, product.precision))


def test_non_unit_rejected():
    cfg = cfg_rational()
    with pytest.raises(NotInvertibleError, match="series is not a unit"):
        series.series_invert(series.series(cfg, {}, 4))


@pytest.mark.parametrize("shape", ["power_series", "laurent_series"])
def test_positive_order_is_a_unit_only_in_a_laurent_series(shape):
    doc = {"ring": "rationals", "twist": "identity", "shape": shape, "precision": 4}
    x = parsing.parse_series("X + O(X^4)", config.load_config(doc).ring_config)
    if shape == "power_series":
        with pytest.raises(NotInvertibleError, match="series is not a unit"):
            series.series_invert(x)
    else:
        assert repr(series.series_invert(x)) == "X^-1 + O(X^2)"


def test_order_additivity():
    cfg = cfg_q2()
    rng = random.Random(7)
    done = 0
    while done < 50:
        def rand_series():
            start = rng.randint(-3, 2)
            terms = {}
            for e in range(start, start + 3):
                c = G.random_element(rng)
                if c:
                    terms[e] = c
            if not terms:
                return None
            return series.series(cfg, terms, start + 6)
        a, b = rand_series(), rand_series()
        if a is None or b is None:
            continue
        done += 1
        assert (a * b).order == a.order + b.order


def test_precision_propagation():
    cfg = cfg_rational()
    a = series.series(cfg, {0: Q.one}, 5)
    b = series.series(cfg, {0: Q.one}, 3)
    assert (a + b).precision == 3
    assert (a * b).precision == 3
    shifted = series.series(cfg, {2: Q.one}, 5, window_start=2)
    assert (a * shifted).precision == 5 + 2 - 2  # min(5+2, 5+0)
    assert (a * shifted).window_start == 2


def test_poly_embedding_cross_oracle():
    cfg = cfg_q2()
    rng = random.Random(11)
    for _ in range(25):
        p = cfg.random_element(rng, max_degree=3)
        q = cfg.random_element(rng, max_degree=3)
        sp = series.series(cfg, p.terms, 8, window_start=-4)
        sq = series.series(cfg, q.terms, 8, window_start=-4)
        expected = p * q
        product = sp * sq
        for e in range(product.window_start, product.precision + 1):
            assert product.coefficient(e) == expected.coefficient(e)


def test_times_monomial():
    cfg = cfg_q2()
    i = G.basis_element(1)
    a = series.series(cfg, {0: G.one, 1: i}, 4)
    shifted = a.times_monomial(i, 2)
    assert shifted.precision == 6
    assert shifted.coefficient(2) == i
    assert shifted.coefficient(3) == i * i.scale(2)


@pytest.mark.parametrize("make_config", [cfg_q2, cfg_conj], ids=["q2", "conj"])
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_times_monomial_is_the_exact_series_product(make_config, left):
    # the monomial is exact: N and w shift by its exponent, and the product
    # equals series_mul with the monomial known far beyond a's precision
    cfg = make_config()
    rng = random.Random(35)
    a = series.series(cfg, {-1: G.random_element(rng), 0: G.one, 3: G.random_element(rng)}, 5, -2)
    coeff = G.one + G.basis_element(1)
    for exp in (-2, 0, 3):
        shifted = a.times_monomial(coeff, exp, left)
        assert (shifted.precision, shifted.window_start) == (5 + exp, -2 + exp)
        mono = series.series(cfg, {exp: coeff}, 20, exp)
        expected = series.series_mul(mono, a) if left else series.series_mul(a, mono)
        assert (expected.precision, expected.window_start) == (5 + exp, -2 + exp)
        assert shifted == expected


@pytest.mark.parametrize("build", [
    lambda cfg: series.series(cfg, {-1: Q.one}, 4),
    lambda cfg: series.TruncatedSeries(cfg, {-1: Q.one, 0: Q.one}, 4, -1),
], ids=["series", "TruncatedSeries"])
@pytest.mark.parametrize("shape", ["power_series", "laurent_series"])
def test_exponent_rule_holds_at_construction(build, shape):
    # a power series truncates R[X; sigma], so no constructor admits X^-1
    doc = {"ring": "rationals", "twist": "identity", "shape": shape, "precision": 4}
    cfg = config.load_config(doc).ring_config
    if shape == "power_series":
        with pytest.raises(ConstructionError, match="negative exponent"):
            build(cfg)
    else:
        assert build(cfg).order == -1


@pytest.mark.parametrize("precision, window_start", [
    (True, None), (4.0, None), (Fraction(4), None), (4, 0.0), (4, False),
])
def test_a_precision_that_is_not_an_int_is_refused(precision, window_start):
    # TruncatedSeries(cfg, terms, True) printed O(X^True)
    with pytest.raises(ConstructionError, match="series bounds must be ints"):
        series.TruncatedSeries(cfg_q2(), {0: G.one}, precision, window_start)


def test_invert_with_polynomial_coefficients():
    # coefficients in Q[Y]: the solves are exact division there, so the
    # unit leading coefficient 2 inverts and the non-unit Y does not
    qy = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)
    cfg = poly.RingConfig(qy, maps.make_twist(qy, "identity"), None, "X", poly.LAURENT)
    a = series.series(cfg, {0: qy.scalar(2), 1: qy.gen}, 5)
    inv = series.series_invert(a, side="both")
    one = series.series_one(cfg, 5)
    assert series.equal_to_precision(a * inv, one)
    assert series.equal_to_precision(inv * a, one)
    assert inv.coefficient(1) == qy.gen.scale(Fraction(-1, 4))
    with pytest.raises(NotInvertibleError):
        series.series_invert(series.series(cfg, {0: qy.gen, 1: qy.one}, 5))
    # over Q[Y, 1/Y] the leading coefficient Y is a unit
    ly = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.LAURENT)
    lcfg = poly.RingConfig(ly, maps.make_twist(ly, "identity"), None, "X", poly.LAURENT)
    b = series.series(lcfg, {0: ly.gen, 1: ly.one}, 4)
    inv_b = series.series_invert(b, side="both")
    assert series.equal_to_precision(b * inv_b, series.series_one(lcfg, 4))
    assert inv_b.coefficient(0) == ly.variable_power(-1)
    # over Q(i)[X^±; q=2], which is not commutative, a monomial leading
    # coefficient divides by long division
    inner = cfg_q2()
    qcfg = poly.RingConfig(inner, maps.make_twist(inner, "identity"), None, "Z", poly.LAURENT)
    qone = series.series_one(qcfg, 4)
    assert series.series_invert(series.series(qcfg, {0: inner.one}, 4)) == qone
    c = series.series(qcfg, {0: inner.gen, 1: inner.one}, 4)
    inv_c = series.series_invert(c, side="both")
    assert series.equal_to_precision(c * inv_c, qone)
    assert series.equal_to_precision(inv_c * c, qone)
    assert inv_c.coefficient(0) == inner.variable_power(-1)
    with pytest.raises(NotInvertibleError):
        series.series_invert(series.series(qcfg, {0: inner.gen + inner.one}, 4))


def test_left_inverse_refuses_a_singular_twisted_lead():
    """M2(Q)[[X; sigma]] under a matrix twist fixing 1 that maps the invertible
    lead diag(1, -1) to a singular matrix: the right recurrence divides by the
    lead itself and inverts 1 + lead·X, but the left one must solve
    u·sigma(lead) = -lead⁻¹ at X^1, which has no solution."""
    m2 = rings.matrix_algebra(Q, 2)
    e11, e12, e21, e22 = m2.basis_elements()
    # columns: sigma(E11) = E11 + E12 - E21/4, sigma(E22) = E22 - E12 + E21/4,
    # sigma(E12) = E12 and sigma(E21) = E21
    sigma = maps.make_twist(m2, "matrix", matrix=[
        ["1", "0", "0", "0"], ["1", "1", "0", "-1"], ["-1/4", "0", "1", "1/4"],
        ["0", "0", "0", "1"]])
    cfg = poly.RingConfig(m2, sigma, None, "X", poly.ORE)
    lead = e11 - e22
    assert sigma(m2.one) == m2.one and m2.invert(lead) == lead
    with pytest.raises(NotInvertibleError):
        m2.invert(sigma(lead))
    a = series.series(cfg, {0: lead, 1: m2.one}, 3)
    right = series.series_invert(a, side="right")
    assert series.equal_to_precision(a * right, series.series_one(cfg, 3))
    for side in ("left", "both"):
        with pytest.raises(NotInvertibleError, match="series is not a unit"):
            series.series_invert(a, side=side)


@pytest.mark.parametrize("make_config, side, factorisations", [
    (cfg_q2, "right", 1),
    # sigma^n(lead) is the lead or its conjugate: two values, each factored once
    (cfg_conj, "left", 2),
    (cfg_conj, "both", 3),
], ids=["q2-right", "conj-left", "conj-both"])
def test_series_invert_factors_each_divisor_once(monkeypatch, factor_count, make_config,
                                                 side, factorisations):
    """A precision-30 inverse divides by its lead 31 times and factors it once."""
    config = make_config()
    rng = random.Random(30)
    coeffs = {e: G.element([Fraction(rng.randint(1, 9), rng.randint(1, 5)),
                            Fraction(rng.randint(1, 9), rng.randint(1, 5))])
              for e in range(31)}
    a = series.series(config, coeffs, 30)
    factor_count["calls"] = 0  # building the config inverts its twist
    inv = series.series_invert(a, side=side)
    assert factor_count["calls"] == factorisations
    monkeypatch.undo()
    one = series.series_one(config, 30)
    if side != "left":
        assert series.equal_to_precision(a * inv, one)
    if side != "right":
        assert series.equal_to_precision(inv * a, one)


@pytest.mark.parametrize("side", ["right", "left"])
def test_series_invert_applies_sigma_only_outside_its_sums(power_apply_count, side):
    """A precision-10 inverse under q = 2 makes one ``power_apply`` call per step:
    sigma^(-w) of the right inverse's new coefficient, or the left one's
    divisor sigma^n(lead). The sums' own powers run inside ``dot`` (they
    made 55 more calls when each twisted factor was built as an element)."""
    config = cfg_q2()
    rng = random.Random(10)
    a = series.series(config, {e: G.random_element(rng) for e in range(11)}, 10)
    power_apply_count["calls"] = 0
    inv = series.series_invert(a, side=side)
    assert power_apply_count["calls"] == 11
    one = series.series_one(config, 10)
    assert series.equal_to_precision(a * inv if side == "right" else inv * a, one)


def _mixed_operands():
    """A Laurent series s and a polynomial p of one config, and a coefficient c."""
    cfg = cfg_q2()
    i = G.basis_element(1)
    return series.series(cfg, {-1: i, 0: G.one, 1: i}, 4), cfg.gen + cfg.one, i


# the operators on a series, a polynomial, a scalar and a coefficient: an
# exception type, a truth value, or the canonical text of a series result.
# Series and polynomials never mix; a scalar or coefficient is a constant
# series known to the series' precision, on either side, and a product with
# one keeps the series' precision and window.
MIXED_OPERANDS = [
    ("s+p", lambda s, p, c: s + p, TypeError),
    ("p+s", lambda s, p, c: p + s, TypeError),
    ("s-p", lambda s, p, c: s - p, TypeError),
    ("p-s", lambda s, p, c: p - s, TypeError),
    ("s*p", lambda s, p, c: s * p, TypeError),
    ("p*s", lambda s, p, c: p * s, TypeError),
    ("s==p", lambda s, p, c: s == p, False),
    ("p==s", lambda s, p, c: p == s, False),
    ("s==2", lambda s, p, c: s == 2, False),
    ("s*2", lambda s, p, c: s * 2, "[0,2]X^-1 + 2 + [0,2]X + O(X^4)"),
    ("2*s", lambda s, p, c: 2 * s, "[0,2]X^-1 + 2 + [0,2]X + O(X^4)"),
    ("s+2", lambda s, p, c: s + 2, "iX^-1 + 3 + iX + O(X^4)"),
    ("2+s", lambda s, p, c: 2 + s, "iX^-1 + 3 + iX + O(X^4)"),
    ("s-2", lambda s, p, c: s - 2, "iX^-1 - 1 + iX + O(X^4)"),
    ("2-s", lambda s, p, c: 2 - s, "-iX^-1 + 1 - iX + O(X^4)"),
    ("s+c", lambda s, p, c: s + c, "iX^-1 + [1,1] + iX + O(X^4)"),
    ("c+s", lambda s, p, c: c + s, "iX^-1 + [1,1] + iX + O(X^4)"),
    ("s*c", lambda s, p, c: s * c, "-1/2X^-1 + i - 2X + O(X^4)"),
    ("c*s", lambda s, p, c: c * s, "-X^-1 + i - X + O(X^4)"),
    ("s**0", lambda s, p, c: s ** 0, "1 + O(X^4)"),
    ("s**2", lambda s, p, c: s ** 2, "-1/2X^-2 + [0,2]X^-1 - 3/2 + [0,2]X - 2X^2 + O(X^3)"),
]


@pytest.mark.parametrize("expr, expected", [cell[1:] for cell in MIXED_OPERANDS],
                         ids=[cell[0] for cell in MIXED_OPERANDS])
def test_mixed_operand_table(expr, expected):
    s, p, c = _mixed_operands()
    if isinstance(expected, type):
        with pytest.raises(expected):
            expr(s, p, c)
        return
    result = expr(s, p, c)
    if isinstance(expected, bool):
        assert result is expected
        return
    assert type(result) is series.TruncatedSeries
    assert repr(result) == expected


def test_series_power_is_repeated_product():
    s, _, _ = _mixed_operands()
    assert s ** 3 == s * s * s
    assert (s ** 3).window_start == -3


@pytest.mark.parametrize("call", [
    lambda s, p: series.series_mul(s, p),
    lambda s, p: series.series_mul(p, s),
    lambda s, p: series.series_mul(p, p),
    lambda s, p: poly.poly_mul(p, s),
    lambda s, p: poly.poly_mul(s, p),
    lambda s, p: poly.poly_mul(s, s),
    lambda s, p: p.config.dot([(p, 0, s)]),
    lambda s, p: p.config.invert(s),
], ids=["series_mul(s,p)", "series_mul(p,s)", "series_mul(p,p)", "poly_mul(p,s)",
        "poly_mul(s,p)", "poly_mul(s,s)", "config.dot", "config.invert"])
def test_mixed_kind_products_raise_ring_mismatch(call):
    s, p, _ = _mixed_operands()
    with pytest.raises(RingMismatchError, match="incompatible rings"):
        call(s, p)
