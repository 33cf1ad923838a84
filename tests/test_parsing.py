import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewring import config, maps, parsing, poly, rings, series
from skewring.errors import ParseError

G = rings.gaussian()
Q = rings.rationals()
O = rings.octonions()


def cfg_laurent():
    return poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.LAURENT)


def cfg_ore():
    return poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", poly.ORE)


def test_vector_literals():
    cfg = cfg_laurent()
    p = parsing.parse_poly("[0,1]X^2 + [1,0]", cfg)
    assert p == cfg.monomial(G.basis_element(1), 2) + cfg.one


def test_basis_aliases():
    cfg = cfg_laurent()
    assert parsing.parse_poly("iX^2 + 1", cfg) == \
        parsing.parse_poly("[0,1]X^2 + [1,0]", cfg)
    h = rings.quaternions()
    hc = poly.RingConfig(h, maps.make_twist(h, "identity"), None, "X", poly.LAURENT)
    p = parsing.parse_poly("jX - k", hc)
    assert p == hc.monomial(h.basis_element(2), 1) - hc.constant(h.basis_element(3))


def test_rational_coefficients():
    cfg = cfg_laurent()
    p = parsing.parse_poly("3/4X^-2 - 2", cfg)
    assert p.coefficient(-2) == G.scalar("3/4")
    assert p.coefficient(0) == G.scalar(-2)


def test_negative_exponent_rejected_in_ore():
    with pytest.raises(ParseError, match="negative exponent"):
        parsing.parse_poly("X^-1", cfg_ore())


def test_unknown_identifiers():
    with pytest.raises(ParseError, match="unknown identifier"):
        parsing.parse_poly("zX", cfg_laurent())


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parsing.parse_poly("1 + + 2", cfg_laurent())
    assert err.value.column > 0


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="zero denominator") as err:
        parsing.parse_poly("3 + 1/0X", cfg_laurent())
    assert err.value.column == 6


def series_cfg(shape):
    """The ring of a Q(i) series document with the q=2 twist."""
    doc = {"ring": "gaussian", "twist": {"kind": "q_twist", "q": "2"}, "shape": shape,
           "precision": 4}
    return config.load_config(doc).ring_config


def test_series_marker_required():
    cfg = series_cfg("power_series")
    with pytest.raises(ParseError, match="missing O"):
        parsing.parse_series("1 - iX", cfg)
    s = parsing.parse_series("1 - [0,1]X + O(X^4)", cfg)
    assert s.precision == 4
    assert s.coefficient(1) == -G.basis_element(1)


def test_series_power_shape_rejects_negative():
    # a power series lives over R[X; sigma], whose own exponent rule refuses X^-1
    power = series_cfg("power_series")
    with pytest.raises(ParseError, match="negative exponent"):
        parsing.parse_series("X^-1 + O(X^3)", power)
    with pytest.raises(ParseError, match="negative exponent") as err:
        parsing.parse_series("1 + X^-1 + O(X^3)", power)
    assert err.value.column == 4
    laurent = parsing.parse_series("X^-1 + O(X^3)", series_cfg("laurent_series"))
    assert laurent.window_start == -1


def test_iterated_coefficients():
    torus = poly.quantum_torus(O, 2)
    p = parsing.parse_poly("(e1Y^2)X^3 + YX - 2", torus)
    inner = torus.coefficients
    expected = (
        torus.monomial(inner.monomial(O.basis_element(1), 2), 3)
        + torus.monomial(inner.gen, 1)
        - torus.scalar(2)
    )
    assert p == expected
    assert repr(p) == parsing.format_poly(p)
    assert parsing.parse_poly(repr(p), torus) == p


def torus_q2():
    return poly.quantum_torus(Q, 2)


def weyl():
    inner = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)
    return poly.RingConfig(
        inner, maps.make_twist(inner, "identity"), maps.make_twist(inner, "derivative"),
        "X", poly.ORE,
    )


@pytest.mark.parametrize("cfg", [torus_q2(), weyl()], ids=["torus", "weyl"])
def test_inner_variable_before_variable(cfg):
    # in YX^b the exponent belongs to X, whether or not Y and X are juxtaposed
    inner = cfg.coefficients
    low = -2 if cfg.shape == poly.LAURENT else 0
    for b in range(low, 4):
        for a in range(low, 3):
            expected = cfg.monomial(inner.variable_power(a), b)
            assert parsing.parse_poly(f"Y^{a}X^{b}", cfg) == expected
        assert parsing.parse_poly(f"YX^{b}", cfg) == cfg.monomial(inner.gen, b)
    assert parsing.parse_poly("-YX^2 + 1", cfg) == cfg.one - cfg.monomial(inner.gen, 2)


def test_label_ending_in_variable_stays_whole():
    # Q(i) with i relabelled "ab", over the variable b: "ab" is the label,
    # "abb" is ab·b
    spec = dict(G.to_json(), basis=["1", "ab"])
    ring = config.ring_from_descriptor({"kind": "algebra", "spec": spec, "division": True})
    cfg = poly.RingConfig(ring, maps.make_twist(ring, "identity"), None, "b", poly.LAURENT)
    ab = ring.basis_element(1)
    assert parsing.parse_poly("ab", cfg) == cfg.constant(ab)
    assert parsing.format_poly(cfg.monomial(ab, 1)) == "abb"
    for exp in range(-2, 3):
        for c in (ab, -ab, ab.scale(3), ring.one + ab):
            p = cfg.monomial(c, exp) + cfg.one
            assert parsing.parse_poly(parsing.format_poly(p), cfg) == p


def test_format_zero():
    cfg = cfg_laurent()
    assert parsing.format_poly(cfg.zero) == "0"
    assert parsing.format_series(series.series(cfg, {}, 4)) == "0 + O(X^4)"


def test_scalar_formatting():
    cfg = cfg_laurent()
    assert parsing.format_poly(cfg.scalar(-2)) == "-2"
    assert parsing.format_poly(cfg.monomial(G.basis_element(1), 1)) == "iX"
    assert parsing.format_poly(-cfg.monomial(G.basis_element(1), 1)) == "-iX"


def test_round_trip_random_polys():
    rng = random.Random(71)
    m2 = rings.matrix_algebra(Q, 2)
    configs = [
        cfg_laurent(),
        cfg_ore(),
        poly.RingConfig(O, maps.make_twist(O, "conjugation"), None, "X", poly.LAURENT),
        poly.RingConfig(m2, maps.make_twist(m2, "diag_swap"), None, "X", poly.LAURENT),
        poly.quantum_torus(O, 2),
    ]
    for cfg in configs:
        for _ in range(100):
            p = cfg.random_element(rng)
            text = parsing.format_poly(p)
            assert parsing.parse_poly(text, cfg) == p, text
            assert repr(p) == text
            assert parsing.parse_poly(repr(p), cfg) == p
            for c in p.terms.values():
                if isinstance(c, (rings.AlgebraElement, rings.MatrixElement)):
                    assert repr(c) == parsing.format_element(c)
                    assert parsing.parse_poly(repr(c), cfg) == cfg.constant(c)


def test_round_trip_random_series():
    rng = random.Random(73)
    cfg = poly.RingConfig(G, maps.make_twist(G, "conjugation"), None, "X", poly.LAURENT)
    for _ in range(100):
        terms = {}
        for e in range(rng.randint(-3, 0), rng.randint(1, 5)):
            c = G.random_element(rng)
            if c:
                terms[e] = c
        s = series.series(cfg, terms, 6)
        text = parsing.format_series(s)
        assert parsing.parse_series(text, cfg) == s, text
        assert repr(s) == text


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        ),
        max_size=4,
    )
)
def test_round_trip_property(terms):
    cfg = cfg_laurent()
    p = cfg.from_terms({e: G.element(c) for e, c in terms.items()})
    assert parsing.parse_poly(parsing.format_poly(p), cfg) == p
    assert repr(p) == parsing.format_poly(p)
    assert parsing.parse_poly(repr(p), cfg) == p


def test_whitespace_insensitive():
    cfg = cfg_laurent()
    assert parsing.parse_poly("1+iX^2", cfg) == parsing.parse_poly(" 1 + i X ^ 2 ", cfg)
