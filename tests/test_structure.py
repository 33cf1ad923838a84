import random
from fractions import Fraction
from math import gcd

import pytest

from skewring import maps, parsing, poly, rings, series, structure, suites
from skewring.config import load_config
from skewring.errors import ConstructionError, ReductionError, RingMismatchError

G = rings.gaussian()
O = rings.octonions()
Q = rings.rationals()


def cfg_q2(shape=poly.LAURENT):
    return poly.RingConfig(G, maps.make_twist(G, "q_twist", q=2), None, "X", shape)


def cfg_conj():
    return poly.RingConfig(G, maps.make_twist(G, "conjugation"), None, "X", poly.LAURENT)


def cfg_octonion():
    return poly.RingConfig(O, maps.make_twist(O, "conjugation"), None, "X", poly.LAURENT)


def cfg_matrix_swap():
    m2 = rings.matrix_algebra(Q, 2)
    return poly.RingConfig(m2, maps.make_twist(m2, "diag_swap"), None, "X", poly.LAURENT)


# -- nucleus membership -------------------------------------------------------


def test_x_powers_middle_right_nuclear():
    for config in (cfg_q2(), cfg_octonion()):
        for n in (-3, -1, 0, 2, 4):
            for side in ("middle", "right"):
                query = structure.NucleusQuery(config.variable_power(n), side, 4)
                assert structure.nucleus_membership(query).passed


def test_left_nucleus_witness_for_non_automorphism():
    outcome = structure.nucleus_membership(
        structure.NucleusQuery(cfg_q2().gen, "left", 3)
    )
    assert not outcome.passed
    a, b, c, value = outcome.witness
    assert rings.associator(a, b, c) == value
    assert value


def test_left_nucleus_passes_for_automorphism():
    config = poly.RingConfig(
        G, maps.make_twist(G, "q_twist", q=-1), None, "X", poly.LAURENT
    )
    outcome = structure.nucleus_membership(structure.NucleusQuery(config.gen, "left", 3))
    assert outcome.passed


def test_unit_is_nuclear_everywhere():
    for config in (cfg_q2(), cfg_octonion()):
        for side in ("left", "middle", "right"):
            assert structure.nucleus_membership(
                structure.NucleusQuery(config.one, side, 3)
            ).passed


def test_non_nuclear_coefficient_witness():
    config = cfg_octonion()
    element = config.constant(O.basis_element(1))
    outcome = structure.nucleus_membership(
        structure.NucleusQuery(element, "middle", 2)
    )
    assert not outcome.passed


def test_query_validates_bound():
    config = cfg_q2()
    with pytest.raises(ConstructionError, match="degree_bound"):
        structure.NucleusQuery(config.variable_power(5), "middle", 3)
    with pytest.raises(ConstructionError, match="side"):
        structure.NucleusQuery(config.one, "sideways", 3)


def test_query_and_step_compare_by_value():
    config = cfg_q2()
    pairs = [
        (structure.NucleusQuery(config.variable_power(2), "left", 3),
         structure.NucleusQuery(config.variable_power(2), "left", 3)),
        (structure.CofactorStep(1, "right", G.element([1, 2]), 3),
         structure.CofactorStep(1, "right", G.element([1, 2]), 3)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert pairs[0][0] != structure.NucleusQuery(config.variable_power(2), "right", 3)
    assert pairs[1][0] != structure.CofactorStep(1, "left", G.element([1, 2]), 3)


def _exhaustive_membership(x, side, bound):
    """The whole-span search's first witness, or None: no scan and no cut slot."""
    span = x.config.spanning_set(bound)
    slots = {"left": ([x], span, span), "middle": (span, [x], span), "right": (span, span, [x])}
    return rings.first_associator(*slots[side])


def _sedenion_ore():
    S = rings.sedenions()
    return poly.RingConfig(S, maps.make_twist(S, "conjugation"), None, "X", poly.ORE)


def _octonion_laurent_y2_ore():
    """O[Y^±][X; Y -> 2Y]: a polynomial coefficient ring under a delta-free ore twist."""
    inner = poly.RingConfig(O, maps.make_twist(O, "identity"), None, "Y", poly.LAURENT)
    return poly.RingConfig(inner, maps.make_twist(inner, "y_scale", q=2), None, "X", poly.ORE)


def _oracle_elements(config, powers, rng):
    """X^n for the given n, two non-unit basis constants, two random elements."""
    ring = config.coefficients
    yield from (config.variable_power(n) for n in powers)
    yield from (config.constant(c) for c in ring.spanning_set(0)[1:3])
    window = config.exponent_window(max(map(abs, powers)))
    for _ in range(2):
        exps = rng.sample(window, min(rng.randint(2, 3), len(window)))
        yield poly.SkewPoly(config, poly.random_terms(ring, rng, exps))


@pytest.mark.parametrize("name, make_config, bound, powers", [
    ("gaussian-q2", cfg_q2, 2, (-2, -1, 1, 2)),
    ("matrix-swap", cfg_matrix_swap, 2, (2,)),
    ("octonion-conj", cfg_octonion, 2, (-1,)),
    ("octonion-torus", lambda: poly.quantum_torus(O, 2), 1, (1,)),
    ("weyl", lambda: suites.builtin("weyl"), 2, (1, 2)),
    ("octonion-ore", lambda: suites.builtin("octonion-ore"), 2, (1, 2)),
    ("gaussian-q2-ore", lambda: suites.builtin("gaussian-q2-ore"), 2, (1, 2)),
    ("sedenion-conj-ore", _sedenion_ore, 2, (1, 2)),
    ("octonion-laurent-y2-ore", _octonion_laurent_y2_ore, 1, (1,)),
])
def test_nucleus_scan_matches_exhaustive_oracle(name, make_config, bound, powers):
    """Each nucleus query against the uncut whole-span search, in every slot:
    the same verdict and the same witness, the search's first failing triple.

    A delta-free query, laurent or ore, is the monomial scan; a query on
    the Weyl ring is the search with its last slot cut to the first block
    (the shift lemma).
    """
    config = make_config()
    rng = random.Random(f"oracle-{name}")
    verdicts = set()
    for x in _oracle_elements(config, powers, rng):
        for side in structure.SIDES:
            outcome = structure.nucleus_membership(structure.NucleusQuery(x, side, bound))
            witness = _exhaustive_membership(x, side, bound)
            assert outcome.passed == (witness is None), (x, side)
            assert outcome.witness == witness, (x, side)
            verdicts.add((side, outcome.passed))
    # both verdicts occur in the middle and right slots (the memoised
    # slots of the monomial scan); the Weyl algebra is associative
    expected = {True} if name == "weyl" else {True, False}
    assert {(s, v) for s in ("middle", "right") for v in expected} <= verdicts


def _full_window_left_scan(x, bound):
    """The left-slot scan over every exponent m of u = a·X^m: the loop that the
    one-exponent scan replaced, kept as its oracle. The first failing (m, a, b)
    in that order, rebuilt by the generic search with v = b·X^n at the window's
    lowest exponent n, or None."""
    config = x.config
    ops = structure._ScaledOps(config.sigma)
    coeffs = config.coefficients.spanning_set(bound)
    split = [ops.split(c) for c in coeffs]
    x_terms = [(k, ops.split(t)) for k, t in sorted(x.terms.items())]
    window = list(config.exponent_window(bound))
    for m in window:
        for a, ca in zip(split, coeffs):
            for b, cb in zip(split, coeffs):
                for k, t in x_terms:
                    lhs = ops.mul(ops.mul(t, ops.twist(k, a)), ops.twist(k + m, b))
                    rhs = ops.mul(t, ops.twist(k, ops.mul(a, ops.twist(m, b))))
                    if not ops.equal(lhs, rhs):
                        u, v = config.monomial(ca, m), config.monomial(cb, window[0])
                        return rings.first_associator([x], [u], [v])
    return None


def _seeded_h_twist_config():
    """H[X±; sigma] for a seeded matrix sigma that fixes 1 and is no automorphism."""
    H = rings.quaternions()
    rng = random.Random("h-matrix-twist")
    while True:
        rows = [[int(i == 0)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                for i in range(4)]
        try:
            config = poly.RingConfig(H, maps.make_twist(H, "matrix", matrix=rows),
                                     None, "X", poly.LAURENT)
        except ConstructionError:  # not bijective: draw again
            continue
        assert "automorphism" not in maps.classify_multiplicativity(config.sigma)
        return config


@pytest.mark.parametrize("name", [
    *(name for name, doc in suites.ROSTER.items() if "delta" not in doc),
    "H-matrix-twist",
])
def test_left_scan_at_one_exponent_matches_the_full_window(name):
    """The left slot scanned at the lowest exponent against the full-window loop,
    at bounds 1 to 4: the same verdict and the same witness."""
    config = _seeded_h_twist_config() if name == "H-matrix-twist" else suites.builtin(name)
    rng = random.Random(f"left-{name}")
    failures = 0
    for bound in (1, 2, 3, 4):
        window = list(config.exponent_window(bound))
        ring = config.coefficients
        elements = [config.gen, config.variable_power(window[0]),
                    poly.SkewPoly(config, poly.random_terms(ring, rng, rng.sample(window, 2)))]
        elements += [config.constant(c) for c in ring.spanning_set(0)[1:2]]
        for x in elements:
            outcome = structure.nucleus_membership(structure.NucleusQuery(x, "left", bound))
            witness = _full_window_left_scan(x, bound)
            assert outcome.passed == (witness is None), (x, bound)
            assert outcome.witness == witness, (x, bound)
            failures += not outcome.passed
    if not config.is_associative:
        assert failures


def _mixed_queries(config, rng):
    """X^n at the ends of the bound-1 window, constants and random elements in
    every slot, at bounds 2 and 1 in turn."""
    ring = config.coefficients
    window = config.exponent_window(1)
    elements = [config.variable_power(n) for n in (window[0], window[-1])]
    elements += [config.constant(c) for c in ring.spanning_set(0)[1:3]]
    elements += [
        poly.SkewPoly(config, poly.random_terms(ring, rng, rng.sample(window, 2)))
        for _ in range(2)
    ]
    return [
        structure.NucleusQuery(x, side, bound)
        for x in elements for bound in (2, 1) for side in structure.SIDES
    ]


@pytest.mark.parametrize("name, make_config", [
    ("gaussian-q2", cfg_q2),
    ("matrix-swap", cfg_matrix_swap),
    ("octonion-conj", cfg_octonion),
    ("octonion-torus", lambda: poly.quantum_torus(O, 2)),
    ("gaussian-q2-ore", lambda: cfg_q2(poly.ORE)),
    ("octonion-ore", lambda: suites.builtin("octonion-ore")),
])
def test_shared_scan_memo_matches_fresh_scans(name, make_config):
    """Scans sharing one memo return the verdicts and witnesses of fresh scans."""
    config = make_config()
    queries = _mixed_queries(config, random.Random(f"memo-{name}"))
    memo = {}
    shared = [structure.nucleus_membership(q, memo) for q in queries]
    # one entry per config serves both bounds; the bound sits in each
    # verdict's key (test_scan_verdicts_match_plain_arithmetic)
    assert set(memo) == {config}
    failures = 0
    for query, outcome in zip(queries, shared):
        fresh = structure.nucleus_membership(query)
        assert outcome.passed == fresh.passed, query
        assert outcome.witness == fresh.witness, query
        failures += not outcome.passed
    assert 0 < failures < len(queries)


def _repeated_coefficient_elements(config, rng, bound):
    """Seeded elements of up to three terms at distinct exponents, drawn from
    two coefficients, their rational multiples and 1, so one coefficient
    recurs at different exponents and one exponent carries different
    coefficients across elements."""
    ring = config.coefficients
    pool = [ring.one] + [ring.random_element(rng) for _ in range(2)]
    window = list(config.exponent_window(bound))
    for _ in range(12):
        exps = rng.sample(window, rng.randint(1, min(3, len(window))))
        base = rng.choice(pool)
        terms = {e: rng.choice([base, base.scale(Fraction(rng.randint(-3, 3) or 2, 3)),
                                rng.choice(pool)])
                 for e in exps}
        yield poly.SkewPoly(config, {e: c for e, c in terms.items() if c})


@pytest.mark.parametrize("name", [
    name for name, doc in suites.ROSTER.items() if "delta" not in doc
])
def test_right_slot_records_match_fresh_scans(name):
    """Right-slot scans sharing one memo, so sharing the first failure recorded
    per coefficient, return the verdicts and witnesses of fresh scans."""
    config = suites.builtin(name)
    bound = 1 if name.startswith("torus") else 2
    memo = {}
    failures = total = 0
    for x in _repeated_coefficient_elements(config, random.Random(f"right-{name}"), bound):
        query = structure.NucleusQuery(x, "right", bound)
        shared = structure.nucleus_membership(query, memo)
        fresh = structure.nucleus_membership(query)
        assert shared.passed == fresh.passed, x
        assert shared.witness == fresh.witness, x
        failures += not shared.passed
        total += 1
    if not config.is_associative:
        assert 0 < failures < total


@pytest.mark.parametrize("name", ["weyl", "octonion-ore"])
def test_ore_right_slot_records_match_the_span_search(name):
    """c·X^k in the right slot, with one memo: each witness is the first of
    the whole span × span search, whatever k the record was made at."""
    config = suites.builtin(name)
    ring = config.coefficients
    rng = random.Random(f"ore-right-{name}")
    span = config.spanning_set(2)
    coeffs = ring.spanning_set(1) + [ring.random_element(rng) for _ in range(2)]
    memo = {}
    failures = 0
    for k in (2, 0, 1):
        for c in coeffs:
            x = config.monomial(c, k)
            outcome = structure.nucleus_membership(structure.NucleusQuery(x, "right", 2), memo)
            assert outcome.witness == rings.first_associator(span, span, [x]), x
            assert outcome.passed == (outcome.witness is None)
            failures += not outcome.passed
    assert (failures > 0) == (not config.is_associative)


@pytest.mark.parametrize("name", sorted(suites.ROSTER))
def test_rational_right_slot_lemma_matches_the_span_search(monkeypatch, name):
    """A right-slot query whose coefficients lie in Q·1 passes with no scan and
    no triple search, and the uncut span × span search finds no witness either,
    at bounds 1 to 4; torus-octonion only at bound 1, where the search takes
    0.3 s (about 22 s at bound 4)."""
    config = suites.builtin(name)
    one = config.coefficients.one

    def no_search(*args):
        raise AssertionError("the rational lemma ran a search")

    for bound in (1,) if name == "torus-octonion" else (1, 2, 3, 4):
        window = list(config.exponent_window(bound))
        x = config.from_terms({window[0]: one.scale(Fraction(-1, 3)), window[-1]: one.scale(2)})
        with monkeypatch.context() as patched:
            patched.setattr(structure, "_monomial_scan", no_search)
            patched.setattr(structure, "first_associator", no_search)
            outcome = structure.nucleus_membership(structure.NucleusQuery(x, "right", bound))
        span = config.spanning_set(bound)
        assert outcome.passed and outcome.witness is None
        assert rings.first_associator(span, span, [x]) is None, (x, bound)


def test_builtin_roster_matches_direct_construction():
    """Each roster document builds, through load_config, the ring built directly."""
    qy = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)

    def laurent(ring, kind, **params):
        return poly.RingConfig(ring, maps.make_twist(ring, kind, **params), None, "X",
                               poly.LAURENT)

    direct = {
        **{f"gaussian-q{q}": laurent(G, "q_twist", q=Fraction(q))
           for q in ("1", "-1", "2", "1/2", "3", "3/5")},
        "gaussian-q2-ore": cfg_q2(poly.ORE),
        "gaussian-conj": cfg_conj(),
        "matrix-swap": cfg_matrix_swap(),
        "octonion-conj": cfg_octonion(),
        "rational-laurent": laurent(Q, "identity"),
        "weyl": poly.RingConfig(qy, maps.make_twist(qy, "identity"),
                                maps.make_twist(qy, "derivative"), "X", poly.ORE),
        "octonion-ore": poly.RingConfig(O, maps.make_twist(O, "identity"), None, "X",
                                        poly.ORE),
        "torus-octonion": poly.quantum_torus(O, 2),
        "torus-rational": poly.quantum_torus(Q, 1),
    }
    assert set(suites.ROSTER) == set(direct)
    for name, expected in direct.items():
        built = suites.builtin(name)
        assert built == expected, name
        assert built.describe() == expected.describe(), name
        assert suites.builtin(name) is built  # built once per process
    assert suites.builtin("gaussian-q2") != suites.builtin("gaussian-q3")


def _torus_bound3_scans():
    """The middle and right scans of X^n and Y^n, n = 1, 2, 3, at bound 3 with one
    memo: the oracle that ``torus/variable-nuclearity``'s lemma replaces."""
    torus = suites.builtin("torus-octonion")
    inner = torus.coefficients
    memo = {}
    for n in (1, 2, 3):
        for element in (torus.variable_power(n), torus.constant(inner.variable_power(n))):
            for side in ("middle", "right"):
                query = structure.NucleusQuery(element, side, 3)
                assert structure.nucleus_membership(query, memo).passed


def _assert_torus_budget(monkeypatch, run, products, scans):
    suites.builtin("torus-octonion")  # build the cached config outside the count
    count = _count_skew_products(monkeypatch)
    scanned = 0
    scan = structure.nucleus_membership

    def counted_scan(*args, **kwargs):
        nonlocal scanned
        scanned += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(structure, "nucleus_membership", counted_scan)
    for _ in range(2):  # a memo lives for one call
        count[0] = scanned = 0
        run()
        assert count[0] == products
        assert scanned == scans


def test_torus_nuclearity_product_budget(monkeypatch):
    """The bound-3 torus scans' coefficient products, pinned; 45,088 with one
    memo per scan, and 5,920 when X^n's right-slot queries were scans, not
    the rational right-slot lemma."""
    _assert_torus_budget(monkeypatch, _torus_bound3_scans, 5896, 12)


def test_torus_nuclearity_check_budget(monkeypatch):
    """The torus check's products: 832 check P2, the rest are four bound-1
    queries, three of them scans (1,808 when X's right-slot query was one)."""
    _assert_torus_budget(monkeypatch, suites._check_torus_nuclearity, 1800, 4)


def _reduced(scalar):
    num, den = scalar
    return type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1


def test_torus_nuclearity_verdict_memo(monkeypatch):
    """Equal ratios share one verdict key; a non-canonical key adds entries.
    The right-slot queries of X^n pass by the rational lemma, so they add
    none (432 when they were scans)."""
    memos = []
    scan = structure.nucleus_membership

    def capturing_scan(query, memo=None):
        memos.append(memo)
        return scan(query, memo)

    monkeypatch.setattr(structure, "nucleus_membership", capturing_scan)
    _torus_bound3_scans()
    assert all(memo is memos[0] for memo in memos)
    (ops,) = memos[0].values()
    assert len(ops.verdicts) == 380
    assert len({id(part) for _, part in ops._norm.values()}) == 128
    assert all(_reduced(key[-1]) for key in ops.verdicts)


def _torus_monomial(torus, e, i, j):
    """e·Y^i·X^j in the quantum torus over O."""
    return torus.monomial(torus.coefficients.monomial(e, i), j)


def _torus_lemma(torus, *monomials):
    """The associator of three torus monomials by the bicharacter lemma:
    q^(j1·i2 + (j1+j2)·i3) times the O-associator of their coefficients."""
    parts = []
    for m in monomials:
        ((j, c),) = m.terms.items()
        ((i, e),) = c.terms.items()
        parts.append((e, i, j))
    (e1, i1, j1), (e2, i2, j2), (e3, i3, j3) = parts
    scalar = torus.sigma.var_scale ** (j1 * i2 + (j1 + j2) * i3)
    return _torus_monomial(torus, rings.associator(e1, e2, e3).scale(scalar),
                           i1 + i2 + i3, j1 + j2 + j3)


def test_torus_associator_is_the_bicharacter_lemma():
    """The lemma behind ``torus/variable-nuclearity``, beyond its |e| <= 6 window."""
    torus = suites.builtin("torus-octonion")
    rng = random.Random("torus-lemma")
    basis = O.basis_elements()
    nonzero = 0
    for _ in range(60):
        triple = [
            _torus_monomial(torus, rng.choice([rng.choice(basis), O.random_element(rng)]),
                            rng.randint(-8, 8), rng.randint(-8, 8))
            for _ in range(3)
        ]
        expected = _torus_lemma(torus, *triple)
        assert rings.associator(*triple) == expected
        nonzero += bool(expected)
    assert nonzero >= 10


@pytest.mark.parametrize("n", [7, -9])
def test_torus_variable_powers_are_nuclear_beyond_the_window(n):
    torus = suites.builtin("torus-octonion")
    rng = random.Random(f"torus-powers-{n}")
    for x in (torus.variable_power(n), torus.constant(torus.coefficients.variable_power(n))):
        for _ in range(8):
            u, v = (_torus_monomial(torus, O.random_element(rng),
                                    rng.randint(-10, 10), rng.randint(-10, 10))
                    for _ in range(2))
            for triple in ((x, u, v), (u, x, v), (u, v, x)):
                assert not rings.associator(*triple)


def test_torus_lemma_names_non_nuclear_monomials():
    """e1·Y·X is not middle-nuclear: (e2, e1, e4)_O != 0, and the scan's witness
    is the lemma's associator."""
    torus = suites.builtin("torus-octonion")
    x = _torus_monomial(torus, O.basis_element(1), 1, 1)
    e2, e4 = O.basis_element(2), O.basis_element(4)
    triple = (_torus_monomial(torus, e2, 0, 0), x, _torus_monomial(torus, e4, 0, 0))
    assert _torus_lemma(torus, *triple)
    assert rings.associator(*triple) == _torus_lemma(torus, *triple)
    outcome = structure.nucleus_membership(structure.NucleusQuery(x, "middle", 1))
    assert not outcome.passed
    a, b, c, value = outcome.witness
    assert b == x
    assert value and value == _torus_lemma(torus, a, b, c)


def test_torus_check_fails_p1_when_sigma_drops_its_scalar(monkeypatch):
    sigma = suites.builtin("torus-octonion").sigma
    power = sigma.power_apply

    def dropped(m, el):
        """sigma^5 forgets q^(5i) on Y^-4 alone, out of reach of bound-1 scans."""
        return el if m == 5 and set(el.terms) == {-4} else power(m, el)

    monkeypatch.setattr(sigma, "power_apply", dropped)
    with pytest.raises(AssertionError, match="P1"):
        suites._check_torus_nuclearity()


def test_torus_check_fails_p2_on_one_perturbed_product(monkeypatch):
    inner = suites.builtin("torus-octonion").coefficients
    left, right = inner.monomial(O.basis_element(3), -5), inner.constant(O.basis_element(6))
    skew_mul = poly.SkewPoly.__mul__

    def perturbed(self, other):
        product = skew_mul(self, other)
        return product + inner.one if (self, other) == (left, right) else product

    monkeypatch.setattr(poly.SkewPoly, "__mul__", perturbed)
    with pytest.raises(AssertionError, match="P2"):
        suites._check_torus_nuclearity()


@pytest.mark.parametrize("name, make_config", [
    ("gaussian-q2", cfg_q2),
    ("matrix-swap", cfg_matrix_swap),
    ("octonion-conj", cfg_octonion),
    ("torus", lambda: suites.builtin("torus-octonion")),
])
def test_scan_verdicts_match_plain_arithmetic(name, make_config):
    """Each memoised verdict is the first a with ((a·n1)·n2)·rn != (a·n3)·rd in
    plain products for the key's ratio rn/rd, rd = 0 standing for a zero right
    side, a ranging over the spanning set at the bound in the verdict's key."""
    config = make_config()
    memo = {}
    for query in _mixed_queries(config, random.Random(f"verdicts-{name}")):
        structure.nucleus_membership(query, memo)
    checked = 0
    (ops,) = memo.values()
    parts = {id(part): part for _, part in ops._norm.values()}
    # the queries ask at bounds 2 and 1, so one memo holds verdicts of both
    assert {key[0] for key in ops.verdicts} == {1, 2}
    for (bound, i1, i2, i3, ratio), failing in ops.verdicts.items():
        coeffs = config.coefficients.spanning_set(bound)
        n1, n2, n3 = parts[i1], parts[i2], parts[i3]
        rn, rd = ratio
        first = next((a for a in coeffs if ((a * n1) * n2).scale(rn) != (a * n3).scale(rd)),
                     None)
        if failing is None:
            assert first is None
        else:
            assert coeffs[failing] == first
        checked += 1
    assert checked


def _scalar_configs():
    h = rings.quaternions()
    return [
        cfg_q2(),
        poly.RingConfig(h, maps.make_twist(h, "conjugation"), None, "X", poly.LAURENT),
        cfg_octonion(),
        cfg_matrix_swap(),
        suites.builtin("torus-octonion"),
    ]


@pytest.mark.parametrize(
    "config", _scalar_configs(), ids=["gaussian", "quaternions", "octonions", "m2q", "torus"]
)
def test_scaled_ops_scalars_are_reduced_pairs(config):
    rng = random.Random(16)
    ring = config.coefficients
    sigma = config.sigma
    ops = structure._ScaledOps(sigma)
    values = [
        ring.random_element(rng).scale(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(6)
    ] + [ring.zero]
    split = {id(el): ops.split(el) for el in values}
    for el in values:
        scalar, part = split[id(el)]
        assert _reduced(scalar)
        assert part.scale(Fraction(*scalar)) == el
    for a in values:
        for b in values:
            product = ops.mul(split[id(a)], split[id(b)])
            assert _reduced(product[0])
            assert ops.equal(product, ops.split(a * b))
        for p in (-2, -1, 1, 3):
            image = ops.twist(p, split[id(a)])
            assert _reduced(image[0])
            assert ops.equal(image, ops.split(sigma.power_apply(p, a)))
    # the verdict key's ratio s1·s2/s3 against the Fraction oracle
    scalars = [s for s, _ in split.values() if s[0]]
    for s1 in scalars:
        for s2 in scalars:
            for s3 in scalars:
                oracle = Fraction(*s1) * Fraction(*s2) / Fraction(*s3)
                key = structure._ratio(s1[0] * s2[0] * s3[1], s1[1] * s2[1] * s3[0])
                assert key == (oracle.numerator, oracle.denominator)
                for k in (-3, -1, 2):
                    assert structure._ratio(k * key[0], k * key[1]) == key


def test_warm_scan_builds_no_fraction(monkeypatch):
    """Once split has seen every operand, a scan multiplies scalars as ints."""
    memo = {}
    queries = [
        structure.NucleusQuery(config.variable_power(2), side, 3)
        for config in (cfg_q2(), cfg_octonion(), suites.builtin("torus-octonion"))
        for side in ("middle", "right")
    ]
    for query in queries:
        assert structure.nucleus_membership(query, memo).passed

    def no_fraction(*args):
        raise AssertionError("Fraction built on the scan's hot path")

    monkeypatch.setattr(structure, "Fraction", no_fraction)
    for query in queries:
        assert structure.nucleus_membership(query, memo).passed


# -- associativity ---------------------------------------------------------------


def test_associativity_dichotomy():
    for q, expect in ((1, True), (-1, True), (2, False), (Fraction(1, 2), False), (3, False)):
        config = poly.RingConfig(
            G, maps.make_twist(G, "q_twist", q=q), None, "X", poly.LAURENT
        )
        outcome = structure.associativity_certificate(config, 3)
        assert outcome.passed == expect
        assert structure.associativity_prediction(config) == expect
        if not expect:
            a, b, c, value = outcome.witness
            assert rings.associator(a, b, c) == value


def test_associativity_certificate_witnesses_matrix_and_octonion():
    swap_cfg = cfg_matrix_swap()
    assert not structure.associativity_certificate(swap_cfg, 3).passed
    assert not structure.associativity_prediction(swap_cfg)
    assert not structure.associativity_certificate(cfg_octonion(), 3).passed


QY = {"kind": "polynomial", "base": "rationals", "shape": "ore"}
# Ore documents whose delta is a sigma-derivation or not: delta(Y^2) = 2Y, but
# sigma(Y)·delta(Y) + delta(Y)·Y = 3Y under Y -> 2Y; i -> i is no derivation
# of Q(i), and c·(sigma - id) is a sigma-derivation of a commutative ring
ORE_CRITERION_DOCS = {
    "q-scaled-weyl": {"ring": QY, "twist": {"kind": "y_scale", "q": "2"},
                      "delta": "derivative", "shape": "ore"},
    "weyl": suites.ROSTER["weyl"],
    "gaussian-diag-delta": {"ring": "gaussian", "twist": "identity", "shape": "ore",
                            "delta": {"kind": "matrix", "matrix": [["0", "0"], ["0", "1"]]}},
    "gaussian-conj-inner": {"ring": "gaussian", "twist": "conjugation", "shape": "ore",
                            "delta": {"kind": "matrix", "matrix": [["0", "0"], ["0", "-2"]]}},
    "qy-zero-delta": {"ring": QY, "twist": {"kind": "y_scale", "q": "3"},
                      "delta": "zero", "shape": "ore"},
    "qy-coeff-scale": {"ring": QY, "twist": {"kind": "y_coeff_scale", "q": "2"},
                       "shape": "ore"},
    "gaussian-q2-ore": suites.ROSTER["gaussian-q2-ore"],
    "octonion-ore": suites.ROSTER["octonion-ore"],
}


@pytest.mark.parametrize("name", sorted(ORE_CRITERION_DOCS))
def test_ore_left_nuclear_criterion_matches_scan_and_certificate(name):
    """X is left-nuclear iff sigma is an automorphism and delta a sigma-derivation:
    the criterion against X's left-slot query at bound 3, and the associativity
    prediction against the certificate at bound 2."""
    config = load_config(ORE_CRITERION_DOCS[name]).ring_config
    left = structure.nucleus_membership(structure.NucleusQuery(config.gen, "left", 3))
    assert structure.variable_left_nuclear(config) == left.passed
    certificate = structure.associativity_certificate(config, 2)
    assert structure.associativity_prediction(config) == certificate.passed


def _assert_certificate_matches_generic(config, bound):
    """The certificate against the uncut triple search on its span."""
    outcome = structure.associativity_certificate(config, bound)
    span = config.spanning_set(bound)
    witness = rings.first_associator(span, span, span)
    assert outcome.passed == (witness is None), (config.describe(), bound)
    assert outcome.witness == witness, (config.describe(), bound)
    return outcome.passed


_ROSTER_BOUNDS = [
    (name, bound)
    for name in suites.ROSTER
    # the generic search over O[Y^±] takes about 10 s at bound 3 (witness)
    # and over Q[Y^±] about 4 s (pass), against 0.6 s at bounds 1 and 2;
    # over the Weyl ring it takes about 1 s at bound 3 (pass)
    for bound in {"torus-octonion": (1,), "torus-rational": (1, 2),
                  "weyl": (1, 2)}.get(name, (1, 2, 3))
]


@pytest.mark.parametrize("name, bound", _ROSTER_BOUNDS)
def test_associativity_certificate_matches_generic_search_on_roster(name, bound):
    _assert_certificate_matches_generic(suites.builtin(name), bound)


def _random_linear_config(ring, rng):
    """R[X^±; sigma] for a random invertible rational matrix sigma fixing 1."""
    d = ring.qdim
    while True:
        rows = [
            [int(i == 0) if j == 0 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for j in range(d)]
            for i in range(d)
        ]
        try:
            return poly.RingConfig(ring, maps.make_twist(ring, "matrix", matrix=rows),
                                   None, "X", poly.LAURENT)
        except ConstructionError:  # singular
            pass


def test_associativity_certificate_matches_generic_search_on_random_twists():
    rng = random.Random(25)
    H = rings.quaternions()
    configs = [
        poly.RingConfig(G, maps.make_twist(G, "q_twist", q=q), None, "X", poly.LAURENT)
        for q in [1, -1] + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
                            for _ in range(4)]
    ]
    configs += [_random_linear_config(ring, rng) for ring in (G, G, H, H)]
    # inner automorphisms of H are linear twists fixing 1 that pass
    configs += [
        poly.RingConfig(H, maps.make_twist(H, "inner", u=H.random_element(rng) + H.one),
                        None, "X", poly.LAURENT)
        for _ in range(2)
    ]
    # each twist again as a delta-free ore ring, decided by the same scan
    configs += [poly.RingConfig(c.coefficients, c.sigma, None, "X", poly.ORE) for c in configs]
    verdicts = {_assert_certificate_matches_generic(config, bound)
                for config in configs for bound in (1, 2)}
    assert verdicts == {True, False}


def test_ore_searches_match_generic_search_on_random_configs():
    """R[X; sigma, delta] over H and O with a standard derivation as delta:
    certificates and nucleus queries against the uncut search."""
    rng = random.Random(27)
    configs = [
        poly.RingConfig(ring, maps.make_twist(ring, kind),
                        maps.standard_derivation(ring.random_element(rng),
                                                 ring.random_element(rng)),
                        "X", poly.ORE)
        for ring in (rings.quaternions(), O) for kind in ("identity", "conjugation")
    ]
    verdicts = {_assert_certificate_matches_generic(config, 2) for config in configs}
    assert verdicts == {True, False}
    # over O the right slot's middle monomial needs its whole exponent range
    for config in configs:
        for x in _oracle_elements(config, (1,), rng):
            for side in structure.SIDES:
                outcome = structure.nucleus_membership(structure.NucleusQuery(x, side, 1))
                assert outcome.witness == _exhaustive_membership(x, side, 1), (x, side)


def test_last_slot_exponent_is_a_shift():
    """(u, v, c·X^n) = (u, v, c)·X^n: the shift lemma the cut searches rest on."""
    rng = random.Random("shift")
    checked = set()
    for name in suites.ROSTER:
        config = suites.builtin(name)
        ring = config.coefficients
        for _ in range(3):
            u, v = (config.random_element(rng, 2) for _ in range(2))
            c = ring.random_element(rng)
            n = rng.choice(config.exponent_window(3))
            lhs = rings.associator(u, v, config.monomial(c, n))
            assert lhs == rings.associator(u, v, config.constant(c)) * config.variable_power(n)
            checked.add(bool(lhs))
    assert checked == {True, False}


def _count_skew_products(monkeypatch):
    """Count SkewPoly products from here on; read the count from the returned list."""
    count = [0]
    skew_mul = poly.SkewPoly.__mul__

    def counted_mul(self, other):
        count[0] += 1
        return skew_mul(self, other)

    monkeypatch.setattr(poly.SkewPoly, "__mul__", counted_mul)
    return count


def test_failing_certificate_witness_search_budget(monkeypatch):
    """The failing torus certificate's products, pinned. It returns its failing
    query's witness; searching again from that u made 4,910, uncut 468,310."""
    config = suites.builtin("torus-octonion")
    config.spanning_set(3)  # build the cached span outside the count
    count = _count_skew_products(monkeypatch)
    outcome = structure.associativity_certificate(config, 3)
    assert count[0] == 4556
    assert [parsing.format_poly(p) for p in outcome.witness] == [
        "(e1Y^-3)X^-3", "(e2Y^-3)X^-3", "(e4Y^-3)X^-3",
        "([0,0,0,0,0,0,0,268435456]Y^-9)X^-9",
    ]


@pytest.mark.parametrize("run, products", [
    # the uncut searches made 2,500 and 12,544 products
    (lambda weyl: structure.nucleus_membership(
        structure.NucleusQuery(weyl.variable_power(4), "middle", 4)), 400),
    (lambda weyl: structure.associativity_certificate(weyl, 3), 3328),
], ids=["middle-scan", "certificate"])
def test_weyl_search_budget(monkeypatch, run, products):
    """Ore searches cut their last slot to the first block: in the Weyl ring
    the first 5 of 25 monomials at bound 4, and 4 of 16 at bound 3."""
    weyl = suites.builtin("weyl")
    for bound in (3, 4):
        weyl.spanning_set(bound)  # build the cached spans outside the count
    count = _count_skew_products(monkeypatch)
    assert run(weyl).passed
    assert count[0] == products


def test_negative_degree_bound_is_rejected():
    for name in ("octonion-ore", "gaussian-q2"):
        with pytest.raises(ConstructionError, match="degree_bound must be non-negative"):
            structure.associativity_certificate(suites.builtin(name), -1)
    with pytest.raises(ConstructionError, match="degree_bound must be non-negative"):
        structure.NucleusQuery(cfg_q2().zero, "left", -2)


def _fresh(name):
    """A roster config built anew, so its cached verdicts are not yet computed."""
    return load_config(suites.ROSTER[name]).ring_config


@pytest.mark.parametrize("name", [
    # the uncut search over O[Y^±] takes about 2 s; every other one under 0.5 s
    name for name in suites.ROSTER if name != "torus-octonion"
])
def test_is_associative_matches_the_uncut_search(name):
    config = _fresh(name)
    span = config.spanning_set(2)
    block = span[:len(config.coefficients.spanning_set(2))]
    witness = rings.first_associator(span, span, span)
    assert rings.first_associator(span, span, block) == witness
    assert config.is_associative == (witness is None)


@pytest.mark.parametrize("name, products, associative", [
    # the bound-2 certificate's monomial scans over the polynomial coefficient
    # ring; the cut triple search made 10,000 and 24,458, the uncut one 47,500
    # and 121,418
    ("torus-rational", 65, True),
    ("torus-octonion", 2292, False),
], ids=["torus-rational", "torus-octonion"])
def test_is_associative_search_budget(monkeypatch, name, products, associative):
    config = _fresh(name)
    config.spanning_set(2)  # build the cached span outside the count
    count = _count_skew_products(monkeypatch)
    assert config.is_associative is associative
    assert count[0] == products


def test_associativity_certificate_product_budget(monkeypatch):
    """A passing laurent certificate's coefficient products, pinned; no generic search."""
    config = suites.builtin("gaussian-q1")
    config.spanning_set(3)  # build the cached span outside the count
    products = 0
    skew_products = 0
    ring_mul = rings.AlgebraElement.__mul__
    skew_mul = poly.SkewPoly.__mul__

    def counted_mul(self, other):
        nonlocal products
        products += 1
        return ring_mul(self, other)

    def counted_skew_mul(self, other):
        nonlocal skew_products
        skew_products += 1
        return skew_mul(self, other)

    def no_generic_search(*lists):
        raise AssertionError("a passing certificate ran the generic triple search")

    monkeypatch.setattr(rings.AlgebraElement, "__mul__", counted_mul)
    monkeypatch.setattr(poly.SkewPoly, "__mul__", counted_skew_mul)
    monkeypatch.setattr(structure, "first_associator", no_generic_search)
    for _ in range(2):
        products = skew_products = 0
        assert structure.associativity_certificate(config, 3).passed
        # the products of the parts 1 and i; the generic search made
        # 8,428 SkewPoly products
        assert products == 4
        assert skew_products == 0


def test_ore_certificate_makes_no_polynomial_product(monkeypatch):
    """A passing delta-free ore certificate is monomial scans alone: M3(Q)[X; id]
    at bound 4 makes no ``product_terms`` call, where the cut triple search
    made 56,700."""
    m3 = rings.matrix_algebra(Q, 3)
    config = poly.RingConfig(m3, maps.make_twist(m3, "identity"), None, "X", poly.ORE)
    count = [0]
    product_terms = poly.product_terms

    def counted(*args):
        count[0] += 1
        return product_terms(*args)

    monkeypatch.setattr(poly, "product_terms", counted)
    assert structure.associativity_certificate(config, 4).passed
    assert count[0] == 0


def test_nuclei_suite_operation_budget(monkeypatch):
    """One nuclei run's coefficient products, polynomial products, scans,
    scaled products and inversions, pinned. With one memo per check the
    suite made 2,561 coefficient products, 112 polynomial products and 160
    scans. With left scans over the whole exponent window, right-slot scans
    of X^n and an inversion per hypothesis it made 378, 56, 112, 7,728 and
    36; with one memo entry per (config, bound) and right-slot records,
    378, 56, 69, 2,594 and 12. Before a failing middle- or right-slot scan
    finished its first failing exponent block, to name the first failing
    triple in span order, 286 coefficient products; before the middle slot
    formed t·sigma^k(b) once per cell, not once per exponent of u, 2,608
    scaled ones. The second run repeats the count, so no memo outlives
    its run."""
    for config in suites._laurent_roster() + [suites.builtin("gaussian-q-1")]:
        for bound in (3, 4):  # build the cached spans outside the count
            config.coefficients.spanning_set(bound)
    count = _count_skew_products(monkeypatch)
    calls = {}

    def counted(owner, name):
        method = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(rings.AlgebraElement, "__mul__")
    counted(structure, "_monomial_scan")
    counted(structure._ScaledOps, "mul")
    counted(poly.RingConfig, "invert")
    for _ in range(2):
        count[0] = 0
        calls.update(dict.fromkeys(calls, 0))
        assert suites.run_suite("nuclei").ok
        assert count[0] == 56
        assert calls == {"__mul__": 289, "_monomial_scan": 69, "mul": 1370, "invert": 12}


def test_hilbert_suite_operation_budget(monkeypatch, factor_count):
    """One hilbert-reduction run's polynomial and series term products (series
    imports ``product_terms`` by name, so both modules are patched) and
    factorisations, pinned; the second run repeats the count, so no cache
    outlives its run."""
    suites.run_suite("hilbert-reduction")  # build the cached configs outside the count
    count = [0]
    product_terms = poly.product_terms

    def counted(*args):
        count[0] += 1
        return product_terms(*args)

    monkeypatch.setattr(poly, "product_terms", counted)
    monkeypatch.setattr(series, "product_terms", counted)
    for _ in range(2):
        count[0] = factor_count["calls"] = 0
        assert suites.run_suite("hilbert-reduction").ok
        assert (count[0], factor_count["calls"]) == (1597, 181)


@pytest.mark.parametrize("name", [None, "weyl", "octonion-ore"])
def test_nuclei_suite_shared_memo_matches_fresh_memos(monkeypatch, name):
    """The nuclei suite with one memo per run against a fresh memo per query:
    the same statuses and witnesses, on the built-in roster and on configs."""
    cli_config = None if name is None else load_config(suites.ROSTER[name])

    def records():
        return [(c.id, c.status, c.witness) for c in suites.run_suite("nuclei", cli_config).checks]

    shared = records()
    scan, inverse = structure.nucleus_membership, structure.nuclear_inverse_check
    monkeypatch.setattr(structure, "nucleus_membership", lambda query, memo=None: scan(query))
    monkeypatch.setattr(structure, "nuclear_inverse_check",
                        lambda x, hypothesis, bound, memo=None: inverse(x, hypothesis, bound))
    assert records() == shared


# -- nuclear inverse lemma ----------------------------------------------------------


def test_nuclear_inverse_on_conjugation_octonions():
    config = cfg_octonion()
    report = structure.nuclear_inverse_check(config.gen, "mr", 3)
    assert report.hypothesis_satisfied
    assert report.conclusion is not None and report.conclusion.passed
    assert report.ok


def test_nuclear_inverse_trivial_unit():
    config = cfg_q2()
    report = structure.nuclear_inverse_check(config.one, "full", 3)
    assert report.hypothesis_satisfied and report.ok


def test_nuclear_inverse_hypothesis_fails_gracefully():
    config = poly.RingConfig(O, maps.make_twist(O, "identity"), None, "X", poly.LAURENT)
    x = config.constant(O.basis_element(1))
    report = structure.nuclear_inverse_check(x, "lm", 3)
    assert not report.hypothesis_satisfied
    assert report.conclusion is None
    assert report.ok


def test_nuclear_inverse_requires_invertible():
    config = cfg_q2()
    with pytest.raises(ReductionError, match="inverse not representable"):
        structure.nuclear_inverse_check(config.one + config.gen, "lm", 3)


def test_nuclear_inverse_inverts_each_element_once_per_memo(monkeypatch):
    """Every hypothesis of one element shares one inversion per memo, and a
    failed inversion too: each hypothesis still raises ``ReductionError``."""
    config = cfg_octonion()
    calls = {}
    invert = poly.RingConfig.invert

    def counted(self, el):
        calls[el] = calls.get(el, 0) + 1
        return invert(self, el)

    monkeypatch.setattr(poly.RingConfig, "invert", counted)
    units = [config.gen, config.variable_power(-2), config.constant(O.basis_element(1))]
    singular = config.one + config.gen
    for _ in range(2):  # a memo lives for one caller, so a second one inverts again
        memo = {}
        for hypothesis in ("lm", "full", "mr"):
            for x in units:
                fresh = structure.nuclear_inverse_check(x, hypothesis, 2)
                shared = structure.nuclear_inverse_check(x, hypothesis, 2, memo)
                assert shared.hypothesis_satisfied == fresh.hypothesis_satisfied
                assert (shared.conclusion is None) == (fresh.conclusion is None)
            with pytest.raises(ReductionError, match="inverse not representable"):
                structure.nuclear_inverse_check(singular, hypothesis, 2, memo)
    # two shared memos, and a fresh one for each of the three hypotheses
    assert calls == {**{x: 2 + 2 * 3 for x in units}, singular: 2}


# -- central reduction ------------------------------------------------------------


def test_central_reduction_values():
    config = cfg_conj()
    assert structure.central_reduction(config.variable_power(8), 2) == config.one
    generator = config.one + config.variable_power(4)
    assert not structure.central_reduction(generator, 2)
    assert structure.central_reduction(config.one, 2) == config.one
    assert structure.central_reduction(config.variable_power(-1), 2) == \
        -config.variable_power(3)


def test_central_reduction_kills_random_multiples():
    config = cfg_conj()
    generator = config.one + config.variable_power(4)
    rng = random.Random(41)
    for _ in range(50):
        q = config.random_element(rng, max_degree=4)
        assert not structure.central_reduction(poly.poly_mul(q, generator), 2)


def test_central_reduction_guards_order():
    with pytest.raises(ReductionError, match="finite order hypothesis fails"):
        structure.central_reduction(cfg_q2().one, 2)


# -- shrink and simplicity -----------------------------------------------------------


def test_shrink_example():
    config = cfg_q2()
    i = G.basis_element(1)
    p = config.gen + config.one
    assert structure.shrink(p, i) == config.constant(-i)
    assert not structure.shrink(p, G.one)


def test_shrink_trivial_cases():
    config = cfg_q2()
    i = G.basis_element(1)
    assert not structure.shrink(config.constant(i), i)
    assert not structure.shrink(config.variable_power(2), G.one)


def test_shrink_degree_drop():
    config = cfg_q2()
    rng = random.Random(43)
    i = G.basis_element(1)
    for _ in range(25):
        p = config.random_element(rng, max_degree=4)
        if not p:
            continue
        normalized_degree = p.degree - p.order
        result = structure.shrink(p, i)
        if result:
            assert result.degree - min(result.order, 0) <= normalized_degree
            assert result.degree < normalized_degree or result.degree == 0


def test_shrink_rejects_non_commutative():
    with pytest.raises(ReductionError, match="commutative division ring"):
        structure.shrink(cfg_octonion().one, O.basis_element(1))


def test_simplicity_probe_reaches_unit():
    config = cfg_q2()
    probe = structure.simplicity_probe(config.gen + config.one)
    assert probe.reached_unit
    assert probe.unit == -G.basis_element(1)
    assert len(probe.steps) == 1


def test_simplicity_probe_random():
    config = cfg_q2()
    rng = random.Random(47)
    done = 0
    while done < 25:
        terms = {}
        for e in rng.sample(range(0, 5), k=rng.randint(1, 3)):
            c = G.random_element(rng)
            if c:
                terms[e] = c
        p = config.from_terms(terms)
        if not p:
            continue
        done += 1
        probe = structure.simplicity_probe(p)
        assert probe.reached_unit
        assert len(probe.steps) <= p.degree + 1


def test_simplicity_probe_inconclusive():
    config = cfg_conj()
    p = config.one + config.variable_power(4)
    probe = structure.simplicity_probe(p)
    assert probe.status == "inconclusive"
    assert probe.note == "all shrinks vanish"


def test_simplicity_probe_constant():
    probe = structure.simplicity_probe(cfg_q2().scalar(5))
    assert probe.reached_unit and not probe.steps


@pytest.mark.parametrize("call", [
    lambda s: structure.NucleusQuery(s, "middle", 6),
    lambda s: structure.central_reduction(s, 2),
    lambda s: structure.shrink(s, G.basis_element(1)),
    lambda s: structure.simplicity_probe(s),
    lambda s: poly.to_right_form(s),
    lambda s: structure.monic_left_reduce(s, s),
], ids=["nucleus-query", "central-reduction", "shrink", "simplicity-probe",
        "to-right-form", "monic-left-reduce"])
def test_polynomial_algorithms_reject_a_series(call):
    # a series is a SkewPoly with a precision, so only the operand check keeps it out
    s = series.series(cfg_conj(), {0: G.one, 4: G.one}, 6)
    with pytest.raises(RingMismatchError):
        call(s)


# -- monic left division -----------------------------------------------------------


def test_monic_left_reduce_example():
    config = poly.RingConfig(O, maps.make_twist(O, "identity"), None, "X", poly.ORE)
    e1 = O.basis_element(1)
    p = config.variable_power(2) + config.monomial(e1, 1)
    f = config.monomial(e1, 3)
    result = structure.monic_left_reduce(f, p)
    assert result.remainder == config.monomial(-e1, 1)
    assert [(step.coeff, step.exponent) for step in result.steps] == [(e1, 1), (O.one, 0)]
    assert structure.replay_reduction(result, [p]) == f


def test_monic_left_reduce_trivial():
    config = cfg_q2(poly.ORE)
    p = config.variable_power(2) + config.one
    assert not structure.monic_left_reduce(p, p).remainder
    small = config.gen
    result = structure.monic_left_reduce(small, p)
    assert result.remainder == small and not result.steps


def test_monic_left_reduce_random_replay():
    rng = random.Random(53)
    for config in (
        poly.RingConfig(O, maps.make_twist(O, "identity"), None, "X", poly.ORE),
        cfg_q2(poly.ORE),
    ):
        ring = config.coefficients
        done = 0
        while done < 25:
            p = config.random_element(rng, max_degree=3)
            f = config.random_element(rng, max_degree=6)
            if not p:
                continue
            done += 1
            result = structure.monic_left_reduce(f, p)
            if result.remainder:
                assert result.remainder.degree < p.degree
            assert structure.replay_reduction(result, [p]) == f


def test_monic_left_requires_division():
    m2 = rings.matrix_algebra(Q, 2)
    config = poly.RingConfig(m2, maps.make_twist(m2, "identity"), None, "X", poly.ORE)
    with pytest.raises(ReductionError, match="left division requires division ring"):
        structure.monic_left_reduce(config.gen, config.one + config.gen)
    # reduce takes the same left set and flags a lead that no t·E11 matches
    e11, e22 = m2.basis_element(0), m2.basis_element(3)
    f = config.monomial(e22, 2)
    gens = structure.GeneratorSet(config, [config.monomial(e11, 1)], "left")
    result = structure.reduce(f, gens)
    assert result.irreducible and not result.steps and result.remainder == f


# -- right reduction ---------------------------------------------------------------


def test_right_reduce_worked_example():
    config = cfg_q2(poly.ORE)
    i = G.basis_element(1)
    gens = structure.GeneratorSet(config, [config.gen - config.constant(i)], "right")
    result = structure.right_reduce(config.variable_power(2), gens)
    assert result.remainder == config.scalar(Fraction(-1, 2))
    assert structure.replay_reduction(result, gens) == config.variable_power(2)
    assert not result.irreducible


def test_right_reduce_member():
    config = cfg_q2(poly.ORE)
    g = config.gen - config.constant(G.basis_element(1))
    gens = structure.GeneratorSet(config, [g], "right")
    result = structure.right_reduce(g, gens)
    assert not result.remainder
    assert len(result.steps) == 1


def _weyl_unmatched_coefficient():
    # X against Y·X in the Weyl algebra: Y does not left-divide 1
    qy = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)
    weyl = poly.RingConfig(
        qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
        "X", poly.ORE,
    )
    return weyl.gen, [weyl.monomial(qy.gen, 1)]


def _series_against_higher_order():
    # 1 + O(X^4) against X + O(X^4) over Q[X^±]
    config = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "X", poly.LAURENT)
    return series.series(config, {0: Q.one}, 4), [series.series(config, {1: Q.one}, 4)]


def _poly_against_higher_degree():
    # X against X² over Q(i)[X; q=2]
    config = cfg_q2(poly.ORE)
    return config.gen, [config.variable_power(2)]


@pytest.mark.parametrize("case, irreducible", [
    (_weyl_unmatched_coefficient, True),
    (_series_against_higher_order, True),
    (_poly_against_higher_degree, False),
], ids=["weyl-unmatched-coefficient", "series-below-every-order",
        "polynomial-below-every-degree"])
def test_right_reduce_irreducible_flag(case, irreducible):
    """No step is taken; only a polynomial below every generator's degree
    is a true remainder."""
    f, gens = case()
    result = structure.right_reduce(f, structure.GeneratorSet(f.config, gens, "right"))
    assert result.irreducible is irreducible
    assert not result.steps
    assert result.remainder == f


def test_replay_left_step_on_series():
    # (iX)·(i + X) = X + iX^2 under conjugation, where (i + X)·(iX) = -X - iX^2
    config = cfg_conj()
    i = G.basis_element(1)
    gen = series.series(config, {0: i, 1: G.one}, 5)
    record = structure.ReductionResult(
        [structure.CofactorStep(0, "left", i, 1)], series.series(config, {}, 5)
    )
    assert structure.replay_reduction(record, [gen]) == series.series(config, {1: G.one, 2: i}, 5)


def test_right_reduce_poly_coefficient_match():
    qy = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)
    weyl = poly.RingConfig(
        qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
        "X", poly.ORE,
    )
    gen = weyl.monomial(qy.gen, 1)
    f = weyl.monomial(qy.gen * qy.gen, 1)
    result = structure.right_reduce(f, structure.GeneratorSet(weyl, [gen], "right"))
    assert structure.replay_reduction(result, [gen]) == f


REDUCTION_RINGS = {
    "q2-ore": lambda: cfg_q2(poly.ORE),
    "octonion-conj-ore": lambda: poly.RingConfig(O, maps.make_twist(O, "conjugation"), None,
                                                 "X", poly.ORE),
    "weyl": lambda: suites.builtin("weyl"),
}


def _generator_with_unit_lead(config, rng):
    """Random terms below a degree 1..3 whose lead is invertible: any nonzero
    one over a division ring, 1 over the Weyl ring's Q[Y]."""
    ring = config.coefficients
    lead = ring.zero
    while not lead:
        lead = ring.random_element(rng) if ring.is_division else ring.one
    degree = rng.randint(1, 3)
    terms = {e: ring.random_element(rng) for e in range(degree)}
    return config.from_terms({**terms, degree: lead})


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(REDUCTION_RINGS))
def test_reduce_random_replay(name, side):
    """Two generators with invertible leads: every step cancels the lead, so
    the degree falls each step and the remainder ends below both generators
    within deg f - min deg g + 1 steps; the cap makes a step that cancels
    nothing fail here instead of looping. One step capped replays too."""
    config = REDUCTION_RINGS[name]()
    rng = random.Random(59)
    for _ in range(12):
        gens = [_generator_with_unit_lead(config, rng) for _ in range(2)]
        f = config.random_element(rng, max_degree=6)
        bound = min(g.degree for g in gens)
        cap = max(f.degree - bound + 1, 0) if f else 0
        gset = structure.GeneratorSet(config, gens, side)
        result = structure.reduce(f, gset, max_steps=cap)
        assert not result.irreducible
        assert not result.remainder or result.remainder.degree < bound
        assert all(step.side == side for step in result.steps)
        assert structure.replay_reduction(result, gset) == f
        capped = structure.reduce(f, gset, max_steps=1)
        assert len(capped.steps) == min(1, len(result.steps))
        assert structure.replay_reduction(capped, gset) == f


def _left_power_series():
    # Q(i)[[X; conj]] by a generator of order 1, so a left step's sigma^k
    # and a right step's sigma^(-1) differ
    config = poly.RingConfig(G, maps.make_twist(G, "conjugation"), None, "X", poly.ORE)
    i = G.basis_element(1)
    gen = series.series(config, {1: G.one + i, 2: i, 4: G.one.scale(2)}, 6)
    return gen, series.series(config, {1: i, 2: G.one, 3: i}, 6)


def _left_laurent_series():
    # O((X; conj)) by a generator of order -1 with octonion coefficients
    config = cfg_octonion()
    rng = random.Random(67)
    gen = series.series(config, {-1: O.random_element(rng), 1: O.random_element(rng)}, 5)
    f = series.series(config, {e: O.random_element(rng) for e in (-1, 0, 2)}, 5)
    return gen, f


@pytest.mark.parametrize("case", [_left_power_series, _left_laurent_series],
                         ids=["power-series", "laurent-series"])
def test_left_reduce_series_replays_within_precision(case):
    """Each left step raises the order, so the window empties within
    N - ord f + 1 steps; the cap makes a step that cancels nothing fail."""
    gen, f = case()
    gens = structure.GeneratorSet(f.config, [gen], "left")
    result = structure.reduce(f, gens, max_steps=f.precision - f.order + 1)
    assert not result.remainder and not result.irreducible
    exponents = [step.exponent for step in result.steps]
    assert exponents == sorted(set(exponents)) and {s.side for s in result.steps} == {"left"}
    assert series.equal_to_precision(
        structure.replay_reduction(result, gens), f, result.remainder.precision
    )


def test_right_reduce_series_geometric():
    config = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "X", poly.LAURENT)
    one = series.series(config, {0: Q.one}, 5)
    gen = series.series(config, {0: Q.one, 1: -Q.one}, 5)
    gens = structure.GeneratorSet(config, [gen], "right")
    result = structure.right_reduce(one, gens)
    assert len(result.steps) == 6
    assert not result.remainder.coeffs
    assert [s.exponent for s in result.steps] == [0, 1, 2, 3, 4, 5]
    assert series.equal_to_precision(structure.replay_reduction(result, gens), one)


def test_right_reduce_series_strictly_raises_order():
    config = cfg_conj()
    rng = random.Random(61)
    lead = G.one + G.basis_element(1)
    gen = series.series(config, {0: lead, 2: G.basis_element(1)}, 6)
    f = series.series(config, {0: G.random_element(rng), 1: G.one}, 6)
    gens = structure.GeneratorSet(config, [gen], "right")
    result = structure.right_reduce(f, gens, max_steps=4)
    orders = []
    remainder = f
    for step in result.steps:
        remainder = remainder - gen.times_monomial(step.coeff, step.exponent)
        if remainder.coeffs:
            orders.append(remainder.order)
    assert orders == sorted(set(orders))
    assert series.equal_to_precision(
        structure.replay_reduction(result, gens), f, result.remainder.precision
    )


def _dense_octonion_poly(config, rng, degree):
    return config.from_terms({
        e: O.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)])
        for e in range(degree + 1)
    })


def test_reductions_factor_each_divisor_once(monkeypatch, factor_count):
    """A generator's lead is factored on first use, not once per step."""
    config = poly.RingConfig(O, maps.make_twist(O, "conjugation"), None, "X", poly.ORE)
    rng = random.Random(19)
    f = _dense_octonion_poly(config, rng, 12)
    gens = structure.GeneratorSet(
        config, [_dense_octonion_poly(config, rng, 3), _dense_octonion_poly(config, rng, 2)],
        "right",
    )
    factor_count["calls"] = 0  # building the config inverts its twist
    result = structure.right_reduce(f, gens)
    used = {step.generator for step in result.steps}
    assert used == {0, 1} and len(result.steps) == 11
    assert factor_count["calls"] == 2
    # left division by p solves against sigma^k(lead p), which conjugation
    # takes to two values
    factor_count["calls"] = 0
    left = structure.monic_left_reduce(f, gens.generators[0])
    assert len(left.steps) == 10 and factor_count["calls"] == 2
    monkeypatch.undo()
    assert structure.replay_reduction(result, gens) == f
    assert structure.replay_reduction(left, [gens.generators[0]]) == f


def test_generator_set_validation():
    config = cfg_q2(poly.ORE)
    with pytest.raises(ConstructionError, match="nonzero"):
        structure.GeneratorSet(config, [config.zero], "right")
    with pytest.raises(ConstructionError, match="nonempty"):
        structure.GeneratorSet(config, [], "right")
    with pytest.raises(ConstructionError, match="side"):
        structure.GeneratorSet(config, [config.one], "up")
    with pytest.raises(ConstructionError, match="right_reduce needs a right generator set"):
        structure.right_reduce(config.gen, structure.GeneratorSet(config, [config.one], "left"))


def test_reduction_rejects_the_other_kind():
    # a polynomial and a series of one config never meet in a reduction step
    config = cfg_q2()
    p = config.gen * config.gen
    s = series.series(config, {1: G.one}, 4)
    with pytest.raises(RingMismatchError):
        structure.GeneratorSet(config, [config.gen, s], "right")
    with pytest.raises(RingMismatchError):
        structure.right_reduce(p, structure.GeneratorSet(config, [s], "right"))
    with pytest.raises(RingMismatchError):
        structure.right_reduce(s, structure.GeneratorSet(config, [config.gen], "right"))
