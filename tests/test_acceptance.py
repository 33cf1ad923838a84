"""Acceptance criteria, one test per criterion.

Every value asserted here is exact (tolerance zero); each test prints a
single pass/fail line so the module doubles as a human-readable
checklist under ``pytest -s tests/test_acceptance.py``.
"""

import functools
import random
from fractions import Fraction

from skewring import maps, poly, rings, series, structure

G = rings.gaussian()
O = rings.octonions()
Q = rings.rationals()
M2 = rings.matrix_algebra(Q, 2)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:>2}] {description}: FAIL")
                raise
            print(f"[criterion {number:>2}] {description}: PASS")
        return wrapper
    return decorate


def laurent(ring, twist_kind, **params):
    return poly.RingConfig(
        ring, maps.make_twist(ring, twist_kind, **params), None, "X", poly.LAURENT
    )


def ore(ring, twist_kind, **params):
    return poly.RingConfig(
        ring, maps.make_twist(ring, twist_kind, **params), None, "X", poly.ORE
    )


CFG_G_Q2 = laurent(G, "q_twist", q=2)
CFG_G_CONJ = laurent(G, "conjugation")
CFG_M2_SWAP = laurent(M2, "diag_swap")
CFG_O_CONJ = laurent(O, "conjugation")
NUCLEI_ROSTER = (CFG_G_Q2, CFG_M2_SWAP, CFG_O_CONJ)


def rational_poly_ring():
    return poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "Y", poly.ORE)


def weyl_config():
    qy = rational_poly_ring()
    return poly.RingConfig(
        qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative"),
        "X", poly.ORE,
    )


@criterion(1, "pi family: recursion equals word enumeration through m = 6")
def test_criterion_1_pi_family():
    qy = rational_poly_ring()
    fam = maps.PiFamily(
        maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")
    )
    rng = random.Random(101)
    elements = [qy.random_element(rng) for _ in range(25)]
    for s in elements:
        explicit = fam.sigma(fam.delta(fam.delta(s))) \
            + fam.delta(fam.sigma(fam.delta(s))) \
            + fam.delta(fam.delta(fam.sigma(s)))
        assert maps.pi_apply(fam, 1, 3, s) == explicit
    for m in range(7):
        for i in range(m + 1):
            for s in elements:
                assert maps.pi_apply(fam, i, m, s) == maps.pi_word_sum(fam, i, m, s)


@criterion(2, "Weyl relation: X·Y - Y·X = 1 exactly")
def test_criterion_2_weyl():
    config = weyl_config()
    x = config.gen
    y = config.constant(rational_poly_ring().gen)
    assert x * y - y * x == config.one


@criterion(3, "X^n middle/right nuclear, |n| <= 4; left fails iff not an automorphism")
def test_criterion_3_nuclearity():
    for config in NUCLEI_ROSTER:
        for n in range(-4, 5):
            for side in ("middle", "right"):
                query = structure.NucleusQuery(config.variable_power(n), side, 4)
                assert structure.nucleus_membership(query), (config, n, side)
        assert "automorphism" not in maps.classify_multiplicativity(config.sigma)
        left = structure.nucleus_membership(
            structure.NucleusQuery(config.gen, "left", 4)
        )
        assert not left and left.witness is not None
        a, b, c, value = left.witness
        assert rings.associator(a, b, c) == value and value
    # converse direction of the iff: an automorphism twist passes on the left
    auto_cfg = laurent(G, "q_twist", q=-1)
    assert "automorphism" in maps.classify_multiplicativity(auto_cfg.sigma)
    assert structure.nucleus_membership(
        structure.NucleusQuery(auto_cfg.gen, "left", 4)
    )


@criterion(4, "associativity dichotomy at degree bound 3")
def test_criterion_4_associativity():
    for q in (1, -1):
        config = laurent(G, "q_twist", q=q)
        assert structure.associativity_certificate(config, 3)
        assert structure.associativity_prediction(config)
    for q in (2, Fraction(1, 2), 3):
        config = laurent(G, "q_twist", q=q)
        outcome = structure.associativity_certificate(config, 3)
        assert not outcome and outcome.witness is not None
        assert not structure.associativity_prediction(config)
    for config in (CFG_M2_SWAP, CFG_O_CONJ):
        outcome = structure.associativity_certificate(config, 3)
        assert not outcome and outcome.witness is not None


@criterion(5, "finite-order ideal: multiples of 1 + X^4 vanish, 1 stays 1")
def test_criterion_5_finite_order_ideal():
    config = CFG_G_CONJ
    assert config.sigma.order == (2, None)
    generator = config.one + config.variable_power(4)
    for element in (config.variable_power(4), generator):
        for side in ("left", "middle", "right"):
            assert structure.nucleus_membership(
                structure.NucleusQuery(element, side, 4)
            )
    rng = random.Random(105)
    for _ in range(50):
        q = config.random_element(rng, max_degree=4)
        product = poly.poly_mul(q, generator)
        assert not structure.central_reduction(product, 2)
    assert structure.central_reduction(config.one, 2) == config.one


@criterion(6, "simplicity probe: unit within deg(p)+1 steps; conjugation inconclusive")
def test_criterion_6_simplicity():
    config = CFG_G_Q2
    rng = random.Random(106)
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
        assert probe.verdict == "unit"
        assert len(probe.steps) <= p.degree + 1
    conj = CFG_G_CONJ
    p = conj.one + conj.variable_power(4)
    for d in G.basis_elements():
        assert not structure.shrink(p, d)
    probe = structure.simplicity_probe(p)
    assert probe.verdict == "inconclusive" and probe.remainder == p and not probe.steps


@criterion(7, "constructive Hilbert steps: right form, monic left division, right reduction")
def test_criterion_7_hilbert_steps():
    round_trip_configs = [CFG_G_Q2, CFG_O_CONJ, weyl_config(), ore(G, "q_twist", q=2)]
    rng = random.Random(107)
    for config in round_trip_configs:
        for _ in range(25):
            p = config.random_element(rng, max_degree=8)
            assert poly.from_right_form(config, poly.to_right_form(p)) == p

    for config in (ore(O, "identity"), ore(G, "q_twist", q=2)):
        done = 0
        while done < 50:
            p = config.random_element(rng, max_degree=3)
            f = config.random_element(rng, max_degree=6)
            if not p:
                continue
            done += 1
            result = structure.monic_left_reduce(f, p)
            if result.remainder:
                assert result.remainder.degree < p.degree
            assert structure.replay_reduction(result, [p]) == f

    config = ore(G, "q_twist", q=2)
    done = 0
    while done < 25:
        gens = [g for g in (config.random_element(rng, max_degree=3) for _ in range(2)) if g]
        f = config.random_element(rng, max_degree=6)
        if not gens:
            continue
        done += 1
        gset = structure.GeneratorSet(config, gens, "right")
        result = structure.right_reduce(f, gset)
        assert structure.replay_reduction(result, gset) == f

    scfg = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "X", poly.LAURENT)
    one = series.series(scfg, {0: Q.one}, 5)
    gen = series.series(scfg, {0: Q.one, 1: -Q.one}, 5)
    gens = structure.GeneratorSet(scfg, [gen], "right")
    result = structure.right_reduce(one, gens)
    assert len(result.steps) == 6 and not result.remainder.coeffs
    assert series.equal_to_precision(structure.replay_reduction(result, gens), one)


@criterion(8, "series: frozen inverse of 1 - iX and order additivity")
def test_criterion_8_series():
    config = CFG_G_Q2
    i = G.basis_element(1)
    a = series.series(config, {0: G.one, 1: -i}, 4)
    b = series.series_invert(a)
    expected = series.series(
        config, {0: G.one, 1: i, 2: G.scalar(-2), 3: i.scale(-2), 4: G.scalar(4)}, 4
    )
    assert b == expected
    assert series.equal_to_precision(a * b, series.series_one(config, 4))

    rng = random.Random(108)
    done = 0
    while done < 50:
        def rand_series():
            start = rng.randint(-3, 2)
            terms = {}
            for e in range(start, start + 3):
                c = G.random_element(rng)
                if c:
                    terms[e] = c
            return series.series(config, terms, start + 6) if terms else None
        u, v = rand_series(), rand_series()
        if u is None or v is None:
            continue
        done += 1
        assert (u * v).order == u.order + v.order


@criterion(9, "Jordan algebra values and octonion derivations")
def test_criterion_9_jordan():
    hp = rings.jordan_algebra(rings.quaternions())
    i, j = hp.basis_element(1), hp.basis_element(2)
    assert rings.associator(i, i, j) == -j
    for a in hp.basis_elements():
        for b in hp.basis_elements():
            asq = a * a
            assert (a * b) * asq == a * (b * asq)
    rng = random.Random(109)
    basis = O.basis_elements()
    for _ in range(10):
        a, b = O.random_element(rng), O.random_element(rng)
        der = maps.standard_derivation(a, b)
        assert not der(O.one)
        for x in basis:
            dx = der(x)
            for y in basis:
                assert der(x * y) == dx * y + x * der(y)


@criterion(10, "quantum torus: X·Y = 2·Y·X, central coefficients, nuclear variables")
def test_criterion_10_quantum_torus():
    torus = poly.quantum_torus(O, 2)
    inner = torus.coefficients
    x = torus.gen
    y = torus.constant(inner.gen)
    assert x * y == (y * x).scale(2)
    for b in O.basis_elements():
        cb = torus.constant(inner.constant(b))
        assert cb * x == x * cb
        assert cb * y == y * cb
    for n in (1, 2, 3):
        for element in (torus.variable_power(n), torus.constant(inner.variable_power(n))):
            for side in ("middle", "right"):
                assert structure.nucleus_membership(
                    structure.NucleusQuery(element, side, 3)
                )


@criterion(11, "D-structure axioms for the Laurent and Ore families")
def test_criterion_11_d_structure():
    rng = random.Random(111)
    for config in NUCLEI_ROSTER:
        family = poly.laurent_d_structure(config.sigma)
        elements = [config.coefficients.random_element(rng) for _ in range(5)]
        report = poly.validate_d_structure(family, list(range(-4, 5)), elements)
        assert report.ok, report.entries

    qy = rational_poly_ring()
    ore_families = [
        (qy, maps.make_twist(qy, "identity"), maps.make_twist(qy, "derivative")),
        (G, maps.make_twist(G, "q_twist", q=2), maps.make_twist(G, "zero")),
        (O, maps.make_twist(O, "conjugation"),
         maps.standard_derivation(O.basis_element(1), O.basis_element(2))),
    ]
    for ring, sigma, delta in ore_families:
        family = poly.ore_d_structure(sigma, delta)
        elements = [ring.random_element(rng) for _ in range(3)]
        report = poly.validate_d_structure(family, list(range(0, 6)), elements)
        assert report.ok, report.entries

    corrupted = poly.corrupted_d_structure(
        poly.laurent_d_structure(CFG_G_Q2.sigma)
    )
    elements = [G.random_element(rng) for _ in range(3)]
    report = poly.validate_d_structure(corrupted, list(range(-2, 3)), elements)
    assert not report.ok
    assert any(axiom == "D1" and not passed for axiom, passed, _ in report.entries)


@criterion(12, "nuclear-inverse lemma clauses over the laurent configs")
def test_criterion_12_nuclear_inverses():
    roster = list(NUCLEI_ROSTER) + [laurent(G, "q_twist", q=-1)]
    units = {
        CFG_G_Q2.describe(): G.basis_element(1),
        CFG_M2_SWAP.describe(): M2.unit_matrix(0, 1) + M2.unit_matrix(1, 0),
        CFG_O_CONJ.describe(): O.basis_element(1),
    }
    for config in roster:
        if config.describe() in units:
            unit = units[config.describe()]
        else:
            unit = config.coefficients.basis_element(1)
        elements = (config.gen, config.variable_power(2), config.constant(unit))
        for x in elements:
            for hypothesis in ("lm", "full", "mr"):
                report = structure.nuclear_inverse_check(x, hypothesis, 3)
                assert report, (config.describe(), hypothesis)
                if not report.failing_sides:
                    assert report.verdict == "pass" and report.witness is None
