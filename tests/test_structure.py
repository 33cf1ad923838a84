import random
from fractions import Fraction
from math import gcd

import pytest

from skewring import maps, poly, rings, series, structure, suites
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
    """The generic scan: every associator over the spanning set, no shortcuts."""
    span = x.config.spanning_set(bound)
    for u in span:
        for v in span:
            triple = {"left": (x, u, v), "middle": (u, x, v), "right": (u, v, x)}[side]
            if rings.associator(*triple):
                return False
    return True


def _oracle_elements(config, powers, rng):
    """X^n for the given n, two non-unit basis constants, two random elements."""
    ring = config.coefficients
    yield from (config.variable_power(n) for n in powers)
    yield from (config.constant(c) for c in ring.spanning_set(0)[1:3])
    bound = max(map(abs, powers))
    for _ in range(2):
        exps = rng.sample(range(-bound, bound + 1), rng.randint(2, 3))
        yield poly.SkewPoly(config, poly.random_terms(ring, rng, exps))


@pytest.mark.parametrize("name, make_config, bound, powers", [
    ("gaussian-q2", cfg_q2, 2, (-2, -1, 1, 2)),
    ("matrix-swap", cfg_matrix_swap, 2, (2,)),
    ("octonion-conj", cfg_octonion, 2, (-1,)),
    ("octonion-torus", lambda: poly.quantum_torus(O, 2), 1, (1,)),
])
def test_laurent_scan_matches_exhaustive_oracle(name, make_config, bound, powers):
    """The memoised monomial scan against the plain spanning-set scan, all sides."""
    config = make_config()
    rng = random.Random(f"oracle-{name}")
    verdicts = set()
    for x in _oracle_elements(config, powers, rng):
        for side in structure.SIDES:
            outcome = structure.nucleus_membership(structure.NucleusQuery(x, side, bound))
            assert outcome.passed == _exhaustive_membership(x, side, bound), (x, side)
            verdicts.add((side, outcome.passed))
            if not outcome.passed:
                a, b, c, value = outcome.witness
                assert rings.associator(a, b, c) == value
                assert value
    # both verdicts occur in both memoised slots
    assert {(s, v) for s in ("middle", "right") for v in (True, False)} <= verdicts


def _mixed_queries(config, rng):
    """X^n, constants and random elements in every slot, at bounds 2 and 1 in turn."""
    ring = config.coefficients
    elements = [config.variable_power(n) for n in (-1, 1)]
    elements += [config.constant(c) for c in ring.spanning_set(0)[1:3]]
    elements += [
        poly.SkewPoly(config, poly.random_terms(ring, rng, rng.sample(range(-1, 2), 2)))
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
])
def test_shared_scan_memo_matches_fresh_scans(name, make_config):
    """Scans sharing one memo return the verdicts and witnesses of fresh scans."""
    config = make_config()
    queries = _mixed_queries(config, random.Random(f"memo-{name}"))
    memo = {}
    shared = [structure.nucleus_membership(q, memo) for q in queries]
    # a verdict is the first failing coefficient of one bound's spanning
    # set, so each bound keeps its own entry; on these rings no verdict
    # shared across bounds has been seen to differ, so the comparisons
    # below alone would not catch a key without the bound
    assert set(memo) == {(config, 1), (config, 2)}
    failures = 0
    for query, outcome in zip(queries, shared):
        fresh = structure.nucleus_membership(query)
        assert outcome.passed == fresh.passed, query
        assert outcome.witness == fresh.witness, query
        failures += not outcome.passed
    assert 0 < failures < len(queries)


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


def test_torus_nuclearity_product_budget(monkeypatch):
    """The torus check's coefficient products, pinned; a memo lives for one call."""
    suites.builtin("torus-octonion")  # build the cached config outside the count
    products = 0
    scans = 0
    skew_mul = poly.SkewPoly.__mul__
    scan = structure.nucleus_membership

    def counted_mul(self, other):
        nonlocal products
        products += 1
        return skew_mul(self, other)

    def counted_scan(*args, **kwargs):
        nonlocal scans
        scans += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(poly.SkewPoly, "__mul__", counted_mul)
    monkeypatch.setattr(structure, "nucleus_membership", counted_scan)
    for _ in range(2):
        products = scans = 0
        suites._check_torus_nuclearity()
        # 45,088 with one memo per scan
        assert products == 5920
        assert scans == 12


def _reduced(scalar):
    num, den = scalar
    return type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1


def test_torus_nuclearity_verdict_memo(monkeypatch):
    """Equal ratios share one verdict key; a non-canonical key adds entries."""
    memos = []
    scan = structure.nucleus_membership

    def capturing_scan(query, memo=None):
        memos.append(memo)
        return scan(query, memo)

    monkeypatch.setattr(structure, "nucleus_membership", capturing_scan)
    suites._check_torus_nuclearity()
    assert all(memo is memos[0] for memo in memos)
    ((ops, verdicts),) = memos[0].values()
    assert len(verdicts) == 432
    assert len(ops._intern) == 128
    assert all(_reduced(key[3]) for key in verdicts)


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


def test_associativity_witness_matrix_and_octonion():
    swap_cfg = cfg_matrix_swap()
    assert not structure.associativity_certificate(swap_cfg, 3).passed
    assert not structure.associativity_prediction(swap_cfg)
    assert not structure.associativity_certificate(cfg_octonion(), 3).passed


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
    probe = structure.simplicity_probe(config, config.gen + config.one, 3)
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
        probe = structure.simplicity_probe(config, p, p.degree + 1)
        assert probe.reached_unit
        assert len(probe.steps) <= p.degree + 1


def test_simplicity_probe_inconclusive():
    config = cfg_conj()
    p = config.one + config.variable_power(4)
    probe = structure.simplicity_probe(config, p, 10)
    assert probe.status == "inconclusive"
    assert probe.note == "all shrinks vanish"


def test_simplicity_probe_constant():
    probe = structure.simplicity_probe(cfg_q2(), cfg_q2().scalar(5), 2)
    assert probe.reached_unit and not probe.steps


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


def test_replay_rejects_left_step_on_series():
    config = poly.RingConfig(Q, maps.make_twist(Q, "identity"), None, "X", poly.LAURENT)
    gen = series.series(config, {0: Q.one, 1: -Q.one}, 5)
    record = structure.ReductionResult(
        [structure.CofactorStep(0, "left", Q.one, 1)], series.series(config, {}, 5)
    )
    with pytest.raises(ConstructionError, match="series replay supports right cofactors"):
        structure.replay_reduction(record, [gen])


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


def test_right_reduce_random_replay():
    config = cfg_q2(poly.ORE)
    rng = random.Random(59)
    done = 0
    while done < 25:
        gens = [g for g in (config.random_element(rng, max_degree=3) for _ in range(2)) if g]
        f = config.random_element(rng, max_degree=6)
        if not gens:
            continue
        done += 1
        gset = structure.GeneratorSet(config, gens, "right")
        result = structure.right_reduce(f, gset)
        if result.remainder:
            assert result.remainder.degree < min(g.degree for g in gens)
        assert structure.replay_reduction(result, gset) == f


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
        remainder = remainder - series.times_monomial(gen, step.coeff, step.exponent)
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
