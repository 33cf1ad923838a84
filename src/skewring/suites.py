"""Named verification suites.

Each suite is an ordered list of ``(id, anchor, check)`` entries. A
check is a plain function whose inputs the suite binds with
``functools.partial``: it passes by returning nothing and fails by
raising, which the runner records as "fail" with the error text. A check
with something to show returns ``(status, payload)`` instead: "witness"
when its success consists of exhibiting a concrete counterexample, or
"pass" with a note. Reports are deterministic: every randomized check
seeds its own generator from its check id, and output ordering follows
declaration order, never timing.

The suites' built-in rings are the config documents of ``ROSTER``, built
through ``config.load_config`` as every CLI ``--config`` is, so each one
can be written to a file and re-checked with ``skewring classify``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import zlib
from fractions import Fraction
from functools import lru_cache, partial

from . import maps, poly, rings, series, structure
from .config import load_config
from .errors import ConstructionError, ReductionError, SkewringError


class CheckRecord:
    def __init__(self, id, anchor, status, witness=None, elapsed=0.0):
        self.id, self.anchor, self.status = id, anchor, status  # status: pass | fail | witness
        self.witness, self.elapsed = witness, elapsed


class SuiteReport:
    def __init__(self, suite, config_digest, checks=None):
        self.suite, self.config_digest = suite, config_digest
        self.checks = [] if checks is None else checks

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)


# ---------------------------------------------------------------------------
# built-in configurations
# ---------------------------------------------------------------------------


def _gaussian_q(q, shape=poly.LAURENT):
    """The document of Q(i)[X; x -> qx], one ring of the q-twist family."""
    return {"ring": "gaussian", "twist": {"kind": "q_twist", "q": q}, "shape": shape}


# every built-in ring as a config document, keyed by name
ROSTER = {
    **{f"gaussian-q{q}": _gaussian_q(q) for q in ("1", "-1", "2", "1/2", "3", "3/5")},
    "gaussian-q2-ore": _gaussian_q("2", poly.ORE),
    "gaussian-conj": {"ring": "gaussian", "twist": "conjugation"},
    "matrix-swap": {"ring": {"kind": "matrix", "base": "rationals", "n": 2},
                    "twist": "diag_swap"},
    "octonion-conj": {"ring": "octonions", "twist": "conjugation"},
    "rational-laurent": {"ring": "rationals", "twist": "identity"},
    "weyl": {"ring": {"kind": "polynomial", "base": "rationals", "shape": "ore"},
             "twist": "identity", "delta": "derivative", "shape": "ore"},
    "octonion-ore": {"ring": "octonions", "twist": "identity", "shape": "ore"},
    "torus-octonion": {"ring": {"kind": "polynomial", "base": "octonions"},
                       "twist": {"kind": "y_scale", "q": "2"}},
    "torus-rational": {"ring": {"kind": "polynomial", "base": "rationals"},
                       "twist": {"kind": "y_scale", "q": "1"}},
}


@lru_cache(maxsize=None)
def _load(text):
    return load_config(json.loads(text)).ring_config


def builtin(name):
    """The ring config of ``ROSTER[name]``, built once per process."""
    return _load(json.dumps(ROSTER[name], sort_keys=True))


def _rng(check_id):
    return random.Random(zlib.crc32(check_id.encode()))


def _draws(count, draw):
    """Yield the first ``count`` draws that are not None or zero."""
    done = 0
    while done < count:
        value = draw()
        if value:
            done += 1
            yield value


def _triple_payload(witness):
    a, b, c, value = witness
    return {
        "triple": [repr(a), repr(b), repr(c)],
        "associator": repr(value),
    }


def _require(condition, message):
    if not condition:
        raise AssertionError(message)


def _require_raises(error, message, fn, *args):
    """The ``error`` that ``fn(*args)`` must raise; fails with ``message`` if none."""
    try:
        fn(*args)
    except error as exc:
        return exc
    raise AssertionError(message)


# ---------------------------------------------------------------------------
# laurent-axioms suite
# ---------------------------------------------------------------------------

ANCHOR_PI = (
    "pi(1,3) equals sigma∘delta∘delta + delta∘sigma∘delta + delta∘delta∘sigma; "
    "the recursion matches word enumeration"
)
ANCHOR_WEYL = "X·Y − Y·X = 1 in Q[Y][X; id, d/dY]"
ANCHOR_NS = "(S,S,x) = (S,x,S) = 0 and xR = Rx for the twisted variable"
ANCHOR_RING_LAWS = "twisted products are biadditive and unital with bounded degree growth"


def _pi_families():
    weyl = builtin("weyl")
    weyl_fam = ("weyl", weyl.coefficients, maps.PiFamily(weyl.sigma, weyl.delta))
    o = rings.octonions()
    oct_fam = (
        "octonion",
        o,
        maps.PiFamily(
            builtin("octonion-conj").sigma,
            maps.standard_derivation(o.basis_element(1), o.basis_element(2)),
        ),
    )
    return [weyl_fam, oct_fam]


def _check_pi_word_sum():
    for label, ring, fam in _pi_families():
        rng = _rng(f"pi-words-{label}")
        for _ in range(25):
            s = ring.random_element(rng)
            by_recursion = maps.pi_apply(fam, 1, 3, s)
            by_words = maps.pi_word_sum(fam, 1, 3, s)
            _require(by_recursion == by_words, f"pi(1,3) mismatch over {label}")
        words = maps.pi_words(1, 3)
        _require(words == [
            ("sigma", "delta", "delta"),
            ("delta", "sigma", "delta"),
            ("delta", "delta", "sigma"),
        ], "unexpected word enumeration for pi(1,3)")


def _check_pi_recursion_enumeration():
    for label, ring, fam in _pi_families():
        rng = _rng(f"pi-enum-{label}")
        elements = [ring.random_element(rng) for _ in range(25)]
        for m in range(0, 7):
            for i in range(0, m + 1):
                for s in elements:
                    _require(
                        maps.pi_apply(fam, i, m, s) == maps.pi_word_sum(fam, i, m, s),
                        f"pi({i},{m}) recursion != enumeration over {label}",
                    )
        zero_above = ring.random_element(rng)
        _require(not maps.pi_apply(fam, 3, 2, zero_above), "pi must vanish for i > m")


def _check_weyl_relation():
    weyl = builtin("weyl")
    x = weyl.gen
    y = weyl.constant(weyl.coefficients.gen)
    _require(x * y - y * x == weyl.one, "Weyl relation fails")
    _require(x * y == weyl.one + y * x, "X·Y != 1 + YX")


def _laurent_roster():
    return [builtin("gaussian-q2"), builtin("matrix-swap"), builtin("octonion-conj")]


def _check_variable_coefficient_pass(configs):
    for config in configs:
        if config.shape != poly.LAURENT:
            continue
        sigma = config.sigma
        x = config.gen
        for b in config.coefficients.spanning_set(2):
            bc = config.constant(b)
            _require(x * bc == config.monomial(sigma(b), 1), "X·r != sigma(r)·X")
            _require(
                bc * x == poly.poly_mul(x, config.constant(sigma.power_apply(-1, b))),
                "r·X != X·sigma^{-1}(r)",
            )
    for config in (builtin("weyl"),):
        sigma, delta = config.sigma, config.delta
        x = config.gen
        for b in config.coefficients.spanning_set(2):
            expected = config.constant(delta(b)) + config.monomial(sigma(b), 1)
            _require(x * config.constant(b) == expected, "X·r != delta(r) + sigma(r)·X")


def _check_variable_associators(configs):
    ore_extra = [builtin("weyl"), builtin("gaussian-q2-ore")]
    for config in list(configs) + ore_extra:
        rng = _rng(f"ns3-{config.describe()}")
        x = config.gen
        for _ in range(20):
            p = config.random_element(rng, max_degree=4)
            q = config.random_element(rng, max_degree=4)
            _require(
                not rings.associator(p, q, x), "(p,q,X) != 0"
            )
            _require(
                not rings.associator(p, x, q), "(p,X,q) != 0"
            )


def _check_ring_laws(configs):
    for config in configs:
        rng = _rng(f"laws-{config.describe()}")
        one = config.one
        for _ in range(50):
            p = config.random_element(rng)
            q = config.random_element(rng)
            r = config.random_element(rng)
            _require((p + q) * r == p * r + q * r, "left biadditivity fails")
            _require(p * (q + r) == p * q + p * r, "right biadditivity fails")
            _require(one * p == p and p * one == p, "unit law fails")


def _check_degree_growth():
    division_cfg = builtin("gaussian-q2")
    rng = _rng("degree-growth")
    for _ in range(40):
        p = division_cfg.random_element(rng)
        q = division_cfg.random_element(rng)
        if not p or not q:
            continue
        prod = p * q
        _require(prod, "division coefficients cannot produce zero divisors")
        _require(
            prod.degree == p.degree + q.degree,
            "degree must be additive over division coefficients",
        )
    zero_div_cfg = builtin("matrix-swap")
    for _ in range(40):
        p = zero_div_cfg.random_element(rng)
        q = zero_div_cfg.random_element(rng)
        if not p or not q:
            continue
        prod = p * q
        if prod:
            _require(
                prod.degree <= p.degree + q.degree,
                "degree exceeded the sum bound",
            )


def _check_canonical_form(configs):
    for config in configs:
        x2 = config.variable_power(2)
        x3 = config.variable_power(3)
        _require(x2 * x3 == config.variable_power(5), "X^m·X^n != X^{m+n}")
        cancel = x2 - x2
        _require(not cancel.terms, "cancellation must drop zero coefficients")
        _require(
            not config.from_terms({1: config.coefficients.zero}).terms,
            "zero coefficients must not be stored",
        )


def _laurent_axioms_suite(configs=None):
    roster = configs or _laurent_roster()
    return [
        ("axioms/pi-1-3-word-sum", ANCHOR_PI, _check_pi_word_sum),
        ("axioms/pi-recursion-vs-enumeration", ANCHOR_PI, _check_pi_recursion_enumeration),
        ("axioms/weyl-relation", ANCHOR_WEYL, _check_weyl_relation),
        ("axioms/variable-coefficient-pass", ANCHOR_NS,
         partial(_check_variable_coefficient_pass, roster)),
        ("axioms/variable-associators", ANCHOR_NS, partial(_check_variable_associators, roster)),
        ("axioms/ring-laws", ANCHOR_RING_LAWS, partial(_check_ring_laws, roster)),
        ("axioms/degree-growth", ANCHOR_RING_LAWS, _check_degree_growth),
        ("axioms/canonical-form", ANCHOR_RING_LAWS, partial(_check_canonical_form, roster)),
    ]


# ---------------------------------------------------------------------------
# nuclei suite
# ---------------------------------------------------------------------------

ANCHOR_NUCLEI = "X^n lies in N_m(S) and N_r(S) for S = R[X±; sigma], any n"
ANCHOR_LEFT = "X lies in N_l(S) iff sigma is an automorphism"
ANCHOR_NUCLEAR_INV = (
    "nuclear inverses: x in N_l∩N_m gives x⁻¹ in N_l; x in N gives x⁻¹ in N_m; "
    "x in N_m∩N_r gives x⁻¹ in N_r"
)


def _check_power_nuclear(config, n, side):
    query = structure.NucleusQuery(config.variable_power(n), side, 4)
    outcome = structure.nucleus_membership(query)
    _require(outcome.passed, f"X^{n} must be {side}-nuclear")


def _check_left_witness(config):
    tags = maps.classify_multiplicativity(config.sigma)
    outcome = structure.nucleus_membership(
        structure.NucleusQuery(config.gen, "left", 4)
    )
    if "automorphism" in tags:
        _require(outcome.passed, "automorphism twist must put X in N_l")
        return
    _require(not outcome.passed, "non-automorphism twist must exclude X from N_l")
    return "witness", _triple_payload(outcome.witness)


def _unit_for(config):
    ring = config.coefficients
    if isinstance(ring, poly.RingConfig):
        # Y is a unit of R[Y±]; the units of R[Y] are R's units
        if ring.shape == poly.LAURENT:
            return ring.gen
        return ring.constant(_unit_for(ring))
    if isinstance(ring, rings.MatrixRing):
        return ring.unit_matrix(0, 1) + ring.unit_matrix(1, 0)
    if ring.qdim == 1:
        # Q's units are its nonzero scalars; 2 exercises the inverse, 1 would not
        return ring.scalar(2)
    return ring.basis_element(1)


def _check_nuclear_inverse(config, element_key, hypothesis):
    if element_key == "X":
        x = config.gen
    elif element_key == "X^2":
        x = config.variable_power(2)
    else:
        x = config.constant(_unit_for(config))
    report = structure.nuclear_inverse_check(x, hypothesis, 3)
    _require(report.ok, f"nuclear inverse clause {hypothesis} violated")
    if report.hypothesis_satisfied:
        return
    failing = [
        side for side, outcome in report.hypothesis_checks.items()
        if not outcome.passed
    ]
    return "pass", {"hypothesis": "not satisfied", "failing_sides": failing}


def _nuclei_suite(configs=None):
    roster = configs or _laurent_roster()
    checks = []
    for config in roster:
        label = config.describe()
        for n in config.exponent_window(4):
            for side in ("middle", "right"):
                checks.append((
                    f"nuclei/{label}/X^{n}/{side}",
                    ANCHOR_NUCLEI,
                    partial(_check_power_nuclear, config, n, side),
                ))
        checks.append((
            f"nuclei/{label}/X/left",
            ANCHOR_LEFT,
            partial(_check_left_witness, config),
        ))
    inverse_roster = configs or (_laurent_roster() + [builtin("gaussian-q-1")])
    for config in inverse_roster:
        if config.shape != poly.LAURENT:
            continue
        label = config.describe()
        for element_key in ("X", "X^2", "unit"):
            for hypothesis in ("lm", "full", "mr"):
                checks.append((
                    f"nuclei/inverse/{label}/{element_key}/{hypothesis}",
                    ANCHOR_NUCLEAR_INV,
                    partial(_check_nuclear_inverse, config, element_key, hypothesis),
                ))
    return checks


# ---------------------------------------------------------------------------
# associativity suite
# ---------------------------------------------------------------------------

ANCHOR_ASSOC = (
    "S = R[X±; sigma] is associative iff R is associative and sigma is an automorphism"
)
ANCHOR_ANTI = (
    "for an antiautomorphism twist, S is associative iff R is associative and commutative"
)


def _check_associativity(config, expect_pass=None):
    """Certificate against prediction; ``expect_pass`` None accepts either verdict."""
    outcome = structure.associativity_certificate(config, 3)
    predicted = structure.associativity_prediction(config)
    _require(
        outcome.passed == predicted,
        "certificate disagrees with the classification criterion",
    )
    if expect_pass:
        _require(outcome.passed, "expected an associative ring")
    elif expect_pass is not None:
        _require(not outcome.passed, "expected a non-associativity witness")
    if not outcome.passed:
        return "witness", _triple_payload(outcome.witness)


def _check_twist_classification():
    for q, expected in ((1, True), (-1, True), (2, False), (Fraction(3, 5), False)):
        tags = maps.classify_multiplicativity(builtin(f"gaussian-q{q}").sigma)
        _require(("automorphism" in tags) == expected,
                 f"q={q} classification wrong")
    swap_tags = maps.classify_multiplicativity(builtin("matrix-swap").sigma)
    _require("automorphism" not in swap_tags, "diag swap is not multiplicative")
    _require("antiautomorphism" in swap_tags and "involution" in swap_tags,
             "diag swap is an involutive antiautomorphism")
    conj_tags = maps.classify_multiplicativity(builtin("octonion-conj").sigma)
    _require("automorphism" not in conj_tags and "involution" in conj_tags,
             "octonion conjugation is an involution, not an automorphism")


def _associativity_suite(configs=None):
    if configs:
        return [
            (f"assoc/{config.describe()}", ANCHOR_ASSOC, partial(_check_associativity, config))
            for config in configs
        ]
    return [
        *(
            (f"assoc/gaussian-q{q}", ANCHOR_ASSOC,
             partial(_check_associativity, builtin(f"gaussian-q{q}"), expect_pass=q in (1, -1)))
            for q in (1, -1, 2, Fraction(1, 2), 3)
        ),
        ("assoc/matrix-diag-swap", ANCHOR_ANTI,
         partial(_check_associativity, builtin("matrix-swap"), expect_pass=False)),
        ("assoc/octonion-conjugation", ANCHOR_ANTI,
         partial(_check_associativity, builtin("octonion-conj"), expect_pass=False)),
        ("assoc/twist-classification",
         "the q-scaling twist is an automorphism iff q = ±1; conjugations are involutions",
         _check_twist_classification),
    ]


# ---------------------------------------------------------------------------
# simplicity suite
# ---------------------------------------------------------------------------

ANCHOR_SIMPLE = (
    "over a commutative division ring, infinite twist order makes R[X±; sigma] simple"
)
ANCHOR_NONSIMPLE = "finite twist order yields the proper nonzero ideal of 1 + X^(m²)"


def _check_shrink_example():
    config = builtin("gaussian-q2")
    i = rings.gaussian().basis_element(1)
    p = config.gen + config.one
    result = structure.shrink(p, i)
    _require(result == config.constant(-i), "shrink(X+1, i) must equal -i")
    probe = structure.simplicity_probe(config, p, 3)
    _require(probe.reached_unit and len(probe.steps) == 1, "X+1 must shrink in one step")
    _require(probe.unit == -i, "unit certificate must be -i")


def _check_probe_random():
    config = builtin("gaussian-q2")
    reason = maps.infinite_order_reason(config.sigma)
    _require(reason is not None, "q=2 twist must certify infinite order")
    rng = _rng("probe-random")

    def draw():
        exps = rng.sample(range(0, 5), k=rng.randint(1, 3))
        return config.from_terms(poly.random_terms(config.coefficients, rng, exps))

    for p in _draws(25, draw):
        budget = p.degree + 1
        probe = structure.simplicity_probe(config, p, budget)
        _require(probe.reached_unit, "probe must reach a unit")
        _require(len(probe.steps) <= budget, "probe exceeded deg(p)+1 shrink steps")


def _check_probe_inconclusive():
    config = builtin("gaussian-conj")
    p = config.one + config.variable_power(4)
    for d in config.coefficients.basis_elements():
        _require(not structure.shrink(p, d), "all shrinks of 1+X^4 must vanish")
    probe = structure.simplicity_probe(config, p, 8)
    _require(probe.status == "inconclusive", "probe must be inconclusive")
    _require(probe.note == "all shrinks vanish", "probe note must report vanishing shrinks")


def _check_probe_constant():
    config = builtin("gaussian-q2")
    probe = structure.simplicity_probe(config, config.scalar(5), 3)
    _require(probe.reached_unit and not probe.steps, "constants are already units")


def _check_probe_hypotheses():
    exc = _require_raises(ReductionError, "non-commutative coefficients must be rejected",
                          structure.shrink, builtin("octonion-conj").one,
                          rings.octonions().basis_element(1))
    _require("commutative division ring" in str(exc), "wrong rejection message")


def _simplicity_suite():
    return [
        ("simplicity/shrink-example", ANCHOR_SIMPLE, _check_shrink_example),
        ("simplicity/random-probes", ANCHOR_SIMPLE, _check_probe_random),
        ("simplicity/conjugation-inconclusive", ANCHOR_NONSIMPLE, _check_probe_inconclusive),
        ("simplicity/constant-unit", ANCHOR_SIMPLE, _check_probe_constant),
        ("simplicity/hypothesis-guard", ANCHOR_SIMPLE, _check_probe_hypotheses),
    ]


# ---------------------------------------------------------------------------
# finite-order ideals suite
# ---------------------------------------------------------------------------


def _check_finite_order_detected():
    _require(maps.detect_finite_order(builtin("gaussian-conj").sigma, 8) == 2,
             "conjugation must have order 2")
    _require(maps.detect_finite_order(builtin("matrix-swap").sigma, 8) == 2,
             "diag swap must have order 2")
    _require(maps.detect_finite_order(builtin("gaussian-q2").sigma, 8) is None,
             "q=2 twist has no finite order")


def _check_generator_nuclear():
    config = builtin("gaussian-conj")
    memo = {}
    for element in (config.variable_power(4), config.one + config.variable_power(4)):
        for side in ("left", "middle", "right"):
            outcome = structure.nucleus_membership(
                structure.NucleusQuery(element, side, 4), memo
            )
            _require(outcome.passed, f"{side} nuclearity of the ideal generator fails")


def _check_multiples_vanish(config, label, count):
    generator = config.one + config.variable_power(4)
    rng = _rng(f"ideal-{label}")
    for q in _draws(count, lambda: config.random_element(rng, max_degree=4)):
        product = poly.poly_mul(q, generator)
        _require(
            not structure.central_reduction(product, 2),
            "multiples of 1 + X^4 must reduce to zero",
        )
    one_image = structure.central_reduction(config.one, 2)
    _require(one_image == config.one, "1 must reduce to itself (proper ideal)")


def _check_reduction_values():
    config = builtin("gaussian-conj")
    _require(structure.central_reduction(config.variable_power(8), 2) == config.one,
             "X^8 must reduce to 1")
    _require(not structure.central_reduction(config.one + config.variable_power(4), 2),
             "the generator must reduce to zero")
    _require(structure.central_reduction(config.variable_power(-1), 2)
             == -config.variable_power(3), "X^-1 must reduce to -X^3")


def _check_order_hypothesis_guard():
    exc = _require_raises(ReductionError, "central reduction must reject infinite-order twists",
                          structure.central_reduction, builtin("gaussian-q2").one, 2)
    _require(str(exc) == "finite order hypothesis fails", "wrong guard message")


def _finite_order_suite():
    return [
        ("ideal/finite-order-detected", ANCHOR_NONSIMPLE, _check_finite_order_detected),
        ("ideal/generator-nuclear", ANCHOR_NONSIMPLE, _check_generator_nuclear),
        ("ideal/gaussian-multiples-vanish", ANCHOR_NONSIMPLE,
         partial(_check_multiples_vanish, builtin("gaussian-conj"), "gaussian", 50)),
        ("ideal/matrix-multiples-vanish", ANCHOR_NONSIMPLE,
         partial(_check_multiples_vanish, builtin("matrix-swap"), "matrix", 20)),
        ("ideal/octonion-multiples-vanish", ANCHOR_NONSIMPLE,
         partial(_check_multiples_vanish, builtin("octonion-conj"), "octonion", 20)),
        ("ideal/reduction-values", ANCHOR_NONSIMPLE, _check_reduction_values),
        ("ideal/order-hypothesis-guard", ANCHOR_NONSIMPLE, _check_order_hypothesis_guard),
    ]


# ---------------------------------------------------------------------------
# hilbert-reduction suite
# ---------------------------------------------------------------------------

ANCHOR_RIGHT_FORM = "sum_{i<=m} X^i·R equals sum_{i<=m} R·X^i as sets"
ANCHOR_MONIC = "subtracting r·X^(n-m)·p strictly drops the degree below deg p"
ANCHOR_RIGHT_REDUCE = (
    "leading-coefficient matching right reduction; replaying the record "
    "reconstructs the input exactly"
)


def _right_form_configs():
    return [builtin(name) for name in ("gaussian-q2", "octonion-conj", "weyl", "gaussian-q2-ore")]


def _check_right_form_round_trip():
    for config in _right_form_configs():
        rng = _rng(f"right-form-{config.describe()}")
        for _ in range(25):
            p = config.random_element(rng, max_degree=8)
            pairs = poly.to_right_form(p)
            _require(poly.from_right_form(config, pairs) == p,
                     "right-form round trip failed")
        for _ in range(10):
            exps = rng.sample(config.exponent_window(4), k=rng.randint(1, 3))
            pairs = list(poly.random_terms(config.coefficients, rng, sorted(exps)).items())
            rebuilt = poly.to_right_form(poly.from_right_form(config, pairs))
            _require(rebuilt == pairs, "right-form pairs round trip failed")


def _check_monic_left_example():
    config = builtin("octonion-ore")
    e1 = rings.octonions().basis_element(1)
    p = config.variable_power(2) + config.monomial(e1, 1)
    f = config.monomial(e1, 3)
    result = structure.monic_left_reduce(f, p)
    _require(result.remainder == config.monomial(-e1, 1), "remainder must be -e1·X")
    _require([(s.coeff, s.exponent) for s in result.steps]
             == [(e1, 1), (rings.octonions().one, 0)], "unexpected quotient record")
    _require(structure.replay_reduction(result, [p]) == f, "replay must rebuild f")


def _check_monic_left_random(config, label):
    rng = _rng(f"monic-{label}")

    def draw():
        p = config.random_element(rng, max_degree=3)
        f = config.random_element(rng, max_degree=6)
        return (p, f) if p else None

    for p, f in _draws(50, draw):
        result = structure.monic_left_reduce(f, p)
        if result.remainder:
            _require(result.remainder.degree < p.degree,
                     "remainder degree must drop below deg p")
        _require(structure.replay_reduction(result, [p]) == f,
                 "replay must rebuild the input")
        again = structure.monic_left_reduce(result.remainder, p)
        _require(again.remainder == result.remainder and not again.steps,
                 "reducing the remainder must be idempotent")


def _check_right_reduce_poly():
    config = builtin("gaussian-q2-ore")
    i = rings.gaussian().basis_element(1)
    gens = structure.GeneratorSet(config, [config.gen - config.constant(i)], "right")
    f = config.variable_power(2)
    result = structure.right_reduce(f, gens)
    _require(not result.irreducible, "division coefficients always match")
    _require(result.remainder == config.scalar(Fraction(-1, 2)),
             "X² must reduce to -1/2 against X - i")
    _require(structure.replay_reduction(result, gens) == f, "replay must rebuild X²")

    member = structure.right_reduce(gens.generators[0], gens)
    _require(not member.remainder and len(member.steps) == 1,
             "a generator must reduce to zero in one step")

    rng = _rng("right-reduce-random")

    def draw():
        gen_count = rng.randint(1, 2)
        generators = []
        for _ in range(gen_count):
            g = config.random_element(rng, max_degree=3)
            if g:
                generators.append(g)
        f = config.random_element(rng, max_degree=6)
        return (generators, f) if generators else None

    for generators, f in _draws(25, draw):
        gset = structure.GeneratorSet(config, generators, "right")
        result = structure.right_reduce(f, gset)
        min_deg = min(g.degree for g in generators)
        if result.remainder:
            _require(result.remainder.degree < min_deg,
                     "remainder must fall below the least generator degree")
        _require(structure.replay_reduction(result, gset) == f,
                 "replay must rebuild the input")


def _check_right_reduce_irreducible():
    weyl = builtin("weyl")
    y = weyl.coefficients.gen
    gen = weyl.monomial(y, 1)
    gset = structure.GeneratorSet(weyl, [gen], "right")
    f = weyl.gen
    result = structure.right_reduce(f, gset)
    _require(result.irreducible, "no single-step match exists: Y does not divide 1")
    _require(result.remainder == f and not result.steps,
             "irreducible results leave the remainder unchanged")
    f2 = weyl.monomial(y * y, 1)
    result2 = structure.right_reduce(f2, gset)
    _require(structure.replay_reduction(result2, gset) == f2,
             "solvable single-step match must replay")


def _check_right_reduce_series():
    q = rings.rationals()
    config = builtin("rational-laurent")
    one = series.series(config, {0: q.one}, 5)
    gen = series.series(config, {0: q.one, 1: -q.one}, 5)
    gset = structure.GeneratorSet(config, [gen], "right")
    result = structure.right_reduce(one, gset)
    _require(len(result.steps) == 6, "the geometric reduction takes six steps")
    _require(not result.remainder,
             "remainder order must exceed the precision window")
    _require([s.exponent for s in result.steps] == list(range(6)),
             "partial sums record expected")
    replay = structure.replay_reduction(result, gset)
    _require(series.equal_to_precision(replay, one), "series replay must rebuild 1")

    g = rings.gaussian()
    config2 = builtin("gaussian-conj")
    rng = _rng("series-reduce-random")

    def draw():
        lead = g.random_element(rng)
        if not lead:
            return None
        gen_terms = {0: lead, **poly.random_terms(g, rng, range(1, 4))}
        f_terms = poly.random_terms(g, rng, range(0, 5))
        return (gen_terms, f_terms) if f_terms else None

    for gen_terms, f_terms in _draws(15, draw):
        gset2 = structure.GeneratorSet(
            config2, [series.series(config2, gen_terms, 6)], "right"
        )
        f = series.series(config2, f_terms, 6)
        result = structure.right_reduce(f, gset2, max_steps=12)
        replay = structure.replay_reduction(result, gset2)
        _require(series.equal_to_precision(replay, f, result.remainder.precision),
                 "series replay must rebuild the input within precision")


def _hilbert_suite():
    return [
        ("hilbert/right-form-round-trip", ANCHOR_RIGHT_FORM, _check_right_form_round_trip),
        ("hilbert/monic-left-example", ANCHOR_MONIC, _check_monic_left_example),
        ("hilbert/monic-left-octonion", ANCHOR_MONIC,
         partial(_check_monic_left_random, builtin("octonion-ore"), "octonion")),
        ("hilbert/monic-left-gaussian", ANCHOR_MONIC,
         partial(_check_monic_left_random, builtin("gaussian-q2-ore"), "gaussian")),
        ("hilbert/right-reduce-polynomials", ANCHOR_RIGHT_REDUCE, _check_right_reduce_poly),
        ("hilbert/right-reduce-irreducible", ANCHOR_RIGHT_REDUCE,
         _check_right_reduce_irreducible),
        ("hilbert/right-reduce-series", ANCHOR_RIGHT_REDUCE, _check_right_reduce_series),
    ]


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

ANCHOR_SERIES = (
    "truncated skew series: order, leading coefficient, and unit inversion "
    "by triangular recurrences"
)


def _check_series_frozen_inverse():
    g = rings.gaussian()
    config = builtin("gaussian-q2")
    i = g.basis_element(1)
    a = series.series(config, {0: g.one, 1: -i}, 4)
    b = series.series_invert(a)
    expected = series.series(
        config,
        {0: g.one, 1: i, 2: g.scalar(-2), 3: i.scale(-2), 4: g.scalar(4)},
        4,
    )
    _require(b == expected, "inverse of 1 - iX must match the frozen coefficients")
    product = a * b
    _require(series.equal_to_precision(product, series.series_one(config, 4)),
             "multiply-back must give 1 through X^4")


def _check_series_one_sided():
    g = rings.gaussian()
    config = builtin("gaussian-q2")
    i = g.basis_element(1)
    a = series.series(config, {0: g.one, 1: -i}, 4)
    left = series.series_invert(a, side="left")
    _require(series.equal_to_precision(left * a, series.series_one(config, 4)),
             "left inverse must satisfy b·a = 1")
    _require(left.coefficient(3) == i.scale(-8),
             "left inverse differs from the right inverse at X^3")
    _require_raises(SkewringError, "two-sided inversion must fail for this series",
                    series.series_invert, a, "both")


def _check_series_two_sided_roundtrip():
    config = builtin("gaussian-conj")
    g = rings.gaussian()
    rng = _rng("series-two-sided")

    def draw():
        lead = g.random_element(rng)
        return {0: lead, **poly.random_terms(g, rng, range(1, 5))} if lead else None

    for terms in _draws(50, draw):
        a = series.series(config, terms, 6)
        b = series.series_invert(a, side="both")
        _require(series.equal_to_precision(a * b, series.series_one(config, 6)),
                 "a·a⁻¹ must be 1")
        _require(series.equal_to_precision(b * a, series.series_one(config, 6)),
                 "a⁻¹·a must be 1")


def _check_series_order_additivity():
    config = builtin("gaussian-q2")
    g = rings.gaussian()
    rng = _rng("series-order-add")

    def random_series():
        start = rng.randint(-3, 2)
        terms = poly.random_terms(g, rng, range(start, start + 3))
        return series.series(config, terms, start + 6) if terms else None

    def draw():
        a = random_series()
        b = random_series()
        return None if a is None or b is None else (a, b)

    for a, b in _draws(50, draw):
        product = a * b
        _require(product.order == a.order + b.order,
                 "order must be additive over division coefficients")


def _check_series_poly_oracle():
    config = builtin("gaussian-q2")
    rng = _rng("series-poly-oracle")
    for _ in range(25):
        p = config.random_element(rng, max_degree=3)
        q = config.random_element(rng, max_degree=3)
        sp = series.from_poly(p, 8, window_start=-4)
        sq = series.from_poly(q, 8, window_start=-4)
        product = sp * sq
        expected = poly.poly_mul(p, q)
        for e in range(product.window_start, product.precision + 1):
            _require(product.coefficient(e) == expected.coefficient(e),
                     "series product must match the polynomial product")


def _check_series_values():
    q = rings.rationals()
    config = builtin("rational-laurent")
    geo = series.series_invert(series.series(config, {0: q.one, 1: -q.one}, 4))
    _require(geo == series.series(config, {e: q.one for e in range(5)}, 4),
             "the geometric series inverse must be 1 + X + ... + X^4")
    g = rings.gaussian()
    config2 = builtin("gaussian-q2")
    i = g.basis_element(1)
    prod = series.series(config2, {1: i}, 4) * series.series(config2, {1: i}, 4)
    _require(prod.coefficient(2) == g.scalar(-2), "(iX)(iX) must be -2X²")
    sample = series.series(config2, {3: g.one, 5: -g.one}, 6)
    _require(series.series_order_leading(sample) == (3, g.one), "order of X³ - X⁵")
    laurent = series.series(config2, {-2: g.one, 0: g.one}, 3)
    _require(series.series_order_leading(laurent) == (-2, g.one), "order of X⁻² + 1")
    unit = series.series(config2, {0: i}, 4)
    inv = series.series_invert(unit, side="both")
    _require(inv.coefficient(0) == -i, "constant units invert coefficient-wise")
    exc = _require_raises(SkewringError, "the zero window has no order",
                          series.series_order_leading, series.series(config2, {}, 4))
    _require(str(exc) == "order undefined at this precision", "wrong error")


def _series_suite():
    return [
        ("series/frozen-inverse", ANCHOR_SERIES, _check_series_frozen_inverse),
        ("series/one-sided-asymmetry", ANCHOR_SERIES, _check_series_one_sided),
        ("series/two-sided-round-trip", ANCHOR_SERIES, _check_series_two_sided_roundtrip),
        ("series/order-additivity", ANCHOR_SERIES, _check_series_order_additivity),
        ("series/polynomial-oracle", ANCHOR_SERIES, _check_series_poly_oracle),
        ("series/worked-values", ANCHOR_SERIES, _check_series_values),
    ]


# ---------------------------------------------------------------------------
# jordan suite
# ---------------------------------------------------------------------------

ANCHOR_JORDAN = (
    "H+ under {a,b} = (ab+ba)/2 is a Jordan algebra; its associator (i,i,j) is -j"
)
ANCHOR_DERIVATION = (
    "c -> [[a,b],c] - 3(a,b,c) is a derivation of the octonions"
)


def _jordan():
    return rings.jordan_algebra(rings.quaternions())


def _check_jordan_values():
    hp = _jordan()
    i, j = hp.basis_element(1), hp.basis_element(2)
    _require(rings.associator(i, i, j) == -j, "(i,i,j) must be -j in H+")
    _require(i * j == hp.zero, "{i,j} must vanish")
    _require(i * i == -hp.one, "{i,i} must be -1")
    _require(hp.is_commutative, "the plus algebra is commutative")
    _require(not hp.is_associative, "H+ is not associative")


def _jordan_identity_holds(a, b):
    asq = a * a
    return (a * b) * asq == a * (b * asq)


def _check_jordan_identity():
    hp = _jordan()
    basis = hp.basis_elements()
    for a in basis:
        for b in basis:
            _require(_jordan_identity_holds(a, b), "Jordan identity fails on basis pair")
            _require(a * hp.one == a, "unit must be preserved")
    rng = _rng("jordan-random")
    for _ in range(100):
        a = hp.random_element(rng)
        b = hp.random_element(rng)
        _require(_jordan_identity_holds(a, b), "Jordan identity fails on random pair")


def _check_jordan_guard():
    exc = _require_raises(ConstructionError, "the octonions must be rejected",
                          rings.jordan_algebra, rings.octonions())
    _require(str(exc) == "Jordan construction requires associative input",
             "wrong guard message")


def _check_derivations():
    o = rings.octonions()
    basis = o.basis_elements()
    rng = _rng("derivations")
    for _ in range(10):
        a = o.random_element(rng)
        b = o.random_element(rng)
        der = maps.standard_derivation(a, b)
        _require(not der(o.one), "derivations kill 1")
        for x in basis:
            dx = der(x)
            for y in basis:
                _require(der(x * y) == dx * y + x * der(y),
                         "derivation law fails on a basis pair")
    a = o.random_element(rng)
    same = maps.standard_derivation(a, a)
    _require(all(not same(x) for x in basis), "delta_{a,a} must vanish")


def _check_jordan_twisted_ring():
    hp = _jordan()
    h = rings.quaternions()
    inner = maps.make_twist(h, "inner", u=h.basis_element(1))
    tm = maps.make_twist(hp, "matrix",
                         matrix=[[inner.images[j][i] for j in range(4)] for i in range(4)])
    tags = maps.classify_multiplicativity(tm)
    _require("automorphism" in tags, "inner maps act as automorphisms of H+")
    config = poly.RingConfig(hp, tm, None, "X", poly.LAURENT)
    rng = _rng("jordan-ring")
    for _ in range(20):
        p = config.random_element(rng)
        pairs = poly.to_right_form(p)
        _require(poly.from_right_form(config, pairs) == p,
                 "right form round trip over H+ fails")


def _jordan_suite():
    return [
        ("jordan/worked-values", ANCHOR_JORDAN, _check_jordan_values),
        ("jordan/identity", ANCHOR_JORDAN, _check_jordan_identity),
        ("jordan/associative-guard", ANCHOR_JORDAN, _check_jordan_guard),
        ("jordan/derivation-law", ANCHOR_DERIVATION, _check_derivations),
        ("jordan/twisted-plus-ring", ANCHOR_JORDAN, _check_jordan_twisted_ring),
    ]


# ---------------------------------------------------------------------------
# quantum torus suite
# ---------------------------------------------------------------------------

ANCHOR_TORUS = (
    "the quantum torus satisfies X·Y = q·Y·X; coefficients commute with the "
    "variables and Y^m, X^n are middle and right nuclear"
)


def _check_torus_relation():
    torus = builtin("torus-octonion")
    x = torus.gen
    y = torus.constant(torus.coefficients.gen)
    _require(x * y == (y * x).scale(2), "X·Y must equal 2·Y·X")
    trivial = builtin("torus-rational")
    xt, yt = trivial.gen, trivial.constant(trivial.coefficients.gen)
    _require(xt * yt == yt * xt, "q = 1 variables must commute")
    _require_raises(ConstructionError, "q = 0 must be rejected",
                    poly.quantum_torus, rings.rationals(), 0)


def _check_torus_coefficients_commute():
    torus = builtin("torus-octonion")
    inner = torus.coefficients
    x = torus.gen
    y = torus.constant(inner.gen)
    for b in rings.octonions().basis_elements():
        cb = torus.constant(inner.constant(b))
        _require(cb * x == x * cb, "octonion coefficients must commute with X")
        _require(cb * y == y * cb, "octonion coefficients must commute with Y")


def _check_torus_monomial_rule():
    torus = builtin("torus-octonion")
    inner = torus.coefficients
    o = rings.octonions()
    rng = _rng("torus-monomials")
    q = Fraction(2)
    for _ in range(30):
        p_idx, q_idx = rng.randint(0, 7), rng.randint(0, 7)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        mp, np_ = rng.randint(-3, 3), rng.randint(-3, 3)
        left = torus.monomial(inner.monomial(o.basis_element(p_idx), m), n)
        right = torus.monomial(inner.monomial(o.basis_element(q_idx), mp), np_)
        product = left * right
        scalar = q ** (n * mp)
        expected = torus.monomial(
            inner.monomial(
                (o.basis_element(p_idx) * o.basis_element(q_idx)).scale(scalar),
                m + mp,
            ),
            n + np_,
        )
        _require(product == expected,
                 "monomial products must follow the q^(n·m') tensor rule")
    span = torus.spanning_set(1)
    _require(len(span) == len(set(span)) == 8 * 3 * 3,
             "rank-eight spanning monomials must be distinct")


def _check_torus_nuclearity():
    torus = builtin("torus-octonion")
    inner = torus.coefficients
    memo = {}
    for n in (1, 2, 3):
        for element, name in (
            (torus.variable_power(n), f"X^{n}"),
            (torus.constant(inner.variable_power(n)), f"Y^{n}"),
        ):
            for side in ("middle", "right"):
                outcome = structure.nucleus_membership(
                    structure.NucleusQuery(element, side, 3), memo
                )
                _require(outcome.passed, f"{name} must be {side}-nuclear")


def _check_torus_iterated_guard():
    h = rings.quaternions()
    one = h.one
    first = maps.make_twist(h, "inner", u=one + h.basis_element(1))
    second = maps.make_twist(h, "inner", u=one + h.basis_element(2))
    inner_ring = poly.RingConfig(h, first, None, "Y", poly.LAURENT)
    commuting = poly.iterated_extend(
        inner_ring, "X", {"kind": "coefficientwise", "base": first}
    )
    _require(commuting.shape == poly.LAURENT, "commuting lifts must build")
    exc = _require_raises(ConstructionError, "non-commuting twists must be rejected",
                          poly.iterated_extend, inner_ring, "X",
                          {"kind": "coefficientwise", "base": second})
    _require("commuting" in str(exc), "wrong guard message")


def _torus_suite():
    return [
        ("torus/defining-relation", ANCHOR_TORUS, _check_torus_relation),
        ("torus/coefficients-commute", ANCHOR_TORUS, _check_torus_coefficients_commute),
        ("torus/monomial-rule", ANCHOR_TORUS, _check_torus_monomial_rule),
        ("torus/variable-nuclearity", ANCHOR_TORUS, _check_torus_nuclearity),
        ("torus/commuting-guard", ANCHOR_TORUS, _check_torus_iterated_guard),
    ]


# ---------------------------------------------------------------------------
# d-structure suite
# ---------------------------------------------------------------------------

ANCHOR_DSTRUCT = (
    "the Laurent family (sigma^a on the diagonal) and the Ore word family "
    "satisfy axioms D0-D4; corrupting the identity breaks D1"
)


def _check_laurent_family(config):
    family = poly.laurent_d_structure(config.sigma)
    rng = _rng(f"dstruct-{config.describe()}")
    elements = [config.coefficients.random_element(rng) for _ in range(5)]
    report = poly.validate_d_structure(family, list(range(-4, 5)), elements)
    _require(report.ok, f"laurent family fails: {report.entries}")


def _ore_families():
    weyl = builtin("weyl")
    g = rings.gaussian()
    o = rings.octonions()
    return [
        ("weyl", weyl.coefficients, weyl.sigma, weyl.delta),
        ("gaussian", g, builtin("gaussian-q2").sigma, maps.make_twist(g, "zero")),
        ("octonion", o,
         builtin("octonion-conj").sigma,
         maps.standard_derivation(o.basis_element(1), o.basis_element(2))),
    ]


def _check_ore_family(label, ring, sigma, delta):
    family = poly.ore_d_structure(sigma, delta)
    rng = _rng(f"dstruct-ore-{label}")
    elements = [ring.random_element(rng) for _ in range(3)]
    report = poly.validate_d_structure(family, list(range(0, 6)), elements)
    _require(report.ok, f"ore family fails: {report.entries}")


def _check_corrupted_family():
    config = builtin("gaussian-q2")
    family = poly.corrupted_d_structure(poly.laurent_d_structure(config.sigma))
    rng = _rng("dstruct-corrupt")
    elements = [config.coefficients.random_element(rng) for _ in range(4)]
    report = poly.validate_d_structure(family, list(range(-2, 3)), elements)
    _require(not report.ok, "the corrupted family must fail")
    failed = [axiom for axiom, passed, _ in report.entries if not passed]
    _require("D1" in failed, "the corruption must surface as a D1 failure")


def _check_d4_is_pi_composition():
    weyl = builtin("weyl")
    qy = weyl.coefficients
    fam = maps.PiFamily(weyl.sigma, weyl.delta)
    rng = _rng("d4-pi")
    elements = [qy.random_element(rng) for _ in range(5)]
    for a in range(0, 4):
        for b in range(0, 4):
            for c in range(0, a + b + 1):
                for r in elements:
                    total = qy.zero
                    for d in range(0, a + 1):
                        e = c - d
                        if 0 <= e <= b:
                            total = total + maps.pi_apply(
                                fam, d, a, maps.pi_apply(fam, e, b, r)
                            )
                    _require(total == maps.pi_word_sum(fam, c, a + b, r),
                             "D4 must match the enumeration oracle")


def _d_structure_suite(configs=None):
    roster = configs or _laurent_roster()
    return [
        *(
            (f"dstruct/laurent/{config.describe()}", ANCHOR_DSTRUCT,
             partial(_check_laurent_family, config))
            for config in roster if config.shape == poly.LAURENT
        ),
        *(
            (f"dstruct/ore/{label}", ANCHOR_DSTRUCT,
             partial(_check_ore_family, label, ring, sigma, delta))
            for label, ring, sigma, delta in _ore_families()
        ),
        ("dstruct/corrupted-d1", ANCHOR_DSTRUCT, _check_corrupted_family),
        ("dstruct/d4-pi-composition", ANCHOR_DSTRUCT, _check_d4_is_pi_composition),
    ]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITE_BUILDERS = {
    "nuclei": _nuclei_suite,
    "laurent-axioms": _laurent_axioms_suite,
    "associativity": _associativity_suite,
    "simplicity": _simplicity_suite,
    "finite-order-ideals": _finite_order_suite,
    "hilbert-reduction": _hilbert_suite,
    "series": _series_suite,
    "jordan": _jordan_suite,
    "quantum-torus": _torus_suite,
    "d-structure": _d_structure_suite,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS)

# suites whose checks can target a user-provided configuration
CONFIGURABLE_SUITES = ("nuclei", "laurent-axioms", "associativity", "d-structure")


def run_suite(name, cli_config=None):
    """Execute one named suite (or "all") and return its report."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITE_BUILDERS:
        names = (name,)
    else:
        raise ConstructionError(f"unknown suite name: {name}")

    checks = []
    for suite_name in names:
        builder = _SUITE_BUILDERS[suite_name]
        if cli_config is not None and suite_name in CONFIGURABLE_SUITES:
            checks.extend(builder([cli_config.ring_config]))
        else:
            checks.extend(builder())

    if cli_config is not None:
        digest_source = {"suite": name, "config": cli_config.source}
    else:
        digest_source = {"suite": name, "configs": "builtin"}
    digest = hashlib.sha256(
        json.dumps(digest_source, sort_keys=True).encode()
    ).hexdigest()[:16]

    report = SuiteReport(suite=name, config_digest=digest)
    for check_id, anchor, fn in checks:
        start = time.perf_counter()
        try:
            status, witness = fn() or ("pass", None)
        except (SkewringError, AssertionError) as exc:
            status, witness = "fail", {"error": str(exc)}
        except Exception as exc:
            status, witness = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        report.checks.append(
            CheckRecord(check_id, anchor, status, witness, round(elapsed, 6))
        )
    return report


def emit_report(report, fmt="json"):
    """Render a report; JSON field order is fixed across runs."""
    if fmt == "json":
        doc = {
            "suite": report.suite,
            "config_digest": report.config_digest,
            "summary": {
                "total": len(report.checks),
                "passed": sum(1 for c in report.checks if c.status == "pass"),
                "witnesses": sum(1 for c in report.checks if c.status == "witness"),
                "failed": sum(1 for c in report.checks if c.status == "fail"),
            },
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "status": c.status,
                    **({"witness": c.witness} if c.witness is not None else {}),
                    "elapsed": c.elapsed,
                }
                for c in report.checks
            ],
        }
        return json.dumps(doc, indent=2)
    if fmt == "markdown":
        lines = [
            f"# Suite `{report.suite}`",
            "",
            f"Config digest: `{report.config_digest}`",
            "",
        ]
        for c in report.checks:
            mark = {"pass": "PASS", "witness": "WITNESS", "fail": "FAIL"}[c.status]
            lines.append(f"- [{mark}] `{c.id}` — {c.anchor} ({c.elapsed:.3f}s)")
            if c.witness is not None:
                lines.append(f"  - payload: `{json.dumps(c.witness)}`")
        failed = sum(1 for c in report.checks if c.status == "fail")
        lines.append("")
        lines.append(
            f"{len(report.checks)} checks, {failed} failed."
        )
        return "\n".join(lines)
    raise ConstructionError(f"unknown report format: {fmt}")
