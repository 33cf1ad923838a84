import json

import pytest
from hypothesis import settings

from skewring import cli, linalg, maps, parsing, structure

# Tier-1 runs a small, derandomized budget, so every run checks the same
# examples; `pytest --hypothesis-profile=fuzz` (a CI step of its own) runs
# a larger random one. A test's own @settings(max_examples=...) wins over both,
# so a test that sets a Tier-1 budget and must still fuzz at the profile's
# size states it as tier1_budget(n) (tests/test_kernel.py).
settings.register_profile("tier1", max_examples=25, derandomize=True, deadline=None,
                          database=None)
settings.register_profile("fuzz", max_examples=1000, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def factor_count(monkeypatch):
    """Counts ``linalg.factor`` calls in ``["calls"]``; the solvers look it up per call."""
    counts = {"calls": 0}
    factor = linalg.factor

    def counted(columns):
        counts["calls"] += 1
        return factor(columns)

    monkeypatch.setattr(linalg, "factor", counted)
    return counts


@pytest.fixture
def power_apply_count(monkeypatch):
    """Counts ``LinearTwist.power_apply`` calls in ``["calls"]``; reset it before the call measured."""
    counts = {"calls": 0}
    power_apply = maps.LinearTwist.power_apply

    def counted(self, m, el):
        counts["calls"] += 1
        return power_apply(self, m, el)

    monkeypatch.setattr(maps.LinearTwist, "power_apply", counted)
    return counts


@pytest.fixture(scope="session")
def replay_printed():
    """``replay(out, cli_config, gen_texts)``: the element that the ``reduce``
    record printed as ``out`` replays to, its cofactors and remainder parsed back
    under ``cli_config`` and its generators parsed from ``gen_texts``."""
    def replay(out, cli_config, gen_texts):
        record = json.loads(out)
        steps = []
        for step in record["steps"]:
            (exponent, coeff), = parsing.parse_poly(step["cofactor"],
                                                    cli_config.ring_config).terms.items()
            steps.append(structure.CofactorStep(step["generator"], step["side"], coeff,
                                                exponent))
        remainder = cli.parse_expr(record["remainder"], cli_config)
        return structure.replay_reduction(
            structure.ReductionResult(steps, remainder),
            [cli.parse_expr(text, cli_config) for text in gen_texts])

    return replay
