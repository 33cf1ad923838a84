import pytest
from hypothesis import settings

from skewring import linalg, maps

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
