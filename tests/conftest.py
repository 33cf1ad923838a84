import pytest

from skewring import linalg


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
