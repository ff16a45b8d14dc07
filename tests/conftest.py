import pytest

from oscgauss import scurve
from oscgauss.precision import PrecisionContext


@pytest.fixture(scope="session")
def phase():
    """One traced contour for the whole session (the memoised default)."""
    return scurve.build_phase_context()


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(30)
