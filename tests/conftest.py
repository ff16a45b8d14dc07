import copy
import os
import pathlib

import pytest

import oscgauss
from oscgauss import scurve, verify
from oscgauss.precision import PrecisionContext


@pytest.fixture(scope="session", autouse=True)
def checkout_on_pythonpath():
    """Every subprocess a test starts imports this checkout's package.

    pyproject's pythonpath reaches only the pytest process, so the checkout's
    src directory goes first on PYTHONPATH, which child interpreters inherit.
    """
    src = str(pathlib.Path(oscgauss.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def phase():
    """One traced contour for the whole session (the memoised default)."""
    return scurve.build_phase_context()


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(30)


@pytest.fixture(scope="session")
def suite_run():
    """suite_run(name): verify.run_suite([name]), run once per session.

    The acceptance gate and the golden verify cases judge the same run, so
    each suite is computed once.  Callers get a copy of the cached result.
    """
    run, results = verify.run_suite, {}

    def get(name):
        if name not in results:
            results[name] = run([name])
        return copy.deepcopy(results[name])
    return get
