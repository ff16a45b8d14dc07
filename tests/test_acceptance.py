"""Top-level verification gate: every shipping criterion must hold.

Each test drives the corresponding suite runner and fails with the full list
of violated checks (label, value, bound) so a regression is self-describing.
The contour comes from scurve.build_phase_context(), which is memoised, so
whichever test asks first traces it and every later suite and fixture reuses it.
"""

import pytest

from oscgauss import verify


def _require(rep):
    if rep["passed"]:
        return
    bad = [f"{label}: value={entry['value']!r} bound={entry.get('bound')!r}"
           for label, entry in rep["checks"].items() if not entry["ok"]]
    pytest.fail(f"suite '{rep['name']}' failed:\n" + "\n".join(bad))


def test_curve_reaches_z2_and_is_admissible():
    _require(verify.criterion_curve())


def test_equilibrium_measure_and_variational_conditions():
    _require(verify.criterion_measure())


def test_zero_attraction_to_curve():
    _require(verify.criterion_zeros())


def test_strong_asymptotics_by_region():
    _require(verify.criterion_asymptotics())


def test_quadrature_convergence_rates():
    _require(verify.criterion_quadrature_order())


def test_dual_route_consistency():
    _require(verify.criterion_consistency())


def test_end_to_end_interval_quadrature():
    _require(verify.criterion_end_to_end())


def test_run_suite_order_independent():
    # measure before curve: each suite takes the memoised contour itself, so
    # none depends on curve having traced it first
    out = verify.run_suite(["measure", "curve"])
    assert list(out["suites"]) == ["measure", "curve"]
    assert out["passed"] is True


def test_run_suite_subset_and_validation():
    out = verify.run_suite(["curve"])
    assert out["passed"] is True
    assert list(out["suites"]) == ["curve"]
    assert out["suites"]["curve"]["passed"] is True
    with pytest.raises(ValueError):
        verify.run_suite(["curve", "nonsense"])
