"""Top-level verification gate: every shipping criterion must hold.

Each test reads the corresponding suite's report and fails with the full
list of violated checks (each label with its entry) so a regression is
self-describing.  The reports come from the session's `suite_run` fixture,
so the golden verify cases judge the same run.  The contour comes from
scurve.build_phase_context(), which is memoised, so whichever suite asks
first traces it and every later suite and fixture reuses it.
"""

import pytest

from oscgauss import verify


def _require(result, name):
    rep = result["suites"][name]
    assert rep["name"] == name and result["passed"] is rep["passed"]
    if rep["passed"]:
        return
    bad = [f"{label}: {entry!r}" for label, entry in rep["checks"].items() if not entry["ok"]]
    pytest.fail(f"suite '{rep['name']}' failed:\n" + "\n".join(bad))


def test_curve_reaches_z2_and_is_admissible(suite_run):
    _require(suite_run("curve"), "curve")


def test_equilibrium_measure_and_variational_conditions(suite_run):
    _require(suite_run("measure"), "measure")


def test_zero_attraction_to_curve(suite_run):
    _require(suite_run("zeros"), "zeros")


def test_strong_asymptotics_by_region(suite_run):
    _require(suite_run("asymp"), "asymp")


def test_quadrature_convergence_rates(suite_run):
    _require(suite_run("order"), "order")


def test_dual_route_consistency(suite_run):
    _require(suite_run("consistency"), "consistency")


def test_end_to_end_interval_quadrature(suite_run):
    _require(suite_run("endtoend"), "endtoend")


def test_timings_sit_under_elapsed_seconds(suite_run):
    # the library report keeps every second, each under elapsed_seconds
    rep = suite_run("order")["suites"]["order"]
    timed = {label: entry for label, entry in rep["checks"].items() if "runtime" in label}
    assert len(timed) == 4
    assert rep["checks"]["runtime"]["elapsed_seconds"] == rep["elapsed_seconds"]
    for label, entry in timed.items():
        assert set(entry) == {"elapsed_seconds", "ok", "bound"}, label
        assert entry["ok"] is (entry["elapsed_seconds"] < entry["bound"]), label


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
