"""Acceptance gate: every criterion of the verification matrix at its stated
tolerance, one test per criterion.

The full suite runs once (module scope) under the default configuration;
each test then asserts its criterion and prints a pass/fail line.  This
module is the slow part of the test run, so it is marked ``slow``:
``pytest -m "not slow"`` leaves it out.
"""
import math

import pytest

from cxsect import default_config
from cxsect.suite import run_suite

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def suite_result():
    return run_suite(default_config(), echo=None)


@pytest.fixture(scope="module")
def by_name(suite_result):
    return {r.name: r for r in suite_result.results}


def _report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] {res.name}: measured {res.measured:.6e} "
          f"{res.comparison} {res.bound:.2e}")
    return res.passed


def test_criterion_1_golden_transform(by_name):
    res = by_name["golden_transform"]
    assert _report(res), res.details
    assert res.measured <= 1e-10
    assert res.details["n=2"]["exact"] == pytest.approx(4 * math.pi ** 2, rel=1e-14)
    assert res.details["n=3"]["exact"] == pytest.approx(4 * math.pi ** 3, rel=1e-14)


def test_criterion_2_section_cross_validation(by_name):
    res = by_name["section_cross_validation"]
    assert _report(res), res.details
    assert res.measured <= 5e-3
    assert len(res.details) >= 12  # ball/ellipsoids/lq/perturbed at both dimensions


def test_criterion_3_parseval(by_name):
    res = by_name["parseval"]
    assert _report(res), res.details
    golden = res.details["golden"]
    exact = 32 * math.pi ** 6
    assert golden["lhs"] == pytest.approx(exact, rel=1e-10)
    assert golden["rhs"] == pytest.approx(exact, rel=1e-10)
    assert res.details["strictly_decreasing"]
    assert res.measured <= 1e-2


def test_criterion_4_positivity(by_name):
    res = by_name["positivity"]
    assert _report(res), res.details
    assert res.measured >= -1e-6


def test_criterion_5_stability_sweep(by_name):
    res = by_name["stability_sweep"]
    assert _report(res), res.details["violations"]
    assert res.details["pair_count"] >= 50
    assert not res.details["violations"]


def test_criterion_6_separation_sharpness(by_name):
    res = by_name["separation"]
    assert _report(res), res.details
    assert res.measured <= 1e-9  # scaled-ball pair attains equality


def test_criterion_7_corollary_sweep(by_name):
    res = by_name["corollary_sweep"]
    assert _report(res), res.details["violations"]
    assert res.details["pair_count"] >= 50
    assert not res.details["violations"]


def test_criterion_8_gamma_inequality(by_name):
    res = by_name["gamma_inequality"]
    assert _report(res), res.details
    assert res.details["n1_equality_log_margin"] <= 1e-14
    assert res.details["min_strict_log_margin"] > 0


def test_criterion_9_volume_oracles(by_name):
    res = by_name["volume_oracles"]
    assert _report(res), {k: v for k, v in res.details.items()
                          if isinstance(v, dict) and not v.get("passed", True)}
    assert res.measured <= 1e-3


def test_criterion_10_structural_invariants(by_name):
    res = by_name["structural_invariants"]
    assert _report(res), res.details
    assert res.measured <= 1e-10


def test_no_numerical_warnings_at_defaults(by_name):
    asserted = [r for r in by_name.values() if not r.soft]
    assert all(not r.warnings for r in asserted), \
        {r.name: r.warnings for r in asserted if r.warnings}


def test_suite_exit_code_clean(suite_result):
    assert suite_result.exit_code == 0


def test_runtime_reported(suite_result):
    res = next(r for r in suite_result.results if r.name == "runtime_budget_soft")
    print(f"\n[info] suite wall time {res.measured:.1f}s (soft target {res.bound:.0f}s)")
    assert res.soft
