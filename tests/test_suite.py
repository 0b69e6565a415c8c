"""The acceptance suite's body matrix is built once per process, and its
criteria share transforms through the context."""
from cxsect import PerturbedBall, VerificationContext, suite, theorems, validate
from cxsect.suite import run_suite


def test_matrix_certifies_each_perturbed_body_once(monkeypatch):
    calls = []
    certify = PerturbedBall._certify
    monkeypatch.setattr(PerturbedBall, "_certify", lambda self: calls.append(self) or certify(self))
    suite._matrix_n2.cache_clear()
    suite._matrix_n3.cache_clear()
    # as many builds as one suite run makes: 9 of each matrix, 2 sweeps
    for _ in range(9):
        suite.bodies_n2()
        suite.bodies_n3()
    suite.sweep_pairs()
    suite.sweep_pairs()
    assert len(calls) == 3
    assert {b.label for b in calls} == {
        b.label for b in (*suite.bodies_n2().values(), *suite.bodies_n3().values())
        if isinstance(b, PerturbedBall)}


def test_sweep_pairs_are_54_distinct_pairs_of_two_bodies():
    # the property the sweep's former filter guarded: no pair twice, no body
    # paired with itself
    pairs = suite.sweep_pairs()
    assert len(pairs) == 54
    assert len({(K.label, L.label) for K, L in pairs}) == 54
    assert all(K != L and K.label != L.label for K, L in pairs)


def test_each_call_returns_a_fresh_dict():
    first = suite.bodies_n2()
    first["ball"] = None
    second = suite.bodies_n2()
    assert second["ball"] is not None and second is not first
    assert second["pert_a"] is suite.bodies_n2()["pert_a"]


def test_parseval_criterion_builds_each_transform_once(monkeypatch):
    built = []
    real = theorems.ft_norm_power
    monkeypatch.setattr(theorems, "ft_norm_power",
                        lambda *a, **k: built.append((a[0], a[1], k["jmax"])) or real(*a, **k))
    context = VerificationContext()
    suite.criterion_golden_transform(context)
    suite.criterion_section_cross_validation(context)
    before = len(built)
    suite.criterion_parseval(context)
    # three bodies at jmax 12, 16 and 20; the golden ball and the two mixed
    # bodies at the configured degree come from C1 and C2
    assert len(built) - before == 6 and len(set(built)) == len(built)


def test_structural_invariants_are_the_validator_worst_values():
    context = VerificationContext()
    details = suite.criterion_structural(context).details
    matrix = [*suite.bodies_n2().values(), *suite.bodies_n3().values()]
    reports = [validate(body, 1000 // len(matrix), context.config.seed + 2000 + i)
               for i, body in enumerate(matrix)]
    assert details["homogeneity"] == max(r.checks["homogeneity"].worst for r in reports)
    assert details["rotation_invariance"] == max(
        r.checks["rotation_invariance"].worst for r in reports)


def test_run_suite_times_every_criterion_it_runs():
    names = ["gamma_inequality", "separation"]
    result = run_suite(names=names, echo=None)
    assert [r.name for r in result.results] == names
    assert all(r.seconds > 0.0 for r in result.results)
    assert set(result.timings()["criterion_seconds"]) == set(names)
