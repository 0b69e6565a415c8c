"""The acceptance suite's body matrix is built once per process."""
from cxsect import PerturbedBall, suite


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


def test_each_call_returns_a_fresh_dict():
    first = suite.bodies_n2()
    first["ball"] = None
    second = suite.bodies_n2()
    assert second["ball"] is not None and second is not first
    assert second["pert_a"] is suite.bodies_n2()["pert_a"]
