import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    ConvexityError,
    EuclideanBall,
    InvalidInputError,
    PerturbedBall,
    body_from_dict,
    body_to_dict,
    complex_structure,
    rotate_pairs,
    validate,
)

from conftest import unit_vectors


class TestNorms:
    def test_ball_unit_vector(self, ball2):
        assert ball2.norm(np.array([1.0, 0, 0, 0])) == 1.0

    def test_ellipsoid_boundary_point(self, ell12):
        assert ell12.norm(np.array([0.0, 0, 0, 2.0])) == pytest.approx(1.0, abs=1e-15)

    def test_lq4_two_unit_moduli(self):
        lq4 = ComplexLqBall(ComplexDim(2), 4.0)
        got = lq4.norm(np.array([1.0, 0, 1.0, 0]))
        assert got == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_norm_zero_at_origin_only(self, ball2, pert2):
        for body in (ball2, pert2):
            assert body.norm(np.zeros(4)) == 0.0
            assert body.norm(np.array([1e-3, 0, 0, 0])) > 0

    def test_dimension_mismatch_rejected(self, ball2):
        with pytest.raises(InvalidInputError):
            ball2.norm(np.zeros(6))

    def test_nonfinite_rejected(self, ball2):
        with pytest.raises(InvalidInputError):
            ball2.norm(np.array([np.inf, 0, 0, 0]))


class TestRadial:
    def test_ball_radius(self):
        ball = EuclideanBall(ComplexDim(2), 1.5)
        theta = np.array([0.0, 1.0, 0, 0])
        assert ball.radial(theta) == pytest.approx(1.5, rel=1e-15)

    def test_ellipsoid_semiaxis(self, ell12):
        assert ell12.radial(np.array([0.0, 0, 1.0, 0])) == pytest.approx(2.0, rel=1e-15)

    def test_lq1_diagonal(self):
        # (|z1| + |z2|) at the balanced direction gives radius 1/sqrt(2)
        lq1 = ComplexLqBall(ComplexDim(2), 1.0)
        theta = np.array([1.0, 0, 1.0, 0]) / math.sqrt(2.0)
        assert lq1.radial(theta) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_zero_vector_rejected(self, ball2):
        with pytest.raises(InvalidInputError):
            ball2.radial(np.zeros(4))

    def test_radial_norm_product(self, ell12, pert2):
        rng = np.random.default_rng(0)
        theta = unit_vectors(rng, 200, 4)
        for body in (ell12, pert2):
            prod = body.radial(theta) * body.norm(theta)
            assert np.max(np.abs(prod - 1.0)) <= 1e-14


class TestComplexStructure:
    def test_basis_rotation(self):
        assert np.array_equal(complex_structure(np.array([1.0, 0, 0, 0])),
                              np.array([0.0, 1.0, 0, 0]))

    def test_pair_rotation(self):
        got = complex_structure(np.array([0.0, 0, 3.0, 4.0]))
        assert np.array_equal(got, np.array([0.0, 0, -4.0, 3.0]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, seed):
        x = np.random.default_rng(seed).normal(size=6)
        assert np.allclose(complex_structure(complex_structure(x)), -x, atol=1e-15)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            complex_structure(np.zeros(5))

    def test_j_is_quarter_rotation(self):
        x = np.random.default_rng(1).normal(size=8)
        assert np.allclose(complex_structure(x), rotate_pairs(x, math.pi / 2), atol=1e-15)


class TestInvariance:
    @given(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, lam, seed):
        body = ComplexLqBall(ComplexDim(2), 3.0)
        x = np.random.default_rng(seed).normal(size=4)
        assert body.norm(lam * x) == pytest.approx(abs(lam) * body.norm(x), rel=1e-12)

    @given(st.floats(0.0, 2.0 * math.pi), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariance(self, theta, seed):
        body = ComplexEllipsoid((1.0, 0.7, 2.2))
        x = np.random.default_rng(seed).normal(size=6)
        assert body.norm(rotate_pairs(x, theta)) == pytest.approx(body.norm(x), rel=1e-12)

    def test_j_preserves_norm(self, pert2):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 4))
        assert np.allclose(pert2.norm(complex_structure(x)), pert2.norm(x), rtol=1e-12)

    def test_lq2_matches_euclidean(self, ball2):
        lq2 = ComplexLqBall(ComplexDim(2), 2.0)
        x = np.random.default_rng(3).normal(size=(1000, 4))
        assert np.allclose(lq2.norm(x), ball2.norm(x), rtol=1e-13)


class TestValidate:
    def test_ball_passes(self, ball2):
        rep = validate(ball2, 1000, 0)
        assert rep.passed
        assert rep.checks["homogeneity"].worst < 1e-12

    def test_lq3_passes(self):
        rep = validate(ComplexLqBall(ComplexDim(2), 3.0), 1000, 0)
        assert rep.passed

    def test_deterministic_given_seed(self, ell12):
        a = validate(ell12, 500, 42)
        b = validate(ell12, 500, 42)
        assert a.to_dict() == b.to_dict()

    def test_broken_perturbation_reported(self):
        body = PerturbedBall(ComplexDim(2), 1.0, ((2, 0, 10.0),), certify=False)
        rep = validate(body, 1000, 0)
        assert not rep.passed
        assert "convexity" in rep.failed_checks()


class TestPerturbedBall:
    def test_certification_rejects_large_coefficient(self):
        with pytest.raises(ConvexityError):
            PerturbedBall(ComplexDim(2), 1.0, ((2, 0, 10.0),))

    def test_small_coefficients_certify(self, pert2):
        assert validate(pert2, 2000, 1).passed

    def test_bad_harmonic_index(self):
        with pytest.raises(InvalidInputError):
            PerturbedBall(ComplexDim(2), 1.0, ((2, 99, 0.01),))

    def test_odd_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            PerturbedBall(ComplexDim(2), 1.0, ((3, 0, 0.01),))

    def test_norm_inverts_radial(self, pert2):
        rng = np.random.default_rng(4)
        theta = unit_vectors(rng, 100, 4)
        rho = pert2.radial(theta)
        scaled = 0.5 * rho[:, None] * theta
        assert np.allclose(pert2.norm(scaled), 0.5, rtol=1e-12)

    @pytest.mark.parametrize("n,terms", [
        (2, ((2, 0, 0.06), (4, 1, 0.02))),  # suite pert_a
        (2, ((2, 2, 0.05),)),  # suite pert_b
        (3, ((2, 0, 0.05),)),  # suite pert
        (2, ((2, 1, 0.02), (4, 3, 0.01), (2, 1, 0.015), (6, 0, 0.005))),
        (3, ((4, 2, 0.01), (2, 0, 0.02), (4, 2, 0.005), (2, 5, 0.01))),
    ])
    def test_radial_profile_matches_per_term_reference(self, n, terms):
        # reference: each term's basis function on its own, summed term by term
        from cxsect.harmonics import invariant_harmonic_basis

        body = PerturbedBall(ComplexDim(n), 1.3, terms)
        theta = unit_vectors(np.random.default_rng(11), 1000, 2 * n)
        ref = 1.0 + sum(c * invariant_harmonic_basis(2 * n, j).evaluate(theta)[:, ell]
                        for j, ell, c in terms)
        got = body.radial_profile(theta)
        assert np.max(np.abs(got / (1.3 * ref) - 1.0)) <= 1e-14

    def test_repeated_terms_add_up(self):
        d = ComplexDim(2)
        split = PerturbedBall(d, 1.0, ((2, 1, 0.02), (2, 1, 0.03)))
        merged = PerturbedBall(d, 1.0, ((2, 1, 0.05),))
        assert split.perturbation.coefficient(2, 1) == pytest.approx(0.05, abs=1e-17)
        assert split.terms == ((2, 1, 0.02), (2, 1, 0.03))
        assert split != merged
        theta = unit_vectors(np.random.default_rng(12), 200, 4)
        assert np.allclose(split.radial(theta), merged.radial(theta), rtol=1e-15, atol=0)


class TestJsonSchema:
    @pytest.mark.parametrize("spec", [
        {"n": 2, "kind": "euclidean", "params": {"radius": 1.5}},
        {"n": 2, "kind": "lq", "params": {"q": 3, "scale": 0.9}},
        {"n": 3, "kind": "lq", "params": {"q": "inf", "scale": 1.0}},
        {"n": 3, "kind": "ellipsoid", "params": {"semiaxes": [1, 1.5, 2]}},
        {"n": 2, "kind": "perturbed", "params": {"radius": 1.0, "terms": [[2, 0, 0.05]]}},
    ])
    def test_round_trip(self, spec):
        body = body_from_dict(spec)
        again = body_from_dict(body_to_dict(body))
        assert again == body

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            body_from_dict({"n": 2, "kind": "simplex", "params": {}})

    def test_missing_fields(self):
        with pytest.raises(InvalidInputError):
            body_from_dict({"kind": "euclidean"})

    def test_semiaxes_count_must_match(self):
        with pytest.raises(InvalidInputError):
            body_from_dict({"n": 3, "kind": "ellipsoid", "params": {"semiaxes": [1, 2]}})

    def test_n_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            body_from_dict({"n": 1, "kind": "euclidean", "params": {}})

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("spec", [
        {"n": 2, "kind": "euclidean", "params": {"radius": None}},
        {"n": 2, "kind": "lq", "params": {"q": 3, "scale": None}},
        {"n": 2, "kind": "lq", "params": {"q": "inf", "scale": None}},
        {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": [1.0, None]}},
        {"n": 2, "kind": "perturbed", "params": {"radius": None}},
        {"n": 2, "kind": "perturbed", "params": {"radius": 1.0, "terms": [[2, 0, None]]}},
    ])
    def test_nonfinite_parameters_rejected(self, spec, bad):
        text = json.dumps(spec).replace("null", f'"{bad}"')
        with pytest.raises(InvalidInputError):
            body_from_dict(json.loads(text))


class TestScaling:
    def test_scaled_norm(self, ell12):
        big = ell12.scaled(2.0)
        x = np.random.default_rng(5).normal(size=(50, 4))
        assert np.allclose(big.norm(x), ell12.norm(x) / 2.0, rtol=1e-14)

    def test_scaled_kind_preserved(self, pert2, polydisc2):
        assert isinstance(pert2.scaled(1.3), PerturbedBall)
        assert isinstance(polydisc2.scaled(0.7), ComplexLqBall)
