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
    QuadratureRule,
    body_from_dict,
    body_to_dict,
    complex_structure,
    invariant_sphere_rule,
    rotate_pairs,
    mc_volume,
    validate,
    volume,
)
from cxsect.bodies import moduli
from cxsect.suite import bodies_n2, bodies_n3
from conftest import node_order, ring_angles, ring_points, ring_rule, table_shape, unit_vectors


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

    @pytest.mark.parametrize("axes", [(1.0, 2.0), (1.4, 0.9), (1.0, 1.5, 2.0), (1.0, 1.0, 3.0)])
    def test_ellipsoid_norm_is_row_independent(self, axes):
        # each row's norm is the same bits alone, in a batch or in a stack
        body = ComplexEllipsoid(axes)
        x = np.random.default_rng(len(axes)).normal(size=(200, 2 * len(axes)))
        batch = body.norm(x)
        assert np.array_equal(np.array([body.norm(row) for row in x]), batch)
        assert np.array_equal(np.concatenate([body.norm(x[i:i + 3]) for i in range(0, 200, 3)]),
                              batch)
        assert np.array_equal(body.norm(x.reshape(10, 20, -1)).ravel(), batch)


def reduction_norm(body, x):
    """The norm of the ball, lq and perturbed kinds written with NumPy's
    reductions over the last axis (``np.linalg.norm``, ``np.sum``, ``np.max``)
    and, for the perturbed ball, with the copies through the nonzero mask: a
    reference that shares no summation code with ``bodies``."""
    x = np.asarray(x, dtype=float)
    if isinstance(body, EuclideanBall):
        return np.linalg.norm(x, axis=-1) / body.radius
    if isinstance(body, ComplexLqBall):
        mods = moduli(x)
        if math.isinf(body.q):
            return np.max(mods, axis=-1) / body.scale
        return np.sum(mods ** body.q, axis=-1) ** (1.0 / body.q) / body.scale
    flat = x.reshape(-1, body.dim.N)
    lengths = np.linalg.norm(flat, axis=-1)
    out = np.zeros(flat.shape[0])
    nz = lengths > 0
    if np.any(nz):
        out[nz] = lengths[nz] / body.radial_profile(flat[nz] / lengths[nz, None])
    return out.reshape(x.shape[:-1])[()]  # a numpy.float64 for one vector, as the reductions give


def kernel_bodies():
    """label -> body: the ball, the lq balls for q in {1, 1.5, 2, 3, 4, 6, inf}
    and a perturbed ball (the suite's at n = 2 and 3), at n = 2, 3 and 4.  At
    n = 4 the ball and the perturbed ball sum 8 coordinates, where NumPy's
    pairwise sum takes another order than the coordinate loop."""
    out = {}
    pert4 = PerturbedBall(ComplexDim(4), 1.0, ((2, 0, 0.02),), certify=False)
    for n, pert in ((2, bodies_n2()["pert_a"]), (3, bodies_n3()["pert"]), (4, pert4)):
        d = ComplexDim(n)
        out[f"ball n={n}"] = EuclideanBall(d, 1.3)
        for q in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf):
            out[f"lq{q:g} n={n}"] = ComplexLqBall(d, q, 0.9)
        out[f"perturbed n={n}"] = pert
    return out


class TestNormKernels:
    """The coordinate-by-coordinate norms give the bits of the reductions over
    the last axis, in the reduction's result type and shape."""

    BODIES = kernel_bodies()

    @pytest.mark.parametrize("name", sorted(BODIES))
    @pytest.mark.parametrize("shape", [(), (1,), (3, 5), (2000,)])
    def test_same_bits_as_the_reductions(self, name, shape):
        body = self.BODIES[name]
        rng = np.random.default_rng(len(shape) + body.dim.n)
        x = rng.uniform(-1.4, 1.4, size=shape + (body.dim.N,))
        if shape:  # a zero row, and a row with one zero pair
            x.reshape(-1, body.dim.N)[0] = 0.0
            x.reshape(-1, body.dim.N)[-1, :2] = 0.0
        got, ref = body.norm(x), reduction_norm(body, x)
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref) == shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", sorted(BODIES))
    def test_zero_vector(self, name):
        body = self.BODIES[name]
        x = np.zeros(body.dim.N)
        got, ref = body.norm(x), reduction_norm(body, x)
        assert type(got) is type(ref) and got == ref == 0.0

    def test_one_vector_gives_a_scalar(self):
        for body in self.BODIES.values():
            assert isinstance(body.norm(np.ones(body.dim.N)), np.float64), body.label

    def test_perturbed_profile_of_one_vector_is_a_scalar(self):
        # radial_profile gave shape (1,) here, where radial and norm give a scalar
        for body in self.BODIES.values():
            if isinstance(body, PerturbedBall):
                theta = np.ones(body.dim.N) / math.sqrt(body.dim.N)
                got = body.radial_profile(theta)
                assert type(got) is np.float64 and got == body.radial_profile(theta[None])[0]
                assert type(body.radial(theta)) is np.float64, body.label


class TestLqRange:
    """(sum_k |z_k|^q)^{1/q} for large q, where |z_k|^q leaves the double
    range: the rows out of range are rescaled by their largest modulus."""

    def test_overflowing_sum(self):
        body = ComplexLqBall(ComplexDim(2), 200.0, 100.0)
        assert body.norm(np.array([100.0, 0, 0, 0])) == pytest.approx(1.0, rel=1e-15)

    def test_underflowing_sum(self):
        body = ComplexLqBall(ComplexDim(2), 400.0)
        assert body.norm(np.array([0.1, 0, 0, 0])) == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("q", [200.0, 400.0])
    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity(self, n, q, lam):
        body = ComplexLqBall(ComplexDim(n), q)
        x = np.random.default_rng(n).normal(size=(500, 2 * n))
        x[0] = 0.0
        base, scaled = body.norm(x), body.norm(lam * x)
        assert np.all(np.isfinite(scaled)) and scaled[0] == 0.0
        assert np.max(np.abs(scaled[1:] - lam * base[1:]) / (lam * base[1:])) <= 1e-13

    @pytest.mark.parametrize("q", [200.0, 400.0])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_radial_at_the_axes(self, n, q, scale):
        body = ComplexLqBall(ComplexDim(n), q, scale)
        axes = np.eye(2 * n)
        assert np.array_equal(body.radial(axes), np.full(2 * n, scale))
        diagonal = np.ones(2 * n) / math.sqrt(2 * n)  # every modulus 1/sqrt(n)
        assert body.radial(diagonal) == pytest.approx(scale * n ** (0.5 - 1.0 / q), rel=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_monte_carlo_agrees_with_the_polar_volume(self, n, scale):
        # before the rescaling, the scale-100 body read 0.147 s^4 at n = 2
        # against a polar 9.868 s^4: its sample points overflowed |z_k|^q
        body = ComplexLqBall(ComplexDim(n), 200.0, scale)
        mc = mc_volume(body, 100_000, seed=5)
        polar = volume(body)
        assert abs(mc.estimate - polar) <= 3 * mc.std_error
        assert polar / scale ** (2 * n) == pytest.approx(volume(ComplexLqBall(ComplexDim(n), 200.0)),
                                                        rel=1e-12)


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


class TestRadialPath:
    """``radial`` checks its input once; PerturbedBall then evaluates its
    profile directly, and every other kind takes 1/norm."""

    @staticmethod
    def matrix():
        from cxsect.suite import bodies_n2, bodies_n3

        return list(bodies_n2().values()) + list(bodies_n3().values()) + [
            PerturbedBall(ComplexDim(3), 0.8, ((4, 2, 0.01), (2, 5, 0.01))),
            PerturbedBall(ComplexDim(2), 1.1, ((4, 1, 0.02),)),
        ]

    def test_perturbed_radial_is_the_profile(self):
        rng = np.random.default_rng(40)
        for body in self.matrix():
            if isinstance(body, PerturbedBall):
                theta = unit_vectors(rng, 2000, body.dim.N)
                rho = body.radial(theta)
                assert np.array_equal(rho, body.radial_profile(theta)), body.label
                assert np.max(np.abs(rho * body.norm(theta) - 1.0)) <= 1e-14, body.label
                assert body.radial(theta[0]) == rho[0]

    def test_other_kinds_invert_the_norm_bit_for_bit(self):
        # the radial values of ball, lq and ellipsoid are exactly 1/norm
        rng = np.random.default_rng(41)
        for body in self.matrix():
            if not isinstance(body, PerturbedBall):
                theta = unit_vectors(rng, 2000, body.dim.N)
                assert np.array_equal(body.radial(theta), 1.0 / body.norm(theta)), body.label
                assert body.radial(theta[0]) == 1.0 / body.norm(theta[0])

    def test_shape_follows_input(self, pert2, ell12):
        theta = unit_vectors(np.random.default_rng(42), 6, 4).reshape(2, 3, 4)
        for body in (pert2, ell12):
            assert body.radial(theta).shape == (2, 3)
            assert np.ndim(body.radial(theta[0, 0])) == 0

    @pytest.mark.parametrize("kind", ["ball", "lq", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("bad", ["zero", "non_unit", "nan", "inf", "axis", "scalar"])
    def test_invalid_input_rejected(self, kind, bad):
        d = ComplexDim(2)
        body = {"ball": EuclideanBall(d, 1.0), "lq": ComplexLqBall(d, 3.0),
                "ellipsoid": ComplexEllipsoid((1.0, 2.0)),
                "perturbed": PerturbedBall(d, 1.0, ((2, 0, 0.06),))}[kind]
        theta = unit_vectors(np.random.default_rng(43), 3, 4)
        if bad == "zero":
            theta[1] = 0.0
        elif bad == "non_unit":
            theta[1] *= 1.0 + 1e-6
        elif bad == "nan":
            theta[1, 2] = np.nan
        elif bad == "inf":
            theta[1, 2] = np.inf
        elif bad == "axis":
            theta = unit_vectors(np.random.default_rng(43), 3, 6)
        else:
            theta = np.float64(1.0)
        with pytest.raises(InvalidInputError):
            body.radial(theta)


class TestTorusRadial:
    """``factor_radial`` on a torus rule's factors (real moduli rows) equals
    ``radial`` at the rule's nodes, in node order."""

    @staticmethod
    def assert_matches_nodes(body, rule):
        got = body.factor_radial(rule)
        assert got.shape == table_shape(body, rule)
        got, ref = node_order(got, rule), body.radial(rule.nodes)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14, (body.label, rule)
        return got, ref

    def test_every_kind_matches_radial_at_nodes(self):
        for body in TestRadialPath.matrix():
            n, bw = body.dim.n, body.phase_bandwidth
            for nphase in sorted({1, 2 * n * bw + 1, 8}):
                got, ref = self.assert_matches_nodes(body, invariant_sphere_rule(n, 12, nphase))
                if bw == 0 and nphase == 1:  # radial at the same points, bit for bit
                    assert np.array_equal(got, ref), body.label

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("terms", [((2, 1, 0.04),), ((4, 2, 0.02),), ((6, 3, 0.01),),
                                       ((2, 0, 0.03), (4, 1, 0.01), (6, 4, 0.005))])
    def test_perturbed_degrees_and_phase_counts(self, n, terms):
        body = PerturbedBall(ComplexDim(n), 1.2, terms, certify=False)
        for nphase in (1, 2 * n * body.phase_bandwidth + 1, 8):
            self.assert_matches_nodes(body, invariant_sphere_rule(n, 14, nphase))

    @pytest.mark.parametrize("kind", ["ball", "perturbed"])
    def test_non_unit_moduli_rejected(self, kind):
        # a torus rule of moduli rows off unit length is rejected when built,
        # so no factored evaluation sees one
        d = ComplexDim(2)
        body = EuclideanBall(d) if kind == "ball" else PerturbedBall(d, 1.0, ((2, 0, 0.06),))
        rule = invariant_sphere_rule(2, 6, 3)
        for scale in (1.0 + 2e-8, 0.5, np.nan):
            with pytest.raises(InvalidInputError, match="unit length"):
                QuadratureRule(4, rule.base * scale, rule.phase_counts, rule.row_weights, 1, 1)
        assert np.all(body.factor_radial(rule) > 0)


class TestRingRadial:
    """``factor_radial`` on a rule of rings (complex heads turned in the last
    pair by uniform angles) equals ``radial`` at the ring points, row by row."""

    def test_every_kind_matches_radial_at_ring_points(self):
        rng = np.random.default_rng(44)
        for body in TestRadialPath.matrix():
            heads = unit_vectors(rng, 50, body.dim.N)  # z_n off the real axis
            got = body.factor_radial(ring_rule(heads, 5))
            assert got.shape == (50, 5 if body.phase_bandwidth else 1)
            ref = body.radial(ring_points(heads, ring_angles(5))).reshape(50, 5)
            # measured <= 2 eps: a ring's points differ from its head by rounding
            assert np.max(np.abs(got / ref - 1.0)) <= 4 * np.finfo(float).eps, body.label

    @pytest.mark.parametrize("kind", ["ball", "perturbed"])
    def test_non_unit_heads_rejected(self, kind):
        d = ComplexDim(2)
        body = EuclideanBall(d) if kind == "ball" else PerturbedBall(d, 1.0, ((2, 0, 0.06),))
        heads = unit_vectors(np.random.default_rng(45), 3, 4)
        for scale in (1.0 + 2e-8, 0.5, np.nan):
            with pytest.raises(InvalidInputError, match="unit length"):
                ring_rule(heads * scale, 2)
        assert np.all(body.factor_radial(ring_rule(heads, 2)) > 0)
        with pytest.raises(InvalidInputError):  # a rule on another sphere
            body.factor_radial(ring_rule(unit_vectors(np.random.default_rng(45), 3, 6), 1))


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

    def test_rotate_pairs_one_angle_per_row(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 6))
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=20)
        expect = np.array([rotate_pairs(row, float(t)) for row, t in zip(x, thetas)])
        assert np.allclose(rotate_pairs(x, thetas), expect, rtol=0.0, atol=1e-15)


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

    @pytest.mark.parametrize("count", [2.5, True])
    def test_rejects_a_sample_count_that_is_no_integer(self, ball2, count):
        with pytest.raises(InvalidInputError, match="sample_count must be an integer"):
            validate(ball2, count, 0)

    def test_rejects_a_fractional_seed(self, ball2):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            validate(ball2, 100, seed=1.5)

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

    @pytest.mark.parametrize("spec", [
        {"n": 2.5, "kind": "euclidean", "params": {}},
        {"n": "2", "kind": "euclidean", "params": {}},
        {"n": True, "kind": "euclidean", "params": {}},
        {"n": 2, "kind": "perturbed", "params": {"terms": [[2.9, 0, 0.05]]}},
        {"n": 2, "kind": "perturbed", "params": {"terms": [[2, 0.7, 0.05]]}},
        {"n": 2, "kind": "perturbed", "params": {"terms": [[2, "0", 0.05]]}},
        {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": "12"}},
        {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": 1.0}},
    ], ids=["n-float", "n-string", "n-bool", "j-float", "ell-float", "ell-string",
            "semiaxes-string", "semiaxes-number"])
    def test_non_integral_indices_and_non_list_semiaxes_rejected(self, spec):
        # rejected, not truncated: 2.5 would read as n = 2, [2.9, 0.7, c] as
        # (2, 0, c) and "12" as semiaxes (1, 2)
        with pytest.raises(InvalidInputError):
            body_from_dict(spec)

    def test_integral_floats_accepted(self):
        spec = {"n": 2.0, "kind": "perturbed", "params": {"terms": [[2.0, 1.0, 0.05]]}}
        body = body_from_dict(spec)
        assert body == body_from_dict({"n": 2, "kind": "perturbed", "params": {"terms": [[2, 1, 0.05]]}})
        assert type(body.dim.n) is int and all(type(i) is int for t in body.terms for i in t[:2])

    def test_constructors_reject_non_integral_indices(self):
        # the checks sit in the constructors, so library callers get them too
        for n in (2.5, "2", True):
            with pytest.raises(InvalidInputError, match="complex dimension must be an integer"):
                ComplexDim(n)
        for term in ((2.9, 0, 0.05), (2, 0.7, 0.05)):
            with pytest.raises(InvalidInputError, match="must be an integer"):
                PerturbedBall(ComplexDim(2), 1.0, (term,), certify=False)

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


    REAL_FIELDS = {
        "ball-radius": lambda v: {"n": 2, "kind": "euclidean", "params": {"radius": v}},
        "lq-q": lambda v: {"n": 2, "kind": "lq", "params": {"q": v}},
        "lq-scale": lambda v: {"n": 2, "kind": "lq", "params": {"q": 3, "scale": v}},
        "semiaxis": lambda v: {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": [1.0, v]}},
        "perturbed-radius": lambda v: {"n": 2, "kind": "perturbed", "params": {"radius": v}},
        "coefficient": lambda v: {"n": 2, "kind": "perturbed",
                                  "params": {"terms": [[2, 0, v]]}},
    }

    @pytest.mark.parametrize("bad", [True, False, "3", "1.5", "1"], ids=repr)
    @pytest.mark.parametrize("field", sorted(REAL_FIELDS))
    def test_booleans_and_numeric_strings_rejected(self, field, bad):
        # true read as 1.0 and "1.5" as 1.5 before; now neither is a number
        with pytest.raises(InvalidInputError, match="must be finite and numeric"):
            body_from_dict(self.REAL_FIELDS[field](bad))

    @pytest.mark.parametrize("field", sorted(REAL_FIELDS))
    def test_ints_and_floats_accepted(self, field):
        # an int and the float of the same value give the same body
        make = self.REAL_FIELDS[field]
        value = 0 if field == "coefficient" else 2
        assert body_from_dict(make(value)) == body_from_dict(make(float(value)))

    @pytest.mark.parametrize("word", ["inf", "infinity"])
    def test_infinity_words_for_q_only(self, word):
        assert body_from_dict(self.REAL_FIELDS["lq-q"](word)).q == math.inf
        for field in sorted(set(self.REAL_FIELDS) - {"lq-q"}):
            with pytest.raises(InvalidInputError, match="must be finite and numeric"):
                body_from_dict(self.REAL_FIELDS[field](word))


class TestScaling:
    def test_scaled_norm(self, ell12):
        big = ell12.scaled(2.0)
        x = np.random.default_rng(5).normal(size=(50, 4))
        assert np.allclose(big.norm(x), ell12.norm(x) / 2.0, rtol=1e-14)

    def test_scaled_kind_preserved(self, pert2, polydisc2):
        assert isinstance(pert2.scaled(1.3), PerturbedBall)
        assert isinstance(polydisc2.scaled(0.7), ComplexLqBall)
