import math

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    NumericalEvaluationError,
    integrate_sphere,
    invariant_sphere_rule,
    mc_volume,
    sphere_area,
    sphere_rule,
)
from cxsect.harmonics import complex_sphere_moment, multi_indices


def sphere_monomial_moment(m, alpha):
    """Oracle: int over S^{m-1} of prod x_i^{alpha_i}, odd powers vanish."""
    if any(a % 2 for a in alpha):
        return 0.0
    val = 2.0
    for a in alpha:
        val *= math.gamma((a + 1) / 2.0)
    return val / math.gamma((m + sum(alpha)) / 2.0)


class TestSphereRule:
    def test_circle_rule(self):
        rule = sphere_rule(2, 10)
        assert rule.node_count == 20
        assert np.allclose(rule.weights, math.pi / 10)
        assert rule.weights.sum() == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("m,area", [(3, 4 * math.pi), (4, 2 * math.pi ** 2),
                                        (5, 8 * math.pi ** 2 / 3), (6, math.pi ** 3)])
    def test_weight_sums(self, m, area):
        rule = sphere_rule(m, 5)
        assert rule.weights.sum() == pytest.approx(area, rel=1e-12)
        assert sphere_area(m) == pytest.approx(area, rel=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_weights_positive(self, m):
        assert np.all(sphere_rule(m, 4).weights > 0)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_polynomial_exactness(self, m):
        rule = sphere_rule(m, 6)
        rng = np.random.default_rng(0)
        for _ in range(40):
            alpha = rng.integers(0, 4, size=m)
            if alpha.sum() > rule.exactness_degree:
                continue
            quad = float(rule.weights @ np.prod(rule.nodes ** alpha, axis=1))
            assert quad == pytest.approx(sphere_monomial_moment(m, tuple(alpha)),
                                         abs=1e-13 * sphere_area(m))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_antipodal_symmetry(self, m):
        rule = sphere_rule(m, 4)
        table = {tuple(np.round(node, 12)): w
                 for node, w in zip(rule.nodes, rule.weights)}
        for node, w in zip(rule.nodes, rule.weights):
            key = tuple(np.round(-node, 12))
            assert key in table
            assert table[key] == pytest.approx(w, rel=1e-13)

    def test_unit_nodes(self):
        rule = sphere_rule(6, 4)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)

    def test_exactness_grows_with_level(self):
        degrees = [sphere_rule(4, L).exactness_degree for L in (2, 4, 8)]
        assert degrees == sorted(degrees) and degrees[0] < degrees[-1]

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidInputError):
            sphere_rule(9, 4)
        with pytest.raises(InvalidInputError):
            sphere_rule(1, 4)


class TestIntegrateSphere:
    def test_constant(self):
        rule = sphere_rule(4, 8)
        assert integrate_sphere(lambda x: np.ones(len(x)), rule) == \
            pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_coordinate_square(self):
        rule = sphere_rule(4, 8)
        val = integrate_sphere(lambda x: x[:, 0] ** 2, rule)
        assert val == pytest.approx(math.pi ** 2 / 2, rel=1e-13)

    def test_radial_power_of_scaled_ball(self):
        rule = sphere_rule(4, 8)
        ball = EuclideanBall(ComplexDim(2), 2.0)
        val = integrate_sphere(lambda x: ball.radial(x) ** 4, rule)
        assert val == pytest.approx(32 * math.pi ** 2, rel=1e-13)

    def test_nonfinite_integrand_flagged(self):
        rule = sphere_rule(3, 4)

        def bad(x):
            out = np.ones(len(x))
            out[7] = np.nan
            return out

        with pytest.raises(NumericalEvaluationError, match="node 7"):
            integrate_sphere(bad, rule)

    def test_overflowing_weighted_sum_flagged(self):
        rule = sphere_rule(3, 4)
        with pytest.raises(NumericalEvaluationError, match="weighted sum"):
            integrate_sphere(np.full(rule.node_count, 1e308), rule)


class TestInvariantRule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_sum(self, n):
        rule = invariant_sphere_rule(n, 20)
        assert rule.weights.sum() == pytest.approx(sphere_area(2 * n), rel=1e-12)

    def test_exact_on_invariant_monomials(self):
        rule = invariant_sphere_rule(3, 8)
        rng = np.random.default_rng(1)
        n = 3
        for _ in range(20):
            alpha = rng.integers(0, 4, size=n)
            mods2 = rule.nodes[:, 0::2] ** 2 + rule.nodes[:, 1::2] ** 2
            quad = float(rule.weights @ np.prod(mods2 ** alpha, axis=1))
            exact = 2 * math.pi ** n
            for a in alpha:
                exact *= math.factorial(int(a))
            exact /= math.gamma(n + alpha.sum())
            assert quad == pytest.approx(exact, rel=1e-13)

    def test_phase_modes_cancel(self):
        rule = invariant_sphere_rule(3, 6, nphase=6)
        z = rule.nodes[:, 0::2] + 1j * rule.nodes[:, 1::2]
        val = np.sum(rule.weights * z[:, 0] * np.conj(z[:, 1]))
        assert abs(val) < 1e-13

    def test_matches_product_rule_on_invariant_integrand(self):
        # agreement is limited by the product rule: the q=3 radial power has
        # square-root kinks where a coordinate pair vanishes
        body = ComplexLqBall(ComplexDim(2), 3.0)
        f = lambda x: body.radial(x) ** 4
        a = integrate_sphere(f, sphere_rule(4, 24))
        b = integrate_sphere(f, invariant_sphere_rule(2, 200))
        assert a == pytest.approx(b, rel=1e-6)

    def test_matches_product_rule_on_smooth_invariant_integrand(self, ell12):
        f = lambda x: ell12.radial(x) ** 4
        a = integrate_sphere(f, sphere_rule(4, 24))
        b = integrate_sphere(f, invariant_sphere_rule(2, 200))
        assert a == pytest.approx(b, rel=1e-9)


class TestMonteCarlo:
    def test_ball_volume(self, ball2):
        mc = mc_volume(ball2, 200_000, seed=0)
        assert abs(mc.estimate - math.pi ** 2 / 2) <= 3 * mc.std_error

    def test_polydisc_volume(self, polydisc2):
        mc = mc_volume(polydisc2, 200_000, seed=1)
        assert abs(mc.estimate - math.pi ** 2) <= 3 * mc.std_error

    def test_reproducible(self, ball2):
        a = mc_volume(ball2, 50_000, seed=7)
        b = mc_volume(ball2, 50_000, seed=7)
        assert a == b

    def test_coverage_over_seeds(self, ball2):
        # statistical acceptance: >= 19 of 20 seeds within 3 standard errors
        truth = math.pi ** 2 / 2
        hits = 0
        for seed in range(20):
            mc = mc_volume(ball2, 100_000, seed=seed)
            hits += abs(mc.estimate - truth) <= 3 * mc.std_error
        assert hits >= 19

    def test_sample_floor(self, ball2):
        with pytest.raises(InvalidInputError):
            mc_volume(ball2, 100, seed=0)

    def test_overflowing_box_volume_raises(self):
        # (2R)^6 overflows for R ~ 1.27e51 although the body volume is finite
        with pytest.raises(NumericalEvaluationError, match="Monte Carlo volume is not finite"):
            mc_volume(EuclideanBall(ComplexDim(3), 1.26e51), 10_000, seed=0)
