import math

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    NumericalEvaluationError,
    bochner_multiplier,
    ft_norm_power,
    harmonic_basis,
    harmonic_expand,
    invariant_harmonic_basis,
    integrate_sphere,
    sphere_area,
    sphere_rule,
)
from cxsect.config import default_config
from cxsect.spherequad import torus_sphere_rule
from cxsect.harmonics import (
    complex_sphere_moment,
    expansion_rule,
    harmonic_dim,
    invariant_harmonic_dim,
)
from cxsect.specfun import log_gamma

from conftest import unit_vectors


class TestBasisStructure:
    def test_constant_function(self):
        basis = harmonic_basis(4, 0)
        assert len(basis) == 1
        val = basis.function(0)(np.array([1.0, 0, 0, 0]))
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi ** 2), rel=1e-13)

    def test_degree2_dimension_n4(self):
        assert len(harmonic_basis(4, 2)) == 9 == harmonic_dim(4, 2)

    def test_degree2_dimension_n6(self):
        assert len(harmonic_basis(6, 2)) == 20 == harmonic_dim(6, 2)

    @pytest.mark.parametrize("N,j", [(4, 4), (4, 10), (4, 24), (6, 4), (8, 2)])
    def test_dimension_formula(self, N, j):
        assert len(harmonic_basis(N, j)) == harmonic_dim(N, j)

    @pytest.mark.parametrize("N,j", [(4, 2), (4, 8), (6, 2), (6, 6)])
    def test_invariant_dimension(self, N, j):
        assert len(invariant_harmonic_basis(N, j)) == invariant_harmonic_dim(N // 2, j)

    def test_unsupported_inputs(self):
        with pytest.raises(InvalidInputError):
            harmonic_basis(5, 2)
        with pytest.raises(InvalidInputError):
            harmonic_basis(4, 3)
        with pytest.raises(InvalidInputError):
            harmonic_basis(4, 34)
        with pytest.raises(InvalidInputError):
            harmonic_basis(4, 26)
        with pytest.raises(InvalidInputError):
            harmonic_basis(4, 30)


class TestOrthonormality:
    @pytest.mark.parametrize("N,j", [(4, 2), (4, 6), (4, 12), (6, 2), (6, 4)])
    def test_gram_identity_full(self, N, j):
        basis = harmonic_basis(N, j)
        rule = sphere_rule(N, j + 2)
        vals = basis.evaluate(rule.nodes)
        gram = vals.T @ (rule.weights[:, None] * vals)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_exact_gram_identity_at_n4_degree_limit(self):
        # the N=4 limit is the highest degree whose blocks satisfy C S C^H = I
        # to 1e-10 under the exact monomial Gram S
        for blk in harmonic_basis(4, 24).blocks:
            gram = blk.C.conj() @ blk._gram @ blk.C.T
            assert np.abs(gram - np.eye(blk.dim)).max() < 1e-10

    def test_gram_identity_invariant_n6_high_degree(self):
        basis = invariant_harmonic_basis(6, 10)
        rule = sphere_rule(6, 12)
        gram = np.zeros((len(basis), len(basis)))
        for lo in range(0, rule.node_count, 40_000):
            hi = min(lo + 40_000, rule.node_count)
            vals = basis.evaluate(rule.nodes[lo:hi])
            gram += vals.T @ (rule.weights[lo:hi, None] * vals)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_cross_degree_orthogonality(self):
        b2 = harmonic_basis(4, 2)
        b4 = harmonic_basis(4, 4)
        rule = sphere_rule(4, 8)
        v2 = b2.evaluate(rule.nodes)
        v4 = b4.evaluate(rule.nodes)
        cross = v2.T @ (rule.weights[:, None] * v4)
        assert np.abs(cross).max() < 1e-12

    def test_harmonicity_via_laplacian_stencil(self):
        # numerical Laplacian of the homogeneous extension r^j Y(x/r) vanishes
        basis = harmonic_basis(4, 4)
        fn = basis.function(2)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=4)

        def solid(pt):
            r = np.linalg.norm(pt)
            return r ** 4 * fn(pt / r)

        h = 1e-3
        lap = 0.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            lap += (solid(x0 + e) + solid(x0 - e) - 2 * solid(x0)) / h ** 2
        assert abs(lap) < 1e-5 * max(1.0, abs(solid(x0)))


class TestMoments:
    def test_constant_moment_is_area(self):
        assert complex_sphere_moment(2, (0, 0)) == pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_modulus_squared(self):
        # int |z_1|^2 over S^3 = pi^2 (coordinate symmetry)
        assert complex_sphere_moment(2, (1, 0)) == pytest.approx(math.pi ** 2, rel=1e-14)

    def test_against_quadrature(self):
        rule = sphere_rule(6, 8)
        mods2 = rule.nodes[:, 0::2] ** 2 + rule.nodes[:, 1::2] ** 2
        quad = float(rule.weights @ (mods2[:, 0] ** 2 * mods2[:, 2]))
        assert quad == pytest.approx(complex_sphere_moment(3, (2, 0, 1)), rel=1e-13)


class TestExpansion:
    def test_constant_expands_to_degree_zero(self):
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(lambda x: 3.0 * np.ones(len(x)), 8, rule)
        assert exp.coefficient(0, 0) == pytest.approx(3.0 * math.sqrt(2 * math.pi ** 2), rel=1e-13)
        for j in (2, 4, 6, 8):
            assert np.abs(exp.coeffs[j]).max() < 1e-10

    def test_pure_harmonic_recovered(self):
        basis = harmonic_basis(4, 2)
        target = basis.function(4)
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(lambda x: target(x), 6, rule)
        assert exp.coefficient(2, 4) == pytest.approx(1.0, abs=1e-12)
        coeffs = np.concatenate([exp.coeffs[j] for j in exp.degrees()])
        assert np.sort(np.abs(coeffs))[-2] < 1e-10  # everything else is noise

    def test_ellipsoid_energy_matches_l2(self, ell12):
        rule = expansion_rule(4, 16)
        exp = harmonic_expand(lambda x: ell12.radial(x) ** 2, 16, rule)
        total = sum(exp.degree_energies().values())
        direct = integrate_sphere(lambda x: ell12.radial(x) ** 4, sphere_rule(4, 24))
        assert total == pytest.approx(direct, rel=1e-4)
        assert total <= direct * (1 + 1e-10)  # Bessel bound

    def test_ellipsoid_hits_only_invariant_harmonics(self, ell12):
        # full expansion with a phase-aligned rule: the torus cancellation on
        # the non-invariant blocks is then exact, not just quadrature-small
        rule = torus_sphere_rule(2, 48, nphase=24)
        full = harmonic_expand(lambda x: ell12.radial(x) ** 2, 8, rule)
        scale = math.sqrt(sum(full.degree_energies().values()))
        for j in full.degrees():
            basis = harmonic_basis(4, j)
            inv_dim = len(invariant_harmonic_basis(4, j))
            # the invariant block occupies the trailing indices
            off_block = full.coeffs[j][: len(basis) - inv_dim]
            if off_block.size:
                assert np.abs(off_block).max() < 1e-12 * scale

    def test_invariant_path_matches_full(self, pert2):
        rule = expansion_rule(4, 8)
        f = lambda x: pert2.radial(x) ** 2
        full = harmonic_expand(f, 8, rule)
        fast = harmonic_expand(f, 8, rule, invariant_only=True)
        x = unit_vectors(np.random.default_rng(0), 50, 4)
        assert np.allclose(full.evaluate(x), fast.evaluate(x), rtol=0, atol=1e-10)

    def test_resummation_error_decreases(self, ell12):
        x = unit_vectors(np.random.default_rng(1), 100, 4)
        truth = ell12.radial(x) ** 2
        errs = []
        for jm in (4, 8, 12, 16):
            exp = harmonic_expand(lambda p: ell12.radial(p) ** 2, jm, expansion_rule(4, jm))
            errs.append(np.abs(exp.evaluate(x) - truth).max())
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
    def test_nonfinite_integrand_or_norm_rejected(self, value):
        # 1e200 is finite, but its square overflows the L2 norm
        rule = sphere_rule(4, 8)
        with pytest.raises(NumericalEvaluationError):
            harmonic_expand(lambda x: np.full(len(x), value), 4, rule)

    def test_degree_above_limit_rejected_before_evaluation(self):
        def never(x):
            raise AssertionError("integrand evaluated")

        with pytest.raises(InvalidInputError):
            harmonic_expand(never, 26, sphere_rule(4, 8))

    def test_tail_warning_triggers_on_low_jmax(self, ell12):
        exp = harmonic_expand(lambda x: ell12.radial(x) ** 2, 4, expansion_rule(4, 4))
        assert any("tail energy" in w for w in exp.warnings)


def multiplier_oracle(N, p, j):
    """Independent multiplier value via the Gaussian pairing.

    Pairs the homogeneous harmonic r^{-p} Y against the transform of the
    solid-harmonic Gaussian r^j Y e^{-r^2/2} (whose transform reproduces
    itself times (2 pi)^{N/2} (-1)^{j/2}), leaving the ratio of two radial
    integrals evaluated here by dense trapezoid quadrature.
    """
    r = np.linspace(1e-9, 40.0, 400_001)
    num = np.trapezoid(r ** (j - p + N - 1) * np.exp(-r * r / 2.0), r)
    den = np.trapezoid(r ** (p + j - 1) * np.exp(-r * r / 2.0), r)
    sign = -1.0 if (j // 2) % 2 else 1.0
    return sign * (2.0 * math.pi) ** (N / 2.0) * num / den


class TestMultiplier:
    def test_golden_n2(self):
        assert bochner_multiplier(4, 2, 0) == pytest.approx(4 * math.pi ** 2, rel=1e-14)

    def test_golden_n3(self):
        assert bochner_multiplier(6, 4, 0) == pytest.approx(4 * math.pi ** 3, rel=1e-14)

    def test_degree2_sign_flip(self):
        assert bochner_multiplier(4, 2, 2) == pytest.approx(-4 * math.pi ** 2, rel=1e-14)

    @pytest.mark.parametrize("N,p,j", [(4, 2.0, 2), (4, 2.0, 4), (4, 3.0, 2),
                                       (6, 2.0, 2), (6, 4.0, 6), (8, 6.0, 4)])
    def test_against_gaussian_pairing_oracle(self, N, p, j):
        assert bochner_multiplier(N, p, j) == pytest.approx(
            multiplier_oracle(N, p, j), rel=1e-8)

    def test_sign_alternation(self):
        signs = [math.copysign(1, bochner_multiplier(4, 2.5, j)) for j in (0, 2, 4, 6)]
        assert signs == [1, -1, 1, -1]

    def test_degree_zero_positive_across_exponents(self):
        for N in (4, 6, 8):
            for p in np.linspace(0.25, N - 0.25, 12):
                assert bochner_multiplier(N, float(p), 0) > 0

    def test_no_overflow_at_extreme_degree(self):
        # Gamma ratios at degree 32 overflow naive evaluation; log space must not
        val = bochner_multiplier(6, 5.5, 32)
        assert math.isfinite(val) and val != 0.0

    def test_out_of_range_p(self):
        with pytest.raises(InvalidInputError):
            bochner_multiplier(4, 0.0, 0)
        with pytest.raises(InvalidInputError):
            bochner_multiplier(4, 4.0, 0)

    def test_hecke_identity_for_solid_harmonic_gaussian(self):
        # transform of Y(x/r) r^j e^{-r^2/2} is (2 pi)^{N/2} (-1)^{j/2} times itself;
        # checked by direct oscillatory quadrature on a tensor grid (the Gaussian
        # decay makes the equispaced Riemann sum spectrally accurate), accumulated
        # slice by slice to stay within memory.
        N, j = 4, 2
        basis = harmonic_basis(N, j)
        Y = basis.function(3)
        rng = np.random.default_rng(5)
        xi = rng.normal(size=N)
        grid = np.linspace(-9.0, 9.0, 48)
        h = grid[1] - grid[0]
        tail = np.stack(np.meshgrid(*([grid] * (N - 1)), indexing="ij"), axis=-1).reshape(-1, N - 1)
        acc = 0.0 + 0.0j
        for x1 in grid:
            mesh = np.column_stack([np.full(len(tail), x1), tail])
            r = np.linalg.norm(mesh, axis=1)
            good = r > 1e-12
            solid = np.zeros(len(mesh))
            solid[good] = r[good] ** j * basis.evaluate(mesh[good] / r[good, None])[:, 3]
            acc += np.sum(solid * np.exp(-r * r / 2.0) * np.exp(-1j * mesh @ xi))
        got = float(np.real(acc)) * h ** N
        expect = (2 * math.pi) ** (N / 2) * (-1) ** (j // 2) \
            * np.linalg.norm(xi) ** j * Y(xi / np.linalg.norm(xi)) * math.exp(-xi @ xi / 2)
        assert got == pytest.approx(expect, rel=1e-6)


class TestFtNormPower:
    def test_euclidean_constant_n2(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=8)
        x = unit_vectors(np.random.default_rng(2), 20, 4)
        assert np.allclose(ft.evaluate(x), 4 * math.pi ** 2, rtol=1e-12)

    def test_euclidean_constant_n3(self, ball3):
        ft = ft_norm_power(ball3, 4.0, jmax=8)
        x = unit_vectors(np.random.default_rng(3), 10, 6)
        assert np.allclose(ft.evaluate(x), 4 * math.pi ** 3, rtol=1e-12)

    def test_scaling_in_radius(self):
        r = 1.7
        p = 2.0
        small = ft_norm_power(EuclideanBall(ComplexDim(2), 1.0), p, jmax=8)
        big = ft_norm_power(EuclideanBall(ComplexDim(2), r), p, jmax=8)
        x = unit_vectors(np.random.default_rng(4), 10, 4)
        assert np.allclose(big.evaluate(x), r ** p * small.evaluate(x), rtol=1e-12)

    def test_self_duality_roundtrip(self):
        # applying the transform twice to the Euclidean norm: lam0(p) * lam0(N-p) = (2 pi)^N
        N, p = 4, 2.0
        lam = bochner_multiplier(N, p, 0)
        second = EuclideanBall(ComplexDim(2), lam ** (1.0 / (N - p)))
        ft2 = ft_norm_power(second, N - p, jmax=4)
        x = unit_vectors(np.random.default_rng(5), 5, 4)
        assert np.allclose(ft2.evaluate(x), (2 * math.pi) ** N, rtol=1e-11)

    def test_rotation_equivariance_coefficients(self, ell12):
        # an invariant body's transform lives on the invariant harmonics only
        rule = torus_sphere_rule(2, 48, nphase=24)
        ft = harmonic_expand(lambda x: ell12.radial(x) ** 2, 8, rule,
                             invariant_only=False).multiplied(2.0)
        lead = abs(ft.coefficient(0, 0))
        for j in ft.degrees():
            basis = harmonic_basis(4, j)
            inv_dim = len(invariant_harmonic_basis(4, j))
            off = ft.coeffs[j][: len(basis) - inv_dim]
            if off.size:
                assert np.abs(off).max() <= 1e-8 * lead

    def test_default_jmax_from_config(self, ball2):
        ft = ft_norm_power(ball2, 2.0)
        assert ft.jmax == default_config().jmax_for(4)
        assert ft.degrees() == list(range(0, ft.jmax + 1, 2))

    def test_p_out_of_range(self, ball2):
        with pytest.raises(InvalidInputError):
            ft_norm_power(ball2, 4.0)
        with pytest.raises(InvalidInputError):
            ft_norm_power(ball2, 0.0)

    def test_transform_matches_direct_sections(self):
        # p = 2n-2 at n=2: transform equals 4 pi times the direct section volume
        from cxsect import section_volume_direct

        body = ComplexLqBall(ComplexDim(2), 4.0)
        ft = ft_norm_power(body, 2.0, jmax=16)
        x = unit_vectors(np.random.default_rng(6), 8, 4)
        for xi in x:
            direct = section_volume_direct(body, xi).value
            assert float(ft.evaluate(xi[None, :])[0]) == pytest.approx(
                4 * math.pi * direct, rel=5e-3)

    def test_crosscheck_error_decreases_with_jmax(self, ell12):
        from cxsect import section_volume_direct

        x = unit_vectors(np.random.default_rng(7), 12, 4)
        direct = np.array([section_volume_direct(ell12, v).value for v in x])
        errs = []
        for jm in (8, 12, 16):
            ft = ft_norm_power(ell12, 2.0, jmax=jm)
            fourier = ft.evaluate(x) / (4 * math.pi)
            errs.append(float(np.max(np.abs(fourier / direct - 1.0))))
        assert errs[0] > errs[1] > errs[2]

    def test_serialization_shape(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=8)
        blob = ft.to_dict()
        assert blob["N"] == 4 and blob["multiplier_power"] == 2.0
        assert all(len(entry) == 3 for entry in blob["coefficients"])


class TestLogGamma:
    def test_against_math_lgamma(self):
        xs = np.linspace(0.5, 200.0, 400)
        ours = log_gamma(xs)
        ref = np.array([math.lgamma(v) for v in xs])
        assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-13

    def test_exact_factorials(self):
        for n in (1, 2, 5, 10, 20):
            assert math.exp(log_gamma(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)
