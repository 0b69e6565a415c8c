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
    harmonic_expand,
    invariant_harmonic_basis,
    integrate_sphere,
    sphere_area,
    sphere_rule,
)
from cxsect.config import default_config
from cxsect.harmonics import (
    _CHUNK_ROWS,
    _block,
    complex_sphere_moment,
    expansion_rule,
    invariant_harmonic_dim,
    multi_indices,
)
from cxsect.suite import bodies_n2, bodies_n3
from cxsect.specfun import log_gamma

from conftest import unit_vectors


def degree_dim(N, j):
    """Real dimension of all degree-j spherical harmonics on S^{N-1}."""
    return math.comb(j + N - 1, N - 1) - math.comb(j + N - 3, N - 1)


def bidegree_dim(n, p, q):
    """Dimension of the bidegree (p, q) harmonics on C^n (Rudin 1980, ch. 12)."""
    def b(t):
        return math.comb(t + n - 1, n - 1) if t >= 0 else 0

    return b(p) * b(q) - b(p - 1) * b(q - 1)


class TestBasisStructure:
    def test_constant_function(self):
        basis = invariant_harmonic_basis(4, 0)
        assert len(basis) == 1
        val = basis.evaluate(np.array([1.0, 0, 0, 0]))[0, 0]
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi ** 2), rel=1e-13)

    def test_degree2_dimension_n4(self):
        # |z1|^2 - |z2|^2, Re(z1 conj z2), Im(z1 conj z2): the traceless
        # Hermitian forms, n^2 - 1 of them
        assert len(invariant_harmonic_basis(4, 2)) == 3 == invariant_harmonic_dim(2, 2)

    def test_degree2_dimension_n6(self):
        assert len(invariant_harmonic_basis(6, 2)) == 8 == invariant_harmonic_dim(3, 2)

    @pytest.mark.parametrize("N,j", [(4, 4), (4, 10), (4, 24), (6, 4), (8, 2)])
    def test_dimension_formula(self, N, j):
        # the invariant block completes the bidegree decomposition of all
        # degree-j harmonics
        n = N // 2
        off_diagonal = sum(bidegree_dim(n, p, j - p) for p in range(j + 1) if 2 * p != j)
        assert invariant_harmonic_dim(n, j) + off_diagonal == degree_dim(N, j)
        assert len(invariant_harmonic_basis(N, j)) == invariant_harmonic_dim(n, j)

    @pytest.mark.parametrize("N,j", [(4, 2), (4, 8), (6, 2), (6, 6)])
    def test_invariant_dimension(self, N, j):
        assert len(invariant_harmonic_basis(N, j)) == invariant_harmonic_dim(N // 2, j)

    def test_unsupported_inputs(self):
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(5, 2)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 3)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 34)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 26)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 30)


def exact_gram_error(blk, C=None):
    """max |C S C^H - I| under the block's exact monomial Gram S."""
    C = blk.C if C is None else C
    return np.abs(C.conj() @ blk._gram @ C.T - np.eye(len(C))).max()


def reference_basis(blk):
    """Vector-at-a-time Gram-Schmidt on the block's V, S and generators.

    Each generator is projected by its own matrix-vector product, hermitised
    and orthogonalised against one kept vector at a time, twice; same keep
    threshold and order as the batched build in ``_Block``.
    """
    V, S = blk._nullspace(), blk._gram
    G = V.conj().T @ S @ V
    proj = V @ np.linalg.solve(G, V.conj().T @ S)
    basis, simages = [], []
    for gen in blk._generators().T:
        M = (proj @ gen).reshape(blk.P, blk.P)
        cand = (0.5 * (M + M.conj().T)).ravel()
        scand = S @ cand
        for _ in range(2):
            for bvec, simg in zip(basis, simages):
                coef = np.vdot(bvec, scand)
                cand = cand - coef * bvec
                scand = scand - coef * simg
        nrm = math.sqrt(abs(np.vdot(cand, scand)))
        if nrm > 1e-8:
            basis.append(cand / nrm)
            simages.append(scand / nrm)
        if len(basis) == blk.dim:
            break
    return np.array(basis)


class TestBatchedOrthonormalisation:
    # largest relative change of C against the reference, measured over all
    # bidegree blocks of the degree (BLAS 1 and 2 threads) and padded about
    # tenfold; the two orders of the same projections drift apart with the degree
    C_TOL = {**{(4, j): 1e-14 for j in range(0, 11, 2)}, (4, 12): 1e-13, (4, 14): 5e-13,
             (4, 16): 2e-12, **{(6, j): 1e-14 for j in range(0, 7, 2)}, (6, 8): 1e-13,
             **{(8, j): 1e-14 for j in range(0, 5, 2)}}

    @pytest.mark.parametrize("N,j", sorted(C_TOL))
    def test_matches_vector_at_a_time_reference(self, N, j):
        blk = invariant_harmonic_basis(N, j).block
        ref = reference_basis(blk)
        assert blk.C.shape == ref.shape
        assert np.abs(blk.C - ref).max() <= self.C_TOL[N, j] * np.abs(ref).max()
        # Gram error no worse than the reference's, up to a few rounding units
        # of the Gram evaluation itself
        assert exact_gram_error(blk) <= exact_gram_error(blk, ref) + 1e-15

    # (p, q) is the bidegree; the invariant blocks are the diagonal ones, p == q

    @pytest.mark.parametrize("n,p,q", [(3, 2, 2)])
    def test_generator_order(self, n, p, q):
        # e_ii, then the Hermitian pair of each (i, j > i)
        blk = _block(n, p)
        P, Q = len(multi_indices(n, p)), len(multi_indices(n, q))
        unit = np.eye(P * Q).reshape(P, Q, P * Q)
        cols = []
        for i in range(P):
            cols.append(unit[i, i])
            for k in range(i + 1, Q):
                cols.append((unit[i, k] + unit[k, i]) / math.sqrt(2.0))
                cols.append(1j * (unit[i, k] - unit[k, i]) / math.sqrt(2.0))
        assert np.allclose(blk._generators(), np.array(cols).T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,p,q", [(3, 2, 2)])
    def test_exact_gram_matches_entry_formula(self, n, p, q):
        # <z^a zbar^b, z^c zbar^d> = [a + d == b + c] * moment(a + d)
        blk = _block(n, p)
        pairs = [(a, b) for a in multi_indices(n, p) for b in multi_indices(n, q)]
        expect = np.array([[complex_sphere_moment(n, tuple(x + y for x, y in zip(a, d)))
                            if all(x + y == u + v for x, y, u, v in zip(a, d, b, c)) else 0.0
                            for c, d in pairs] for a, b in pairs])
        assert np.array_equal(blk._gram, expect)


class TestOrthonormality:
    @pytest.mark.parametrize("N,j", [(4, 2), (4, 6), (4, 12), (6, 2), (6, 4)])
    def test_gram_identity_full(self, N, j):
        # on the generic product rule, exact for every product of two basis functions
        basis = invariant_harmonic_basis(N, j)
        rule = sphere_rule(N, j + 2)
        vals = basis.evaluate(rule.nodes)
        gram = vals.T @ (rule.weights[:, None] * vals)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_exact_gram_identity_at_n4_degree_limit(self):
        # the N=4 limit is the highest degree whose blocks satisfy C S C^H = I
        # to 1e-10 under the exact monomial Gram S
        assert exact_gram_error(invariant_harmonic_basis(4, 24).block) < 1e-10

    @pytest.mark.parametrize("N,j", [(4, j) for j in range(0, 21, 2)]
                             + [(6, j) for j in range(0, 13, 2)]
                             + [(8, j) for j in range(0, 7, 2)])
    def test_exact_gram_identity_invariant_in_use(self, N, j):
        # every invariant block the default and suite configurations expand on
        assert exact_gram_error(invariant_harmonic_basis(N, j).block) < 1e-10

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
        b2 = invariant_harmonic_basis(4, 2)
        b4 = invariant_harmonic_basis(4, 4)
        rule = sphere_rule(4, 8)
        v2 = b2.evaluate(rule.nodes)
        v4 = b4.evaluate(rule.nodes)
        cross = v2.T @ (rule.weights[:, None] * v4)
        assert np.abs(cross).max() < 1e-12

    def test_harmonicity_via_laplacian_stencil(self):
        # numerical Laplacian of the homogeneous extension r^j Y(x/r) vanishes
        basis = invariant_harmonic_basis(4, 4)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=4)

        def solid(pt):
            r = np.linalg.norm(pt)
            return r ** 4 * basis.evaluate(pt / r)[0, 2]

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


class TestMonomialKernel:
    # N=6, j=4: the invariant block of bidegree (p, q) = (2, 2), on enough
    # points for two full chunks and a partial third
    M = 2 * _CHUNK_ROWS + 5

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(11)
        return unit_vectors(rng, self.M, 6), rng.normal(size=self.M)

    @pytest.mark.parametrize("p,q", [(2, 2)])
    def test_moments_match_direct_sum(self, points, p, q):
        X, w = points
        blk = _block(3, p)
        Z = [complex(*x[k:k + 2]) for x in X.tolist() for k in (0, 2, 4)]

        def mono(idxs):
            return np.array([[math.prod(Z[3 * i + k] ** e[k] for k in range(3)) for e in idxs]
                             for i in range(self.M)])

        expect = mono(multi_indices(3, p)).T @ (w[:, None] * mono(multi_indices(3, q)).conj())
        got = blk.moments(X, w)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p,q", [(2, 2)])
    def test_combo_matches_basis_values(self, points, p, q):
        X, _ = points
        blk = _block(3, p)
        c = np.random.default_rng(12).normal(size=blk.dim)
        expect = blk.eval_basis(X) @ c
        assert np.max(np.abs(blk.eval_combo(X, c) - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_evaluate_is_rowwise(self, points):
        X, _ = points
        basis = invariant_harmonic_basis(6, 4)
        allrows = basis.evaluate(X)
        rows = np.array([basis.evaluate(x)[0] for x in X])
        assert np.max(np.abs(allrows - rows)) <= 1e-13 * np.max(np.abs(rows))


def gegenbauer_ratio(j, lam, t):
    """C_j^lam(t) / C_j^lam(1), both from the three-term recurrence."""
    def values(t):
        prev, cur = np.ones_like(t), 2.0 * lam * t
        if j == 0:
            return prev
        for m in range(1, j):
            prev, cur = cur, (2.0 * (m + lam) * t * cur - (m + 2.0 * lam - 1.0) * prev) / (m + 1)
        return cur

    return values(t) / values(np.ones(1))[0]


def zonal_projection(f, N, j, rule, xi):
    """(P_j f)(xi), the projection of f onto all degree-j harmonics on S^{N-1}.

    P_j f(xi) = dim_j / |S^{N-1}| * int f(x) C_j^lam(<x, xi>) / C_j^lam(1) dx,
    lam = N/2 - 1, on ``rule``; it uses no harmonic basis, and it is exact
    when the rule integrates f times a degree-j polynomial exactly.
    """
    kernel = gegenbauer_ratio(j, N / 2.0 - 1.0, rule.nodes @ xi.T)
    return degree_dim(N, j) / sphere_area(N) * ((rule.weights * f(rule.nodes)) @ kernel)


def exact_rule(N, degree, jmax):
    """Product rule exact for a degree-``degree`` integrand times degree <= jmax."""
    return sphere_rule(N, (degree + jmax) // 2 + 1)


def hand_polynomial(X):
    """(sum_m m |z_m|^2)^3 + Re(z_1 conj z_2)^4 + |<z, u>|^8: invariant, degree 8.

    Built without the basis.  The last term, with u_m = m e^{i m}, has a
    nonzero component along every invariant basis function of degree <= 8
    (its projection onto a block is the block's kernel at u), so dropping
    any one function from a block shows.
    """
    z = X[:, 0::2] + 1j * X[:, 1::2]
    m = np.arange(1.0, z.shape[1] + 1.0)
    weighted = (np.abs(z) ** 2) @ m
    return weighted ** 3 + np.real(z[:, 0] * np.conj(z[:, 1])) ** 4 \
        + np.abs(z @ np.conj(m * np.exp(1j * m))) ** 8


def perturbed_suite_bodies():
    """The suite's perturbed bodies with the degree of their rho^2."""
    b2, b3 = bodies_n2(), bodies_n3()
    return [(b2["pert_a"], 8), (b2["pert_b"], 4), (b3["pert"], 4)]


def zonal_discrepancy(exp, f, rule, xi):
    """max over degrees of |degree-j part of exp - P_j f| at xi, relative to L2(f)."""
    return max(np.abs(exp.evaluate(xi, degrees=[j]) - zonal_projection(f, exp.N, j, rule, xi)).max()
               for j in exp.degrees()) / exp.l2_norm


class TestZonalReference:
    """An invariant f has no harmonic component outside the (k, k) blocks, so
    the degree-j part of its invariant expansion is the projection of f onto
    all degree-j harmonics, which the zonal kernel computes without a basis."""

    def test_gegenbauer_recurrence_closed_forms(self):
        t = np.linspace(-1.0, 1.0, 7)
        # lam = 1: Chebyshev U_2(t) = 4t^2 - 1, U_2(1) = 3
        assert np.allclose(gegenbauer_ratio(2, 1.0, t), (4 * t * t - 1) / 3, rtol=0, atol=1e-15)
        # lam = 2: C_2^2(t) = 12t^2 - 2, C_2^2(1) = 10
        assert np.allclose(gegenbauer_ratio(2, 2.0, t), (12 * t * t - 2) / 10, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [4, 6])
    def test_hand_built_polynomial(self, N):
        rule = exact_rule(N, 8, 8)
        exp = harmonic_expand(hand_polynomial, 8, rule)
        xi = unit_vectors(np.random.default_rng(20 + N), 20, N)
        assert zonal_discrepancy(exp, hand_polynomial, rule, xi) <= 1e-12


class TestExpansion:
    def test_constant_expands_to_degree_zero(self):
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(lambda x: 3.0 * np.ones(len(x)), 8, rule)
        assert exp.coefficient(0, 0) == pytest.approx(3.0 * math.sqrt(2 * math.pi ** 2), rel=1e-13)
        for j in (2, 4, 6, 8):
            assert np.abs(exp.coeffs[j]).max() < 1e-10

    def test_pure_harmonic_recovered(self):
        basis = invariant_harmonic_basis(4, 2)
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(lambda x: basis.evaluate(x)[:, 2], 6, rule)
        assert exp.coefficient(2, 2) == pytest.approx(1.0, abs=1e-12)
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
        # rho^2 is not a polynomial: a level-40 product rule resolves it to
        # round-off (about 5e-15 of the L2 norm)
        f = lambda x: ell12.radial(x) ** 2
        rule = sphere_rule(4, 40)
        exp = harmonic_expand(f, 8, rule)
        xi = unit_vectors(np.random.default_rng(0), 20, 4)
        assert zonal_discrepancy(exp, f, rule, xi) <= 1e-12

    def test_invariant_path_matches_full(self):
        # the full projection is the zonal kernel's, on rho^2 of every
        # perturbed suite body
        for body, degree in perturbed_suite_bodies():
            N = body.dim.N
            f = lambda x: body.radial(x) ** 2
            rule = exact_rule(N, degree, 8)
            exp = harmonic_expand(f, 8, rule)
            xi = unit_vectors(np.random.default_rng(1), 20, N)
            assert zonal_discrepancy(exp, f, rule, xi) <= 1e-12, body.label

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
        basis = invariant_harmonic_basis(N, j)
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
            solid[good] = r[good] ** j * basis.evaluate(mesh[good] / r[good, None])[:, 2]
            acc += np.sum(solid * np.exp(-r * r / 2.0) * np.exp(-1j * mesh @ xi))
        got = float(np.real(acc)) * h ** N
        expect = (2 * math.pi) ** (N / 2) * (-1) ** (j // 2) \
            * np.linalg.norm(xi) ** j * basis.evaluate(xi / np.linalg.norm(xi))[0, 2] \
            * math.exp(-xi @ xi / 2)
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

    def test_rotation_equivariance_coefficients(self):
        # an invariant body's transform is lambda_j times the full degree-j
        # projection of rho^2, which lives on the invariant harmonics only
        for body, degree in perturbed_suite_bodies():
            N = body.dim.N
            f = lambda x: body.radial(x) ** 2
            ft = ft_norm_power(body, 2.0, jmax=8)
            rule = exact_rule(N, degree, 8)
            xi = unit_vectors(np.random.default_rng(2), 20, N)
            for j in ft.degrees():
                got = ft.evaluate(xi, degrees=[j]) / bochner_multiplier(N, 2.0, j)
                ref = zonal_projection(f, N, j, rule, xi)
                assert np.abs(got - ref).max() <= 1e-12 * ft.l2_norm, (body.label, j)

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
