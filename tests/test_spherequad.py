import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    NumericalEvaluationError,
    QuadratureRule,
    integrate_sphere,
    invariant_sphere_rule,
    mc_volume,
    sphere_area,
    sphere_rule,
)
from cxsect import spherequad
from cxsect.spherequad import factor_points
from cxsect.config import default_config, philox
from cxsect.harmonics import complex_sphere_moment, multi_indices
from cxsect.suite import bodies_n2, bodies_n3
from conftest import CountingRadial, node_order, node_rule, node_weights, ring_points, table_shape


def sphere_monomial_moment(m, alpha):
    """Oracle: int over S^{m-1} of prod x_i^{alpha_i}, odd powers vanish."""
    if any(a % 2 for a in alpha):
        return 0.0
    val = 2.0
    for a in alpha:
        val *= math.gamma((a + 1) / 2.0)
    return val / math.gamma((m + sum(alpha)) / 2.0)


def golub_welsch(npts, alpha, beta):
    """Oracle: the Gauss-Jacobi rule from a dense ``eigh`` of the whole
    npts x npts Jacobi matrix (Golub-Welsch), for any alpha and beta."""
    a, b = float(alpha), float(beta)
    diag = np.empty(npts)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, npts, dtype=float)
    diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2.0))
    off = np.sqrt(
        4 * k * (k + a) * (k + b) * (k + a + b)
        / ((2 * k + a + b) ** 2 * (2 * k + a + b + 1.0) * (2 * k + a + b - 1.0))
    )
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                   - math.lgamma(a + b + 2.0))
    return vals, mu0 * vecs[0, :] ** 2


GAUSS_NPTS = [1, 2, 3, 4, 47, 48, 161, 320, 361]
GEGENBAUER_LAMBDAS = [0.0, 0.5, 1.0, 1.5]


class TestGaussRules:
    """The symmetric rules from the SVD of the half-size coupling block,
    against the dense Golub-Welsch oracle, moments and ``leggauss``."""

    @pytest.mark.parametrize("npts", GAUSS_NPTS)
    @pytest.mark.parametrize("lam", GEGENBAUER_LAMBDAS)
    def test_matches_the_dense_oracle(self, npts, lam):
        t, w = spherequad.gauss_jacobi(npts, lam, lam)
        t0, w0 = golub_welsch(npts, lam, lam)
        # measured over these npts and lambdas: nodes <= 1.1e-15 absolute,
        # weights <= 1.4e-11 relative (the small weights at the ends)
        assert np.abs(t - t0).max() <= 2e-15
        assert np.abs(w / w0 - 1.0).max() <= 3e-11
        assert np.all(np.diff(t) > 0)
        assert not (t.flags.writeable or w.flags.writeable)
        assert spherequad.gauss_jacobi(npts, lam, lam)[0] is t  # memoised

    @pytest.mark.parametrize("npts", GAUSS_NPTS)
    @pytest.mark.parametrize("lam", GEGENBAUER_LAMBDAS)
    def test_exact_on_even_powers(self, npts, lam):
        # int x^{2k} (1-x^2)^lam = B(k + 1/2, lam + 1), degree 2k <= 2 npts - 1
        t, w = spherequad.gauss_jacobi(npts, lam, lam)
        for k in range(npts):
            exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(lam + 1.0)
                             - math.lgamma(k + lam + 1.5))
            # measured <= 1.8e-12 (the oracle's <= 5.4e-13), at k near npts
            assert float(np.sum(w * t ** (2 * k))) == pytest.approx(exact, rel=4e-12, abs=0)

    @pytest.mark.parametrize("npts", GAUSS_NPTS)
    def test_legendre_matches_leggauss(self, npts):
        t, w = spherequad.gauss_jacobi(npts, 0.0, 0.0)
        tl, wl = np.polynomial.legendre.leggauss(npts)
        # measured: nodes <= 8.9e-16, weights <= 1.7e-12 of the largest
        assert np.abs(t - tl).max() <= 2e-15
        assert np.abs(w - wl).max() <= 4e-12 * wl.max()

    @pytest.mark.parametrize("npts", [1, 2, 7, 48, 160])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.0, 2.0), (1.0, 0.5)])
    def test_unequal_exponents_keep_the_dense_solve(self, npts, alpha, beta):
        t, w = spherequad.gauss_jacobi(npts, alpha, beta)
        t0, w0 = golub_welsch(npts, alpha, beta)
        assert np.array_equal(t, t0) and np.array_equal(w, w0)

    @pytest.mark.parametrize("npts", [1, 2, 3, 8, 9, 160, 161])
    @pytest.mark.parametrize("lam", GEGENBAUER_LAMBDAS)
    def test_gegenbauer_closed_under_reflection_bitwise(self, npts, lam):
        # built as -sigma, (0,) sigma reversed: no symmetrisation needed
        t, w = spherequad.gauss_gegenbauer(npts, lam)
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        assert (t[npts // 2] == 0.0) == bool(npts % 2)


class TestSphereRule:
    def test_circle_rule(self):
        rule = sphere_rule(2, 10)
        assert rule.node_count == 20
        assert np.allclose(rule.row_weights, math.pi / 10)
        assert node_weights(rule).sum() == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("m,area", [(4, 2 * math.pi ** 2), (6, math.pi ** 3)])
    def test_weight_sums(self, m, area):
        rule = sphere_rule(m, 5)
        assert node_weights(rule).sum() == pytest.approx(area, rel=1e-12)
        assert sphere_area(m) == pytest.approx(area, rel=1e-14)

    @pytest.mark.parametrize("m,area", [
        (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi ** 2), (5, 8 * math.pi ** 2 / 3),
        (6, math.pi ** 3), (7, 16 * math.pi ** 3 / 15), (8, math.pi ** 4 / 3)])
    def test_sphere_area_closed_forms(self, m, area):
        assert sphere_area(m) == pytest.approx(area, rel=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_weights_positive(self, m):
        assert np.all(sphere_rule(m, 4).row_weights > 0)

    @pytest.mark.parametrize("m", [4, 6])
    def test_polynomial_exactness(self, m):
        rule = sphere_rule(m, 6)
        rng = np.random.default_rng(0)
        for _ in range(40):
            alpha = rng.integers(0, 4, size=m)
            if alpha.sum() > rule.exactness_degree:
                continue
            quad = float(node_weights(rule) @ np.prod(rule.nodes ** alpha, axis=1))
            assert quad == pytest.approx(sphere_monomial_moment(m, tuple(alpha)),
                                         abs=1e-13 * sphere_area(m))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_antipodal_symmetry(self, m):
        rule = sphere_rule(m, 4)
        table = {tuple(np.round(node, 12)): w
                 for node, w in zip(rule.nodes, node_weights(rule))}
        for node, w in zip(rule.nodes, node_weights(rule)):
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
        # whole coordinate pairs only: an odd m is rejected
        for m in (0, 1, 3, 5, 7, 9, 10):
            with pytest.raises(InvalidInputError, match="m in"):
                sphere_rule(m, 4)


class TestBuilderArguments:
    """The builders read their scalars as integers on every call, cache hits
    included: 2.5 and True are rejected, an integral float is its integer."""

    def test_product_rule_rejects_a_fractional_level(self):
        with pytest.raises(InvalidInputError, match="level must be an integer"):
            sphere_rule(4, 2.5)

    def test_torus_rule_rejects_a_fractional_level(self):
        with pytest.raises(InvalidInputError, match="level must be an integer"):
            invariant_sphere_rule(2, 2.5)

    def test_torus_rule_rejects_a_bool_nphase_after_its_integer_is_cached(self):
        invariant_sphere_rule(2, 4, 1)  # True == 1 and hash(True) == hash(1)
        with pytest.raises(InvalidInputError, match="nphase must be an integer"):
            invariant_sphere_rule(2, 4, True)

    def test_product_rule_takes_an_integral_float_dimension(self):
        rule, ref = sphere_rule(4.0, 8), sphere_rule(4, 8)
        assert type(rule.m) is int and rule.m == 4 and rule.node_count == ref.node_count
        assert np.array_equal(rule.base, ref.base) and np.array_equal(rule.row_weights, ref.row_weights)

    def test_torus_rule_takes_an_integral_float_dimension(self):
        rule, ref = invariant_sphere_rule(2.0, 4), invariant_sphere_rule(2, 4)
        assert type(rule.m) is int and rule.m == 4 and rule.phase_counts == ref.phase_counts
        assert np.array_equal(rule.base, ref.base) and np.array_equal(rule.row_weights, ref.row_weights)


def reference_sphere_rule(m, level):
    """The product rule built node by node through full meshgrids (every
    coordinate of every node formed on its own), as a bitwise oracle for
    ``sphere_rule``'s ring-head build."""
    L, naz = level, 2 * level
    psi = 2.0 * math.pi * np.arange(naz) / naz
    wpsi = np.full(naz, math.pi / L)
    if m == 2:
        return np.stack([np.cos(psi), np.sin(psi)], axis=1), wpsi
    tcos, tw = zip(*(spherequad.gauss_gegenbauer(L, (m - 2 - i) / 2.0) for i in range(1, m - 1)))
    cols = [g.ravel() for g in np.meshgrid(*tcos, psi, indexing="ij")]
    weights = np.ones_like(cols[0])
    for g in np.meshgrid(*tw, wpsi, indexing="ij"):
        weights = weights * g.ravel()
    nodes = np.empty((cols[0].size, m))
    sinprod = np.ones(cols[0].size)
    for i in range(m - 2):
        nodes[:, i] = sinprod * cols[i]
        sinprod = sinprod * np.sqrt(1.0 - cols[i] ** 2)
    nodes[:, m - 2] = sinprod * np.cos(cols[m - 2])
    nodes[:, m - 1] = sinprod * np.sin(cols[m - 2])
    return nodes, weights


class TestHeadFirstBuild:
    @pytest.mark.parametrize("m,level", [(m, L) for m in (2, 4, 6, 8) for L in (1, 2, 3, 6)]
                             + [(m, 14) for m in (2, 4, 6)])
    def test_bit_identical_to_meshgrid_build(self, m, level):
        rule = sphere_rule(m, level)
        nodes, weights = reference_sphere_rule(m, level)
        assert np.array_equal(rule.nodes, nodes)
        # the row weights repeated are the node-form weights, and the base
        # weights their pairwise sums over each base row's phase rows
        assert np.array_equal(node_weights(rule), weights)
        assert np.array_equal(rule.base_weights, weights.reshape(rule.base.shape[0], -1).sum(axis=1))


def reference_sphere_heads(m, level):
    """The base rows and row weights of ``sphere_rule`` built through full
    per-node meshgrids of the polar cosines and their weights: the bitwise
    oracle of its broadcast build."""
    L = level
    if m == 2:  # no polar cosine: the one head at azimuth 0
        return np.array([[1.0, 0.0]]).view(complex), np.full(1, math.pi / L)
    tcos, tw = zip(*(spherequad.gauss_gegenbauer(L, (m - 2 - i) / 2.0) for i in range(1, m - 1)))
    cols = [g.ravel() for g in np.meshgrid(*tcos, indexing="ij")]
    weights = np.ones_like(cols[0])
    for g in np.meshgrid(*tw, indexing="ij"):
        weights = weights * g.ravel()
    heads = np.zeros((cols[0].size, m))
    sinprod = np.ones(cols[0].size)
    for i in range(m - 2):
        heads[:, i] = sinprod * cols[i]
        sinprod = sinprod * np.sqrt(1.0 - cols[i] ** 2)
    heads[:, m - 2] = sinprod
    return heads.view(complex), weights * (math.pi / L)


class TestBroadcastHeads:
    @pytest.mark.parametrize("m,level", [(m, L) for m in (2, 4, 6, 8) for L in (1, 2, 5, 8)]
                             + [(2, 40), (4, 40), (6, 14)])
    def test_bit_identical_to_meshgrid_heads(self, m, level):
        rule = sphere_rule.__wrapped__(m, level)
        heads, weights = reference_sphere_heads(m, level)
        assert rule.base.dtype == heads.dtype and rule.base.shape == heads.shape
        assert rule.base.tobytes() == heads.tobytes()
        assert rule.row_weights.tobytes() == weights.tobytes()

    def test_n4_build_peaks_near_what_it_keeps(self):
        tracemalloc.start()
        try:
            rule = sphere_rule.__wrapped__(8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = rule.base.nbytes + rule.row_weights.nbytes  # 16 + 2 MB
        # measured 1.44x; the per-node meshgrids peaked at 3.1x (56.0 MB)
        assert peak <= 1.5 * kept


def reference_torus_factors(n, level, nphase):
    """The moduli rows and row weights of ``invariant_sphere_rule`` built
    through full meshgrids of the s_i and their weights, stacked per row (a
    one-row table at n = 1): the bitwise oracle of its broadcast build."""
    L = level
    if n == 1:
        U, uw = np.ones((1, 1)), np.ones(1)
    else:
        svals, swts = zip(*(spherequad.gauss_power01(L, n - i - 1) for i in range(1, n)))
        S = np.stack([g.ravel() for g in np.meshgrid(*svals, indexing="ij")], axis=1)
        uw = np.ones(S.shape[0])
        for g in np.meshgrid(*(w / 2.0 for w in swts), indexing="ij"):
            uw = uw * g.ravel()
        U = np.empty((S.shape[0], n))
        running = np.ones(S.shape[0])
        for i in range(n - 1):
            U[:, i] = np.sqrt(running * (1.0 - S[:, i]))
            running = running * S[:, i]
        U[:, n - 1] = np.sqrt(running)
    F = nphase ** (n - 1)
    return U, uw * ((2.0 * math.pi) ** n / F)


class TestBroadcastModuli:
    @pytest.mark.parametrize("n,level,nphase", [(n, L, M) for n in (1, 2, 3, 4) for L in (1, 2, 7)
                                                for M in (1, 4)]
                             + [(1, 48, 8), (2, 180, 5), (3, 48, 8), (4, 12, 3)])
    def test_bit_identical_to_meshgrid_moduli(self, n, level, nphase):
        rule = invariant_sphere_rule.__wrapped__(n, level, nphase)
        U, weights = reference_torus_factors(n, level, nphase)
        assert rule.base.dtype == U.dtype and rule.base.shape == U.shape
        assert rule.base.tobytes() == U.tobytes()
        assert rule.row_weights.tobytes() == weights.tobytes()

    def test_n4_build_peaks_near_what_it_keeps(self):
        # the Gauss solves, cached and shared by every rule of this level, are
        # warmed first
        invariant_sphere_rule.__wrapped__(4, 48, 1)
        tracemalloc.start()
        try:
            rule = invariant_sphere_rule.__wrapped__(4, 48, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = rule.base.nbytes + rule.row_weights.nbytes  # 3.5 + 0.9 MB
        # measured 1.8x; the per-row meshgrids and their stack peaked at 3.6x
        assert peak <= 2.0 * kept


def reference_torus_weights(n, level, nphase):
    """The torus rule's weights built node by node: the moduli weights'
    product over a full meshgrid with the phase rows, times (2 pi)^n / F."""
    F = nphase ** (n - 1)
    swts = [spherequad.gauss_power01(level, n - i - 1)[1] / 2.0 for i in range(1, n)]
    weights = np.ones(level ** (n - 1) * F)
    for g in np.meshgrid(*swts, np.arange(F), indexing="ij")[:-1]:
        weights = weights * g.ravel()
    return weights * ((2.0 * math.pi) ** n / F)


class TestRowWeights:
    """A rule keeps one weight per base row; the node-form weights exist only
    as the tests' references."""

    @pytest.mark.parametrize("n,level,nphase", [(1, 5, 3), (2, 64, 9), (2, 7, 2), (3, 24, 7),
                                                (3, 9, 4), (4, 6, 5)])
    def test_torus_weights_bit_identical_to_a_node_form_build(self, n, level, nphase):
        rule = invariant_sphere_rule.__wrapped__(n, level, nphase)
        weights = reference_torus_weights(n, level, nphase)
        assert rule.row_weights.shape == rule.base.shape[:1]
        assert np.array_equal(node_weights(rule), weights)
        # the pairwise sum over the F equal node weights, not F * row weight
        assert np.array_equal(rule.base_weights, weights.reshape(rule.base.shape[0], -1).sum(axis=1))

    def test_cold_build_retains_no_node_weights(self):
        # 32,400 moduli rows of 49 phase rows: the node weights alone would
        # be 12.1 MB, the base and row weights are 0.99 MB.  The Gauss
        # solves, cached and shared by every rule of this level, are warmed
        # first.
        invariant_sphere_rule.__wrapped__(3, 180, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rule = invariant_sphere_rule.__wrapped__(3, 180, 7)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rule.node_count == 32_400 * 49
        assert retained < 2 ** 20

    @pytest.mark.parametrize("make", [lambda: sphere_rule(4, 6), lambda: invariant_sphere_rule(3, 5, 4),
                                      lambda: invariant_sphere_rule(2, 9)],
                             ids=["product", "torus", "torus one phase"])
    def test_tables_carry_row_weights(self, make):
        rule = make()
        H, F = rule.base.shape[0], rule.phases.shape[0]
        assert rule.node_count == H * F
        for shape in ((H * F,), (H, F)):
            vals, weights = rule.table(np.ones(shape))
            assert vals.shape == (H, F) and np.array_equal(weights, rule.row_weights[:, None])
        _, weights = rule.table(np.ones((H, 1)))
        assert np.array_equal(weights, (rule.base_weights if F > 1 else rule.row_weights)[:, None])


def _built_invariant_rules():
    """(n, level, nphase) of the torus-reduced rules the package builds at the
    default configuration: section rules (direct, refined, scan), polar-volume
    rules for the suite bodies' phase bandwidths (plain, refined and the
    suite's light levels) and the Monte Carlo radius scans."""
    cfg, light = default_config(), {2: 64, 3: 24}
    bandwidths = {n: {b.phase_bandwidth for b in bodies().values()} | {0}
                  for n, bodies in ((2, bodies_n2), (3, bodies_n3))}
    out = set()
    for n in (2, 3, 4):
        L = cfg.product_levels[2 * n - 2]
        out |= {(n - 1, lev, lev) for lev in (L, L + 2, max(8, L // 2))}
        R = cfg.reduced_levels[n]
        for bw in bandwidths.get(n, {0}):
            out |= {(n, lev, 2 * n * bw + 1) for lev in (R, R + max(8, R // 8), light.get(n, R))}
            out.add((n, 48, 8 if bw else 1))
    return sorted(out)


def assert_ring_layout(rule):
    """Each run of F consecutive nodes (F phase rows) is one point turned by
    the phase rows: the pairs that no row turns are shared exactly, every
    pair's modulus is shared, and every pair's phase relative to the run's
    first node is its phase row's relative to row 0."""
    F, turns = rule.phases.shape[0], rule.phases.any(axis=0)
    assert rule.node_count == rule.base.shape[0] * F
    runs = rule.nodes.reshape(-1, F, rule.m)
    still = np.repeat(~turns, 2)
    assert np.array_equal(runs[:, :, still], np.broadcast_to(runs[:, :1, still], runs[:, :, still].shape))
    z = runs[:, :, np.repeat(turns, 2)]
    z = z[:, :, 0::2] + 1j * z[:, :, 1::2]
    assert np.abs(np.abs(z) - np.abs(z[:, :1])).max(initial=0.0) <= 1e-15  # measured <= 2.3e-16
    rel = z * z[:, :1].conj()
    nonzero = np.abs(rel) > 0
    turn = np.broadcast_to(np.exp(1j * (rule.phases - rule.phases[0]))[:, turns], rel.shape)
    # measured <= 3.8e-16
    assert np.abs(rel[nonzero] / np.abs(rel[nonzero]) - turn[nonzero]).max(initial=0.0) <= 1e-15


class TestRingLayout:
    @pytest.mark.parametrize("m,level", [(m, L) for m in (4, 6, 8) for L in (1, 2, 5, 8)]
                             + [(4, 18), (4, 26), (6, 14)])
    def test_product_rule_rings(self, m, level):
        rule = sphere_rule(m, level)
        assert rule.phases.shape[0] == 2 * level
        assert not rule.phases[:, :-1].any()  # only the last pair turns
        assert_ring_layout(rule)

    @pytest.mark.parametrize("n,level,nphase", _built_invariant_rules())
    def test_invariant_rule_rings(self, n, level, nphase):
        rule = invariant_sphere_rule(n, level, nphase)
        assert rule.phases.shape == (nphase ** (n - 1), n)
        assert rule.node_count // rule.phases.shape[0] == level ** (n - 1)
        assert_ring_layout(rule)

    def test_circle_rule_is_one_ring(self):
        rule = sphere_rule(2, 10)
        assert rule.base.shape[0] == 1 and rule.phases.shape[0] == rule.node_count


def reference_torus_nodes(moduli, phases):
    """The torus rule's node array as the eager builder assembled it: moduli
    repeated over the phases, phases tiled over the moduli, one column pair
    at a time."""
    nph, count, n = phases.shape[0], moduli.shape[0], moduli.shape[1]
    nodes = np.empty((count * nph, 2 * n))
    for k in range(n):
        uk = np.repeat(moduli[:, k], nph)
        ph = np.tile(phases[:, k], count)
        nodes[:, 2 * k] = uk * np.cos(ph)
        nodes[:, 2 * k + 1] = uk * np.sin(ph)
    return nodes


class TestFactoredRule:
    """A torus rule keeps its moduli and phase rows and builds its node
    array on first access only."""

    @pytest.mark.parametrize("n,level,nphase", [(1, 5, 1), (2, 64, 9), (3, 24, 7), (4, 6, 5)])
    def test_lazy_nodes_are_the_reference_build(self, n, level, nphase):
        rule = invariant_sphere_rule.__wrapped__(n, level, nphase)  # a fresh, unbuilt rule
        assert not rule.nodes_built
        assert rule.node_count == rule.base.shape[0] * rule.phases.shape[0]
        assert rule.phases.shape == (nphase ** (n - 1), n)
        assert not rule.nodes_built  # node_count reads the factors
        nodes = rule.nodes
        assert rule.nodes_built and rule.nodes is nodes
        assert np.array_equal(nodes, reference_torus_nodes(rule.base, rule.phases))
        for arr in (rule.nodes, rule.row_weights, rule.base, rule.phases):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    def test_unit_moduli_rows_and_pinned_first_phase(self, n):
        rule = invariant_sphere_rule(n, 10, 4)
        assert not np.iscomplexobj(rule.base)  # moduli rows
        assert np.abs(np.linalg.norm(rule.base, axis=1) - 1.0).max() <= 1e-15
        assert np.all(rule.phases[:, 0] == 0.0)

    def test_factor_shapes_checked(self):
        # one form: a base and phase counts of m/2 pairs, and one weight per
        # base row; m is even
        torus, product = invariant_sphere_rule(2, 4, 3), sphere_rule(4, 3)
        for base, counts in ((torus.base, (3,)), (torus.base[:, :1], (1,)), (product.base, (6,)),
                             (torus.base[0], (1, 3)), (torus.base, (1, 3, 1))):
            with pytest.raises(InvalidInputError, match="coordinate pairs"):
                QuadratureRule(4, base, counts, torus.row_weights, 1, 1)
        for m in (3, 5):
            with pytest.raises(InvalidInputError, match="coordinate pairs"):
                QuadratureRule(m, torus.base, (1, 3), torus.row_weights, 1, 1)
        for counts in ((1, 0), (1, -3)):
            with pytest.raises(InvalidInputError, match="integers >= 1"):
                QuadratureRule(4, torus.base, counts, torus.row_weights, 1, 1)
        # counts are read through config._integer: 3.0 is 3, a bool is no count
        # ((1, True) built a rule of counts (1, 1) before)
        for counts in ((1, 2.5), (1, True), (True, 3)):
            with pytest.raises(InvalidInputError, match="phase count must be an integer"):
                QuadratureRule(4, torus.base, counts, torus.row_weights, 1, 1)
        rule = QuadratureRule(4, torus.base, (1, 3.0), torus.row_weights, 1, 1)
        assert rule.phase_counts == (1, 3) and type(rule.phase_counts[1]) is int
        # node-form weights, one row short, or a column: not one per base row
        for weights in (node_weights(torus), torus.row_weights[1:], torus.row_weights[:, None]):
            with pytest.raises(InvalidInputError, match="one weight per row"):
                QuadratureRule(4, torus.base, (1, 3), weights, 1, 1)

    def test_base_rows_of_unit_length(self):
        # checked once here: the moment recursion and the lift of the
        # factored kernels hold only where |z| = 1
        torus, product = invariant_sphere_rule(2, 4, 3), sphere_rule(4, 3)
        for rule in (torus, product):
            for scale in (1.0 + 2e-8, 1.0 - 2e-8, 1.1):
                with pytest.raises(InvalidInputError, match="unit length"):
                    QuadratureRule(4, rule.base * scale, rule.phase_counts, rule.row_weights, 1, 1)
            for bad in (np.nan, np.inf):
                base = rule.base.copy()
                base[1, 0] = bad
                with pytest.raises(InvalidInputError, match="finite"):
                    QuadratureRule(4, base, rule.phase_counts, rule.row_weights, 1, 1)
            # within 1e-8 of unit length the rows are accepted
            near = QuadratureRule(4, rule.base * (1.0 + 5e-9), rule.phase_counts, rule.row_weights,
                                  1, 1)
            assert near.base.shape == rule.base.shape

    def test_weights_taken_as_a_list(self):
        torus = invariant_sphere_rule(2, 4, 3)
        rule = QuadratureRule(4, torus.base, torus.phase_counts, torus.row_weights.tolist(), 7, 4)
        assert np.array_equal(rule.row_weights, torus.row_weights)
        assert not rule.row_weights.flags.writeable
        assert integrate_sphere(np.ones(rule.node_count), rule) == integrate_sphere(
            np.ones(torus.node_count), torus)

    @pytest.mark.parametrize("m,level", [(2, 5), (4, 6), (6, 3)])
    def test_phase_rows_from_the_counts(self, m, level):
        # the builders' phase rows are the grid of their counts, and the base
        # weights are the node weights summed over each base row's phase rows
        c = m // 2
        for rule, counts in ((sphere_rule(m, level), (1,) * (c - 1) + (2 * level,)),
                             (invariant_sphere_rule(c, level, 5), (1,) + (5,) * (c - 1))):
            assert rule.phase_counts == counts
            assert np.array_equal(rule.phases, spherequad.phase_grid(counts))
            F = rule.phases.shape[0]
            assert F == math.prod(counts)
            per_row = node_weights(rule).reshape(-1, F)
            assert np.array_equal(rule.base_weights, per_row.sum(axis=1))
            assert not rule.base_weights.flags.writeable

    def test_radial_values_in_node_order(self, ell12, pert2):
        # on the torus and product rules and a rule given by its nodes, all
        # without a node array; the complex bases round apart from the
        # per-node profile (measured <= 1 eps)
        product, eps4 = sphere_rule(4, 6), 4 * np.finfo(float).eps
        forms = {"torus": (lambda: invariant_sphere_rule.__wrapped__(2, 16, 9), 1e-14),
                 "product": (lambda: sphere_rule.__wrapped__(4, 6), eps4),
                 "nodes": (lambda: node_rule(product.nodes.copy(), node_weights(product), 11, 6),
                           eps4)}
        for body in (ell12, pert2):
            for form, (make, tol) in forms.items():
                rule = make()
                got = body.factor_radial(rule)
                assert got.shape == table_shape(body, rule)
                assert not rule.nodes_built
                got = node_order(got, rule)
                assert np.max(np.abs(got / body.radial(rule.nodes) - 1.0)) <= tol, (body, form)

    @pytest.mark.parametrize("m,level", [(2, 5), (4, 6), (6, 3), (8, 2)])
    def test_product_rule_keeps_heads_and_angles(self, m, level):
        rule = sphere_rule.__wrapped__(m, level)  # a fresh, unbuilt rule
        assert not rule.nodes_built
        # one complex base row per polar node, the ring head at azimuth 0
        assert np.iscomplexobj(rule.base) and rule.base.shape == (level ** (m - 2), m // 2)
        assert rule.node_count // rule.phases.shape[0] == level ** (m - 2)
        heads, psi = rule.base.view(float), rule.phases[:, -1]
        assert np.all(heads[:, -1] == 0.0) and np.all(heads[:, -2] >= 0.0)
        # the phase rows (0, ..., 0, psi) for the 2*level azimuths
        assert np.array_equal(psi, 2.0 * math.pi * np.arange(2 * level) / (2 * level))
        assert not rule.phases[:, :-1].any()
        assert not rule.nodes_built
        assert np.array_equal(rule.nodes, ring_points(heads, psi))
        for arr in (rule.nodes, rule.row_weights, rule.base, rule.phases):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("n,level,nphase", [(1, 5, 1), (2, 12, 9), (3, 6, 7)])
    def test_torus_rule_heads_and_angles(self, n, level, nphase):
        rule = invariant_sphere_rule.__wrapped__(n, level, nphase)
        # real moduli rows; the phase rows are the grid of the relative
        # phases, z_1's pinned at 0, z_n's the fastest
        R = nphase if n > 1 else 1
        assert not np.iscomplexobj(rule.base) and rule.base.shape == (level ** (n - 1), n)
        assert np.array_equal(rule.phases[:R, -1], 2.0 * math.pi * np.arange(R) / R)
        assert np.array_equal(rule.phases[:, -1], np.tile(rule.phases[:R, -1], rule.phases.shape[0] // R))
        heads = factor_points(rule.base, rule.phases[::R])
        assert not rule.nodes_built
        # the rings' points are the nodes up to the rounding of cos(a + b)
        assert np.abs(ring_points(heads, rule.phases[:R, -1]) - rule.nodes).max() <= 1e-15

    def test_one_node_from_the_factors(self):
        rules = [sphere_rule.__wrapped__(6, 4), invariant_sphere_rule.__wrapped__(3, 6, 7)]
        picks = [[0, 7, 8, 101, rule.node_count - 1] for rule in rules]
        got = [[rule.node(i) for i in pick] for rule, pick in zip(rules, picks)]
        assert not any(rule.nodes_built for rule in rules)
        for rule, pick, nodes in zip(rules, picks, got):
            assert np.array_equal(nodes, rule.nodes[pick])
            # once the array is built, still formed from the factors: its bits
            for i in pick + [5, -1]:
                assert rule.node(i).tobytes() == rule.nodes[i].tobytes()

    @pytest.mark.parametrize("n,level,nphase", [(1, 5, 1), (2, 12, 9), (3, 6, 7)])
    def test_real_base_takes_the_complex_formula(self, n, level, nphase):
        # a moduli base gives the bytes of the same base made complex
        rule = invariant_sphere_rule(n, level, nphase)
        got = factor_points(rule.base, rule.phases)
        assert got.tobytes() == factor_points(rule.base.astype(complex), rule.phases).tobytes()
        assert got.tobytes() == rule.nodes.tobytes()


def moduli_only_bodies(n):
    return [EuclideanBall(ComplexDim(n), 1.0)] + [
        ComplexLqBall(ComplexDim(n), q) for q in (1.0, 3.0, np.inf)] + [
        ComplexEllipsoid((1.0, 2.0) if n == 2 else (1.0, 1.5, 3.0))]


class TestRingHeadRadial:
    """On a product rule a moduli-only body is evaluated once per ring."""

    @pytest.mark.parametrize("n,level", [(2, 8), (2, 26), (3, 8), (3, 14)])
    def test_moduli_only_bodies_match_per_node_values(self, n, level, monkeypatch):
        rule = sphere_rule(2 * n, level)
        for body in moduli_only_bodies(n):
            per_node = body.radial(rule.nodes)
            counter = CountingRadial(monkeypatch)
            got = body.factor_radial(rule)
            monkeypatch.undo()
            # one kernel call per block of at most CHUNK_ROWS base rows
            assert sum(counter.rows) == rule.base.shape[0]
            assert max(counter.rows) <= spherequad.CHUNK_ROWS
            assert got.shape == (rule.base.shape[0], 1)
            # measured <= 4.1e-16 (the ring's nodes differ from its head by rounding)
            assert np.max(np.abs(got / per_node.reshape(got.shape[0], -1) - 1.0)) \
                <= 4 * np.finfo(float).eps, body.label

    @pytest.mark.parametrize("body,level", [(bodies_n2()["pert_a"], 8), (bodies_n2()["pert_b"], 14),
                                            (bodies_n3()["pert"], 8)])
    def test_perturbed_body_evaluated_ring_by_ring(self, body, level, monkeypatch):
        rule = sphere_rule.__wrapped__(body.dim.N, level)  # a fresh, unbuilt rule
        counter = CountingRadial(monkeypatch)
        got = body.factor_radial(rule)
        monkeypatch.undo()
        assert counter.rows == [] and not rule.nodes_built
        assert got.shape == table_shape(body, rule)
        # measured <= 1 eps against the per-node profile
        assert np.max(np.abs(got.ravel() / body.radial(rule.nodes) - 1.0)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("make", [lambda n: sphere_rule(2 * n, 8),
                                      lambda n: invariant_sphere_rule(n, 12, 3)],
                             ids=["complex base", "moduli base"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_base_view_keeps_the_bits_of_the_stacked_copy(self, make, n):
        rule = make(n)
        W = rule.base
        stacked = np.stack([W.real, W.imag], axis=-1).reshape(W.shape[0], -1)
        for body in moduli_only_bodies(n):
            got = body.factor_radial(rule)
            assert got.tobytes() == body._radial_impl(stacked)[:, None].tobytes(), body.label

    @pytest.mark.parametrize("n,make", [(2, lambda: sphere_rule(4, 100)), (3, lambda: sphere_rule(6, 14)),
                                        (3, lambda: invariant_sphere_rule(3, 100, 3))],
                             ids=["complex base n=2", "complex base n=3", "moduli base n=3"])
    def test_blocks_keep_the_bits_of_one_call(self, n, make):
        # 10,000 to 38,416 base rows: the kernels of the moduli only are row
        # by row, so the blocks of CHUNK_ROWS rows give the bits of one call
        rule = make()
        assert rule.base.shape[0] > spherequad.CHUNK_ROWS
        whole = np.ascontiguousarray(rule.base, dtype=complex).view(float)
        for body in moduli_only_bodies(n):
            got = body.factor_radial(rule)
            assert got.tobytes() == body._radial_impl(whole)[:, None].tobytes(), body.label

    def test_n4_peaks_near_its_table(self):
        # 262,144 complex base rows (16.8 MB) in blocks of CHUNK_ROWS rows
        rule = sphere_rule(8, 8)
        body = ComplexLqBall(ComplexDim(4), 3.0)
        body.factor_radial(sphere_rule(8, 2))
        tracemalloc.start()
        try:
            got = body.factor_radial(rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.28x the 2.1 MB table; one whole-base call peaked at 9.0x
        assert peak <= 1.5 * got.nbytes

    def test_ring_one_takes_every_node(self, monkeypatch):
        product = sphere_rule(4, 6)
        rule = node_rule(product.nodes.copy(), node_weights(product), 11, 6)
        assert rule.base.shape == (rule.node_count, 2) and not rule.phases.any()
        body = ComplexLqBall(ComplexDim(2), 3.0)
        counter = CountingRadial(monkeypatch)
        got = body.factor_radial(rule)
        assert counter.rows == [rule.node_count]
        assert np.array_equal(got.ravel(), body.radial(rule.nodes))


SUITE_BODIES = [(n, name) for n, bodies in ((2, bodies_n2), (3, bodies_n3)) for name in bodies()]


class TestBothRuleFamilies:
    """``factor_radial`` through the factors of a product rule (complex base)
    and of a torus rule with several phases (real base), on every suite body."""

    # family -> (rule at n, tolerance against the per-node values); the
    # product rule's ring points differ from its heads by rounding
    RULES = {"product": (lambda n: sphere_rule.__wrapped__(2 * n, 8), 4 * np.finfo(float).eps),
             "torus": (lambda n: invariant_sphere_rule.__wrapped__(n, 12, 5), 1e-14)}

    @pytest.mark.parametrize("family", sorted(RULES))
    @pytest.mark.parametrize("n,name", SUITE_BODIES)
    def test_radial_values_match_the_nodes(self, n, name, family, monkeypatch):
        body = (bodies_n2 if n == 2 else bodies_n3)()[name]
        make, tol = self.RULES[family]
        rule = make(n)  # fresh and unbuilt
        assert rule.phases.shape[0] > 1
        counter = CountingRadial(monkeypatch)
        got = body.factor_radial(rule)
        monkeypatch.undo()
        assert not rule.nodes_built
        # a moduli-only body: one radial call, once per base row
        assert counter.rows == ([] if body.phase_bandwidth else [rule.base.shape[0]])
        assert got.shape == table_shape(body, rule)
        assert np.max(np.abs(node_order(got, rule) / body.radial(rule.nodes) - 1.0)) <= tol, body.label


class TestIntegrateSphere:
    def test_constant(self):
        rule = sphere_rule(4, 8)
        assert integrate_sphere(np.ones(rule.node_count), rule) == \
            pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_coordinate_square(self):
        rule = sphere_rule(4, 8)
        val = integrate_sphere(rule.nodes[:, 0] ** 2, rule)
        assert val == pytest.approx(math.pi ** 2 / 2, rel=1e-13)

    def test_radial_power_of_scaled_ball(self):
        rule = sphere_rule(4, 8)
        ball = EuclideanBall(ComplexDim(2), 2.0)
        val = integrate_sphere(ball.radial(rule.nodes) ** 4, rule)
        assert val == pytest.approx(32 * math.pi ** 2, rel=1e-13)

    def test_nonfinite_integrand_flagged(self):
        rule = sphere_rule(4, 4)
        vals = np.ones(rule.node_count)
        vals[7] = np.nan
        with pytest.raises(NumericalEvaluationError, match="node 7"):
            integrate_sphere(vals, rule)

    @pytest.mark.parametrize("make,bad", [(lambda: sphere_rule.__wrapped__(6, 5), 333),
                                          (lambda: invariant_sphere_rule.__wrapped__(3, 8, 7), 250)])
    def test_nonfinite_integrand_names_its_node_without_the_node_array(self, make, bad):
        rule = make()
        vals = np.ones(rule.node_count)
        vals[bad] = np.inf
        F = rule.phases.shape[0]
        column = np.ones((rule.base.shape[0], 1))
        column[bad // F] = np.inf  # a table of width 1 names its base row's first node
        for table, node in ((vals, bad), (vals.reshape(-1, F), bad), (column, bad - bad % F)):
            with pytest.raises(NumericalEvaluationError, match=f"node {node}:") as info:
                integrate_sphere(table, rule)
            assert not rule.nodes_built
            assert str(info.value).endswith(f": {rule.node(node)}")
        assert str(info.value).endswith(f": {rule.nodes[node]}")

    def test_overflowing_weighted_sum_flagged(self):
        rule = sphere_rule(4, 4)
        with pytest.raises(NumericalEvaluationError, match="weighted sum"):
            integrate_sphere(np.full(rule.node_count, 1e308), rule)

    @pytest.mark.parametrize("make", [lambda: sphere_rule(4, 6), lambda: invariant_sphere_rule(3, 5, 4),
                                      lambda: invariant_sphere_rule(2, 9)],
                             ids=["product", "torus", "torus one phase"])
    def test_the_three_table_forms(self, make):
        # node order and its (H, F) table give the same bits; a width-1 table
        # is the same values at every phase row, to rounding
        rule = make()
        H, F = rule.base.shape[0], rule.phases.shape[0]
        rng = np.random.default_rng(46)
        vals = rng.uniform(0.5, 2.0, size=rule.node_count)
        assert integrate_sphere(vals.reshape(H, F), rule) == integrate_sphere(vals, rule)
        column = rng.uniform(0.5, 2.0, size=(H, 1))
        assert integrate_sphere(column, rule) == pytest.approx(
            integrate_sphere(np.repeat(column, F, axis=1), rule), rel=1e-14)

    def test_callables_and_other_shapes_rejected(self):
        rule = sphere_rule(4, 4)  # H = 16 base rows, F = 8 phase rows
        assert (rule.base.shape[0], rule.phases.shape[0]) == (16, 8)
        with pytest.raises(InvalidInputError, match="callable"):
            integrate_sphere(lambda x: np.ones(len(x)), rule)
        for shape in [(), (16,), (127,), (128, 1), (1, 128), (16, 2), (8, 16), (16, 8, 1), (1, 16, 8)]:
            with pytest.raises(InvalidInputError, match="shape"):
                integrate_sphere(np.ones(shape), rule)


class TestInvariantRule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_weight_sum(self, n):
        rule = invariant_sphere_rule(n, 20)
        assert node_weights(rule).sum() == pytest.approx(sphere_area(2 * n), rel=1e-12)

    def test_exact_on_invariant_monomials(self):
        rule = invariant_sphere_rule(3, 8)
        rng = np.random.default_rng(1)
        n = 3
        for _ in range(20):
            alpha = rng.integers(0, 4, size=n)
            mods2 = rule.nodes[:, 0::2] ** 2 + rule.nodes[:, 1::2] ** 2
            quad = float(node_weights(rule) @ np.prod(mods2 ** alpha, axis=1))
            exact = 2 * math.pi ** n
            for a in alpha:
                exact *= math.factorial(int(a))
            exact /= math.gamma(n + alpha.sum())
            assert quad == pytest.approx(exact, rel=1e-13)

    def test_phase_modes_cancel(self):
        rule = invariant_sphere_rule(3, 6, nphase=6)
        z = rule.nodes[:, 0::2] + 1j * rule.nodes[:, 1::2]
        val = np.sum(node_weights(rule) * z[:, 0] * np.conj(z[:, 1]))
        assert abs(val) < 1e-13

    @staticmethod
    def monomial_moments(rule, n, k):
        """sum_i w_i z^a conj(z)^b over the rule's nodes, for every a, b in
        ``multi_indices(n, k)``, from the node array."""
        Z = rule.nodes[:, 0::2] + 1j * rule.nodes[:, 1::2]
        A = np.array(multi_indices(n, k))
        Za = np.prod(Z[:, None, :] ** A[None, :, :], axis=2)
        return (Za * node_weights(rule)[:, None]).T @ Za.conj(), A

    @pytest.mark.parametrize("n,L", [(2, 12), (3, 8), (4, 5)])
    def test_as_many_phases_as_levels_exact_to_degree_2L_minus_1(self, n, L):
        # every z^a conj(z)^b with |a| = |b| <= L - 1 has relative-phase
        # frequencies |a_k - b_k| < L: the torus rule of nphase = L integrates
        # it exactly, as the product rule of level L does (measured: diagonal
        # within 7.8e-15 relative, off-diagonal below 4.8e-16)
        rule = invariant_sphere_rule.__wrapped__(n, L, L)
        for k in range(L):
            M, A = self.monomial_moments(rule, n, k)
            exact = np.array([complex_sphere_moment(n, tuple(a)) for a in A])
            assert np.abs(M.diagonal() / exact - 1.0).max() <= 1e-13, k
            assert np.abs(M - np.diag(M.diagonal())).max() <= 1e-14, k

    @pytest.mark.parametrize("n,L", [(2, 12), (3, 8)])
    def test_one_phase_fewer_aliases_the_top_degree(self, n, L):
        # a = (L-1) e_1, b = (L-1) e_2 turns the second pair at frequency
        # 1 - L, a multiple of L - 1 phases
        M, _ = self.monomial_moments(invariant_sphere_rule.__wrapped__(n, L, L - 1), n, L - 1)
        assert np.abs(M - np.diag(M.diagonal())).max() > 1e-3

    def test_matches_product_rule_on_invariant_integrand(self):
        # agreement is limited by the product rule: the q=3 radial power has
        # square-root kinks where a coordinate pair vanishes
        body = ComplexLqBall(ComplexDim(2), 3.0)
        product, torus = sphere_rule(4, 24), invariant_sphere_rule(2, 200)
        a = integrate_sphere(body.radial(product.nodes) ** 4, product)
        b = integrate_sphere(body.radial(torus.nodes) ** 4, torus)
        assert a == pytest.approx(b, rel=1e-6)

    def test_matches_product_rule_on_smooth_invariant_integrand(self, ell12):
        product, torus = sphere_rule(4, 24), invariant_sphere_rule(2, 200)
        a = integrate_sphere(ell12.radial(product.nodes) ** 4, product)
        b = integrate_sphere(ell12.radial(torus.nodes) ** 4, torus)
        assert a == pytest.approx(b, rel=1e-9)


class TestPhilox:
    def test_keeps_the_stream_below_two_to_the_64(self):
        for seed in (0, 20240 + 817, 2 ** 64 - 1):
            ref = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            assert np.array_equal(philox(seed).normal(size=8), ref.normal(size=8))

    def test_derived_keys_wrap(self):
        # seed + salt past 2**64 keys the stream of the wrapped sum
        assert np.array_equal(philox(2 ** 64 - 1 + 10).normal(size=8),
                              philox(9).normal(size=8))

    def test_monte_carlo_seed_past_two_to_the_64(self, ball2):
        a = mc_volume(ball2, 10_000, seed=2 ** 64 + 5)
        assert a.estimate == mc_volume(ball2, 10_000, seed=5).estimate


def _called_by_the_mc_loop():
    """Whether the caller of the norm kernel wrapped around this call is the
    Monte Carlo chunk loop, not the box scan (which reaches the kernel
    through the radial kernel)."""
    return sys._getframe(2).f_code is spherequad._mc_hits.__code__


class TestMonteCarlo:
    def test_ball_volume(self, ball2):
        mc = mc_volume(ball2, 200_000, seed=0)
        assert abs(mc.estimate - math.pi ** 2 / 2) <= 3 * mc.std_error

    def test_polydisc_volume(self, polydisc2):
        mc = mc_volume(polydisc2, 200_000, seed=1)
        assert abs(mc.estimate - math.pi ** 2) <= 3 * mc.std_error

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_contains_lq1(self, n):
        # sup |x_i| over the complex l1 ball is 1, at the axes; the level-48
        # scan alone gave R = 0.9859 (n = 2) and 0.9718 (n = 3)
        assert mc_volume(ComplexLqBall(ComplexDim(n), 1.0), 10_000, seed=0).box_halfwidth >= 1.0

    @pytest.mark.parametrize("body,hits,R", [
        (EuclideanBall(ComplexDim(2), 1.0), 14861, 1.0100000000000002),
        (EuclideanBall(ComplexDim(3), 1.2), 3824, 1.2120000000000002),
        (ComplexEllipsoid((1.0, 2.0)), 3746, 2.018140646366503),
        (ComplexEllipsoid((1.0, 1.5, 3.0)), 89, 3.019961629330473)])
    def test_box_unchanged_where_the_scan_bounds_the_axes(self, body, hits, R):
        # hits and half-widths of the scan-only box, before the axes entered R
        mc = mc_volume(body, 50_000, seed=23)
        assert (mc.hits, mc.box_halfwidth) == (hits, R)

    def test_reproducible(self, ball2):
        a = mc_volume(ball2, 50_000, seed=7)
        b = mc_volume(ball2, 50_000, seed=7)
        assert a == b

    def test_independent_of_chunk_size(self, pert2, monkeypatch):
        # 25,000 samples: one chunk, or chunks of 4,096 with a partial last one
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 25_000)
        whole = mc_volume(pert2, 25_000, seed=11)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 4_096)
        assert mc_volume(pert2, 25_000, seed=11) == whole

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_independent_of_worker_count(self, pert2, workers, monkeypatch):
        # 50,000 samples: six full chunks of 8,192 and a partial seventh
        lq4 = ComplexLqBall(ComplexDim(3), 4.0)
        monkeypatch.setattr(spherequad, "_MC_WORKERS", 1)
        serial = {b: mc_volume(b, 50_000, seed=13) for b in (pert2, lq4)}
        monkeypatch.setattr(spherequad, "_MC_WORKERS", workers)
        for body, whole in serial.items():
            assert mc_volume(body, 50_000, seed=13) == whole

    @pytest.mark.parametrize("chunk", [8_192, 16_384, 4_097, 25_000])
    def test_independent_of_chunk_size_with_helpers(self, pert2, chunk, monkeypatch):
        # at N = 6, chunk k of 4,097 rows starts at draw 6 * 4,097 * k = 2k
        # (mod 4), so every odd chunk positions its generator by whole counter
        # steps plus a discard of two draws
        lq4 = ComplexLqBall(ComplexDim(3), 4.0)
        monkeypatch.setattr(spherequad, "_MC_WORKERS", 1)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 60_000)
        whole = {b: mc_volume(b, 60_000, seed=17) for b in (pert2, lq4)}
        monkeypatch.setattr(spherequad, "_MC_WORKERS", 2)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", chunk)
        for body, one_chunk in whole.items():
            assert mc_volume(body, 60_000, seed=17) == one_chunk

    def test_shared_chunk_list_under_thread_switches(self, monkeypatch):
        # more threads than CPUs switching every microsecond: a chunk taken
        # twice or lost would change the hit count
        lq4 = ComplexLqBall(ComplexDim(3), 4.0)
        monkeypatch.setattr(spherequad, "_MC_WORKERS", 1)
        whole = mc_volume(lq4, 40_000, seed=19)
        monkeypatch.setattr(spherequad, "_MC_WORKERS", 5)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 500)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = mc_volume(lq4, 40_000, seed=19)
        finally:
            sys.setswitchinterval(interval)
        assert split == whole

    def test_helper_exception_reraised(self, ball3, monkeypatch):
        # the norm fails only off the calling thread; the caller's first chunk
        # waits until a helper has taken a chunk, so a helper surely fails
        caller = threading.get_ident()
        helper_started = threading.Event()
        real = EuclideanBall._norm_impl

        def norm(body, x):
            if not _called_by_the_mc_loop():
                return real(body, x)
            if threading.get_ident() != caller:
                helper_started.set()
                raise NumericalEvaluationError("norm failed on a helper chunk")
            assert helper_started.wait(timeout=60)
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 2)
        monkeypatch.setattr(EuclideanBall, "_norm_impl", norm)
        threads = threading.active_count()
        with pytest.raises(NumericalEvaluationError) as info:
            mc_volume(ball3, 40_000, seed=0)
        assert type(info.value) is NumericalEvaluationError
        assert str(info.value) == "norm failed on a helper chunk"
        assert threading.active_count() == threads

    def test_failure_leaves_no_chunks_to_the_other_thread(self, ball3, monkeypatch):
        # the calling thread fails on its first chunk of 40; the helper may
        # finish the chunk in hand and one taken before the list is emptied,
        # but tests none of the rest.  The helper's first chunk waits until
        # the calling thread has entered (and failed) its own, so the helper
        # cannot test every chunk before the calling thread takes one
        caller = threading.get_ident()
        failed = threading.Event()
        late_calls = []
        real = EuclideanBall._norm_impl

        def norm(body, x):
            if not _called_by_the_mc_loop():
                return real(body, x)
            if threading.get_ident() == caller:
                failed.set()
                raise NumericalEvaluationError("norm failed on the calling thread")
            failed.wait(timeout=30)
            if failed.is_set():
                late_calls.append(len(x))
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 2)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 1_000)
        monkeypatch.setattr(EuclideanBall, "_norm_impl", norm)
        with pytest.raises(NumericalEvaluationError, match="calling thread"):
            mc_volume(ball3, 40_000, seed=0)
        assert len(late_calls) <= 2

    REFERENCE_BODIES = {
        "ball n=2": lambda: EuclideanBall(ComplexDim(2), 1.1),
        "lq4 n=2": lambda: ComplexLqBall(ComplexDim(2), 4.0),
        "polydisc n=2": lambda: ComplexLqBall(ComplexDim(2), math.inf, 0.9),
        "ellipsoid n=2": lambda: ComplexEllipsoid((1.0, 2.0)),
        "perturbed n=2": lambda: bodies_n2()["pert_a"],
        "ball n=3": lambda: EuclideanBall(ComplexDim(3), 1.0),
        "lq1.5 n=3": lambda: ComplexLqBall(ComplexDim(3), 1.5),
        "polydisc n=3": lambda: ComplexLqBall(ComplexDim(3), math.inf),
        "ellipsoid n=3": lambda: ComplexEllipsoid((1.0, 1.5, 2.0)),
        "perturbed n=3": lambda: bodies_n3()["pert"],
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(REFERENCE_BODIES))
    def test_hits_of_the_one_array_stream(self, name, workers, monkeypatch):
        # two full chunks and a partial third: the hits of the whole stream
        # drawn at once with ``uniform(-R, R)`` and tested in one norm call
        body = self.REFERENCE_BODIES[name]()
        samples = 2 * spherequad.CHUNK_ROWS + 5
        monkeypatch.setattr(spherequad, "_MC_WORKERS", workers)
        mc = mc_volume(body, samples, seed=29)
        R = mc.box_halfwidth
        pts = philox(29).uniform(-R, R, size=(samples, body.dim.N))
        assert mc.hits == int(np.count_nonzero(body.norm(pts) <= 1.0))

    @pytest.mark.parametrize("chunk", [8_192, 4_097])
    def test_draws_are_the_uniform_stream(self, ball3, chunk, monkeypatch):
        # the points the norm is given, chunk after chunk on one thread, are
        # the doubles of ``uniform(-R, R)`` over the whole stream; chunks of
        # 4,097 rows start mid counter step
        seen = []
        real = EuclideanBall._norm_impl

        def norm(body, x):
            if not _called_by_the_mc_loop():
                return real(body, x)
            seen.append(np.array(x))
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 1)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(EuclideanBall, "_norm_impl", norm)
        mc = mc_volume(ball3, 20_000, seed=31)
        R = mc.box_halfwidth
        expect = philox(31).uniform(-R, R, size=(20_000, 6))
        assert len(seen) == len(range(0, 20_000, chunk))
        assert np.array_equal(np.concatenate(seen), expect)

    def test_suite_hits_of_the_one_array_stream(self):
        # the suite's C9 bodies and seeds at 500,000 samples (about 3 s)
        seed = default_config().seed + 1000
        bodies = list(bodies_n2().values()) + list(bodies_n3().values())
        for i, body in enumerate(bodies):
            mc = mc_volume(body, 500_000, seed + i)
            R = mc.box_halfwidth
            pts = philox(seed + i).uniform(-R, R, size=(500_000, body.dim.N))
            assert mc.hits == int(np.count_nonzero(body.norm(pts) <= 1.0)), body.label

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_generator_per_thread(self, ball3, workers, monkeypatch):
        # 40,000 samples: five chunks, each positioned on its thread's generator
        made = []

        def counted(seed):
            made.append(threading.get_ident())
            return philox(seed)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", workers)
        monkeypatch.setattr(spherequad, "philox", counted)
        mc = mc_volume(ball3, 40_000, seed=3)
        assert 1 <= len(made) <= workers and len(set(made)) == len(made)
        monkeypatch.setattr(spherequad, "philox", philox)
        assert mc_volume(ball3, 40_000, seed=3) == mc

    @pytest.mark.parametrize("samples", [20_000.7, True, "20000"])
    def test_rejects_non_integral_samples(self, ball2, samples):
        with pytest.raises(InvalidInputError, match="sample count must be an integer"):
            mc_volume(ball2, samples, seed=0)

    def test_takes_an_integral_float_sample_count(self, ball2):
        # read through config._integer, as every integer parameter is
        mc = mc_volume(ball2, 20_000.0, seed=0)
        assert mc == mc_volume(ball2, 20_000, seed=0) and type(mc.samples) is int

    @pytest.mark.parametrize("seed", [1.5, -1, "3", True])
    def test_rejects_a_seed_that_is_no_non_negative_integer(self, ball2, seed):
        with pytest.raises(InvalidInputError, match="seed must be"):
            mc_volume(ball2, 10_000, seed=seed)

    def test_takes_an_integral_float_seed(self, ball2):
        mc = mc_volume(ball2, 10_000, seed=3.0)
        assert mc == mc_volume(ball2, 10_000, seed=3) and type(mc.seed) is int

    def test_takes_numpy_integer_samples(self, ball2):
        assert mc_volume(ball2, np.int64(20_000), seed=0) == mc_volume(ball2, 20_000, seed=0)

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
