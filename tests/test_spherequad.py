import math
import sys
import threading

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
from cxsect.spherequad import factor_points, radial_values
from cxsect.config import default_config, philox
from cxsect.harmonics import complex_sphere_moment, multi_indices
from cxsect.suite import bodies_n2, bodies_n3
from conftest import CountingRadial, node_rule, ring_factors, ring_points


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

    @pytest.mark.parametrize("m,area", [
        (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi ** 2), (5, 8 * math.pi ** 2 / 3),
        (6, math.pi ** 3), (7, 16 * math.pi ** 3 / 15), (8, math.pi ** 4 / 3)])
    def test_sphere_area_closed_forms(self, m, area):
        assert sphere_area(m) == pytest.approx(area, rel=1e-15)

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
    @pytest.mark.parametrize("m,level", [(m, L) for m in range(2, 9) for L in (1, 2, 3, 6)]
                             + [(m, 14) for m in range(2, 7)])
    def test_bit_identical_to_meshgrid_build(self, m, level):
        rule = sphere_rule(m, level)
        nodes, weights = reference_sphere_rule(m, level)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)


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
        L = cfg.product_level(2 * n - 2)
        out |= {(n - 1, lev, lev) for lev in (L, L + 2, max(8, L // 2))}
        R = cfg.reduced_level(n)
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
        assert not rule.nodes_built  # node_count reads the weights
        nodes = rule.nodes
        assert rule.nodes_built and rule.nodes is nodes
        assert np.array_equal(nodes, reference_torus_nodes(rule.base, rule.phases))
        for arr in (rule.nodes, rule.weights, rule.base, rule.phases):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    def test_unit_moduli_rows_and_pinned_first_phase(self, n):
        rule = invariant_sphere_rule(n, 10, 4)
        assert not np.iscomplexobj(rule.base)  # moduli rows
        assert np.abs(np.linalg.norm(rule.base, axis=1) - 1.0).max() <= 1e-15
        assert np.all(rule.phases[:, 0] == 0.0)

    def test_factor_shapes_checked(self):
        # one form: a base and phase counts of ceil(m/2) pairs whose grid gives
        # the weights', equal over the phase rows of a base row
        torus, product = invariant_sphere_rule(2, 4, 3), sphere_rule(4, 3)
        for base, counts in ((torus.base, (3,)), (torus.base[:, :1], (1,)), (product.base, (6,)),
                             (torus.base[0], (1, 3)), (torus.base, (1, 3, 1))):
            with pytest.raises(InvalidInputError, match="coordinate pairs"):
                QuadratureRule(4, base, counts, torus.weights, 1, 1)
        for counts in ((1, 0), (1, 2.0), (1, -3)):
            with pytest.raises(InvalidInputError, match="integers >= 1"):
                QuadratureRule(4, torus.base, counts, torus.weights, 1, 1)
        with pytest.raises(InvalidInputError, match="do not give"):
            QuadratureRule(4, product.base, (1, 2), product.weights, 1, 1)
        with pytest.raises(InvalidInputError, match="do not give"):
            QuadratureRule(4, torus.base, (1, 3), torus.weights[1:], 1, 1)
        uneven = torus.weights.copy()
        uneven[1] *= 1.5
        with pytest.raises(InvalidInputError, match="equal weights"):
            QuadratureRule(4, torus.base, (1, 3), uneven, 1, 1)

    @pytest.mark.parametrize("m,level", [(2, 5), (3, 4), (4, 6), (6, 3)])
    def test_phase_rows_from_the_counts(self, m, level):
        # the builders' phase rows are the grid of their counts, and the base
        # weights are the weights summed over each base row's phase rows
        c = (m + 1) // 2
        for rule, counts in ((sphere_rule(m, level), (1,) * (c - 1) + (2 * level,)),
                             (invariant_sphere_rule(c, level, 5), (1,) + (5,) * (c - 1))):
            assert rule.phase_counts == counts
            assert np.array_equal(rule.phases, spherequad.phase_grid(counts))
            F = rule.phases.shape[0]
            assert F == math.prod(counts)
            per_row = rule.weights.reshape(-1, F)
            assert np.array_equal(rule.base_weights, per_row.sum(axis=1))
            assert not rule.base_weights.flags.writeable

    def test_radial_values_in_node_order(self, ell12, pert2):
        # on the torus and product rules and a rule given by its nodes, all
        # without a node array; the complex bases round apart from the
        # per-node profile (measured <= 1 eps)
        product, eps4 = sphere_rule(4, 6), 4 * np.finfo(float).eps
        forms = {"torus": (lambda: invariant_sphere_rule.__wrapped__(2, 16, 9), 1e-14),
                 "product": (lambda: sphere_rule.__wrapped__(4, 6), eps4),
                 "nodes": (lambda: node_rule(product.nodes.copy(), product.weights.copy(), 11, 6),
                           eps4)}
        for body in (ell12, pert2):
            for form, (make, tol) in forms.items():
                rule = make()
                got = radial_values(body, rule)
                assert got.shape == (rule.node_count,)
                assert not rule.nodes_built
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
        assert np.array_equal(rule.phases, ring_factors(heads, psi)[1])
        assert not rule.nodes_built
        assert np.array_equal(rule.nodes, ring_points(heads, psi))
        for arr in (rule.nodes, rule.weights, rule.base, rule.phases):
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
            assert np.array_equal(rule.node(5), rule.nodes[5])  # once built, read from the array


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
            got = radial_values(body, rule)
            monkeypatch.undo()
            assert counter.rows == [rule.node_count // rule.phases.shape[0]]
            assert got.shape == (rule.node_count,)
            # measured <= 4.1e-16 (the ring's nodes differ from its head by rounding)
            assert np.max(np.abs(got / per_node - 1.0)) <= 4 * np.finfo(float).eps, body.label

    @pytest.mark.parametrize("body,level", [(bodies_n2()["pert_a"], 8), (bodies_n2()["pert_b"], 14),
                                            (bodies_n3()["pert"], 8)])
    def test_perturbed_body_evaluated_ring_by_ring(self, body, level, monkeypatch):
        rule = sphere_rule.__wrapped__(body.dim.N, level)  # a fresh, unbuilt rule
        counter = CountingRadial(monkeypatch)
        got = radial_values(body, rule)
        monkeypatch.undo()
        assert counter.rows == [] and not rule.nodes_built
        # measured <= 1 eps against the per-node profile
        assert np.max(np.abs(got / body.radial(rule.nodes) - 1.0)) <= 4 * np.finfo(float).eps

    def test_ring_one_takes_every_node(self, monkeypatch):
        product = sphere_rule(4, 6)
        rule = node_rule(product.nodes.copy(), product.weights.copy(), 11, 6)
        assert rule.base.shape == (rule.node_count, 2) and not rule.phases.any()
        body = ComplexLqBall(ComplexDim(2), 3.0)
        counter = CountingRadial(monkeypatch)
        got = radial_values(body, rule)
        assert counter.rows == [rule.node_count]
        assert np.array_equal(got, body.radial(rule.nodes))


SUITE_BODIES = [(n, name) for n, bodies in ((2, bodies_n2), (3, bodies_n3)) for name in bodies()]


class TestBothRuleFamilies:
    """``radial_values`` through the factors of a product rule (complex base)
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
        got = radial_values(body, rule)
        monkeypatch.undo()
        assert not rule.nodes_built
        # a moduli-only body: one radial call, once per base row
        assert counter.rows == ([] if body.phase_bandwidth else [rule.base.shape[0]])
        assert got.shape == (rule.node_count,)
        assert np.max(np.abs(got / body.radial(rule.nodes) - 1.0)) <= tol, body.label


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

    @pytest.mark.parametrize("make,bad", [(lambda: sphere_rule.__wrapped__(6, 5), 333),
                                          (lambda: invariant_sphere_rule.__wrapped__(3, 8, 7), 250)])
    def test_nonfinite_integrand_names_its_node_without_the_node_array(self, make, bad):
        rule = make()
        vals = np.ones(rule.node_count)
        vals[bad] = np.inf
        with pytest.raises(NumericalEvaluationError, match=f"node {bad}") as info:
            integrate_sphere(vals, rule)
        assert not rule.nodes_built
        assert str(info.value).endswith(f": {rule.nodes[bad]}")

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
        (ComplexEllipsoid((1.0, 2.0)), 3746, 2.0181406463665033),
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
        real = EuclideanBall.norm

        def norm(body, x):
            if threading.get_ident() != caller:
                helper_started.set()
                raise NumericalEvaluationError("norm failed on a helper chunk")
            assert helper_started.wait(timeout=60)
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 2)
        monkeypatch.setattr(EuclideanBall, "norm", norm)
        threads = threading.active_count()
        with pytest.raises(NumericalEvaluationError) as info:
            mc_volume(ball3, 40_000, seed=0)
        assert type(info.value) is NumericalEvaluationError
        assert str(info.value) == "norm failed on a helper chunk"
        assert threading.active_count() == threads

    def test_failure_leaves_no_chunks_to_the_other_thread(self, ball3, monkeypatch):
        # the calling thread fails on its first chunk of 40; the helper may
        # finish the chunk in hand and one taken before the list is emptied,
        # but tests none of the rest
        caller = threading.get_ident()
        failed = threading.Event()
        late_calls = []
        real = EuclideanBall.norm

        def norm(body, x):
            if threading.get_ident() == caller:
                failed.set()
                raise NumericalEvaluationError("norm failed on the calling thread")
            if failed.is_set():
                late_calls.append(len(x))
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 2)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", 1_000)
        monkeypatch.setattr(EuclideanBall, "norm", norm)
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
        real = EuclideanBall.norm

        def norm(body, x):
            seen.append(np.array(x))
            return real(body, x)

        monkeypatch.setattr(spherequad, "_MC_WORKERS", 1)
        monkeypatch.setattr(spherequad, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(EuclideanBall, "norm", norm)
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

    @pytest.mark.parametrize("samples", [20_000.7, 20_000.0, True, "20000"])
    def test_rejects_non_integral_samples(self, ball2, samples):
        with pytest.raises(InvalidInputError, match="integer sample count"):
            mc_volume(ball2, samples, seed=0)

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
