import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    ConvexityError,
    EuclideanBall,
    InvalidInputError,
    PerturbedBall,
    complex_structure,
    ft_norm_power,
    hyperplane_basis,
    inradius_normalized,
    integrate_sphere,
    invariant_sphere_rule,
    rotate_pairs,
    section_volume_direct,
    section_volume_fourier,
    sphere_rule,
    unit_directions,
    volume,
)
from cxsect import sections
from cxsect.config import RunConfig, default_config
from cxsect.grids import direction_grid, refine_extremum
from cxsect.harmonics import invariant_harmonic_dim
from cxsect.sections import (
    min_radial,
    radial_power_rule,
    section_values,
    volume_with_error,
)
from cxsect.spherequad import CHUNK_ROWS
from cxsect.suite import bodies_n2, bodies_n3

from conftest import CountingRadial, trapezoid, unit_vectors


@functools.cache
def _bodies_by_kind():
    # one body of each kind at n = 2 and n = 3, taken from the suite
    b2, b3 = bodies_n2(), bodies_n3()
    return {2: {"ball": b2["ball"], "lq1": b2["lq1"], "lq3": b2["lq3"], "lq4": b2["lq4"],
                "polydisc": b2["polydisc"], "ell": b2["ell_1_2"], "pert": b2["pert_a"]},
            3: {"ball": b3["ball"], "lq1": b3["lq1"], "lq3": b3["lq3"], "lq4": b3["lq4"],
                "polydisc": b3["polydisc"], "ell": b3["ell_1_1.5_2"], "pert": b3["pert"]}}


class TestDirection:
    def test_normalizing_factory(self):
        X = unit_directions([3.0, 0, 4.0, 0])
        assert X.shape == (1, 4)
        assert X[0] == pytest.approx([0.6, 0.0, 0.8, 0.0], abs=1e-15)
        batch = unit_directions(unit_vectors(np.random.default_rng(0), 5, 6) * np.arange(1, 6)[:, None])
        assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0], [math.nan, 0, 1, 0],
                                     [math.inf, 0, 1, 0], [1.0, 0.0, 0.0]])
    def test_bad_direction_raises(self, bad):
        with pytest.raises(InvalidInputError):
            unit_directions(bad)


def _reference_basis(vec):
    """Test-only J-paired basis, one direction at a time: Gram-Schmidt of
    e_0, e_2, ... against (xi, J xi) and the kept rows, two passes, a
    candidate of length <= 1e-7 dropped, J v after each kept v."""
    vec = np.asarray(vec, dtype=float)
    xi = vec / np.linalg.norm(vec)
    jxi = np.empty_like(xi)
    jxi[0::2], jxi[1::2] = -xi[1::2], xi[0::2]
    N = xi.size
    rows = []
    for i in range(0, N, 2):
        v = np.zeros(N)
        v[i] = 1.0
        for _ in range(2):
            for b in [xi, jxi] + rows:
                v = v - (v @ b) * b
        length = float(np.linalg.norm(v))
        if length > 1e-7:
            v = v / length
            jv = np.empty_like(v)
            jv[0::2], jv[1::2] = -v[1::2], v[0::2]
            rows.extend((v, jv))
        if len(rows) == N - 2:
            break
    return np.array(rows)


def _basis_direction_sets(n):
    """Random directions, exact axes, and directions within 1e-12..1e-3 of an
    axis, at complex dimension n; rows are not normalized."""
    rng = np.random.default_rng(n)
    dirs = list(unit_vectors(rng, 200, 2 * n))
    for k in range(2 * n):
        for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            v = eps * rng.normal(size=2 * n)
            v[k] += 1.0
            dirs.append(v)
    return np.array(dirs)


class TestHyperplaneBasis:
    def test_coordinate_direction_n2(self):
        B = hyperplane_basis([1.0, 0, 0, 0])
        expect = np.zeros((1, 2, 4))
        expect[0, 0, 2] = expect[0, 1, 3] = 1.0
        assert np.allclose(B, expect)

    def test_coordinate_direction_n3(self):
        B = hyperplane_basis([1.0, 0, 0, 0, 0, 0])
        assert B.shape == (1, 4, 6)
        assert np.allclose(B[0, :, :2], 0.0)
        assert np.allclose(B[0] @ B[0].T, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_random_direction(self, seed):
        rng = np.random.default_rng(seed)
        xi = unit_directions(rng.normal(size=6))[0]
        B = hyperplane_basis(xi)[0]
        assert np.abs(B @ B.T - np.eye(4)).max() < 1e-13
        assert np.abs(B @ xi).max() < 1e-13
        assert np.abs(B @ complex_structure(xi)).max() < 1e-13
        # J-closedness: J of every basis vector stays in the span
        JB = complex_structure(B)
        residual = JB - (JB @ B.T) @ B
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_are_j_paired(self, n):
        B = hyperplane_basis(_basis_direction_sets(n))
        assert B.shape[1:] == (2 * n - 2, 2 * n)
        assert np.abs(B[:, 1::2] - complex_structure(B[:, 0::2])).max() <= 1e-13
        gram = np.einsum("pij,pkj->pik", B, B)
        assert np.abs(gram - np.eye(2 * n - 2)).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference(self, n):
        # the batched kernel keeps the per-direction orientation, not just the span
        dirs = _basis_direction_sets(n)
        expect = np.array([_reference_basis(v) for v in dirs])
        assert np.abs(hyperplane_basis(dirs) - expect).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batch_equals_rows_alone(self, n):
        dirs = _basis_direction_sets(n)
        batch = hyperplane_basis(dirs)
        for v, B in zip(dirs, batch):
            assert np.array_equal(hyperplane_basis(v)[0], B)

    @pytest.mark.parametrize("bad", ["zero", math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_bad_row_anywhere_raises(self, bad, row):
        dirs = unit_vectors(np.random.default_rng(9), 7, 6)
        if bad == "zero":
            dirs[row] = 0.0
        else:
            dirs[row, 2] = bad
        with pytest.raises(InvalidInputError):
            hyperplane_basis(dirs)

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidInputError):
            hyperplane_basis([1.0, 0.0, 0.0])

    def test_same_complex_line_same_basis(self):
        rng = np.random.default_rng(3)
        xi = unit_directions(rng.normal(size=4))[0]
        t = 1.234
        a = hyperplane_basis(xi)
        b = hyperplane_basis(math.cos(t) * xi + math.sin(t) * complex_structure(xi))
        assert np.abs(a - b).max() < 1e-12


class TestSectionDirect:
    def test_ball_section_is_disc(self, ball2):
        values, errors = section_volume_direct(ball2, [1.0, 0, 0, 0])
        assert values.shape == errors.shape == (1,)
        assert values[0] == pytest.approx(math.pi, rel=1e-13)

    def test_ball3_section_is_four_ball(self, ball3):
        values, _ = section_volume_direct(ball3, [0, 0, 1.0, 0, 0, 0])
        assert values[0] == pytest.approx(math.pi ** 2 / 2, rel=1e-13)

    def test_ellipsoid_section_at_axis(self, ell12):
        values, _ = section_volume_direct(ell12, [2.0, 0, 0, 0])
        assert values[0] == pytest.approx(4 * math.pi, rel=1e-12)

    def test_polydisc_section_at_axis(self, polydisc2):
        values, _ = section_volume_direct(polydisc2, [1.0, 0, 0, 0])
        assert values[0] == pytest.approx(math.pi, rel=1e-10)

    def test_ellipsoid_closed_form_general_direction(self):
        # section volume of a Hermitian ellipsoid: pi * (prod a_k^2) / sum a_k^2 |xi_k|^2
        ell = ComplexEllipsoid((1.0, 2.0))
        X = unit_directions(np.random.default_rng(1).normal(size=(5, 4)))
        u = X[:, 0::2] ** 2 + X[:, 1::2] ** 2
        expect = math.pi * 4.0 / (u @ np.array([1.0, 4.0]))
        values, errors = section_volume_direct(ell, X)
        assert values.shape == errors.shape == (5,)
        assert values == pytest.approx(expect, rel=1e-10)

    def test_ellipsoid_closed_form_general_direction_n3(self):
        # pi^2/2 * (prod a_k^2) / sum a_k^2 |xi_k|^2
        a = np.array([1.0, 1.5, 2.0])
        ell = ComplexEllipsoid(tuple(a))
        X = unit_directions(np.random.default_rng(5).normal(size=(5, 6)))
        u = X[:, 0::2] ** 2 + X[:, 1::2] ** 2
        expect = math.pi ** 2 / 2 * np.prod(a ** 2) / (u @ a ** 2)
        assert section_volume_direct(ell, X)[0] == pytest.approx(expect, rel=1e-10)

    def test_complex_line_invariance(self, pert2):
        xi = unit_directions(np.random.default_rng(2).normal(size=4))[0]
        t = 0.77
        turned = math.cos(t) * xi + math.sin(t) * complex_structure(xi)
        v1, v2 = section_volume_direct(pert2, [xi, turned])[0]
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_rotation_invariance_of_sections(self, ell12):
        xi = unit_directions(np.random.default_rng(3).normal(size=4))[0]
        v1, v2 = section_volume_direct(ell12, [xi, rotate_pairs(xi, 1.1)])[0]
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_error_is_the_refinement_difference(self, pert2):
        X = unit_vectors(np.random.default_rng(10), 4, 4)
        values, errors = section_volume_direct(pert2, X)
        assert np.array_equal(errors, np.abs(values - section_values(pert2, X)))

    def test_batch_matches_single(self, ell12):
        dirs = unit_vectors(np.random.default_rng(4), 6, 4)
        batch = section_values(ell12, dirs)
        singles = [section_values(ell12, v)[0] for v in dirs]
        assert np.allclose(batch, singles, rtol=1e-13)


class _CountingBody:
    """Delegates to a body and records how many points its radial kernel sees."""

    def __init__(self, body):
        self.body, self.dim, self.label, self.points = body, body.dim, body.label, 0

    def _radial_impl(self, theta):
        self.points += theta.shape[0]
        return self.body._radial_impl(theta)


def _section_values_loop(body, dirs, rule):
    # reference kernel: one direction at a time, each point built as
    # sum_j nodes[:, j] B[j], integrated with the same rule weights
    power = rule.m
    out = []
    for B in hyperplane_basis(dirs):
        pts = sum(rule.nodes[:, j, None] * B[j] for j in range(rule.m))
        out.append(body.radial(pts) ** power @ rule.weights / power)
    return np.array(out)


class TestSectionKernel:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["ball", "lq1", "lq4", "polydisc", "ell", "pert"])
    @pytest.mark.parametrize("scan", [False, True])
    def test_matches_per_direction_reference(self, n, name, scan):
        body = _bodies_by_kind()[n][name]
        rule = sections._section_rule(n, default_config(), scan=scan)
        dirs = unit_vectors(np.random.default_rng(10 + n), 9, 2 * n)
        for X in (dirs, dirs[4]):  # a batch, and one direction as a vector
            got = section_values(body, X, scan=scan)
            ref = _section_values_loop(body, X, rule)
            assert got.shape == ref.shape == (np.atleast_2d(X).shape[0],)
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-14, (name, X.ndim)

    @pytest.mark.parametrize("scan", [False, True])
    def test_one_point_per_direction_at_n2(self, ell12, scan):
        body = _CountingBody(ell12)
        section_values(body, unit_vectors(np.random.default_rng(6), 7, 4), scan=scan)
        assert body.points == 7

    @pytest.mark.parametrize("scan, nodes", [(False, 1024), (True, 256)])
    def test_default_rule_sizes_at_n3(self, ball3, scan, nodes):
        body = _CountingBody(ball3)
        section_values(body, unit_vectors(np.random.default_rng(7), 3, 6), scan=scan)
        assert body.points == 3 * nodes

    def test_direction_dimension_mismatch(self, ball3):
        with pytest.raises(InvalidInputError):
            section_values(ball3, np.array([1.0, 0, 0, 0]))

    def test_rule_dimension_mismatch(self, ball3):
        with pytest.raises(InvalidInputError):
            section_values(ball3, np.array([1.0, 0, 0, 0, 0, 0]), rule=sphere_rule(2, 8))

    @given(st.sampled_from(["ball", "lq", "polydisc", "ellipsoid", "perturbed"]),
           st.floats(0.5, 2.0), st.floats(1.0, 8.0),
           st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
           .filter(lambda v: np.linalg.norm(v) > 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_n2_section_is_disc(self, pert2, kind, r, q, vec):
        # a complex line meets a rotation-invariant body in a disc of radius
        # rho(w), w the real form of (-conj(xi_2), conj(xi_1))
        d = ComplexDim(2)
        body = {
            "ball": EuclideanBall(d, r),
            "lq": ComplexLqBall(d, q, r),
            "polydisc": ComplexLqBall(d, math.inf, r),
            "ellipsoid": ComplexEllipsoid((r, q)),
            "perturbed": pert2.scaled(r),
        }[kind]
        xi = unit_directions(vec)[0]
        w = np.array([-xi[2], xi[3], xi[0], -xi[1]])
        expect = math.pi * float(body.radial(w)) ** 2
        assert section_values(body, xi)[0] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["ball", "lq3", "ell", "pert"])
    @given(r=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_scaling_covariance(self, n, name, r, seed):
        # rho_{rK} = r rho_K, so every section scales by r^(2n-2)
        body = _bodies_by_kind()[n][name]
        xi = unit_vectors(np.random.default_rng(seed), 1, 2 * n)
        expect = r ** (2 * n - 2) * section_values(body, xi)[0]
        assert section_values(body.scaled(r), xi)[0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["ball", "lq3", "polydisc", "ell", "pert"])
    @given(t=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_complex_line_invariance(self, n, name, t, seed):
        # every unit vector cos t xi + sin t J xi of the complex line through
        # xi has the same complex hyperplane, hence the same section
        body = _bodies_by_kind()[n][name]
        xi = unit_vectors(np.random.default_rng(seed), 1, 2 * n)
        turned = math.cos(t) * xi + math.sin(t) * complex_structure(xi)
        assert section_values(body, turned)[0] == pytest.approx(section_values(body, xi)[0],
                                                                rel=1e-10)

    def test_n3_rules_beat_product_rules(self):
        # against a level-200 torus reference, over the moduli lattice
        # {sqrt(k/4)} (axes and edges included) with random phases plus random
        # directions: full level (torus 32) vs product level 24, scan level
        # (torus 16) vs product level 12
        rng = np.random.default_rng(8)
        comps = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
        mods = np.sqrt(np.array(comps, dtype=float) / 4.0)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=mods.shape)
        lattice = np.empty((len(comps), 6))
        lattice[:, 0::2] = mods * np.cos(phases)
        lattice[:, 1::2] = mods * np.sin(phases)
        dirs = np.vstack([lattice, unit_vectors(rng, 16, 6)])
        reference = invariant_sphere_rule(2, 200, nphase=200)
        for body in bodies_n3().values():
            ref = section_values(body, dirs, rule=reference)

            def err(**kw):
                return float(np.max(np.abs(section_values(body, dirs, **kw) / ref - 1.0)))

            floor = 1e-13
            assert err() <= max(err(rule=sphere_rule(4, 24)), floor), body.label
            assert err(scan=True) <= max(err(rule=sphere_rule(4, 12)), floor), body.label


class TestBatchIndependence:
    """A section value depends on the body, the direction and the rule only,
    not on the batch or the chunk it is computed in."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["ball", "lq1", "lq3", "lq4", "polydisc", "ell", "pert"])
    @pytest.mark.parametrize("scan", [False, True])
    def test_batch_single_and_chunked_values_are_equal(self, n, name, scan, monkeypatch):
        body = _bodies_by_kind()[n][name]
        M = sections._section_rule(n, default_config(), scan=scan).node_count
        X = unit_vectors(np.random.default_rng(40 + n), 40, 2 * n)
        batch = section_values(body, X, scan=scan)
        assert np.array_equal(np.array([section_values(body, x, scan=scan)[0] for x in X]), batch)
        for per_chunk in (1, 2, 3):
            monkeypatch.setattr(sections, "CHUNK_ROWS", per_chunk * M)
            assert np.array_equal(section_values(body, X, scan=scan), batch), per_chunk

    def test_one_direction_at_n2_alone_and_in_a_batch(self):
        # at n = 2 the section rule has one node, so a direction alone is a
        # one-point radial call.  Bodies of the moduli only give the same bits
        # alone and in a batch; pert_a's one-point values go through a
        # matrix-vector product and round apart, by at most 2 eps (measured)
        b2 = bodies_n2()
        X = unit_directions(np.random.default_rng(11).normal(size=(3000, 4)))
        for name in ("ball", "lq3", "polydisc", "ell_1_2", "pert_a"):
            body = b2[name]
            batch = section_values(body, X)
            alone = np.array([section_values(body, x)[0] for x in X])
            if body.phase_bandwidth:
                assert np.max(np.abs(alone / batch - 1.0)) <= 4 * np.finfo(float).eps
            else:
                assert np.array_equal(alone, batch), name

    def test_radial_calls_hold_at_most_one_chunk(self, ball3, monkeypatch):
        # the n = 3 phase grid of the comparison checks: 3,600 directions of
        # 256 scan nodes, 921,600 points
        cfg = default_config()
        grid = direction_grid(3, cfg.moduli_res[3], cfg.phase_res[3], with_phases=True)
        M = sections._section_rule(3, cfg, scan=True).node_count
        assert (grid.size, M) == (3600, 256)
        counter = CountingRadial(monkeypatch)
        section_values(ball3, grid.directions, scan=True)
        assert sum(counter.rows) == grid.size * M
        assert max(counter.rows) <= max(M, CHUNK_ROWS)
        # a rule larger than a chunk: one direction per call
        monkeypatch.setattr(sections, "CHUNK_ROWS", M - 1)
        counter.rows.clear()
        section_values(ball3, grid.directions[:5], scan=True)
        assert counter.rows == [M] * 5

    def test_refined_gap_values_are_one_row_values(self):
        # the start value of the pattern search comes from the batched grid
        # scan; it, and the refined value, equal a one-direction evaluation
        cfg = default_config()
        K, L = bodies_n3()["pert"], ComplexLqBall(ComplexDim(3), 2.85)

        def gap(X):
            return section_values(K, X, scan=True) - section_values(L, X, scan=True)

        grid = direction_grid(3, cfg.moduli_res[3], cfg.phase_res[3], with_phases=True)
        values = gap(grid.directions)
        _, start, value, _ = refine_extremum(lambda X: np.full(len(X), -np.inf), grid, values,
                                             halvings=0)
        assert np.array_equal(start, grid.directions[np.argmax(values)])
        assert value == gap(start)[0]
        _, xi, value, _ = refine_extremum(gap, grid, values, halvings=cfg.refine_halvings)
        assert value == gap(xi)[0]


class TestSectionRuleAtN2:
    @pytest.mark.parametrize("name", ["ball_1.3", "lq1.5", "ell_1.4_0.9", "pert_a", "pert_b"])
    def test_product_level_changes_nothing(self, name):
        # the n = 2 section rule is one node of weight 2 pi at every level
        body = bodies_n2()[name]
        X = unit_vectors(np.random.default_rng(47), 25, 4)
        got = []
        for level in (1, 24):
            cfg = RunConfig(product_levels={2: level, 4: 32, 6: 16, 8: 6})
            assert sections._section_rule(2, cfg).node_count == 1
            got.append((section_values(body, X, config=cfg),
                        *section_volume_direct(body, X, config=cfg)))
        for a, b in zip(*got):
            assert np.array_equal(a, b)


def _perturbation(n, degrees, bound):
    """A strategy for perturbation terms: every invariant harmonic of the
    given degrees at S^{2n-1}, each with a coefficient in [-bound, bound]."""
    slots = [(j, ell) for j in degrees for ell in range(invariant_harmonic_dim(n, j))]
    return st.lists(st.floats(-bound, bound), min_size=len(slots), max_size=len(slots)).map(
        lambda cs: tuple((j, ell, c) for (j, ell), c in zip(slots, cs)))


def _certified(n, r, terms):
    try:
        return PerturbedBall(ComplexDim(n), r, terms)
    except ConvexityError:
        assume(False)


class TestFourierAgainstDirect:
    """Both section routes on random certified perturbed bodies.

    Where rho^{2n-2} has degree <= jmax the transform is exact up to rounding
    and its noise floor: coefficients below 1e-12 of the L2 norm are dropped
    (``harmonics._NOISE_FLOOR``).  Measured: <= 1.3e-14 relative at n = 2 on
    draws with |c| up to 0.02; at n = 3, where rho^4's degree-8 coefficients
    are of order c^4 and fall near the floor, 1.1e-12 (1.5e-14 with the floor
    at 0); at n = 2 with one term near 1e-9, 1.2e-12.
    """

    @given(r=st.floats(0.8, 1.25), terms=_perturbation(2, (2, 4), 0.02), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_n2_routes_agree_to_rounding(self, r, terms, seed):
        # the direct route is the exact disc pi rho(v)^2, and rho^2 has
        # degree <= 8 <= jmax 16
        body = _certified(2, r, terms)
        X = unit_vectors(np.random.default_rng(seed), 6, 4)
        fourier, _ = section_volume_fourier(body, X, ft_norm_power(body, 2.0, jmax=16))
        assert np.max(np.abs(fourier / section_values(body, X) - 1.0)) <= 1e-10

    @given(r=st.floats(0.8, 1.25), terms=_perturbation(3, (2,), 0.02), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_n3_routes_agree_within_the_direct_estimate(self, r, terms, seed):
        # rho^4 has degree 8 <= jmax 12; the direct route's refinement
        # difference bounds its own error
        body = _certified(3, r, terms)
        X = unit_vectors(np.random.default_rng(seed), 6, 6)
        fourier, _ = section_volume_fourier(body, X, ft_norm_power(body, 4.0, jmax=12))
        direct, err = section_volume_direct(body, X)
        assert np.all(np.abs(fourier - direct) <= 3.0 * err + 1e-10 * direct)


class TestSectionFourier:
    def test_ball_n2(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=8)
        values, errors = section_volume_fourier(ball2, [1.0, 0, 0, 0], ft)
        assert values.shape == errors.shape == (1,)
        assert values[0] == pytest.approx(math.pi, rel=1e-12)

    def test_ball_n3(self, ball3):
        ft = ft_norm_power(ball3, 4.0, jmax=8)
        values, _ = section_volume_fourier(ball3, [1.0, 0, 0, 0, 0, 0], ft)
        assert values[0] == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_ellipsoid_agrees_with_direct(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=16)
        values, _ = section_volume_fourier(ell12, [3.0, 0, 0, 0], ft)
        assert values[0] == pytest.approx(4 * math.pi, rel=5e-3)

    def test_batch_is_the_scaled_transform_and_tail(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=16)
        X = unit_vectors(np.random.default_rng(11), 6, 4)
        values, errors = section_volume_fourier(ell12, 2.5 * X, ft)
        X = unit_directions(2.5 * X)
        assert np.array_equal(values, ft.evaluate(X) / (4 * math.pi))
        assert np.array_equal(errors, np.abs(ft.tail_values(X)) / (4 * math.pi))

    def test_requires_matching_exponent(self, ball2):
        ft = ft_norm_power(ball2, 1.0, jmax=4)
        with pytest.raises(InvalidInputError):
            section_volume_fourier(ball2, [1.0, 0, 0, 0], ft)

    def test_bad_direction_raises(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=4)
        with pytest.raises(InvalidInputError):
            section_volume_fourier(ball2, [[1.0, 0, 0, 0], [0.0, 0, 0, 0]], ft)


class TestVolume:
    def test_ball_volumes(self, ball2, ball3):
        assert volume(ball2) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
        assert volume(ball3) == pytest.approx(math.pi ** 3 / 6, rel=1e-12)

    def test_polydisc_volume(self, polydisc2):
        assert volume(polydisc2) == pytest.approx(math.pi ** 2, rel=1e-4)

    def test_ellipsoid_volume(self, ell12):
        assert volume(ell12) == pytest.approx(2 * math.pi ** 2, rel=1e-12)

    def test_lq_volume_against_slice_oracle(self):
        # reduce over moduli: Vol = pi^2 * area{u, v >= 0 : u^{q/2} + v^{q/2} <= 1}
        q = 3.0
        body = ComplexLqBall(ComplexDim(2), q)
        u = np.linspace(0.0, 1.0, 2_000_001)
        area = trapezoid((1.0 - u ** (q / 2)) ** (2.0 / q), u)
        assert volume(body) == pytest.approx(math.pi ** 2 * area, rel=1e-8)

    def test_generic_rule_path_matches_reduced(self, ell12):
        # smooth rational integrand: product rule at default level carries a
        # ~1e-10 relative error, the reduced high-level rule is the reference
        generic = volume(ell12, rule=sphere_rule(4, 24))
        assert generic == pytest.approx(volume(ell12), rel=1e-9)

    def test_perturbed_volume_exact_under_both_rules(self, pert2):
        bw = pert2.phase_bandwidth
        assert bw == 2  # top degree 4
        reduced = volume(pert2)
        generic = volume(pert2, rule=sphere_rule(4, 24))
        assert reduced == pytest.approx(generic, rel=1e-12)

    def test_scaling_covariance(self, ell12):
        r = 1.31
        assert volume(ell12.scaled(r)) == pytest.approx(r ** 4 * volume(ell12), rel=1e-12)

    def test_error_estimate_brackets_truth(self, polydisc2):
        value, err = volume_with_error(polydisc2)
        assert abs(value - math.pi ** 2) <= max(10 * err, 1e-4)

    def test_dimension_mismatch(self, ball3):
        with pytest.raises(InvalidInputError):
            volume(ball3, rule=sphere_rule(4, 8))


class TestRadialPowerRule:
    """The phase count 2n*bw + 1, bw = max j/2, is sufficient and needed."""

    @pytest.mark.parametrize("name, n, level", [
        ("pert_a", 2, None),
        ("pert_b", 2, None),
        # phases are integrated exactly at any moduli level; the doubled rule
        # at the configured n=3 level would have 4,326,400 nodes
        ("pert", 3, 48),
    ])
    def test_matches_doubled_phase_count(self, name, n, level):
        body = (bodies_n2() if n == 2 else bodies_n3())[name]
        level = level or default_config().reduced_level(n)
        doubled = invariant_sphere_rule(n, level, nphase=2 * n * 2 * body.phase_bandwidth + 1)
        assert volume(body, rule=radial_power_rule(level, body)) == pytest.approx(
            volume(body, rule=doubled), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_volume_through_factors_matches_node_path(self, n):
        for body in (bodies_n2() if n == 2 else bodies_n3()).values():
            rule = radial_power_rule(24, body)
            ref = integrate_sphere(body.radial(rule.nodes) ** (2 * n), rule) / (2 * n)
            got = volume(body, rule=rule)
            if body.phase_bandwidth:
                assert got == pytest.approx(ref, rel=1e-14), body.label
            else:  # one phase: radial at the same points, summed in the same order
                assert got == ref, body.label

    def test_one_phase_fewer_aliases(self):
        body = bodies_n2()["pert_b"]
        level = default_config().reduced_level(2)
        exact = volume(body, rule=radial_power_rule(level, body))
        short = volume(body, rule=invariant_sphere_rule(2, level, nphase=4 * body.phase_bandwidth))
        assert abs(short / exact - 1.0) > 1e-10  # measured 9.6e-9

    def test_bandwidths_and_phase_counts(self):
        b2, b3 = bodies_n2(), bodies_n3()
        assert (b2["pert_a"].phase_bandwidth, b2["pert_b"].phase_bandwidth,
                b3["pert"].phase_bandwidth) == (2, 1, 1)
        for body in list(b2.values()) + list(b3.values()):
            if not isinstance(body, PerturbedBall):
                assert body.phase_bandwidth == 0
                assert radial_power_rule(8, body).phases.shape[0] == 1
        # a pair takes the larger bandwidth
        assert radial_power_rule(8, b2["ball"], b2["pert_a"]).phases.shape[0] == 9

    def test_n3_node_counts(self):
        body = bodies_n3()["pert"]
        level = default_config().reduced_level(3)
        assert radial_power_rule(level, body).node_count == 1_254_400
        assert radial_power_rule(level + max(8, level // 8), body).node_count == 1_587_600


class TestInradius:
    def test_ball(self, ball2):
        assert inradius_normalized(ball2) == pytest.approx(
            (math.pi ** 2 / 2) ** -0.25, rel=1e-10)

    def test_scale_invariance(self, ell12):
        a = inradius_normalized(ell12)
        b = inradius_normalized(ell12.scaled(2.3))
        assert a == pytest.approx(b, rel=1e-10)

    def test_ellipsoid(self, ell12):
        # min radius 1, volume 2 pi^2
        assert inradius_normalized(ell12) == pytest.approx(
            (2 * math.pi ** 2) ** -0.25, rel=1e-8)

    def test_lq1_minimum_on_diagonal(self):
        body = ComplexLqBall(ComplexDim(2), 1.0)
        # min rho = 1/sqrt(2), volume = pi^2 * 2^2 / 4! = pi^2/6
        expect = (1.0 / math.sqrt(2.0)) / (math.pi ** 2 / 6.0) ** 0.25
        assert inradius_normalized(body) == pytest.approx(expect, rel=1e-6)


class TestDefaultConfig:
    def test_config_less_calls_share_one_unchanged_default(self, monkeypatch):
        body = _bodies_by_kind()[3]["ell"]
        xi = unit_vectors(np.random.default_rng(8), 1, 6)[0]
        calls = [
            lambda **kw: section_values(body, xi, **kw)[0],
            lambda **kw: section_volume_direct(body, xi, **kw)[0][0],
            lambda **kw: volume(body, **kw),
            lambda **kw: volume_with_error(body, **kw),
            lambda **kw: min_radial(body, **kw)[0],
            lambda **kw: inradius_normalized(body, **kw),
        ]
        explicit = [call(config=default_config()) for call in calls]
        monkeypatch.setattr(sections, "default_config", None)  # no fresh config per call
        assert [call() for call in calls] == explicit
        assert sections._DEFAULT_CONFIG == RunConfig()
