import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    PerturbedBall,
    complex_structure,
    direction,
    ft_norm_power,
    hyperplane_basis,
    inradius_normalized,
    invariant_sphere_rule,
    rotate_pairs,
    section_volume_direct,
    section_volume_fourier,
    sphere_rule,
    volume,
)
from cxsect.config import default_config
from cxsect.sections import Direction, radial_power_rule, section_values, volume_with_error
from cxsect.suite import bodies_n2, bodies_n3

from conftest import unit_vectors


@functools.cache
def _bodies_by_kind():
    # one body of each kind at n = 2 and n = 3, taken from the suite
    b2, b3 = bodies_n2(), bodies_n3()
    return {2: {"ball": b2["ball"], "lq3": b2["lq3"], "polydisc": b2["polydisc"],
                "ell": b2["ell_1_2"], "pert": b2["pert_a"]},
            3: {"ball": b3["ball"], "lq3": b3["lq3"], "polydisc": b3["polydisc"],
                "ell": b3["ell_1_1.5_2"], "pert": b3["pert"]}}


class TestDirection:
    def test_requires_unit_length(self):
        with pytest.raises(InvalidInputError):
            Direction(np.array([1.0, 1.0, 0, 0]))

    def test_normalizing_factory(self):
        d = direction([3.0, 0, 4.0, 0])
        assert np.linalg.norm(d.xi) == pytest.approx(1.0, abs=1e-15)
        assert d.jxi @ d.xi == 0.0

    def test_jxi_is_complex_structure(self):
        d = direction(np.random.default_rng(0).normal(size=6))
        assert np.array_equal(d.jxi, complex_structure(d.xi))
        assert np.linalg.norm(d.jxi) == pytest.approx(1.0, abs=1e-14)


class TestHyperplaneBasis:
    def test_coordinate_direction_n2(self):
        sub = hyperplane_basis(direction([1.0, 0, 0, 0]))
        expect = np.zeros((2, 4))
        expect[0, 2] = expect[1, 3] = 1.0
        assert np.allclose(sub.basis, expect)

    def test_coordinate_direction_n3(self):
        sub = hyperplane_basis(direction([1.0, 0, 0, 0, 0, 0]))
        assert sub.basis.shape == (4, 6)
        assert np.allclose(sub.basis[:, :2], 0.0)
        assert np.allclose(sub.basis @ sub.basis.T, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_random_direction(self, seed):
        rng = np.random.default_rng(seed)
        d = direction(rng.normal(size=6))
        sub = hyperplane_basis(d)
        B = sub.basis
        assert np.abs(B @ B.T - np.eye(4)).max() < 1e-13
        assert np.abs(B @ d.xi).max() < 1e-13
        assert np.abs(B @ d.jxi).max() < 1e-13
        # J-closedness: J of every basis vector stays in the span
        JB = complex_structure(B)
        residual = JB - (JB @ B.T) @ B
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_are_j_paired(self, n):
        # random directions, exact axes, and directions within 1e-12..1e-3 of an axis
        rng = np.random.default_rng(n)
        dirs = list(unit_vectors(rng, 200, 2 * n))
        for k in range(2 * n):
            for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                v = eps * rng.normal(size=2 * n)
                v[k] += 1.0
                dirs.append(v)
        for v in dirs:
            B = hyperplane_basis(v).basis
            assert np.abs(B[1::2] - complex_structure(B[0::2])).max() <= 1e-13
            assert np.abs(B @ B.T - np.eye(2 * n - 2)).max() < 1e-13

    def test_same_complex_line_same_basis(self):
        rng = np.random.default_rng(3)
        d = direction(rng.normal(size=4))
        t = 1.234
        d2 = Direction(math.cos(t) * d.xi + math.sin(t) * d.jxi)
        a = hyperplane_basis(d).basis
        b = hyperplane_basis(d2).basis
        assert np.abs(a - b).max() < 1e-12


class TestSectionDirect:
    def test_ball_section_is_disc(self, ball2):
        rep = section_volume_direct(ball2, direction([1.0, 0, 0, 0]))
        assert rep.value == pytest.approx(math.pi, rel=1e-13)

    def test_ball3_section_is_four_ball(self, ball3):
        rep = section_volume_direct(ball3, direction([0, 0, 1.0, 0, 0, 0]))
        assert rep.value == pytest.approx(math.pi ** 2 / 2, rel=1e-13)

    def test_ellipsoid_section_at_axis(self, ell12):
        rep = section_volume_direct(ell12, direction([1.0, 0, 0, 0]))
        assert rep.value == pytest.approx(4 * math.pi, rel=1e-12)

    def test_polydisc_section_at_axis(self, polydisc2):
        rep = section_volume_direct(polydisc2, direction([1.0, 0, 0, 0]))
        assert rep.value == pytest.approx(math.pi, rel=1e-10)

    def test_ellipsoid_closed_form_general_direction(self):
        # section volume of a Hermitian ellipsoid: pi * (prod a_k^2) / sum a_k^2 |xi_k|^2
        ell = ComplexEllipsoid((1.0, 2.0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            d = direction(rng.normal(size=4))
            u = d.xi[0::2] ** 2 + d.xi[1::2] ** 2
            expect = math.pi * 4.0 / (u @ np.array([1.0, 4.0]))
            assert section_volume_direct(ell, d).value == pytest.approx(expect, rel=1e-10)

    def test_ellipsoid_closed_form_general_direction_n3(self):
        # pi^2/2 * (prod a_k^2) / sum a_k^2 |xi_k|^2
        a = np.array([1.0, 1.5, 2.0])
        ell = ComplexEllipsoid(tuple(a))
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = direction(rng.normal(size=6))
            u = d.xi[0::2] ** 2 + d.xi[1::2] ** 2
            expect = math.pi ** 2 / 2 * np.prod(a ** 2) / (u @ a ** 2)
            assert section_volume_direct(ell, d).value == pytest.approx(expect, rel=1e-10)

    def test_complex_line_invariance(self, pert2):
        rng = np.random.default_rng(2)
        d = direction(rng.normal(size=4))
        t = 0.77
        d2 = Direction(math.cos(t) * d.xi + math.sin(t) * d.jxi)
        v1 = section_volume_direct(pert2, d).value
        v2 = section_volume_direct(pert2, d2).value
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_rotation_invariance_of_sections(self, ell12):
        d = direction(np.random.default_rng(3).normal(size=4))
        d2 = Direction(rotate_pairs(d.xi, 1.1))
        v1 = section_volume_direct(ell12, d).value
        v2 = section_volume_direct(ell12, d2).value
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_batch_matches_single(self, ell12):
        dirs = unit_vectors(np.random.default_rng(4), 6, 4)
        batch = section_values(ell12, dirs)
        singles = [section_values(ell12, v)[0] for v in dirs]
        assert np.allclose(batch, singles, rtol=1e-13)


class _CountingBody:
    """Delegates to a body and records how many points radial() sees."""

    def __init__(self, body):
        self.body, self.dim, self.label, self.points = body, body.dim, body.label, 0

    def radial(self, theta):
        self.points += theta.shape[0]
        return self.body.radial(theta)


class TestSectionKernel:
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
        xi = direction(vec).xi
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


class TestSectionFourier:
    def test_ball_n2(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=8)
        rep = section_volume_fourier(ball2, direction([1.0, 0, 0, 0]), ft)
        assert rep.value == pytest.approx(math.pi, rel=1e-12)

    def test_ball_n3(self, ball3):
        ft = ft_norm_power(ball3, 4.0, jmax=8)
        rep = section_volume_fourier(ball3, direction([1.0, 0, 0, 0, 0, 0]), ft)
        assert rep.value == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_ellipsoid_agrees_with_direct(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=16)
        d = direction([1.0, 0, 0, 0])
        rep = section_volume_fourier(ell12, d, ft)
        assert rep.value == pytest.approx(4 * math.pi, rel=5e-3)

    def test_requires_matching_exponent(self, ball2):
        ft = ft_norm_power(ball2, 1.0, jmax=4)
        with pytest.raises(InvalidInputError):
            section_volume_fourier(ball2, direction([1.0, 0, 0, 0]), ft)


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
        area = np.trapezoid((1.0 - u ** (q / 2)) ** (2.0 / q), u)
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
                assert radial_power_rule(8, body).meta == (("nphase", 1),)
        # a pair takes the larger bandwidth
        assert radial_power_rule(8, b2["ball"], b2["pert_a"]).meta == (("nphase", 9),)

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
