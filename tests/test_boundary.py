"""Inputs are checked at the public entries; the kernels behind them take
their callers' points unchecked and give the same bits."""
import functools
import math

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    PerturbedBall,
    QuadratureRule,
    VerificationContext,
    hyperplane_basis,
    invariant_harmonic_basis,
    invariant_sphere_rule,
    mc_volume,
    section_gap,
    section_volume_direct,
    sphere_rule,
    volume,
)
from cxsect import grids, sections
from cxsect.config import default_config
from cxsect.sections import section_values
from cxsect.suite import bodies_n2, bodies_n3

from conftest import unit_vectors


@functools.cache
def suite_bodies():
    return {(n, name): body for n, make in ((2, bodies_n2), (3, bodies_n3))
            for name, body in make().items()}


SUITE = sorted(suite_bodies(), key=lambda key: (key[0], key[1]))
SUITE_IDS = [f"{name}-n{n}" for n, name in SUITE]


def kinds(n):
    """One body of each kind at complex dimension n."""
    d = ComplexDim(n)
    return {"ball": EuclideanBall(d, 1.1), "lq": ComplexLqBall(d, 3.0),
            "polydisc": ComplexLqBall(d, math.inf),
            "ellipsoid": ComplexEllipsoid((1.0, 2.0) if n == 2 else (1.0, 1.5, 2.0)),
            "perturbed": suite_bodies()[(n, "pert_a" if n == 2 else "pert")]}


def bad_points(bad, N):
    """Three points on S^{N-1} with the second one spoilt, or rows of another width."""
    theta = unit_vectors(np.random.default_rng(50), 3, N)
    if bad == "zero":
        theta[1] = 0.0
    elif bad == "non_unit":
        theta[1] *= 1.0 + 1e-6
    elif bad == "nan":
        theta[1, 2] = np.nan
    elif bad == "inf":
        theta[1, 2] = np.inf
    else:  # "width"
        theta = unit_vectors(np.random.default_rng(50), 3, N + 2)
    return theta


POINT_DEFECTS = ["zero", "non_unit", "nan", "inf", "width"]


class TestPublicEntriesReject:
    """Every public entry keeps its checks: the kernels behind it do not check."""

    @pytest.mark.parametrize("bad", POINT_DEFECTS)
    @pytest.mark.parametrize("kind", ["ball", "lq", "polydisc", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_radial(self, n, kind, bad):
        body = kinds(n)[kind]
        assert np.all(body.radial(unit_vectors(np.random.default_rng(50), 3, 2 * n)) > 0)
        with pytest.raises(InvalidInputError):
            body.radial(bad_points(bad, 2 * n))

    @pytest.mark.parametrize("bad", ["nan", "inf", "width"])
    @pytest.mark.parametrize("kind", ["ball", "lq", "polydisc", "ellipsoid", "perturbed"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_norm(self, n, kind, bad):
        # the norm is defined off the sphere and at 0: only those three reject
        body = kinds(n)[kind]
        for fine in ("zero", "non_unit"):
            assert np.all(np.isfinite(body.norm(bad_points(fine, 2 * n))))
        with pytest.raises(InvalidInputError):
            body.norm(bad_points(bad, 2 * n))

    @pytest.mark.parametrize("bad", POINT_DEFECTS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_radial_profile_evaluate_and_tail_values(self, n, bad):
        body = kinds(n)["perturbed"]
        expansion = body.perturbation
        theta = bad_points(bad, 2 * n)
        for entry in (body.radial_profile, expansion.evaluate, expansion.tail_values):
            with pytest.raises(InvalidInputError):
                entry(theta)
            with pytest.raises(InvalidInputError):  # the spoilt row alone
                entry(theta[1])

    @pytest.mark.parametrize("entry", ["section_values", "section_volume_direct"])
    @pytest.mark.parametrize("bad", ["zero", "odd", "nan", "inf", "width"])
    def test_section_directions(self, ball3, entry, bad):
        fn = section_values if entry == "section_values" else section_volume_direct
        dirs = unit_vectors(np.random.default_rng(51), 3, 6) * 2.0  # normalized on entry
        fn(ball3, dirs)
        if bad == "zero":
            dirs[1] = 0.0
        elif bad == "odd":
            dirs = dirs[:, :5]
        elif bad == "nan":
            dirs[1, 0] = np.nan
        elif bad == "inf":
            dirs[1, 0] = np.inf
        else:  # an even length of another dimension
            dirs = dirs[:, :4]
        with pytest.raises(InvalidInputError):
            fn(ball3, dirs)

    def test_section_rule_of_another_sphere(self, ball3):
        xi = np.array([1.0, 0, 0, 0, 0, 0])
        for rule in (sphere_rule(2, 8), sphere_rule(6, 4)):
            with pytest.raises(InvalidInputError):
                section_values(ball3, xi, rule=rule)

    @pytest.mark.parametrize("kind", ["ball", "lq", "polydisc", "ellipsoid", "perturbed"])
    def test_factor_radial_and_volume_rule_of_another_sphere(self, kind):
        # factor_radial takes the rule's unit base rows as checked; the one
        # comparison left is the rule's sphere against the body's
        body = kinds(2)[kind]
        assert np.all(body.factor_radial(invariant_sphere_rule(2, 8, 5)) > 0)
        for rule in (invariant_sphere_rule(3, 8, 5), sphere_rule(6, 4), sphere_rule(2, 8)):
            with pytest.raises(InvalidInputError, match="expected a rule on S\\^3"):
                body.factor_radial(rule)
            with pytest.raises(InvalidInputError):
                volume(body, rule=rule)

    def test_section_gap_of_two_dimensions(self, ball2, ball3):
        # the gap's kernels take the pair's bases unchecked, so the pair is
        # checked first (a NumPy broadcast error before)
        for K, L in ((ball2, ball3), (ball3, ball2)):
            with pytest.raises(InvalidInputError, match="share a dimension"):
                section_gap(K, L)

    @pytest.mark.parametrize("samples", [9_999, 0, -1, 1e5 + 0.5, True, "100000", None])
    def test_mc_volume_samples(self, ball2, samples):
        with pytest.raises(InvalidInputError):
            mc_volume(ball2, samples, seed=0)


def unit_row_entries():
    """The entries that take unit rows, each called on points (M, 4)."""
    return {
        "QuadratureRule": lambda X: QuadratureRule(4, X.view(complex), (1, 1), np.ones(len(X)), 1, 1),
        "HarmonicExpansion.evaluate": kinds(2)["perturbed"].perturbation.evaluate,
        "HarmonicBasis.evaluate": invariant_harmonic_basis(4, 2).evaluate,
        "ConvexBody.radial": kinds(2)["ellipsoid"].radial,
    }


class TestUnitLength:
    """Every entry that takes unit rows runs the one unit-length test
    (``spherequad._all_unit``): within 1e-8 of unit length, and a nan row is
    not."""

    @pytest.mark.parametrize("scale", [1.0 + 2e-8, 1.0 - 2e-8, np.nan])
    @pytest.mark.parametrize("entry", sorted(unit_row_entries()))
    def test_rejects(self, entry, scale):
        X = unit_vectors(np.random.default_rng(54), 3, 4)
        X[1] *= scale
        with pytest.raises(InvalidInputError):
            unit_row_entries()[entry](X)

    @pytest.mark.parametrize("scale", [1.0 + 5e-9, 1.0 - 5e-9])
    @pytest.mark.parametrize("entry", sorted(unit_row_entries()))
    def test_accepts(self, entry, scale):
        X = unit_vectors(np.random.default_rng(54), 3, 4)
        X[1] *= scale
        unit_row_entries()[entry](X)


class TestKernelPaths:
    """On every suite body the kernels give the bits of the public entries."""

    @pytest.mark.parametrize("key", SUITE, ids=SUITE_IDS)
    def test_radial_and_norm_kernels(self, key):
        body = suite_bodies()[key]
        N = body.dim.N
        theta = unit_vectors(np.random.default_rng(52), 500, N)
        assert np.array_equal(body._radial_impl(theta), body.radial(theta))
        one = body._radial_impl(theta[0])
        assert type(one) is type(body.radial(theta[0])) and one == body.radial(theta[0])
        x = 1.7 * theta.reshape(10, 50, N)
        x[0, 0] = 0.0
        assert np.array_equal(body._norm_impl(x), body.norm(x))
        if isinstance(body, PerturbedBall):
            assert np.array_equal(body._radial_impl(theta), body.radial_profile(theta))
            expansion = body.perturbation
            assert np.array_equal(expansion._unit_row_values(theta), expansion.evaluate(theta))
            top = expansion.degrees()[-2:]
            assert np.array_equal(expansion._unit_row_values(theta, top),
                                  expansion.tail_values(theta))

    @pytest.mark.parametrize("key", SUITE, ids=SUITE_IDS)
    def test_section_kernel_on_stacked_bases(self, key):
        body = suite_bodies()[key]
        n, cfg = body.dim.n, default_config()
        X = unit_vectors(np.random.default_rng(53), 7, 2 * n)
        bases = hyperplane_basis(X)
        for scan in (False, True):
            rule = sections._section_rule(n, cfg, scan=scan)
            assert np.array_equal(sections._section_sums(body, bases, rule),
                                  section_values(body, X, scan=scan)), scan
        got = sections._direct_on_bases(body, bases, cfg)
        ref = section_volume_direct(body, X)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def gap_pairs():
    b2, b3 = bodies_n2(), bodies_n3()
    return {"ell-ball": (b2["ell_1_2"], b2["ball_1.3"]),
            "pert-lq3": (b2["pert_a"], b2["lq3"]),
            "lq3-ellipsoid n=3": (b3["lq3"], b3["ell_1_1.5_2"])}


class TestOneBasisPerBatch:
    @pytest.mark.parametrize("pair", sorted(gap_pairs()))
    def test_one_hyperplane_basis_per_refinement_batch(self, pair, monkeypatch):
        # both bodies share the bases of a refinement batch, and one more set
        # at the maximizer serves both bodies and both levels
        K, L = gap_pairs()[pair]
        ctx = VerificationContext()
        with_phases = max(K.phase_bandwidth, L.phase_bandwidth) != 0
        for body in (K, L):  # the grid scans, outside the count
            ctx.section_grid_values(body, with_phases)
        built, batches = [], []
        real_basis, real_refine = sections.hyperplane_basis, grids.refine_extremum

        def basis(dirs):
            built.append(np.atleast_2d(dirs).shape[0])
            return real_basis(dirs)

        def refine(fn, *args, **kwargs):
            def counted(X):
                batches.append(len(X))
                return fn(X)
            return real_refine(counted, *args, **kwargs)

        monkeypatch.setattr(sections, "hyperplane_basis", basis)
        monkeypatch.setattr(grids, "refine_extremum", refine)
        gap = ctx.gap(K, L)
        assert batches and built == batches + [1]
        assert sum(batches) == gap.evaluations - gap.grid_points

    @pytest.mark.parametrize("pair", sorted(gap_pairs()))
    def test_gap_is_the_difference_of_the_public_sections(self, pair):
        # the shared bases give the bits of each body's own public evaluation
        K, L = gap_pairs()[pair]
        gap = VerificationContext().gap(K, L)
        xi = np.array(gap.argmax_xi)
        (vK,), (eK,) = section_volume_direct(K, xi)
        (vL,), (eL,) = section_volume_direct(L, xi)
        assert gap.refined_max == float(vK - vL) and gap.error == float(eK + eL)
