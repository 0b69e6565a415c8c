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
    VerificationContext,
    corollary1_verify,
    ft_norm_power,
    gamma_lemma_check,
    inradius_normalized,
    integrate_sphere,
    mc_volume,
    parseval_check,
    positivity_check,
    section_gap,
    separation_verify,
    stability_verify,
)
from cxsect import grids, sections, spherequad, theorems
from cxsect.grids import refine_extremum
from cxsect.config import default_config
from cxsect.harmonics import expansion_rule


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


d2 = ComplexDim(2)
d3 = ComplexDim(3)


class TestSectionGap:
    def test_identical_bodies(self, ctx, ball2):
        assert section_gap(ball2, ball2, context=ctx).epsilon == 0.0

    def test_scaled_ball_gap(self, ctx, ball2):
        # sections pi * 1.21 vs pi: gap 0.21 pi
        gap = section_gap(EuclideanBall(d2, 1.1), ball2, context=ctx)
        assert gap.epsilon == pytest.approx(0.21 * math.pi, rel=1e-10)

    def test_dominated_body_clamps_to_zero(self, ctx, ball2):
        gap = section_gap(ball2, EuclideanBall(d2, 1.1), context=ctx)
        assert gap.epsilon == 0.0
        assert gap.refined_max < 0

    def test_ball_below_polydisc(self, ctx, ball2, polydisc2):
        # polydisc sections are at least pi, with equality at the coordinate axes
        gap = section_gap(ball2, polydisc2, context=ctx)
        assert gap.epsilon <= 1e-8


class TestStability:
    def test_equal_bodies_margin_zero(self, ctx, ball2):
        rep = stability_verify(ball2, ball2, context=ctx)
        assert rep.passed and rep.epsilon == 0.0 and rep.margin == 0.0

    def test_scaled_ball_golden_numbers(self, ctx, ball2):
        rep = stability_verify(EuclideanBall(d2, 1.1), ball2, context=ctx)
        assert rep.epsilon == pytest.approx(0.21 * math.pi, rel=1e-9)
        assert rep.lhs == pytest.approx(1.1 ** 2 * math.pi / math.sqrt(2), rel=1e-10)
        assert rep.rhs == pytest.approx(math.pi / math.sqrt(2) + 0.21 * math.pi, rel=1e-9)
        assert rep.margin == pytest.approx(0.1933, abs=2e-4)
        assert rep.passed

    def test_ball_vs_polydisc(self, ctx, ball2, polydisc2):
        rep = stability_verify(ball2, polydisc2, context=ctx)
        assert rep.passed and rep.margin > 0

    def test_dimension_guard(self, ctx):
        with pytest.raises(InvalidInputError):
            stability_verify(EuclideanBall(ComplexDim(4), 1.0),
                             EuclideanBall(ComplexDim(4), 1.0), context=ctx)

    def test_mixed_dimensions_rejected(self, ctx, ball2, ball3):
        with pytest.raises(InvalidInputError):
            stability_verify(ball2, ball3, context=ctx)

    def test_invalid_body_rejected(self, ctx, ball2):
        broken = PerturbedBall(d2, 1.0, ((2, 0, 10.0),), certify=False)
        with pytest.raises(InvalidInputError, match="validation"):
            stability_verify(broken, ball2, context=ctx)

    def test_supplied_epsilon_mode(self, ctx, ball2):
        # hypothesis-driven run: epsilon given by the caller, no grid sweep
        rep = stability_verify(EuclideanBall(d2, 1.1), ball2, context=ctx,
                               epsilon=0.21 * math.pi)
        assert rep.passed
        assert rep.extra.get("epsilon_source") == "supplied"
        assert rep.epsilon == pytest.approx(0.21 * math.pi)
        too_small = stability_verify(EuclideanBall(d2, 1.1), ball2, context=ctx,
                                     epsilon=0.0)
        assert not too_small.passed  # false hypothesis, conclusion fails

    def test_supplied_epsilon_rejects_negative(self, ctx, ball2):
        with pytest.raises(InvalidInputError):
            stability_verify(ball2, ball2, context=ctx, epsilon=-1.0)

    def test_scale_consistency_of_pass_flag(self, ctx, ell12, ball2):
        base = stability_verify(ell12, ball2.scaled(1.4), context=ctx)
        scaled = stability_verify(ell12.scaled(1.7), ball2.scaled(1.4 * 1.7), context=ctx)
        r = 1.7 ** 2  # both sides scale by r^{2n-2} = r^2 at n=2
        assert scaled.epsilon == pytest.approx(r * base.epsilon, rel=1e-9)
        assert scaled.lhs == pytest.approx(r * base.lhs, rel=1e-10)
        assert scaled.passed == base.passed


class TestCorollary1:
    def test_equal_bodies(self, ctx, ball2):
        rep = corollary1_verify(ball2, ball2, context=ctx)
        assert rep.passed and rep.volume_difference == 0.0

    def test_scaled_ball_golden_numbers(self, ctx, ball2):
        rep = corollary1_verify(ball2, EuclideanBall(d2, 1.1), context=ctx)
        assert rep.volume_difference == pytest.approx(0.21 * math.pi / math.sqrt(2), rel=1e-9)
        assert rep.max_section_difference == pytest.approx(0.21 * math.pi, rel=1e-9)
        assert rep.passed

    def test_asymmetric_pair(self, ctx, ball2, polydisc2):
        rep = corollary1_verify(ball2, polydisc2, context=ctx)
        assert rep.passed
        assert rep.forward.passed and rep.reverse.passed


class TestSeparation:
    def test_scaled_ball_equality_n2(self, ctx, ball2):
        rep = separation_verify(ball2, EuclideanBall(d2, 1.2), context=ctx)
        assert not rep.degenerate
        assert rep.epsilon == pytest.approx((1.2 ** 2 - 1) * math.pi, rel=1e-10)
        assert rep.inradius_sq == pytest.approx(math.sqrt(2) / math.pi, rel=1e-9)
        assert abs(rep.margin) <= 1e-9
        assert rep.passed

    def test_scaled_ball_equality_n3(self, ctx, ball3):
        rep = separation_verify(ball3, EuclideanBall(d3, 1.5), context=ctx)
        assert not rep.degenerate and rep.passed
        assert abs(rep.margin) <= 1e-6 * abs(rep.lhs)

    def test_degenerate_labeled(self, ctx, ball2):
        rep = separation_verify(EuclideanBall(d2, 1.2), ball2, context=ctx)
        assert rep.degenerate
        assert rep.epsilon == 0.0
        assert "degenerate" in rep.note

    def test_identical_bodies_degenerate_pass(self, ctx, ball2):
        rep = separation_verify(ball2, ball2, context=ctx)
        assert rep.degenerate and rep.passed

    def test_supplied_epsilon_mode(self, ctx, ball2):
        rep = separation_verify(ball2, EuclideanBall(d2, 1.2), context=ctx,
                                epsilon=(1.2 ** 2 - 1) * math.pi)
        assert rep.passed and not rep.degenerate
        assert "supplied" in rep.note
        assert abs(rep.margin) <= 1e-9


def min_section_difference(K, L, ctx):
    """Minimize section(L) - section(K) directly: the search that separation
    ran before it read the negated gap of (K, L)."""
    cfg = ctx.config
    with_phases = max(K.phase_bandwidth, L.phase_bandwidth) != 0
    grid = ctx.grid(K.dim.n, with_phases)
    values = ctx.section_grid_values(L, with_phases) - ctx.section_grid_values(K, with_phases)

    def fn(X):
        return (sections.section_values(L, X, config=cfg, scan=True)
                - sections.section_values(K, X, config=cfg, scan=True))

    _, xi, _, _ = refine_extremum(fn, grid, values, mode="min",
                                  halvings=cfg.refine_halvings)
    vL, eL = sections.section_volume_direct(L, xi, config=cfg)
    vK, eK = sections.section_volume_direct(K, xi, config=cfg)
    return float(vL[0] - vK[0]), float(eL[0] + eK[0])


class TestOneGapPerPair:
    @pytest.mark.parametrize("pair", ["balls_n2", "ellipsoid_perturbed", "polydisc_n3"])
    def test_separation_is_the_negated_gap_bit_for_bit(self, ctx, ball2, pair):
        K, L = {
            "balls_n2": (ball2, EuclideanBall(d2, 1.2)),
            "ellipsoid_perturbed": (ComplexEllipsoid((1.0, 1.2)),
                                    PerturbedBall(d2, 1.5, ((2, 0, 0.05), (4, 1, 0.02)))),
            "polydisc_n3": (ComplexLqBall(d3, np.inf), EuclideanBall(d3, 1.8)),
        }[pair]
        value, err = min_section_difference(K, L, ctx)
        rep = separation_verify(K, L, context=ctx)
        assert rep.epsilon == max(0.0, value) and not rep.degenerate
        assert ctx.gap(K, L).error == err
        lhs_err = theorems._volume_power_terms(K, ctx)[1]
        rterm_err = theorems._volume_power_terms(L, ctx)[1]
        factor = math.pi * rep.inradius_sq / K.dim.n
        rhs_err = rterm_err + factor * err + 1e-9 * factor * rep.epsilon
        assert rep.tol == ctx.config.tol_multiplier * (lhs_err + rhs_err) \
            + 1e-12 * max(abs(rep.lhs), abs(rep.rhs), 1.0)

    def test_corollary_reuses_the_stability_gap(self, monkeypatch, ell12, ball2):
        context = VerificationContext()
        K, L = ell12, ball2.scaled(1.4)
        calls = []
        real = sections._direct_on_bases
        monkeypatch.setattr(sections, "_direct_on_bases",
                            lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        stability_verify(K, L, context=context)
        assert len(calls) == 2
        corollary1_verify(K, L, context=context)
        assert len(calls) == 4  # the reverse pair only

    def test_evaluations_are_grid_plus_refinement(self, monkeypatch, ell12, ball2):
        context = VerificationContext()
        made = []
        real = grids.refine_extremum
        monkeypatch.setattr(grids, "refine_extremum",
                            lambda *a, **k: made.append(real(*a, **k)) or made[-1])
        gap = section_gap(ell12, ball2, context=context)
        assert len(made) == 1
        assert gap.grid_points == context.grid(2, False).size
        assert gap.evaluations == gap.grid_points + made[0][3]
        assert section_gap(ell12, ball2, context=context) is gap


class TestContextInradius:
    def test_reuses_context_volume(self, monkeypatch):
        body = PerturbedBall(d2, 1.0, ((2, 2, 0.05),))
        context = VerificationContext()
        vol, _ = context.volume(body)
        calls = []
        real = sections.volume
        monkeypatch.setattr(sections, "volume", lambda *a, **k: calls.append(a) or real(*a, **k))
        r = context.inradius(body)
        assert calls == []
        assert r == sections.min_radial(body)[0] / vol ** 0.25
        assert r == pytest.approx(inradius_normalized(body), rel=1e-12)


class TestParseval:
    def test_euclidean_golden(self, ctx, ball2):
        res = parseval_check(ball2, ball2, 2.0)
        exact = 32 * math.pi ** 6
        assert res.lhs == pytest.approx(exact, rel=1e-10)
        assert res.rhs == pytest.approx(exact, rel=1e-10)
        assert res.relative_error <= 1e-10

    def test_scaling_both_sides(self, ball2):
        r = 1.25
        base = parseval_check(ball2, ball2, 2.0)
        scaled = parseval_check(ball2.scaled(r), ball2.scaled(r), 2.0)
        # both sides are homogeneous of total order 2n in the body scale
        assert scaled.lhs == pytest.approx(r ** 4 * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(r ** 4 * base.rhs, rel=1e-10)

    def test_mixed_pair_within_tolerance(self, ball2):
        res = parseval_check(ComplexLqBall(d2, 3.0), ball2, 2.0, jmax=16)
        assert res.relative_error <= 1e-2

    def test_error_decreases_with_jmax(self, ball2, ell12):
        errs = [parseval_check(ell12, ball2, 2.0, jmax=j).relative_error
                for j in (12, 16, 20)]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("pair,jmax", [("ball|ball", 16), ("ell12|lq3", 12), ("ell12|lq3", 20)])
    def test_coefficient_pairing_matches_quadrature(self, ball2, ell12, pair, jmax):
        # lhs is the coefficient pairing; the sphere integral of the two
        # truncated expansions on a rule exact for their product agrees
        K, L = (ball2, ball2) if pair == "ball|ball" else (ell12, ComplexLqBall(d2, 3.0))
        res = parseval_check(K, L, 2.0, jmax=jmax)
        rule = expansion_rule(4, jmax)
        vals = ft_norm_power(K, 2.0, jmax=jmax).evaluate(rule.nodes) \
            * ft_norm_power(L, 2.0, jmax=jmax).evaluate(rule.nodes)
        assert res.lhs == pytest.approx(integrate_sphere(vals, rule), rel=1e-12)

    def test_exponent_range(self, ball2):
        with pytest.raises(InvalidInputError):
            parseval_check(ball2, ball2, 4.0)

    def test_transforms_come_from_the_context(self, monkeypatch, ball2, ell12):
        context = VerificationContext()
        built = []
        real = theorems.ft_norm_power
        monkeypatch.setattr(theorems, "ft_norm_power",
                            lambda *a, **k: built.append((a[0], a[1], k["jmax"])) or real(*a, **k))
        default = context.config.jmax_for(4)
        res = parseval_check(ell12, ball2, 2.0, context=context)
        assert res.jmax == default
        assert built == [(ell12, 2.0, default), (ball2, 2.0, default)]
        # the context keys on the resolved degree: no new transform
        again = parseval_check(ell12, ball2, 2.0, context=context, jmax=default)
        assert again == res and len(built) == 2
        assert context.ft(ball2, 2.0) is context.ft(ball2, 2.0, jmax=default)
        parseval_check(ball2, ball2, 2.0, context=context, jmax=12)
        assert built[2:] == [(ball2, 2.0, 12)]  # K = L at p = n shares one transform

    def test_rhs_matches_the_node_path(self, pert2):
        # the pairing integrand through the torus factors against the same
        # integrand at the rule's nodes
        res = parseval_check(pert2, ComplexLqBall(d2, 3.0), 2.0, jmax=8)
        rule = sections.radial_power_rule(default_config().reduced_level(2), pert2)
        X = rule.nodes
        ref = integrate_sphere(pert2.radial(X) ** 2 * ComplexLqBall(d2, 3.0).radial(X) ** 2, rule)
        assert res.rhs == pytest.approx((2 * math.pi) ** 4 * ref, rel=1e-14)

    def test_exponent_pairing_nontrivial(self, ball3):
        # n=3 with p = 2n-2 pairs against exponent 2, mirroring the stability proof;
        # closed form: lhs = |S^5| * lam_0(6,4) * lam_0(6,2) = pi^3 * 4pi^3 * 16pi^3
        res = parseval_check(ball3, ball3, 4.0)
        assert res.lhs == pytest.approx(64 * math.pi ** 9, rel=1e-10)
        assert res.relative_error <= 1e-10


class TestTorusRulesStayFactored:
    """Radial-power integrals and scans on torus rules evaluate through the
    rules' factors: none of them builds a node array."""

    def test_no_torus_node_array_is_built(self, monkeypatch):
        built, build = [], spherequad.invariant_sphere_rule.__wrapped__

        def fresh(n, level, nphase=1):  # uncached, so the lazy state is these calls'
            rule = build(n, level, nphase)
            built.append(rule)
            return rule

        monkeypatch.setattr(sections, "invariant_sphere_rule", fresh)
        monkeypatch.setattr(spherequad, "invariant_sphere_rule", fresh)
        pert = PerturbedBall(d3, 1.0, ((2, 0, 0.05),))
        sections.volume_with_error(pert)
        mc_volume(pert, 10_000, seed=0)
        parseval_check(pert, EuclideanBall(d3), 2.0, jmax=4)
        assert [(r.m, r.level, r.phases.shape[0]) for r in built] == [
            (6, 160, 49), (6, 180, 49), (6, 48, 64), (6, 160, 49)]
        assert not any(r.nodes_built for r in built)


class TestPositivity:
    def test_euclidean_constant_n3(self, ctx, ball3):
        res = positivity_check(ball3, context=ctx)
        assert res.passed
        assert res.min_value == pytest.approx(16 * math.pi ** 3, rel=1e-10)
        assert res.max_value == pytest.approx(16 * math.pi ** 3, rel=1e-10)

    def test_lq1_passes_n2(self, ctx):
        res = positivity_check(ComplexLqBall(d2, 1.0), context=ctx)
        assert res.passed
        assert res.min_value >= -1e-6 * res.max_value

    def test_exploratory_dimension4(self):
        res = positivity_check(ComplexLqBall(ComplexDim(4), 6.0))
        assert res.exploratory and res.passed is None
        assert res.min_value < 0  # sign failure expected in dimension 4

    def test_dimension_guard(self, ctx):
        with pytest.raises(InvalidInputError):
            positivity_check(EuclideanBall(ComplexDim(5), 1.0), context=ctx)


class TestGammaLemma:
    def test_full_sweep(self):
        rows = gamma_lemma_check(170)
        assert len(rows) == 170
        assert all(r.passed for r in rows)
        assert rows[0].log_margin == 0.0  # ln Gamma(1) is exactly 0

    def test_equality_at_one(self):
        row = gamma_lemma_check(1)[0]
        assert row.lhs == pytest.approx(1.0, abs=1e-14)
        assert row.rhs == 1.0

    def test_strict_from_two(self):
        rows = gamma_lemma_check(10)
        assert all(r.log_margin > 0 for r in rows[1:])

    def test_n2_values(self):
        row = gamma_lemma_check(2)[1]
        assert row.lhs == pytest.approx(1.0, rel=1e-14)
        assert row.rhs == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_n5_values(self):
        row = gamma_lemma_check(5)[4]
        assert row.lhs == pytest.approx(24 ** 0.2, rel=1e-12)
        assert row.rhs == pytest.approx(5 ** 0.8, rel=1e-12)

    def test_range_guard(self):
        with pytest.raises(InvalidInputError):
            gamma_lemma_check(171)
