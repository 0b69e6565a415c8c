"""Polar integrals and perturbed-body certification in blocks of rows.

``sections._radial_power_integral`` (the polar volume and the Parseval
pairing) sums its tables over blocks of consecutive base rows, and
``PerturbedBall._certify`` tests its midpoints in blocks of ``CHUNK_ROWS``
pairs.  These tests pin that no array grows with the rule's node count or the
pair count (tracemalloc, which traces NumPy's allocations deterministically),
and that the blocked code computes the values of the one-table and
whole-array code it replaced.
"""
import math
import tracemalloc

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ConvexityError,
    NumericalEvaluationError,
    PerturbedBall,
    QuadratureRule,
    integrate_sphere,
    invariant_sphere_rule,
    parseval_check,
    volume,
)
from cxsect.bodies import _CERTIFY_PAIRS, _CERTIFY_SEED, _MIDPOINT_TOL
from cxsect.config import default_config, philox
from cxsect.sections import _radial_power_integral, radial_power_rule
from cxsect.spherequad import CHUNK_ENTRIES, CHUNK_ROWS
from cxsect.suite import bodies_n2, bodies_n3
from cxsect.theorems import VerificationContext

MB = 2 ** 20
D3 = ComplexDim(3)
PERT3 = ((2, 0, 0.05),)
LEVEL3 = default_config().reduced_levels[3]


def peak_allocated(fn):
    """The peak of the memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def suite_perturbed():
    return [bodies_n2()["pert_a"], bodies_n2()["pert_b"], bodies_n3()["pert"]]


def whole_array_worst(body):
    """The worst midpoint gap of the certification, on whole arrays: the
    probes, then all first points, then all second points of one stream."""
    rng = philox(_CERTIFY_SEED)
    N = body.dim.N
    rng.normal(size=(4096, N))
    x = rng.normal(size=(_CERTIFY_PAIRS, N))
    y = rng.normal(size=(_CERTIFY_PAIRS, N))
    return float(np.max(body._norm_impl(0.5 * (x + y))
                        - 0.5 * (body._norm_impl(x) + body._norm_impl(y))))


def one_table(rule, powers):
    """The quadrature sum of prod_b rho_b^{e_b} as one table on ``rule``."""
    vals = 1.0
    for body, e in powers:
        vals = vals * body.factor_radial(rule) ** e
    return integrate_sphere(vals, rule)


class TestMemoryStaysBounded:
    """Peaks before blocking: 22.4, 24.3 and 28.7 MB."""

    def test_building_the_n3_perturbed_body(self):
        PerturbedBall(D3, 1.0, PERT3)  # the harmonic basis, cached
        assert peak_allocated(lambda: PerturbedBall(D3, 1.0, PERT3)) <= 10 * MB

    def test_its_volume_at_the_default_level(self):
        body = PerturbedBall(D3, 1.0, PERT3)
        volume(body)  # the rule, cached
        assert peak_allocated(lambda: volume(body)) <= 8 * MB

    def test_the_pairing_of_two_n3_perturbed_bodies(self):
        K, L = PerturbedBall(D3, 1.0, PERT3), PerturbedBall(D3, 1.1, ((2, 0, 0.03),))
        ctx = VerificationContext()
        first = parseval_check(K, L, 2.0, context=ctx, jmax=4)  # the transforms, cached
        peak = peak_allocated(lambda: parseval_check(K, L, 2.0, context=ctx, jmax=4))
        assert peak <= 8 * MB
        assert parseval_check(K, L, 2.0, context=ctx, jmax=4) == first


class TestCertificationKeepsItsBits:
    @pytest.mark.parametrize("index", range(3), ids=["pert_a", "pert_b", "pert_n3"])
    def test_worst_gap_equals_the_whole_array_pass(self, index):
        body = suite_perturbed()[index]
        assert _CERTIFY_PAIRS > 2 * CHUNK_ROWS  # several blocks
        assert body._certify() == whole_array_worst(body)

    @pytest.mark.parametrize("n, terms", [(2, ((2, 0, 0.6),)), (3, ((4, 1, 0.3),))])
    def test_a_nonconvex_body_raises_the_same_error(self, n, terms):
        body = PerturbedBall(ComplexDim(n), 1.0, terms, certify=False)
        worst = whole_array_worst(body)
        assert worst > _MIDPOINT_TOL
        message = (f"{body.label}: midpoint convexity violated by {worst:.3g} "
                   f"(tolerance {_MIDPOINT_TOL:g})")
        with pytest.raises(ConvexityError) as info:
            body._certify()
        assert str(info.value) == message
        with pytest.raises(ConvexityError) as info:
            PerturbedBall(ComplexDim(n), 1.0, terms)
        assert str(info.value) == message


class TestBlockedIntegral:
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_block_keeps_the_bits_of_one_table(self, n):
        level = default_config().reduced_levels[n]
        for body in (bodies_n2() if n == 2 else bodies_n3()).values():
            if n == 3 and body.phase_bandwidth:
                continue
            for lev in (level, level + max(8, level // 8)):  # both of volume_with_error
                rule = radial_power_rule(lev, body)
                powers = ((body, 2 * n),)
                width = rule.phases.shape[0] if body.phase_bandwidth else 1
                assert rule.base.shape[0] * width <= CHUNK_ENTRIES
                assert _radial_power_integral(rule, powers) == one_table(rule, powers), body.label

    def test_n2_pairings_keep_their_bits(self):
        bodies = list(bodies_n2().values())
        for K in bodies:
            for L in (bodies_n2()["pert_a"], bodies_n2()["pert_b"]):
                rule = radial_power_rule(default_config().reduced_levels[2], K, L)
                powers = ((K, 2.0), (L, 2.0))
                assert _radial_power_integral(rule, powers) == one_table(rule, powers)

    def test_n3_perturbed_within_1e15(self):
        pert = bodies_n3()["pert"]
        other = PerturbedBall(D3, 1.1, ((2, 0, 0.03),))
        for lev in (LEVEL3, LEVEL3 + max(8, LEVEL3 // 8)):
            rule = radial_power_rule(lev, pert)
            assert rule.base.shape[0] * rule.phases.shape[0] > 4 * CHUNK_ENTRIES
            for powers in (((pert, 6),), ((pert, 2.0), (other, 4.0)),
                           ((bodies_n3()["lq3"], 2.0), (pert, 4.0))):
                got, ref = _radial_power_integral(rule, powers), one_table(rule, powers)
                assert got == pytest.approx(ref, rel=1e-15, abs=0)

    def test_blocks_do_not_check_the_rows_again(self, monkeypatch):
        rule = invariant_sphere_rule.__wrapped__(3, 40, 7)
        body = bodies_n3()["pert"]
        expected = volume(body, rule=rule)

        def built(*args, **kwargs):
            raise AssertionError("a block built a rule")
        monkeypatch.setattr(QuadratureRule, "__init__", built)
        monkeypatch.setattr(np.linalg, "norm", built)
        assert volume(body, rule=rule) == expected
        assert not rule.nodes_built

    def test_a_late_nan_is_named_by_its_node_in_the_rule(self, monkeypatch):
        body = bodies_n3()["pert"]
        rule = radial_power_rule(LEVEL3, body)
        H, F = rule.base.shape[0], rule.phases.shape[0]
        row, col = H - 3, 5  # in the last block
        assert row >= CHUNK_ENTRIES // F
        factor_radial = PerturbedBall.factor_radial

        def planted(self, block):
            vals = factor_radial(self, block)
            if block.row_offset <= row < block.row_offset + block.base.shape[0]:
                vals[row - block.row_offset, col] = math.nan
            return vals
        monkeypatch.setattr(PerturbedBall, "factor_radial", planted)
        node = row * F + col
        with pytest.raises(NumericalEvaluationError, match=f"node {node}:") as info:
            volume(body, rule=rule)
        assert str(info.value).endswith(f": {rule.node(node)}")
        assert not rule.nodes_built
