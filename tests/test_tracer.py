"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
and methods by name and reads some of their arguments by name.  Installing it
here makes a rename or deletion of such a name fail the unit tests.  Nothing
is timed."""
import importlib.util
import os

import numpy as np

import cxsect
from cxsect import ComplexDim, EuclideanBall, PerturbedBall

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer_module):
    out = {}
    for modname in tracer_module.MODULES:
        module = getattr(cxsect, modname)
        out[modname] = dict(vars(module))
        for clsname, meth in tracer_module.METHODS.get(modname, ()):
            out[(modname, clsname)] = dict(vars(getattr(module, clsname)))
    return out


def test_tracer_installs_records_and_uninstalls():
    tm = _load_tracer()
    before = _bindings(tm)
    tracer = tm.Tracer()
    tracer.install(cxsect)
    try:
        assert cxsect.sections.volume is not before["sections"]["volume"]
        ball = EuclideanBall(ComplexDim(2), 1.0)
        pert = PerturbedBall(ComplexDim(2), 1.0, ((2, 2, 0.05),))
        ctx = cxsect.VerificationContext()
        ctx.inradius(pert)  # min_radial, refine_extremum, volume, integrate_sphere
        pert.radial_profile(np.eye(4))  # a public method; the kernels do not call it
        cxsect.sections.inradius_normalized(pert)
        cxsect.sections.section_values(ball, np.eye(4)[:2])
        cxsect.harmonics.invariant_harmonic_basis(4, 2).evaluate(np.eye(4))
        cxsect.ft_norm_power(ball, 2.0, jmax=4)  # harmonic_expand, multiplied
        cxsect.mc_volume(ball, 10_000, seed=0)
        summary = tracer.summary(1.0)
    finally:
        tracer.uninstall()
    assert _bindings(tm) == before
    names = {rec[tm.NAME] for rec in tracer.spans}
    assert {"theorems.VerificationContext.inradius", "sections.inradius_normalized",
            "bodies.PerturbedBall.radial_profile", "harmonics.HarmonicBasis.evaluate",
            "harmonics.harmonic_expand", "spherequad.integrate_sphere",
            "sections.section_values", "grids.refine_extremum",
            "spherequad.mc_volume"} <= names
    assert not any(rec[tm.RAISED] for rec in tracer.spans)
    assert summary["sections.section_values.dirs"] == 2
    assert summary["sections.hyperplane_basis.calls"] == 1  # one batch per call
    assert summary["spherequad.mc.samples"] == 10_000


def test_traced_perturbed_volume_counts_nodes_without_building_them():
    # a cold rule cache, so the polar-volume rule is built inside the trace
    tm = _load_tracer()
    cxsect.invariant_sphere_rule.cache_clear()
    pert = PerturbedBall(ComplexDim(3), 1.0, ((2, 0, 0.05),))
    tracer = tm.Tracer()
    tracer.install(cxsect)
    try:
        cxsect.sections.volume_with_error(pert)
        summary = tracer.summary(1.0)
    finally:
        tracer.uninstall()
    # both calls take the one rule at the exact level n*J + 1 = 7 for the
    # degree-2 term
    rule = cxsect.invariant_sphere_rule(3, 7, nphase=7)
    assert summary["spherequad.rule_nodes"] == rule.node_count == 2_401
    assert not rule.nodes_built
    assert "spherequad.factor_points" not in {rec[tm.NAME] for rec in tracer.spans}
