"""The ledger of what the two section routes share.

The direct route (``section_volume_direct``) and the Fourier route
(``ft_norm_power`` at p = 2n - 2, then ``section_volume_fourier``) are the
central cross-check of the package, so the code they both run is pinned
here, each entry with the reason it may be shared.  A change that grows the
set updates ``SHARED`` and says why.
"""
import os
import sys

import numpy as np
import pytest

import cxsect
from cxsect import spherequad
from cxsect.harmonics import ft_norm_power
from cxsect.sections import section_volume_direct, section_volume_fourier
from cxsect.suite import bodies_n3

SHARED = {
    # both routes integrate the same body
    "bodies.ComplexDim.N": "the body's real dimension",
    "bodies.ComplexEllipsoid._norm_impl": "the ellipsoid's norm, under its radial function",
    "bodies.ComplexLqBall._norm_impl": "the lq ball's norm, under its radial function",
    "bodies.EuclideanBall._norm_impl": "the ball's norm, under its radial function",
    "bodies.ConvexBody._radial_impl": "the radial kernel of every body but the perturbed one",
    "bodies._row_sum": "the row sums of the norm kernels",
    "bodies.moduli": "the pair moduli the norms of the moduli-only bodies read",
    # the perturbed body defines its radial function through the canonical
    # invariant basis, so the direct route evaluates it with the Fourier
    # route's kernel (``PerturbedBall._radial_impl``)
    "harmonics.HarmonicExpansion._lift": "the perturbation's combination matrix",
    "harmonics.HarmonicExpansion._unit_row_values": "the perturbation's values at unit rows",
    "harmonics.HarmonicExpansion.degrees": "the perturbation's degrees",
    "harmonics._Block._monomial_chunks": "the monomial tables of the perturbation's values",
    # the rule builders: the direct route's section rule lives on S^{2n-3},
    # the Fourier route's expansion rules on S^{2n-1}; the closed-form
    # volumes and the golden transform check them
    "spherequad.QuadratureRule.__init__": "a rule from its factors",
    "spherequad.phase_grid": "a rule's phase rows",
    "spherequad.gauss_jacobi": "the Gauss solves of every rule",
    "spherequad.invariant_sphere_rule": "the section rule; the perturbed body's expansion rule",
    "spherequad.gauss_power01": "the moduli nodes of the torus-reduced rule",
    # the input checks
    "config._integer": "integer parameters read at the public entries",
    "sections.unit_directions": "the directions, checked once per call",
}

SRC = os.path.dirname(cxsect.__file__)


def recorded(run):
    """The ``src/`` functions ``run`` calls, as module.qualname, from a cold
    rule cache (the rule builders run, as on a first call) and warm
    harmonic-basis caches.  Comprehensions, generator expressions and
    lambdas are left out: from Python 3.12 comprehensions run inline, and
    each lives inside a function that is recorded."""
    for memo in (spherequad.sphere_rule, spherequad.invariant_sphere_rule, spherequad.gauss_jacobi):
        memo.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(SRC) and not code.co_name.startswith("<"):
            seen.add(f"{os.path.basename(code.co_filename)[:-3]}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry their qualified name from 3.11")
def test_the_two_section_routes_share_only_the_ledger():
    bodies = list(bodies_n3().values())
    assert len(bodies) == 10
    xi = np.random.default_rng(19).normal(size=(1, 6))
    xi /= np.linalg.norm(xi)

    def direct():
        for body in bodies:
            section_volume_direct(body, xi)

    def fourier():
        for body in bodies:
            section_volume_fourier(body, xi, ft_norm_power(body, 4))

    direct(), fourier()  # the harmonic blocks and the perturbation's lift built
    assert recorded(direct) & recorded(fourier) == set(SHARED)
