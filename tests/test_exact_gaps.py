"""The section gap of the production search against closed-form maxima.

A ball or complex ellipsoid E with semiaxes a_k (a_k = r for a ball, and for
an lq ball with q = 2 and scale s, a_k = s) has the sections

    Vol_{2n-2}(E cap xi^perp) = pi^{n-1}/(n-1)! * prod_k a_k^2 / sum_k a_k^2 s_k,

s_k = |xi_k|^2 on the simplex {s >= 0, sum s = 1}.  So the gap
max_xi (A_K(xi) - A_L(xi)) of two such bodies is the maximum over the simplex
of f = P/u - Q/v, u = alpha . s and v = beta . s linear (alpha_k, beta_k the
squared semiaxes).  f falls in u and rises in v, so it has no critical point
inside the image of the simplex in the (u, v) plane, the convex hull of the
points (alpha_k, beta_k); its maximum lies on the boundary of that hull,
which the edges of the simplex map onto.  On the edge from e_i to e_j, f is
stationary where u / v = sqrt(P d_alpha / (Q d_beta)), one point when
d_alpha d_beta > 0 and none otherwise.  The exact gap is the largest value at
a vertex or at such a point.  A reference that shares no code with
``theorems``: closed forms and numpy only.
"""
import itertools
import math

import numpy as np
import pytest

from cxsect import ComplexDim, ComplexEllipsoid, ComplexLqBall, EuclideanBall, section_gap
from cxsect.sections import section_values
from cxsect.suite import bodies_n2, bodies_n3, sweep_pairs
from cxsect.theorems import VerificationContext

from conftest import unit_vectors


def squared_semiaxes(body):
    """alpha_k = a_k^2 of a ball-shaped or ellipsoidal body, else None."""
    n = body.dim.n
    if isinstance(body, EuclideanBall):
        return np.full(n, body.radius ** 2)
    if isinstance(body, ComplexLqBall) and body.q == 2.0:
        return np.full(n, body.scale ** 2)
    if isinstance(body, ComplexEllipsoid):
        return np.array(body.semiaxes) ** 2
    return None


def exact_sections(body, X):
    """The closed-form section volumes at unit directions X, (P, 2n)."""
    alpha = squared_semiaxes(body)
    n = alpha.shape[0]
    s = X[:, 0::2] ** 2 + X[:, 1::2] ** 2
    return math.pi ** (n - 1) / math.factorial(n - 1) * np.prod(alpha) / (s @ alpha)


def exact_gap(K, L):
    """(max_xi A_K - A_L, the s = |xi_k|^2 that attains it), over the
    vertices and the stationary points on the edges of the simplex."""
    alpha, beta = squared_semiaxes(K), squared_semiaxes(L)
    n = alpha.shape[0]
    c = math.pi ** (n - 1) / math.factorial(n - 1)
    P, Q = c * np.prod(alpha), c * np.prod(beta)
    candidates = list(np.eye(n))
    for i, j in itertools.combinations(range(n), 2):
        da, db = alpha[j] - alpha[i], beta[j] - beta[i]
        if da * db > 0:
            r = math.sqrt(P * da / (Q * db))
            t = (r * beta[i] - alpha[i]) / (da - r * db)
            if 0.0 < t < 1.0:
                s = np.zeros(n)
                s[i], s[j] = 1.0 - t, t
                candidates.append(s)
    values = [P / (alpha @ s) - Q / (beta @ s) for s in candidates]
    best = int(np.argmax(values))
    return float(values[best]), candidates[best]


def label(pair):
    return f"{pair[0].label}|{pair[1].label}"


# the sweep pairs of C5 and C7 made of balls and ellipsoids, an lq ball with
# q = 2 counted as a ball
SWEEP = [pair for pair in sweep_pairs()
         if all(squared_semiaxes(body) is not None for body in pair)]
SHORT = "ellipsoid(1,1.5,2)|ellipsoid(1,1,3)"
D2, D3 = ComplexDim(2), ComplexDim(3)
# C6's five pairs, the equality case first
SEPARATION = [
    (EuclideanBall(D2, 1.0), EuclideanBall(D2, 1.2)),
    (EuclideanBall(D3, 1.0), EuclideanBall(D3, 1.2)),
    (EuclideanBall(D2, 0.8), ComplexEllipsoid((1.0, 1.5))),
    (ComplexLqBall(D2, 2.0, 0.9), EuclideanBall(D2, 1.05)),
    (EuclideanBall(D3, 0.9), ComplexEllipsoid((1.1, 1.2, 1.3))),
]


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


def test_the_closed_form_is_the_direct_route():
    rng = np.random.default_rng(17)
    bodies = [b for b in list(bodies_n2().values()) + list(bodies_n3().values())
              if squared_semiaxes(b) is not None]
    assert len(bodies) == 11
    for body in bodies:
        X = unit_vectors(rng, 5, body.dim.N)
        assert section_values(body, X) == pytest.approx(
            exact_sections(body, X), rel=2e-15, abs=0), body.label  # measured 1.3e-15


def test_the_sweep_has_thirteen_such_pairs():
    assert len(SWEEP) == 13 and SHORT in [label(p) for p in SWEEP]


@pytest.mark.parametrize("pair", SWEEP, ids=[label(p) for p in SWEEP])
def test_sweep_gap_matches_the_exact_maximum(pair, ctx):
    K, L = pair
    eps = section_gap(K, L, ctx).epsilon
    exact = max(0.0, exact_gap(K, L)[0])
    if label(pair) == SHORT:
        # the search stops short of the maximum on the edge s_2 = 0
        assert eps == pytest.approx(10.675888836986879, rel=1e-9)
        assert (exact - eps) / exact == pytest.approx(1.32e-4, rel=0.01)
    else:
        # measured <= 3.4e-16; 6 of the 12 have epsilon = 0 exactly
        assert eps == pytest.approx(exact, rel=1.5e-15, abs=0)


@pytest.mark.parametrize("pair", SEPARATION, ids=[label(p) for p in SEPARATION])
def test_separation_gap_matches_the_exact_maximum(pair, ctx):
    K, L = pair
    exact, _ = exact_gap(K, L)
    assert exact < 0.0  # K's sections lie below L's: separation's hypothesis
    # measured <= 1.0e-15
    assert section_gap(K, L, ctx).refined_max == pytest.approx(exact, rel=1.5e-15, abs=0)


def test_the_short_pair_maximum_lies_on_an_edge():
    K, L = next(p for p in SWEEP if label(p) == SHORT)
    value, s = exact_gap(K, L)
    assert value == pytest.approx(10.677302485918705, rel=1e-15)
    assert s == pytest.approx([0.7959, 0.0, 0.2041], abs=1e-4)
    # on that edge u = 1 + 3t, v = 1 + 8t and P = Q, so the root of
    # sqrt(8) (1 + 3t) = sqrt(3) (1 + 8t), t = s_3
    t = s[2]
    assert math.sqrt(8.0) * (1.0 + 3.0 * t) == pytest.approx(math.sqrt(3.0) * (1.0 + 8.0 * t),
                                                           rel=1e-15)
    # a dense scan of the simplex finds nothing higher
    grid = np.linspace(0.0, 1.0, 401)
    s1, s2 = np.meshgrid(grid, grid, indexing="ij")
    S = np.stack([s1, s2, 1.0 - s1 - s2], axis=-1)[s1 + s2 <= 1.0]
    alpha, beta = squared_semiaxes(K), squared_semiaxes(L)
    c = math.pi ** 2 / 2.0
    scan = c * np.prod(alpha) / (S @ alpha) - c * np.prod(beta) / (S @ beta)
    assert scan.max() <= value
