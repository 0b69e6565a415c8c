import numpy as np
import pytest

from cxsect import ComplexDim, ComplexEllipsoid, ComplexLqBall, EuclideanBall, PerturbedBall
from cxsect import QuadratureRule
from cxsect.bodies import ConvexBody


@pytest.fixture(scope="session")
def ball2():
    return EuclideanBall(ComplexDim(2), 1.0)


@pytest.fixture(scope="session")
def ball3():
    return EuclideanBall(ComplexDim(3), 1.0)


@pytest.fixture(scope="session")
def ell12():
    return ComplexEllipsoid((1.0, 2.0))


@pytest.fixture(scope="session")
def polydisc2():
    return ComplexLqBall(ComplexDim(2), np.inf)


@pytest.fixture(scope="session")
def pert2():
    return PerturbedBall(ComplexDim(2), 1.0, ((2, 0, 0.06), (4, 1, 0.02)))


def unit_vectors(rng, count, N):
    x = rng.normal(size=(count, N))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def trapezoid(y, x):
    """Trapezoid rule for samples y at points x; the same sum as NumPy 2's
    ``np.trapezoid``, written out so the tests run on NumPy 1.x as well."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)


def ring_points(heads, psi):
    """The points of the rings, row h*R + k: head h (H, m) with its last
    coordinate pair turned by the angle psi_k (R angles).  A reference that
    shares no code with ``factor_points``."""
    X, psi = np.asarray(heads, dtype=float), np.asarray(psi, dtype=float)
    out = np.empty((X.shape[0], psi.shape[0], X.shape[1]))
    out[:, :, :-2] = X[:, None, :-2]
    x, y, c, s = X[:, -2, None], X[:, -1, None], np.cos(psi), np.sin(psi)
    out[:, :, -2] = x * c - y * s
    out[:, :, -1] = x * s + y * c
    return out.reshape(-1, X.shape[1])


def ring_angles(count):
    """The ``count`` uniform angles 2 pi j / count of a ring."""
    return 2.0 * np.pi * np.arange(count) / count


def ring_rule(heads, count):
    """A rule of rings whose nodes are ``ring_points(heads, ring_angles(count))``:
    the heads (H, m) as complex base rows, phase counts (1, ..., 1, count),
    weight 1 at every node."""
    heads = np.ascontiguousarray(heads, dtype=float)
    H, m = heads.shape
    return QuadratureRule(m, heads.view(complex), (1,) * (m // 2 - 1) + (count,),
                          np.ones(H * count), 0, 1)


def node_rule(nodes, weights, exactness_degree, level):
    """A rule given by its nodes: base = nodes viewed as complex, phase counts
    of 1 (one zero phase row)."""
    nodes = np.ascontiguousarray(nodes)
    return QuadratureRule(nodes.shape[1], nodes.view(complex), (1,) * (nodes.shape[1] // 2),
                          weights, exactness_degree, level)


def table_shape(body, rule):
    """The shape of ``body.factor_radial(rule)``: (H, 1) for a body of the
    moduli only, (H, F) otherwise."""
    H, F = rule.base.shape[0], rule.phases.shape[0]
    return (H, F if body.phase_bandwidth else 1)


def node_order(table, rule):
    """A table on the rule's factors as one value per node, in node order."""
    return np.broadcast_to(table, (rule.base.shape[0], rule.phases.shape[0])).ravel()


class CountingRadial:
    """Wraps the radial kernels ``_radial_impl`` of every kind (through
    ``monkeypatch``), which both ``radial`` and the package's internal
    callers reach, and records the number of rows of each call in ``rows``."""

    def __init__(self, monkeypatch):
        self.rows = []
        for cls in (ConvexBody, PerturbedBall):  # the classes that define a kernel
            real = vars(cls)["_radial_impl"]

            def kernel(body, theta, real=real):
                self.rows.append(int(np.asarray(theta).shape[0]))
                return real(body, theta)

            monkeypatch.setattr(cls, "_radial_impl", kernel)
