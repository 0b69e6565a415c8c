"""Complex hyperplane sections: subspace bases, section volumes by two
independent routes, total volume by the polar formula, and the normalized
inradius.

The section (2n-2)-volume at a unit direction xi is computed either directly
(polar formula on the subspace sphere, radial function evaluated through a
J-paired isometric embedding of S^{2n-3} into the hyperplane, integrated by
the torus-reduced rule) or through the Fourier route: the transformed norm
power at exponent 2n-2, evaluated at xi and divided by 4 pi (n-1).
Agreement of the two routes is the central cross-check of the verification
suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .bodies import complex_structure
from .config import RunConfig, default_config
from .errors import InvalidInputError, NumericalEvaluationError
from .harmonics import HarmonicExpansion
from .spherequad import QuadratureRule, integrate_sphere, invariant_sphere_rule


@dataclass(frozen=True)
class Direction:
    """A unit vector xi with its image under the complex structure."""

    xi: np.ndarray
    jxi: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1 or xi.size % 2:
            raise InvalidInputError("direction must be a vector of even length")
        length = float(np.linalg.norm(xi))
        if not math.isfinite(length) or length == 0.0:
            raise InvalidInputError("direction must be a nonzero finite vector")
        if abs(length - 1.0) > 1e-12:
            raise InvalidInputError("direction must be unit length; use direction() to normalize")
        xi = xi.copy()
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        jxi = complex_structure(xi)
        jxi.setflags(write=False)
        object.__setattr__(self, "jxi", jxi)

    @property
    def n(self):
        return self.xi.size // 2


def direction(vec) -> Direction:
    """Normalize a vector into a Direction."""
    vec = np.asarray(vec, dtype=float)
    length = float(np.linalg.norm(vec))
    if length == 0.0 or not math.isfinite(length):
        raise InvalidInputError("cannot normalize a zero or non-finite vector")
    return Direction(vec / length)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of the (2n-2)-dimensional hyperplane orthogonal to
    both xi and J xi.  Rows are the basis vectors, J-paired as
    (v_1, J v_1, v_2, J v_2, ...): in these coordinates J acts as the complex
    structure of C^{n-1}."""

    direction: Direction
    basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)


def hyperplane_basis(xi) -> SubspaceBasis:
    """Deterministic J-paired orthonormal basis of the hyperplane at xi.

    Gram-Schmidt of the even standard basis vectors e_0, e_2, ... against
    {xi, J xi} and the rows so far, in fixed order; each kept v brings J v
    along (the span is closed under J, so J v is already orthogonal to it),
    and a vector that becomes dependent is dropped.  The projection depends
    on xi only through its complex line, so any phase rotation of xi yields
    the same basis.
    """
    d = xi if isinstance(xi, Direction) else direction(xi)
    N = d.xi.size
    rows = []
    for i in range(0, N, 2):
        v = np.zeros(N)
        v[i] = 1.0
        for _ in range(2):  # two passes for orthogonality to ~1e-15
            for b in [d.xi, d.jxi] + rows:
                v = v - (v @ b) * b
        length = float(np.linalg.norm(v))
        if length > 1e-7:
            v = v / length
            rows.extend((v, complex_structure(v)))
        if len(rows) == N - 2:
            break
    if len(rows) != N - 2:
        raise InvalidInputError("failed to complete hyperplane basis")
    return SubspaceBasis(d, np.array(rows))


@dataclass(frozen=True)
class SectionReport:
    body: str
    xi: tuple
    value: float
    method: str
    error: float
    warnings: tuple = ()

    def to_row(self):
        return {
            "body": self.body,
            "xi": list(self.xi),
            "method": self.method,
            "value": self.value,
            "error": self.error,
            "warnings": list(self.warnings),
        }


def _section_rule(n, config, bump=0, scan=False):
    level = config.product_level(2 * n - 2)
    if scan:
        level = max(8, level // 2)
    return invariant_sphere_rule(n - 1, level + bump, nphase=level + bump)


def section_volume_direct(body, xi, config: RunConfig | None = None,
                          with_error=True) -> SectionReport:
    """Section volume at one direction by the kernel ``section_values``.

    The error estimate is the difference against the rule two levels up,
    whose value is the one reported.
    """
    cfg = config or default_config()
    d = xi if isinstance(xi, Direction) else direction(xi)
    value = section_values(body, d.xi, config=cfg)[0]
    err = 0.0
    if with_error:
        finer = section_values(body, d.xi, rule=_section_rule(body.dim.n, cfg, bump=2))[0]
        err = abs(finer - value)
        value = finer
    return SectionReport(body.label, tuple(d.xi), float(value), "direct", float(err))


def section_volume_fourier(body, xi, ft: HarmonicExpansion) -> SectionReport:
    """Section volume from the transformed norm power at exponent 2n-2.

    value = ft(xi) / (4 pi (n-1)); the error estimate is the magnitude of the
    top-two-degree contribution at xi (truncation indicator).  A value more
    negative than the estimate is flagged: section volumes are positive, so
    that signals unreliable truncation.
    """
    n = body.dim.n
    if ft.multiplier_power is None or abs(ft.multiplier_power - (2 * n - 2)) > 1e-12:
        raise InvalidInputError("fourier section needs ft_norm_power at p = 2n-2")
    d = xi if isinstance(xi, Direction) else direction(xi)
    scale = 4.0 * math.pi * (n - 1)
    raw = float(ft.evaluate(d.xi[None, :])[0])
    tail = abs(float(ft.tail_values(d.xi[None, :])[0]))
    value = raw / scale
    err = tail / scale
    warnings = tuple(ft.warnings)
    if value < -err:
        warnings = warnings + (
            f"negative section value {value:.3e} beyond tail estimate {err:.3e}: truncation failure",
        )
    return SectionReport(body.label, tuple(d.xi), value, "fourier", err, warnings)


def section_values(body, dirs, rule: QuadratureRule | None = None,
                   config: RunConfig | None = None, scan=False):
    """Direct section volumes for a batch of unit directions, shape (P,).

    Vol_{2n-2} = (1/(2n-2)) * int_{S^{2n-3}} rho(theta B)^{2n-2}, B the
    J-paired hyperplane basis.  In its coordinates J is the complex structure
    of C^{n-1}, so the integrand keeps the body's invariance under
    simultaneous pair rotation, and the default rule is the torus-reduced
    ``invariant_sphere_rule(n-1, L, nphase=L)`` with L = product_levels[2n-2]
    (exact to degree 2L-1).  At n = 2 that rule is one node of weight 2 pi:
    the section is the disc pi rho(w)^2.  ``scan=True`` uses L/2 (at least
    8), cheap enough for extremum scans over large grids (final values at the
    extremizer should be re-evaluated at the full level).  Any rule on
    S^{2n-3} may be passed instead, e.g. the generic product rule as a
    reference.  Radial evaluations are chunked so large direction grids stay
    within memory.
    """
    cfg = config or default_config()
    n = body.dim.n
    if rule is None:
        rule = _section_rule(n, cfg, scan=scan)
    if rule.m != 2 * n - 2:
        raise InvalidInputError(f"section rule must live on S^{2 * n - 3}")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[-1] != 2 * n:
        raise InvalidInputError("direction dimension does not match the body")
    P = dirs.shape[0]
    out = np.empty(P)
    nodes = rule.nodes
    M = nodes.shape[0]
    power = 2 * n - 2
    chunk = max(1, 4_000_000 // M)
    bases = np.empty((P, 2 * n - 2, 2 * n))
    for i in range(P):
        bases[i] = hyperplane_basis(dirs[i]).basis
    for lo in range(0, P, chunk):
        hi = min(lo + chunk, P)
        pts = np.einsum("mj,pjk->pmk", nodes, bases[lo:hi])
        with np.errstate(over="ignore"):  # overflow is caught by the check below
            vals = body.radial(pts.reshape(-1, 2 * n)).reshape(hi - lo, M) ** power
        if not np.all(np.isfinite(vals)):
            raise NumericalEvaluationError(f"non-finite section integrand for {body.label}")
        out[lo:hi] = (vals @ rule.weights) / power
    return out


def _volume_rule(body, config, bump=0):
    n = body.dim.n
    bw = body.phase_bandwidth
    nphase = 2 * n * bw + 1 if bw else 1
    return invariant_sphere_rule(n, config.reduced_level(n) + bump, nphase=nphase)


def volume(body, rule: QuadratureRule | None = None,
           config: RunConfig | None = None) -> float:
    """Total volume by the polar formula Vol = (1/2n) int rho^{2n}.

    With no explicit rule the torus-reduced rule is used (the integrand is
    rotation-invariant for every admitted body); pass the generic product
    rule on S^{2n-1} for the reference path.
    """
    cfg = config or default_config()
    n = body.dim.n
    if rule is None:
        rule = _volume_rule(body, cfg)
    if rule.m != 2 * n:
        raise InvalidInputError(f"volume rule must live on S^{2 * n - 1}")
    with np.errstate(over="ignore"):  # integrate_sphere rejects the overflow
        vals = body.radial(rule.nodes) ** (2 * n)
    return integrate_sphere(vals, rule) / (2 * n)


def volume_with_error(body, config: RunConfig | None = None):
    """Volume plus a refinement-difference error estimate (reduced rule)."""
    cfg = config or default_config()
    coarse = volume(body, rule=_volume_rule(body, cfg), config=cfg)
    bump = max(8, cfg.reduced_level(body.dim.n) // 8)
    fine = volume(body, rule=_volume_rule(body, cfg, bump=bump), config=cfg)
    return fine, abs(fine - coarse)


def min_radial(body, config: RunConfig | None = None, grid=None):
    """Minimum of the radial function over directions (grid + refinement)."""
    cfg = config or default_config()
    n = body.dim.n
    if grid is None:
        grid = grids.direction_grid(
            n, cfg.moduli_res[n], cfg.phase_res[n],
            with_phases=not body.is_full_torus_invariant,
        )
    _, dir_min, value, _ = grids.refine_extremum(
        lambda X: body.radial(X), grid, mode="min", halvings=cfg.refine_halvings,
    )
    return float(value), dir_min


def inradius_normalized(body, rule: QuadratureRule | None = None, grid=None,
                        config: RunConfig | None = None) -> float:
    """min rho / Vol^{1/2n}; scale-invariant by construction.

    ``rule`` feeds the polar volume, ``grid`` the radial minimum scan; both
    default to the configured choices.
    """
    cfg = config or default_config()
    rmin, _ = min_radial(body, cfg, grid=grid)
    vol = volume(body, rule=rule, config=cfg)
    return rmin / vol ** (1.0 / (2 * body.dim.n))
