"""Quadrature on unit spheres S^{m-1} and Monte Carlo volume oracles.

Two rule families:

* ``sphere_rule(m, level)`` -- the generic product rule (Gauss nodes in the
  polar cosines against the exact sphere weight, uniform trigonometric nodes
  in the azimuth).  Exact for all polynomials of degree <= 2*level - 1.
* ``invariant_sphere_rule(n, level, ...)`` -- a torus-reduced rule on
  S^{2n-1} for integrands invariant under the simultaneous rotation of all
  coordinate pairs.  The reduction drops the integral to the moduli simplex
  (plus optional relative phases), so high levels stay cheap; used as the
  default for radial-power integrals such as the polar volume formula.

Final reductions go through ``np.sum`` (pairwise, thread-count independent)
so repeated runs produce identical bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericalEvaluationError
from .specfun import gauss_gegenbauer, gauss_power01, log_gamma

_MC_CHUNK = 1_000_000  # Monte Carlo samples drawn and tested per batch


def sphere_area(m):
    """Surface area |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2)."""
    return 2.0 * math.pi ** (m / 2.0) / math.exp(log_gamma(m / 2.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on S^{m-1} with a stated polynomial exactness degree.

    ``kind`` is "product" for the generic rule (exact on all polynomials) or
    "invariant" for the torus-reduced rule (exact on rotation-invariant
    polynomials only).
    """

    m: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    level: int
    kind: str = "product"
    meta: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def node_count(self):
        return self.nodes.shape[0]


@lru_cache(maxsize=32)
def sphere_rule(m: int, level: int) -> QuadratureRule:
    """Product quadrature rule on S^{m-1}, 2 <= m <= 8.

    Gauss nodes in each polar cosine t_i (against the exact surface weight
    (1-t^2)^{(m-2-i)/2}) and 2*level uniform azimuth angles.  The node set is
    closed under x -> -x with equal weights, and all spherical polynomials of
    degree <= 2*level - 1 integrate exactly.
    """
    if not 2 <= m <= 8:
        raise InvalidInputError(f"sphere_rule supports 2 <= m <= 8, got {m}")
    if level < 1:
        raise InvalidInputError("level must be >= 1")
    L = int(level)
    naz = 2 * L
    psi = 2.0 * math.pi * np.arange(naz) / naz
    wpsi = np.full(naz, math.pi / L)
    if m == 2:
        nodes = np.stack([np.cos(psi), np.sin(psi)], axis=1)
        return QuadratureRule(m, nodes, wpsi, 2 * L - 1, L)
    tcos, tw = [], []
    for i in range(1, m - 1):
        lam = (m - 2 - i) / 2.0
        t, w = gauss_gegenbauer(L, lam)
        tcos.append(t)
        tw.append(w)
    grids = np.meshgrid(*tcos, psi, indexing="ij")
    wgrids = np.meshgrid(*tw, wpsi, indexing="ij")
    cols = [g.ravel() for g in grids]
    weights = np.ones_like(cols[0])
    for g in wgrids:
        weights = weights * g.ravel()
    count = cols[0].size
    nodes = np.empty((count, m))
    sinprod = np.ones(count)
    for i in range(m - 2):
        nodes[:, i] = sinprod * cols[i]
        sinprod = sinprod * np.sqrt(1.0 - cols[i] ** 2)
    nodes[:, m - 2] = sinprod * np.cos(cols[m - 2])
    nodes[:, m - 1] = sinprod * np.sin(cols[m - 2])
    return QuadratureRule(m, nodes, weights, 2 * L - 1, L)


@lru_cache(maxsize=32)
def invariant_sphere_rule(n: int, level: int, nphase: int = 1) -> QuadratureRule:
    """Torus-reduced rule on S^{2n-1} for rotation-invariant integrands.

    Writes z_k = u_k e^{i phi_k}; the surface integral reduces to the moduli
    vector u (simplex sphere, weight prod u_k, handled by nested Gauss rules
    with weight s^gamma) times the phase torus.  ``nphase`` = 1 integrates
    functions of the moduli only; ``nphase`` = M adds M uniform points in each
    of the n-1 relative phases, enough for integrands that are invariant under
    the simultaneous phase shift but not the full torus.

    Exact for rotation-invariant polynomials of degree <= 2*level - 1 when
    nphase exceeds the polynomial's phase bandwidth.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if level < 1 or nphase < 1:
        raise InvalidInputError("level and nphase must be >= 1")
    L = int(level)
    # moduli part: u_1 = sqrt(1-s_1), u_i = sqrt(s_1..s_{i-1}(1-s_i)), u_n = sqrt(s_1..s_{n-1})
    svals, swts = [], []
    for i in range(1, n):
        s, w = gauss_power01(L, n - i - 1)
        svals.append(s)
        swts.append(w / 2.0)
    if n == 1:
        U = np.ones((1, 1))
        uw = np.ones(1)
    else:
        grids = np.meshgrid(*svals, indexing="ij")
        wgrids = np.meshgrid(*swts, indexing="ij")
        S = np.stack([g.ravel() for g in grids], axis=1)
        uw = np.ones(S.shape[0])
        for g in wgrids:
            uw = uw * g.ravel()
        U = np.empty((S.shape[0], n))
        running = np.ones(S.shape[0])
        for i in range(n - 1):
            U[:, i] = np.sqrt(running * (1.0 - S[:, i]))
            running = running * S[:, i]
        U[:, n - 1] = np.sqrt(running)
    # phase part: first coordinate pinned at phase 0
    axes = [np.zeros(1)] + [2.0 * math.pi * np.arange(nphase) / nphase for _ in range(n - 1)]
    pg = np.meshgrid(*axes, indexing="ij")
    phases = np.stack([g.ravel() for g in pg], axis=1)
    nph = phases.shape[0]
    mu_count, N = U.shape[0], 2 * n
    nodes = np.empty((mu_count * nph, N))
    for k in range(n):
        uk = np.repeat(U[:, k], nph)
        ph = np.tile(phases[:, k], mu_count)
        nodes[:, 2 * k] = uk * np.cos(ph)
        nodes[:, 2 * k + 1] = uk * np.sin(ph)
    weights = np.repeat(uw, nph) * ((2.0 * math.pi) ** n / nph)
    return QuadratureRule(2 * n, nodes, weights, 2 * L - 1, L, kind="invariant",
                          meta=(("nphase", nphase),))


def integrate_sphere(f, rule: QuadratureRule) -> float:
    """Sum of weights * f(nodes), fixed node order, pairwise summation.

    ``f`` is either a callable on an (M, m) array of unit vectors or a
    precomputed value array of length M.  Non-finite values, and finite
    values whose weighted sum overflows, raise ``NumericalEvaluationError``.
    """
    vals = f(rule.nodes) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != (rule.node_count,):
        raise InvalidInputError("integrand returned wrong shape")
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NumericalEvaluationError(
            f"non-finite integrand value at node {bad}: {rule.nodes[bad]}"
        )
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        total = float(np.sum(rule.weights * vals))
    if not math.isfinite(total):
        raise NumericalEvaluationError("non-finite weighted sum of finite integrand values")
    return total


@dataclass(frozen=True)
class MCVolume:
    estimate: float
    std_error: float
    samples: int
    hits: int
    box_halfwidth: float
    seed: int


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def mc_volume(body, samples: int, seed: int) -> MCVolume:
    """Rejection-sampling volume estimate in the bounding box [-R, R]^{2n}.

    R is 1.01 times the maximum radial value over a coarse direction scan.
    Counter-based RNG (Philox) keyed by ``seed``; results are reproducible and
    independent of chunking because each chunk draws from one stream.  Raises
    ``NumericalEvaluationError`` when the box volume, the estimate or its
    standard error is not finite.
    """
    if samples < 10_000:
        raise InvalidInputError("mc_volume requires at least 1e4 samples")
    n = body.dim.n
    N = 2 * n
    scan = invariant_sphere_rule(n, 48, nphase=1 if body.phase_bandwidth == 0 else 8)
    rmax = float(np.max(body.radial(scan.nodes)))
    if not (rmax > 0 and math.isfinite(rmax)):
        raise InvalidInputError("degenerate body: nonpositive bounding radius")
    R = 1.01 * rmax
    rng = _philox(seed)
    hits = 0
    remaining = int(samples)
    while remaining > 0:
        k = min(_MC_CHUNK, remaining)
        pts = rng.uniform(-R, R, size=(k, N))
        hits += int(np.count_nonzero(body.norm(pts) <= 1.0))
        remaining -= k
    frac = hits / samples
    try:
        boxvol = (2.0 * R) ** N
    except OverflowError:  # a float power raises instead of returning inf
        boxvol = math.inf
    est = boxvol * frac
    se = boxvol * math.sqrt(max(frac * (1.0 - frac), 1e-300) / samples)
    if not (math.isfinite(boxvol) and math.isfinite(est) and math.isfinite(se)):
        raise NumericalEvaluationError(
            f"Monte Carlo volume is not finite: box volume (2R)^{N} with R={R:.6g}")
    return MCVolume(est, se, int(samples), hits, R, int(seed))
