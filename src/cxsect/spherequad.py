"""Quadrature on unit spheres S^{m-1} and Monte Carlo volume oracles.

The 1-D building blocks are Gauss-Jacobi rules, nodes and weights from
Golub-Welsch on the classical three-term recurrence (``gauss_jacobi``), with
the total mass 2^{a+b+1} B(a+1, b+1) taken through ``math.lgamma``.

Two rule families, both kept as the factors of ``QuadratureRule``: a base
(H, c) and phase rows (F, c), node h*F + f being base row h with its
coordinate pairs turned by the phases of row f (``factor_points``).

* ``sphere_rule(m, level)`` -- the generic product rule (Gauss nodes in the
  polar cosines against the exact sphere weight, uniform trigonometric nodes
  in the azimuth).  Exact for all polynomials of degree <= 2*level - 1.
  Its base is one point per polar node, at azimuth 0, as complex rows; its
  phase rows turn the last pair by the azimuths.
* ``invariant_sphere_rule(n, level, ...)`` -- a torus-reduced rule on
  S^{2n-1} for integrands invariant under the simultaneous rotation of all
  coordinate pairs.  The reduction drops the integral to the moduli simplex
  (plus optional relative phases), so high levels stay cheap; used as the
  default for radial-power integrals such as the polar volume formula.
  Its base is its real moduli rows.

``radial_values`` evaluates a body through the factors
(``ConvexBody.factor_radial``: a moduli-only body once per base row, a
perturbed ball through ``HarmonicExpansion.factor_values``), and expansions
take their moments from the same factors (``harmonics._Block.moments``), so
volumes, pairings, radius scans and expansions never form the node array.
It is built, bit for bit the former eager builds, only when ``nodes`` is
read; ``QuadratureRule.node(i)`` forms one node from the factors, so an
error message can name a node without the array.

Final reductions go through ``np.sum`` (pairwise, thread-count independent)
so repeated runs produce identical bits.

``CHUNK_ROWS`` is the one chunk size of the point kernels: the monomial
tables of ``harmonics``, the radial calls of ``sections.section_values`` and
the samples of ``mc_volume``.

``mc_volume`` draws its samples from one Philox stream keyed by the seed and
tests them in chunks of ``CHUNK_ROWS`` rows, split over up to two of the CPUs
this process may use: the calling thread and a helper thread each take the
next untested chunk.  Each chunk positions its own generator at its first
draw through the counter, so it draws exactly the rows a sequential pass
would give it.  Hit counts are integers, so the result does not depend on
the CPU count, the chunk size or which thread tested which chunk.
"""
from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import philox
from .errors import InvalidInputError, NumericalEvaluationError

# rows per chunk of a point kernel: per-chunk overhead stays small, and a
# chunk's temporaries a few MB (an n = 3 degree-12 monomial table: 3.7 MB)
CHUNK_ROWS = 8192
# Threads that test Monte Carlo chunks, caller included: the CPUs this process
# may run on (its affinity; a CPU quota is not read), at most two.  Run time
# and peak memory were measured with one and two; each further thread would
# hold a chunk and its own malloc arena, unmeasured.
try:
    _MC_WORKERS = min(len(os.sched_getaffinity(0)), 2)
except AttributeError:  # no affinity query on this platform
    _MC_WORKERS = min(os.cpu_count() or 1, 2)


def sphere_area(m):
    """Surface area |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@lru_cache(maxsize=128)
def gauss_jacobi(npts, alpha, beta):
    """Gauss nodes/weights for weight (1-x)^alpha (1+x)^beta on (-1, 1).

    Golub-Welsch on the monic Jacobi recurrence; exact for polynomial degree
    <= 2*npts - 1 against the weight.  Memoised, since every phase count of
    ``invariant_sphere_rule`` repeats the same solves; the arrays are
    read-only.
    """
    if npts < 1:
        raise InvalidInputError("need at least one quadrature point")
    if alpha <= -1 or beta <= -1:
        raise InvalidInputError("Jacobi exponents must exceed -1")
    a, b = float(alpha), float(beta)
    diag = np.empty(npts)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, npts, dtype=float)
    diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2.0))
    off = np.sqrt(
        4 * k * (k + a) * (k + b) * (k + a + b)
        / ((2 * k + a + b) ** 2 * (2 * k + a + b + 1.0) * (2 * k + a + b - 1.0))
    )
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(T)
    mu0 = math.exp(
        (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    weights = mu0 * vecs[0, :] ** 2
    for arr in (vals, weights):
        arr.setflags(write=False)
    return vals, weights


def gauss_gegenbauer(npts, lam):
    """Symmetric Gauss rule for weight (1-t^2)^lam on (-1, 1), antipodally exact.

    Nodes and weights are symmetrized so the t -> -t closure holds bitwise.
    """
    t, w = gauss_jacobi(npts, lam, lam)
    return 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])


def gauss_power01(npts, expo):
    """Gauss rule on (0, 1) with weight s^expo."""
    x, w = gauss_jacobi(npts, 0.0, float(expo))
    return 0.5 * (x + 1.0), w / 2.0 ** (expo + 1.0)


class QuadratureRule:
    """Nodes and weights on S^{m-1} with a stated polynomial exactness degree,
    kept as two factors.

    The factors are a ``base`` (H, c) and ``phases`` (F, c) over c = ceil(m/2)
    coordinate pairs z_k: node h*F + f is base row h with z_k turned by
    e^{i phases[f, k]} (``factor_points``).  The torus rule's base is real,
    its moduli rows; the product rule's is complex, one row per polar node,
    with phase rows (0, ..., 0, psi); a rule given by its nodes is base = nodes
    viewed as complex with one zero phase row.  An odd m pads the base with
    a leading zero coordinate, which the nodes drop.

    The node array is built on first access to ``nodes`` (``nodes_built``
    tells); ``radial_values`` and ``node`` work on the factors.  Every array
    of the rule is read-only.
    """

    def __init__(self, m, base, phases, weights, exactness_degree, level):
        base, F = np.ascontiguousarray(base), phases.shape[0]
        count = weights.shape[0]
        if base.ndim != 2 or phases.shape[1:] != (base.shape[1],) or base.shape[1] != (m + 1) // 2:
            raise InvalidInputError(f"a rule on S^{m - 1} takes base and phase rows of "
                                    f"{(m + 1) // 2} coordinate pairs")
        if base.shape[0] * F != count:
            raise InvalidInputError(f"the rule's factors do not give its {count} nodes")
        self.m, self.base, self.phases, self.weights = m, base, phases, weights
        self.exactness_degree, self.level = exactness_degree, level
        self._nodes = None
        for arr in (base, phases, weights):
            arr.setflags(write=False)

    def _trim(self, pts):
        """The points ``pts``, read-only, without an odd m's padding coordinate."""
        pts = pts[:, pts.shape[1] - self.m:]
        pts.setflags(write=False)
        return pts

    @property
    def nodes(self):
        """The (node_count, m) node array, built here once."""
        if self._nodes is None:
            self._nodes = self._trim(factor_points(self.base, self.phases))
        return self._nodes

    @property
    def nodes_built(self):
        return self._nodes is not None

    def node(self, i):
        """Node i, bit for bit ``nodes[i]``, formed from the factors alone
        when the node array is not built."""
        if self._nodes is not None:
            return self._nodes[i]
        F = self.phases.shape[0]
        return self._trim(factor_points(self.base[i // F, None], self.phases[i % F, None]))[0]

    @property
    def node_count(self):
        return self.weights.shape[0]

    def __repr__(self):
        return f"QuadratureRule(m={self.m}, level={self.level}, nodes={self.node_count})"


def factor_points(base, phases):
    """The points z_k = W[h, k] e^{i Phi[f, k]} in R^{2c}, row h*F + f, for
    base rows W (H, c), real (moduli) or complex, and phase rows Phi (F, c)."""
    W, Phi = np.asarray(base), np.asarray(phases, dtype=float)
    c, s = np.cos(Phi), np.sin(Phi)
    out = np.empty((W.shape[0], Phi.shape[0], 2 * W.shape[1]))
    if np.iscomplexobj(W):
        x, y = W.real[:, None, :], W.imag[:, None, :]
        out[:, :, 0::2] = x * c - y * s
        out[:, :, 1::2] = x * s + y * c
    else:
        out[:, :, 0::2] = W[:, None, :] * c
        out[:, :, 1::2] = W[:, None, :] * s
    return out.reshape(-1, 2 * W.shape[1])


def radial_values(body, rule: QuadratureRule):
    """``body.radial`` at the rule's nodes, in node order, from the rule's
    factors (``body.factor_radial``), so no node array is formed.  A body
    with ``phase_bandwidth`` 0 is evaluated once per base row (equal to the
    per-node values up to rounding)."""
    return body.factor_radial(rule.base, rule.phases).ravel()


@lru_cache(maxsize=32)
def sphere_rule(m: int, level: int) -> QuadratureRule:
    """Product quadrature rule on S^{m-1}, 2 <= m <= 8.

    Gauss nodes in each polar cosine t_i (against the exact surface weight
    (1-t^2)^{(m-2-i)/2}) and 2*level uniform azimuth angles.  The node set is
    closed under x -> -x with equal weights, and all spherical polynomials of
    degree <= 2*level - 1 integrate exactly.  The azimuth of the last
    coordinate pair is the fastest axis.  Its base is one complex row per
    polar node (level^{m-2} rows) with the last pair at azimuth 0 (the sine
    product, then 0), and its phase rows are (0, ..., 0, psi) for the
    2*level azimuths psi; its node array, bit for bit the per-node meshgrid
    build, is formed only when ``nodes`` is first read.
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
        heads, hweights = np.array([[1.0, 0.0]]), np.ones(1)
    else:
        tcos, tw = [], []
        for i in range(1, m - 1):
            lam = (m - 2 - i) / 2.0
            t, w = gauss_gegenbauer(L, lam)
            tcos.append(t)
            tw.append(w)
        cols = [g.ravel() for g in np.meshgrid(*tcos, indexing="ij")]  # one row per polar node
        hweights = np.ones_like(cols[0])
        for g in np.meshgrid(*tw, indexing="ij"):
            hweights = hweights * g.ravel()
        heads = np.zeros((cols[0].size, m))
        sinprod = np.ones(cols[0].size)
        for i in range(m - 2):
            heads[:, i] = sinprod * cols[i]
            sinprod = sinprod * np.sqrt(1.0 - cols[i] ** 2)
        heads[:, m - 2] = sinprod
    if m % 2:  # pad to whole coordinate pairs; the nodes drop the leading 0
        heads = np.hstack([np.zeros((heads.shape[0], 1)), heads])
    phases = np.zeros((naz, heads.shape[1] // 2))
    phases[:, -1] = psi
    weights = (hweights[:, None] * wpsi).ravel()
    return QuadratureRule(m, heads.view(complex), phases, weights, 2 * L - 1, L)


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
    nphase exceeds the polynomial's phase bandwidth.  The phase of z_n is the
    fastest axis.  Its base is the real moduli rows (L^{n-1}, n), with phase rows
    (nphase^{n-1}, n); its node array is built on first access.
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
    weights = np.repeat(uw, phases.shape[0]) * ((2.0 * math.pi) ** n / phases.shape[0])
    return QuadratureRule(2 * n, U, phases, weights, 2 * L - 1, L)


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
            f"non-finite integrand value at node {bad}: {rule.node(bad)}"
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


def _mc_hits(body, R, seed, todo, lock):
    """Hits among the chunks this thread takes from the shared iterator
    ``todo`` of (lo, hi) row ranges of the (samples, N) stream of
    ``philox(seed)`` scaled to [-R, R]; ``lock`` guards ``todo``."""
    N = body.dim.N
    hits = 0
    try:
        while True:
            with lock:
                chunk = next(todo, None)
            if chunk is None:
                return hits
            lo, hi = chunk
            # one Philox counter step yields 4 draws and ``uniform`` takes one
            # draw per double: skip whole steps, then discard the remainder
            rng = philox(seed)
            rng.bit_generator.advance(lo * N // 4)
            rng.random(lo * N % 4)
            pts = rng.uniform(-R, R, size=(hi - lo, N))
            hits += int(np.count_nonzero(body.norm(pts) <= 1.0))
    except BaseException:
        with lock:  # the other threads stop at their next chunk
            for _ in todo:
                pass
        raise


def mc_volume(body, samples: int, seed: int) -> MCVolume:
    """Rejection-sampling volume estimate in the bounding box [-R, R]^{2n}.

    R is the larger of 1.01 times the maximum radial value over a coarse
    direction scan (a level-48 torus rule, evaluated through its factors)
    and the largest radial value at the n axes e_0, e_2, ..., e_{2n-2}.  For
    a body of the moduli only the second is exactly sup |x_i| over the body
    (turn every pair but the one of x_i by pi and take the midpoint), so the
    box contains the body even where the scan misses a vertex of the moduli
    simplex.  The samples are the rows of one counter-based stream (Philox)
    keyed by ``seed``, tested in chunks of ``CHUNK_ROWS`` rows.  The calling
    thread and up to ``_MC_WORKERS`` - 1 helper threads each take the next
    untested chunk until none is left, so a thread on a busy CPU takes
    fewer.  A helper's exception is re-raised unchanged, and a thread that
    fails empties the chunk list, so the others stop after the chunk in
    hand.  Each chunk advances its own generator to its first draw, so it
    gets the rows a sequential pass would give it, and the hit count is the
    same for any number of CPUs and any chunk size.  ``samples`` must be an
    integer >= 1e4.  Raises
    ``NumericalEvaluationError`` when the box volume, the estimate or its
    standard error is not finite.
    """
    if not isinstance(samples, numbers.Integral) or isinstance(samples, bool):
        raise InvalidInputError(f"mc_volume takes an integer sample count, got {samples!r}")
    samples = int(samples)
    if samples < 10_000:
        raise InvalidInputError("mc_volume requires at least 1e4 samples")
    n = body.dim.n
    N = 2 * n
    scan = invariant_sphere_rule(n, 48, nphase=1 if body.phase_bandwidth == 0 else 8)
    rmax = float(np.max(radial_values(body, scan)))
    if not (rmax > 0 and math.isfinite(rmax)):
        raise InvalidInputError("degenerate body: nonpositive bounding radius")
    R = max(1.01 * rmax, float(np.max(body.radial(np.eye(N)[0::2]))))
    chunks = [(lo, min(lo + CHUNK_ROWS, samples)) for lo in range(0, samples, CHUNK_ROWS)]
    W = min(_MC_WORKERS, len(chunks))
    todo, lock = iter(chunks), threading.Lock()
    with ThreadPoolExecutor(max_workers=max(W - 1, 1)) as pool:  # threads start on submit
        helpers = [pool.submit(_mc_hits, body, R, seed, todo, lock) for _ in range(W - 1)]
        hits = _mc_hits(body, R, seed, todo, lock) + sum(f.result() for f in helpers)
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
    return MCVolume(est, se, samples, hits, R, int(seed))
