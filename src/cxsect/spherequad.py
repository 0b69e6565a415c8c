"""Quadrature on unit spheres S^{m-1} and Monte Carlo volume oracles.

The 1-D building blocks are Gauss-Jacobi rules, nodes and weights from
Golub-Welsch on the classical three-term recurrence (``gauss_jacobi``), with
the total mass 2^{a+b+1} B(a+1, b+1) taken through ``math.lgamma``.

Two rule families:

* ``sphere_rule(m, level)`` -- the generic product rule (Gauss nodes in the
  polar cosines against the exact sphere weight, uniform trigonometric nodes
  in the azimuth).  Exact for all polynomials of degree <= 2*level - 1.
  The rule keeps only its ring heads (one per polar node, at azimuth 0) and
  its azimuths ``psi``; ``radial_values`` evaluates a body through them
  (``ConvexBody.ring_radial``: a moduli-only body once per ring, a perturbed
  ball through ``HarmonicExpansion.ring_values``), and expansions take their
  moments from them, so neither forms the node array.  It is built, bit for
  bit the per-node meshgrid build, only when ``nodes`` is read.
* ``invariant_sphere_rule(n, level, ...)`` -- a torus-reduced rule on
  S^{2n-1} for integrands invariant under the simultaneous rotation of all
  coordinate pairs.  The reduction drops the integral to the moduli simplex
  (plus optional relative phases), so high levels stay cheap; used as the
  default for radial-power integrals such as the polar volume formula.
  The rule keeps its two factors, moduli rows and phase rows, and builds
  its node array only when asked for it: ``radial_values`` evaluates a
  body through the factors (``ConvexBody.torus_radial``), so volumes,
  pairings and radius scans on these rules never form the nodes.

``QuadratureRule.node(i)`` forms one node from the factors, so an error
message can name a node without the array.

Final reductions go through ``np.sum`` (pairwise, thread-count independent)
so repeated runs produce identical bits.

``mc_volume`` draws its samples from one Philox stream keyed by the seed and
tests them in chunks of ``_MC_CHUNK`` rows, split over up to two of the CPUs
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

_MC_CHUNK = 16_384  # Monte Carlo samples drawn and tested per batch
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


def gauss_jacobi(npts, alpha, beta):
    """Gauss nodes/weights for weight (1-x)^alpha (1+x)^beta on (-1, 1).

    Golub-Welsch on the monic Jacobi recurrence; exact for polynomial degree
    <= 2*npts - 1 against the weight.
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
    return vals, mu0 * vecs[0, :] ** 2


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
    """Nodes/weights on S^{m-1} with a stated polynomial exactness degree.

    ``kind`` is "product" for the generic rule (exact on all polynomials) or
    "invariant" for the torus-reduced rule (exact on rotation-invariant
    polynomials only).

    Every rule is a set of rings: ``heads`` (H, m) holds one point per ring
    and ``psi`` the ``ring`` angles by which the phase of the last pair,
    z_n = x_{m-2} + i x_{m-1}, turns within every ring.  Node h*ring + k is
    head h with z_n multiplied by e^{i psi_k} and the other coordinates
    unchanged (``ring_points``).  A sum over the nodes can then take the
    phase first: sum_i w_i g(x_i) = sum_h sum_k w_{h,k} g(head_h turned by
    psi_k).  A rule comes in one of three forms:

    * by its nodes: ring 1, heads = nodes, psi = [0];
    * by ``heads`` and ``psi`` (the product rule);
    * by the torus factors ``moduli`` (M, n) and ``phases`` (F, n), node
      i*F + f being z_k = U[i, k] e^{i Phi[f, k]} (``torus_points``), with
      the phase of z_n the fastest of the ``ring`` phases; its heads and
      psi are ``torus_points(moduli, phases[::ring])`` and
      ``phases[:ring, -1]``, formed on first access.

    A rule not given by its nodes builds its node array on first access to
    ``nodes``; ``nodes_built`` tells whether that has happened.  Evaluations
    that can use the factors (``radial_values``, ``node``) never build it.
    Nodes, weights and factors are read-only.
    """

    def __init__(self, m, nodes, weights, exactness_degree, level, kind="product", ring=1,
                 moduli=None, phases=None, heads=None, psi=None):
        forms = [arrs for arrs in ((nodes,), (heads, psi), (moduli, phases))
                 if any(a is not None for a in arrs)]
        if len(forms) != 1 or any(a is None for a in forms[0]):
            raise InvalidInputError(
                "a rule takes either its nodes, its ring heads and angles, or its torus factors")
        if ring != 1 and moduli is None:
            raise InvalidInputError("only a rule given by its torus factors takes a ring length")
        if psi is not None:
            ring = psi.shape[0]
        count = weights.shape[0]
        if ring < 1 or count % ring or (phases is not None and phases.shape[0] % ring):
            raise InvalidInputError(f"ring length {ring} does not divide the {count} nodes")
        if (heads is not None and heads.shape[0] * ring != count) or (
                moduli is not None and moduli.shape[0] * phases.shape[0] != count):
            raise InvalidInputError(f"the rule's factors do not give its {count} nodes")
        self.m, self.weights, self.exactness_degree, self.level = m, weights, exactness_degree, level
        self.kind, self.ring, self.moduli, self.phases = kind, ring, moduli, phases
        self._nodes, self._heads, self._psi = nodes, heads, psi
        if nodes is not None:
            self._heads, self._psi = nodes, np.zeros(1)
        for arr in (nodes, weights, moduli, phases, heads, self._psi):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def nodes(self):
        """The (node_count, m) node array; built here once unless the rule
        was given by its nodes."""
        if self._nodes is None:
            if self.moduli is not None:
                nodes = torus_points(self.moduli, self.phases)
            else:
                nodes = ring_points(self._heads, self._psi)
            nodes.setflags(write=False)
            self._nodes = nodes
        return self._nodes

    @property
    def nodes_built(self):
        return self._nodes is not None

    @property
    def heads(self):
        """The (node_count / ring, m) ring heads; a torus rule forms them here once."""
        if self._heads is None:
            heads = torus_points(self.moduli, self.phases[::self.ring])
            heads.setflags(write=False)
            self._heads = heads
        return self._heads

    @property
    def psi(self):
        """The ``ring`` angles by which z_n turns within every ring."""
        if self._psi is None:
            self._psi = self.phases[:self.ring, -1]
        return self._psi

    def node(self, i):
        """Node i, bit for bit ``nodes[i]``, formed from the factors alone
        when the node array is not built."""
        if self._nodes is not None:
            return self._nodes[i]
        if self.moduli is not None:
            F = self.phases.shape[0]
            return torus_points(self.moduli[i // F, None], self.phases[i % F, None])[0]
        return ring_points(self._heads[i // self.ring, None], self._psi[i % self.ring, None])[0]

    @property
    def node_count(self):
        return self.weights.shape[0]

    def __repr__(self):
        return (f"QuadratureRule(m={self.m}, kind={self.kind!r}, level={self.level}, "
                f"nodes={self.node_count}, ring={self.ring})")


def torus_points(moduli, phases):
    """The points z_k = U[i, k] e^{i Phi[f, k]} in R^{2n}, row i*F + f, for
    moduli rows U (M, n) and phase rows Phi (F, n)."""
    U, Phi = np.asarray(moduli, dtype=float), np.asarray(phases, dtype=float)
    out = np.empty((U.shape[0], Phi.shape[0], 2 * U.shape[1]))
    out[:, :, 0::2] = U[:, None, :] * np.cos(Phi)[None, :, :]
    out[:, :, 1::2] = U[:, None, :] * np.sin(Phi)[None, :, :]
    return out.reshape(-1, 2 * U.shape[1])


def ring_points(heads, psi):
    """The points of the rings, row h*R + k: head h (H, m) with its last
    coordinate pair turned by the angle psi_k (R angles)."""
    X, psi = np.asarray(heads, dtype=float), np.asarray(psi, dtype=float)
    out = np.empty((X.shape[0], psi.shape[0], X.shape[1]))
    out[:, :, :-2] = X[:, None, :-2]
    x, y, c, s = X[:, -2, None], X[:, -1, None], np.cos(psi), np.sin(psi)
    out[:, :, -2] = x * c - y * s
    out[:, :, -1] = x * s + y * c
    return out.reshape(-1, X.shape[1])


def radial_values(body, rule: QuadratureRule):
    """``body.radial`` at the rule's nodes, in node order, without the node array.

    A torus rule evaluates through its factors, ``body.torus_radial(moduli,
    phases)``; any other rule through its rings, ``body.ring_radial(heads,
    psi)``.  A body with ``phase_bandwidth`` 0 depends on the moduli only,
    which are the same on every node of a ring, so it is evaluated once per
    ring (equal to the per-node values up to rounding).
    """
    if rule.moduli is not None:
        return body.torus_radial(rule.moduli, rule.phases).ravel()
    return body.ring_radial(rule.heads, rule.psi).ravel()


@lru_cache(maxsize=32)
def sphere_rule(m: int, level: int) -> QuadratureRule:
    """Product quadrature rule on S^{m-1}, 2 <= m <= 8.

    Gauss nodes in each polar cosine t_i (against the exact surface weight
    (1-t^2)^{(m-2-i)/2}) and 2*level uniform azimuth angles.  The node set is
    closed under x -> -x with equal weights, and all spherical polynomials of
    degree <= 2*level - 1 integrate exactly.  The azimuth of the last
    coordinate pair is the fastest axis, so the rule's rings are its
    2*level azimuths at each polar node (``QuadratureRule.ring`` = 2*level).
    The rule keeps only its ring heads, one row per polar node (level^{m-2}
    rows) with the last pair at azimuth 0 (the sine product, then 0), and
    the azimuths as ``psi``; its node array, bit for bit the per-node
    meshgrid build, is formed only when ``nodes`` is first read.
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
        return QuadratureRule(m, None, wpsi, 2 * L - 1, L, heads=np.array([[1.0, 0.0]]), psi=psi)
    tcos, tw = [], []
    for i in range(1, m - 1):
        lam = (m - 2 - i) / 2.0
        t, w = gauss_gegenbauer(L, lam)
        tcos.append(t)
        tw.append(w)
    cols = [g.ravel() for g in np.meshgrid(*tcos, indexing="ij")]  # one row per ring head
    hweights = np.ones_like(cols[0])
    for g in np.meshgrid(*tw, indexing="ij"):
        hweights = hweights * g.ravel()
    weights = (hweights[:, None] * wpsi).ravel()
    heads = np.zeros((cols[0].size, m))
    sinprod = np.ones(cols[0].size)
    for i in range(m - 2):
        heads[:, i] = sinprod * cols[i]
        sinprod = sinprod * np.sqrt(1.0 - cols[i] ** 2)
    heads[:, m - 2] = sinprod
    return QuadratureRule(m, None, weights, 2 * L - 1, L, heads=heads, psi=psi)


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
    fastest axis, so for n >= 2 the rule's rings are its ``nphase`` phases at
    each moduli node and outer phase (``QuadratureRule.ring`` = nphase).
    The rule is returned in factored form: moduli rows (L^{n-1}, n) and phase
    rows (nphase^{n-1}, n), whose node array is built on first access.
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
    return QuadratureRule(2 * n, None, weights, 2 * L - 1, L, kind="invariant",
                          ring=nphase if n > 1 else 1, moduli=U, phases=phases)


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
    keyed by ``seed``, tested in chunks of ``_MC_CHUNK`` rows.  The calling
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
    chunks = [(lo, min(lo + _MC_CHUNK, samples)) for lo in range(0, samples, _MC_CHUNK)]
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
