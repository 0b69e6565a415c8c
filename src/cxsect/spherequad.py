"""Quadrature on unit spheres S^{m-1}, m even, and Monte Carlo volume oracles.

The 1-D building blocks are Gauss-Jacobi rules, nodes and weights from the
Jacobi matrix of the classical three-term recurrence (``gauss_jacobi``), with
the total mass 2^{a+b+1} B(a+1, b+1) taken through ``math.lgamma``: a dense
``eigh`` of the whole matrix (Golub-Welsch) for unequal exponents, and for
the symmetric weights (1-t^2)^lam of the product rule's polar cosines and
the torus rule's last moduli factor an SVD of the half-size block that
couples the even and odd indices, which gives nodes +-sigma closed under
t -> -t bit for bit.

Every rule is one table of base rows (H, m/2) times phase rows (F, m/2)
(``QuadratureRule``): node h*F + f is base row h with its coordinate pairs
turned by the phases of row f (``factor_points``).  The phase rows are the
uniform product grid of per-pair counts n_c (``phase_grid``).  The bodies
are invariant under the simultaneous rotation of the pairs, so every node of
a base row carries the same weight, and the rule keeps one weight per base
row (``row_weights``), never one per node.  The rule checks once, when
built, that its base rows are finite and of unit length, so every node is on
the sphere and the factored kernels of ``bodies`` and ``harmonics`` take a
rule as trusted.

* ``sphere_rule(m, level)`` -- the generic product rule, m in {2, 4, 6, 8}
  (Gauss nodes in the polar cosines, uniform azimuths), exact for all
  polynomials of degree <= 2*level - 1: one complex base row per polar node,
  phase counts (1, ..., 1, 2L).
* ``invariant_sphere_rule(n, level, nphase)`` -- the torus-reduced rule on
  S^{2n-1} for integrands invariant under the simultaneous rotation of all
  coordinate pairs: real moduli rows, phase counts (1, nphase, ..., nphase).

Both builders broadcast each 1-D Gauss factor along its own axis of their
grid of base rows, so neither forms a per-node or per-row grid.

An integrand reaches a rule as a table on its factors
(``QuadratureRule.table``): (H, F), value [h, f] at node h*F + f, its
flattening in node order, or (H, 1) for an integrand that ignores the
phases.  ``body.factor_radial(rule)`` gives a body's radial function in that
form, so volumes, pairings, radius scans and expansions never form the node
array; it is built only when ``nodes`` is read.  Final reductions go through
``np.sum`` (pairwise, thread-count independent), so repeated runs produce
identical bits.

Every chunk in the package holds at most ``CHUNK_ROWS`` rows and
``CHUNK_ENTRIES`` = 4 * ``CHUNK_ROWS`` entries.  The point kernels of narrow
rows take ``CHUNK_ROWS`` rows: the radial kernel calls of the section kernel,
the samples of ``mc_volume`` and the midpoint pairs of a perturbed ball's
certification, and the base rows of ``factor_radial`` for a body of the
moduli only.  The monomial tables of ``harmonics`` take min(``CHUNK_ROWS``,
``CHUNK_ENTRIES`` // P) rows of P monomials, so a chunk of the moment pass
stays near a core's L2 cache at any degree.  The polar integrals, the volume
and the Parseval pairing, sum their tables over blocks of consecutive base
rows (``QuadratureRule.row_block``) of at most ``CHUNK_ENTRIES`` entries
(``sections._radial_power_integral``), so no array of theirs grows with the
node count.

``mc_volume`` draws its samples from one Philox stream keyed by the seed and
tests them in chunks of ``CHUNK_ROWS`` rows, split over up to two of the CPUs
this process may use: the calling thread and a helper thread each take the
next untested chunk.  Each thread keeps one generator and one draw buffer;
it positions the generator at each chunk's first draw through the counter,
so the chunk gets exactly the rows a sequential pass would give it.  Hit
counts are integers, so the result does not depend on the CPU count, the
chunk size or which thread tested which chunk.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import MC_MIN_SAMPLES, _integer, _seed, philox
from .errors import InvalidInputError, NumericalEvaluationError

# the smallest normal double: a positive integral below it has lost its precision
_TINY = np.finfo(float).tiny

# rows per chunk of a point kernel: per-chunk overhead stays small, and a
# chunk's temporaries a few MB
CHUNK_ROWS = 8192
# entries per chunk of a kernel whose rows are wide (a row of P monomials, a
# base row of F phases): 512 KB as complex, so a chunk and its temporaries stay
# near a core's L2 cache (an n = 3 degree-12 monomial chunk: 1,170 rows of 28)
CHUNK_ENTRIES = 4 * CHUNK_ROWS
# Threads that test Monte Carlo chunks, caller included: the CPUs this process
# may run on (its affinity; a CPU quota is not read), at most two.  Run time
# and peak memory were measured with one and two; each further thread would
# hold a chunk and its own malloc arena, unmeasured.
try:
    _MC_WORKERS = min(len(os.sched_getaffinity(0)), 2)
except AttributeError:  # no affinity query on this platform
    _MC_WORKERS = min(os.cpu_count() or 1, 2)


def _all_unit(x):
    """Whether every vector along the last axis of ``x`` is within 1e-8 of
    unit length (a nan or infinite one is not): the package's one unit-length
    test, each caller raising its own error."""
    return bool(np.all(np.abs(np.sqrt(np.einsum("...i,...i->...", x, x)) - 1.0) <= 1e-8))


def sphere_area(m):
    """Surface area |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@lru_cache(maxsize=128)
def gauss_jacobi(npts, alpha, beta):
    """Gauss nodes/weights for weight (1-x)^alpha (1+x)^beta on (-1, 1),
    nodes ascending; exact for polynomial degree <= 2*npts - 1 against the
    weight.

    The nodes are the eigenvalues of the npts x npts Jacobi matrix T of the
    monic Jacobi recurrence and the weights mu0 v_0^2, v_0 the first entry of
    each unit eigenvector, mu0 the total mass (Golub-Welsch).  For alpha !=
    beta that is a dense ``eigh`` of T.  For alpha = beta the diagonal of T is
    zero, so T couples only even to odd indices: with B the
    ceil(npts/2) x floor(npts/2) lower bidiagonal block of those couplings
    (the 1st, 3rd, 5th, ... off-diagonal entries on its diagonal, the 2nd,
    4th, ... below it), the eigenpairs of T, its even indices taken first,
    are +-sigma_i with vectors (u_i, +-v_i)/sqrt(2) from the SVD
    B = U S V^T, and for odd npts the node 0 with vector (u, 0), u the last
    column of the full U.  So the nodes are +-sigma_i with weights
    mu0 U[0, i]^2 / 2, and 0 with weight mu0 U[0, -1]^2, from an SVD of half
    the size (Gautschi, Orthogonal Polynomials, 2004); the rule is closed
    under x -> -x bit for bit.  Memoised, since every phase count of
    ``invariant_sphere_rule`` repeats the same solves; the arrays are
    read-only.
    """
    if npts < 1:
        raise InvalidInputError("need at least one quadrature point")
    if alpha <= -1 or beta <= -1:
        raise InvalidInputError("Jacobi exponents must exceed -1")
    a, b = float(alpha), float(beta)
    mu0 = math.exp(
        (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    k = np.arange(1, npts, dtype=float)
    off = np.sqrt(
        4 * k * (k + a) * (k + b) * (k + a + b)
        / ((2 * k + a + b) ** 2 * (2 * k + a + b + 1.0) * (2 * k + a + b - 1.0))
    )
    if a == b:
        half = npts // 2
        B = np.zeros((npts - half, half))
        np.fill_diagonal(B, off[0::2])
        np.fill_diagonal(B[1:], off[1::2])
        # at npts = 1 no coupling: the one node 0 carries the whole mass
        U, sigma, _ = np.linalg.svd(B) if half else (np.ones((1, 1)), np.empty(0), None)
        w = (0.5 * mu0) * U[0, :half] ** 2  # sigma descends, so -sigma ascends
        vals = np.concatenate([-sigma, [0.0] * (npts % 2), sigma[::-1]])
        # U is square: its column ``half`` exists for odd npts only, the node 0
        weights = np.concatenate([w, mu0 * U[0, half:] ** 2, w[::-1]])
    else:
        diag = np.empty(npts)
        diag[0] = (b - a) / (a + b + 2.0)
        diag[1:] = (b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2.0))
        vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        weights = mu0 * vecs[0, :] ** 2
    for arr in (vals, weights):
        arr.setflags(write=False)
    return vals, weights


def gauss_gegenbauer(npts, lam):
    """Symmetric Gauss rule for weight (1-t^2)^lam on (-1, 1): ``gauss_jacobi``
    at alpha = beta = lam, whose nodes and weights are closed under t -> -t
    bit for bit, so the rule is antipodally exact."""
    return gauss_jacobi(npts, lam, lam)


def gauss_power01(npts, expo):
    """Gauss rule on (0, 1) with weight s^expo."""
    x, w = gauss_jacobi(npts, 0.0, float(expo))
    return 0.5 * (x + 1.0), w / 2.0 ** (expo + 1.0)


class QuadratureRule:
    """Nodes and weights on S^{m-1}, m even, with a stated polynomial
    exactness degree, kept as two factors.

    The factors are a ``base`` (H, m/2) and ``phases`` (F, m/2) over the
    coordinate pairs z_k: node h*F + f is base row h with z_k turned by
    e^{i phases[f, k]} (``factor_points``).  The phase rows are the uniform
    product grid of ``phase_counts``: n_k phases 2 pi j / n_k in pair k, the
    last pair fastest (``phase_grid``).  Every phase row of a base row
    carries the same weight, so the rule keeps one weight per base row:
    ``row_weights`` (H,), row_weights[h] the weight of each of the F nodes of
    base row h; ``base_weights`` (H,) holds their sum.  The torus rule's base
    is real, its moduli rows; the product rule's is complex, one row per
    polar node; a rule given by its nodes is base = nodes viewed as complex
    with counts of 1, so one node per row.

    The base rows must be finite and of unit length within 1e-8, checked
    here once: the factored kernels (``factor_radial``, ``factor_values``,
    the moments of ``harmonic_expand``) hold only on the unit sphere and
    take the rule as given.  ``row_block`` cuts a block of consecutive base
    rows without checking them again; ``row_offset`` is the block's first
    row in the built rule, 0 for a built rule.  ``row_weights`` may be any
    sequence of H numbers.  The node array is built on first access to ``nodes``
    (``nodes_built`` tells); ``table`` and ``node`` work on the factors.
    Every array of the rule is read-only.
    """

    def __init__(self, m, base, phase_counts, row_weights, exactness_degree, level):
        base = np.ascontiguousarray(base)
        counts = tuple(_integer(c, "phase count") for c in phase_counts)
        row_weights = np.asarray(row_weights, dtype=float)
        if m % 2 or base.ndim != 2 or base.shape[1] != m // 2 or len(counts) != base.shape[1]:
            raise InvalidInputError(f"a rule on S^{m - 1} takes base rows and phase counts of "
                                    f"m/2 = {m / 2:g} coordinate pairs")
        # the moment recursion and the lift of ``harmonics`` hold where |z| = 1;
        # the row lengths from the real view, so no copy of the base is made
        if not _all_unit(base.view(float) if np.iscomplexobj(base) else base):
            raise InvalidInputError("a rule's base rows must be finite and of unit length")
        if not all(c >= 1 for c in counts):
            raise InvalidInputError(f"phase counts must be integers >= 1, got {counts}")
        if row_weights.shape != base.shape[:1]:
            raise InvalidInputError(f"a rule of {base.shape[0]} base rows takes one weight per "
                                    f"row, got shape {row_weights.shape}")
        self.m, self.base, self.phases, self.row_weights = m, base, phase_grid(counts), row_weights
        self.phase_counts = counts
        self.exactness_degree, self.level = exactness_degree, level
        self.row_offset, self._nodes = 0, None
        for arr in (base, self.phases, row_weights):
            arr.setflags(write=False)

    def row_block(self, lo, hi):
        """The rule of base rows lo:hi with all the phase rows: views of this
        rule's arrays, taken as checked, since its rows are this rule's.  Its
        node i is node lo*F + i here; its ``row_offset`` counts from the
        built rule."""
        block = object.__new__(QuadratureRule)
        block.m, block.phases, block.phase_counts = self.m, self.phases, self.phase_counts
        block.base, block.row_weights = self.base[lo:hi], self.row_weights[lo:hi]
        block.exactness_degree, block.level = self.exactness_degree, self.level
        block.row_offset, block._nodes = self.row_offset + lo, None
        return block

    @cached_property
    def base_weights(self):
        """Each base row's node weights summed over its F phase rows, (H,),
        read-only: the pairwise sum of F equal terms, which rounds apart from
        F * row_weights.  Formed on first use, by the first table of width 1
        on a rule of several phase rows."""
        F = self.phases.shape[0]
        out = np.sum(np.broadcast_to(self.row_weights[:, None], (len(self.row_weights), F)), axis=1)
        out.setflags(write=False)
        return out

    def table(self, values):
        """An integrand as a table on the factors, and its weights.

        ``values`` is (H, F), value [h, f] at node h*F + f; or its flattening,
        one value per node in node order; or (H, 1) for an integrand that
        ignores the phases.  Returns (values, weights) as float arrays: the
        values (H, F) with the weights a column (H, 1) of ``row_weights``, or
        the values (H, 1) with ``base_weights``, so the weighted sum is the
        quadrature sum either way.  A callable, or any other shape, raises
        ``InvalidInputError``.
        """
        if callable(values):
            raise InvalidInputError("an integrand is given by its values on the rule, not a callable")
        vals = np.asarray(values, dtype=float)
        H, F = self.base.shape[0], self.phases.shape[0]
        if vals.shape == (H, 1) and F > 1:
            return vals, self.base_weights[:, None]
        if vals.shape not in ((H * F,), (H, F)):
            raise InvalidInputError(f"integrand has shape {vals.shape}, expected ({H * F},), "
                                    f"({H}, {F}) or ({H}, 1)")
        return vals.reshape(H, F), self.row_weights[:, None]

    @property
    def nodes(self):
        """The (node_count, m) node array, built here once."""
        if self._nodes is None:
            self._nodes = factor_points(self.base, self.phases)
            self._nodes.setflags(write=False)
        return self._nodes

    @property
    def nodes_built(self):
        return self._nodes is not None

    def node(self, i):
        """Node i from its base row and phase row alone: the bits of ``nodes[i]``."""
        F = self.phases.shape[0]
        return factor_points(self.base[i // F, None], self.phases[i % F, None])[0]

    @property
    def node_count(self):
        return self.base.shape[0] * self.phases.shape[0]

    def __repr__(self):
        return f"QuadratureRule(m={self.m}, level={self.level}, nodes={self.node_count})"


def phase_grid(counts):
    """The phase rows (prod counts, c) of the uniform product grid with
    counts[k] phases 2 pi j / counts[k] in pair k, the last pair fastest."""
    axes = [2.0 * math.pi * np.arange(c) / c for c in counts]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def factor_points(base, phases):
    """The points z_k = W[h, k] e^{i Phi[f, k]} in R^{2c}, row h*F + f, for
    base rows W (H, c), complex or real (imaginary part 0), phase rows Phi (F, c)."""
    W, Phi = np.asarray(base), np.asarray(phases, dtype=float)
    c, s = np.cos(Phi), np.sin(Phi)
    out = np.empty((W.shape[0], Phi.shape[0], 2 * W.shape[1]))
    x, y = W.real[:, None, :], W.imag[:, None, :]
    out[:, :, 0::2] = x * c - y * s
    out[:, :, 1::2] = x * s + y * c
    return out.reshape(-1, 2 * W.shape[1])


@lru_cache(maxsize=32, typed=True)
def sphere_rule(m: int, level: int) -> QuadratureRule:
    """Product quadrature rule on S^{m-1}, m in {2, 4, 6, 8}.

    Gauss nodes in each polar cosine t_i (against the exact surface weight
    (1-t^2)^{(m-2-i)/2}) and 2*level uniform azimuth angles.  The node set is
    closed under x -> -x with equal weights, and all spherical polynomials of
    degree <= 2*level - 1 integrate exactly.  The azimuth of the last
    coordinate pair is the fastest axis.  Its base is one complex row per
    polar node (level^{m-2} rows) with the last pair at azimuth 0 (the sine
    product, then 0), and its phase counts are (1, ..., 1, 2*level): the
    phase rows are (0, ..., 0, psi) for the 2*level azimuths psi; its node
    array, bit for bit the per-node meshgrid build, is formed only when
    ``nodes`` is first read.  m and level are integers (``config._integer``);
    the cache is typed, so 1 and True are different keys and a cache hit
    never skips these checks.
    """
    m, L = _integer(m, "m"), _integer(level, "level")
    if m not in (2, 4, 6, 8):
        raise InvalidInputError(f"sphere_rule supports m in {{2, 4, 6, 8}}, got {m}")
    if L < 1:
        raise InvalidInputError("level must be >= 1")
    # one polar node per cell of an (L,)*(m-2) grid, one axis per polar
    # cosine: each 1-D factor broadcast along its axis, no per-node grid (at
    # m = 2 no axis: the one head [1, 0] of weight 1)
    d = m - 2
    heads = np.zeros((L,) * d + (m,))
    hweights, sinprod = np.ones(()), np.ones(())
    for i in range(d):
        t, w = gauss_gegenbauer(L, (m - 3 - i) / 2.0)
        axis = (L,) + (1,) * (d - 1 - i)
        heads[..., i] = sinprod * t.reshape(axis)
        hweights = hweights * w.reshape(axis)
        sinprod = sinprod * np.sqrt(1.0 - t ** 2).reshape(axis)
    heads[..., m - 2] = sinprod
    heads, hweights = heads.reshape(-1, m), hweights.ravel()
    counts = (1,) * (m // 2 - 1) + (2 * L,)
    return QuadratureRule(m, heads.view(complex), counts, hweights * (math.pi / L), 2 * L - 1, L)


@lru_cache(maxsize=32, typed=True)
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
    fastest axis.  Its base is the real moduli rows (L^{n-1}, n), built by
    broadcasting as in ``sphere_rule``, with phase counts (1, nphase, ...,
    nphase); its node array is built on first access.  n, level and nphase
    are integers, checked on every call as in ``sphere_rule``.
    """
    n, L, nphase = _integer(n, "n"), _integer(level, "level"), _integer(nphase, "nphase")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if L < 1 or nphase < 1:
        raise InvalidInputError("level and nphase must be >= 1")
    # moduli part: u_1 = sqrt(1-s_1), u_i = sqrt(s_1..s_{i-1}(1-s_i)), u_n = sqrt(s_1..s_{n-1}),
    # one moduli row per cell of an (L,)*(n-1) grid, one axis per s_i: each
    # 1-D factor broadcast along its axis, as in ``sphere_rule`` (at n = 1 no
    # axis: the one row [1] of weight 1)
    d = n - 1
    U = np.empty((L,) * d + (n,))
    uw, running = np.ones(()), np.ones(())
    for i in range(d):
        s, w = gauss_power01(L, n - i - 2)
        axis = (L,) + (1,) * (d - 1 - i)
        U[..., i] = np.sqrt(running * (1.0 - s.reshape(axis)))
        uw = uw * (w / 2.0).reshape(axis)
        running = running * s.reshape(axis)
    U[..., n - 1] = np.sqrt(running)
    U, uw = U.reshape(-1, n), uw.ravel()
    # phase part: first coordinate pinned at phase 0
    F = nphase ** (n - 1)
    return QuadratureRule(2 * n, U, (1,) + (nphase,) * (n - 1), uw * ((2.0 * math.pi) ** n / F),
                          2 * L - 1, L)


def integrate_sphere(f, rule: QuadratureRule) -> float:
    """The quadrature sum of the integrand values ``f``, a table on the
    rule's factors (``QuadratureRule.table``), by pairwise summation.

    Non-finite values, and finite values whose weighted sum overflows, raise
    ``NumericalEvaluationError``; a non-finite value is named by its node in
    the rule a ``row_block`` was cut from.
    """
    vals, weights = rule.table(f)
    if not np.all(np.isfinite(vals)):
        h, c = np.argwhere(~np.isfinite(vals))[0]
        F = rule.phases.shape[0]
        raise NumericalEvaluationError(
            f"non-finite integrand value at node {(rule.row_offset + int(h)) * F + int(c)}: "
            f"{rule.node(int(h) * F + int(c))}"
        )
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        total = float(np.sum(weights * vals))
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


def _mc_hits(body, R, seed, todo, lock, rows):
    """Hits among the chunks this thread takes from the shared iterator
    ``todo`` of (lo, hi) row ranges of the (samples, N) stream of
    ``philox(seed)`` scaled to [-R, R]; ``lock`` guards ``todo``.  The thread
    draws into one buffer of ``rows`` rows with one generator, reset to its
    fresh state and advanced to each chunk's first draw.  The draws are
    finite rows of width N, so the norm kernel takes them unchecked."""
    N = body.dim.N
    hits = 0
    try:
        rng = philox(seed)
        fresh = rng.bit_generator.state
        buf = np.empty((rows, N))
        while True:
            with lock:
                chunk = next(todo, None)
            if chunk is None:
                return hits
            lo, hi = chunk
            # one Philox counter step yields 4 draws and ``random`` takes one
            # draw per double: skip whole steps, then discard the remainder
            rng.bit_generator.state = fresh
            rng.bit_generator.advance(lo * N // 4)
            rng.random(lo * N % 4)
            pts = rng.random(out=buf[:hi - lo])
            # ``uniform(-R, R)`` gives -R + (2R) U: the same doubles
            pts *= 2.0 * R
            pts -= R
            hits += int(np.count_nonzero(body._norm_impl(pts) <= 1.0))
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
    hand.  Each thread has one generator and one draw buffer; it positions
    the generator at each chunk's first draw, so the chunk gets the rows a
    sequential pass would give it, and the hit count is the same for any
    number of CPUs and any chunk size.  ``samples`` is an integer of at
    least ``config.MC_MIN_SAMPLES`` (``config._integer``, so 2e4 is 20000)
    and ``seed`` a non-negative integer (``config._seed``).  Raises
    ``NumericalEvaluationError``, before drawing, when the box volume is not
    finite or is below the smallest normal double (otherwise the estimate
    and its standard error are finite, the error nonzero).
    """
    samples = _integer(samples, "sample count")
    if samples < MC_MIN_SAMPLES:
        raise InvalidInputError(f"mc_volume requires at least {MC_MIN_SAMPLES} samples")
    seed = _seed(seed)
    n = body.dim.n
    N = 2 * n
    scan = invariant_sphere_rule(n, 48, nphase=1 if body.phase_bandwidth == 0 else 8)
    rmax = float(np.max(body.factor_radial(scan)))
    if not (rmax > 0 and math.isfinite(rmax)):
        raise InvalidInputError("degenerate body: nonpositive bounding radius")
    R = max(1.01 * rmax, float(np.max(body._radial_impl(np.eye(N)[0::2]))))
    try:
        boxvol = (2.0 * R) ** N
    except OverflowError:  # a float power raises instead of returning inf
        boxvol = math.inf
    if not _TINY <= boxvol < math.inf:
        raise NumericalEvaluationError(f"Monte Carlo volume is not finite or underflows: "
                                       f"box volume (2R)^{N} with R={R:.6g}")
    chunks = [(lo, min(lo + CHUNK_ROWS, samples)) for lo in range(0, samples, CHUNK_ROWS)]
    W = min(_MC_WORKERS, len(chunks))
    todo, lock = iter(chunks), threading.Lock()
    with ThreadPoolExecutor(max_workers=max(W - 1, 1)) as pool:  # threads start on submit
        args = (body, R, seed, todo, lock, min(CHUNK_ROWS, samples))
        helpers = [pool.submit(_mc_hits, *args) for _ in range(W - 1)]
        hits = _mc_hits(*args) + sum(f.result() for f in helpers)
    frac = hits / samples
    est = boxvol * frac
    se = boxvol * math.sqrt(max(frac * (1.0 - frac), 1e-300) / samples)
    return MCVolume(est, se, samples, hits, R, seed)
