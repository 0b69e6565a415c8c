"""Parametric origin-symmetric convex bodies in R^{2n} invariant under the
simultaneous rotation of all coordinate pairs.

Identification: a point (x_11, x_12, ..., x_n1, x_n2) in R^{2n} is read as
(z_1, ..., z_n) in C^n with z_k = x_k1 + i x_k2.  Every admitted kind depends
on x only through the moduli |z_k| or through rotation-invariant harmonics,
so the invariance holds by construction; ``validate`` certifies it (and
homogeneity and midpoint convexity) by randomized sampling.

Bodies are immutable and hashable; all evaluations are pure and vectorized
over a trailing axis of length 2n.

Inputs are checked at the public entries and the kernels trust their
callers.  ``radial`` checks its input once (finite, trailing axis 2n, unit
length) and hands it to the kind's ``_radial_impl``; ``norm`` checks it
(finite, trailing axis 2n) and hands it to ``_norm_impl``.  For the ball, lq
and ellipsoid kinds the radial function is 1/norm.  A PerturbedBall is
defined by its radial function, so its ``radial`` (``radial_profile``)
evaluates that profile directly and only its norm inverts it, at each row
made unit (a zero row at e_0, its norm then set to 0), through the unchecked
path of ``HarmonicExpansion``.  Callers inside the package whose points are
finite and unit by construction (section chunks, direction grids, Monte
Carlo draws, certification samples) call the kernels directly.

``factor_radial(rule)`` gives the radial function at a ``QuadratureRule``'s
nodes as a table on its factors, without forming the nodes: (H, 1) through
``_radial_impl`` once per base row, in blocks of ``CHUNK_ROWS`` rows, for the
kinds of the moduli only, (H, F) through ``HarmonicExpansion.factor_values``
for a PerturbedBall.  Both take the rule's unit base rows as checked and
compare only its sphere with the body's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .config import COMPLEX_DIMS, _integer, _real, _seed, philox
from .errors import ConvexityError, InvalidInputError
from .spherequad import _TINY, CHUNK_ROWS, _all_unit

_CERTIFY_SEED = 0x5EED_C0DE
_CERTIFY_PAIRS = 100_000
_MIDPOINT_TOL = 1e-10


@dataclass(frozen=True)
class ComplexDim:
    """Complex dimension n with its real dimension N = 2n; n is one of
    ``config.COMPLEX_DIMS``, the dimensions the configuration covers."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "complex dimension"))
        if self.n not in COMPLEX_DIMS:
            raise InvalidInputError(
                f"complex dimension must be one of {COMPLEX_DIMS}, got {self.n}")

    @property
    def N(self):
        return 2 * self.n


def complex_structure(x):
    """Multiplication by i on each coordinate pair: (a, b) -> (-b, a); J^2 = -I."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise InvalidInputError("complex structure needs an even number of coordinates")
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


def rotate_pairs(x, theta):
    """Rotate every coordinate pair of a vector by the same angle theta.

    ``theta`` is one angle, or one angle per vector (shape ``x.shape[:-1]``).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise InvalidInputError("pair rotation needs an even number of coordinates")
    theta = np.asarray(theta, dtype=float)[..., None]
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty_like(x)
    out[..., 0::2] = c * x[..., 0::2] - s * x[..., 1::2]
    out[..., 1::2] = s * x[..., 0::2] + c * x[..., 1::2]
    return out


def _positive(value, name):
    """Reject parameters that are not finite and positive (inf, nan, <= 0)."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def _check_rule_sphere(rule, N):
    if rule.m != N:
        raise InvalidInputError(f"expected a rule on S^{N - 1}, got S^{rule.m - 1}")


def moduli(x):
    """|z_k| for each coordinate pair; shape (..., n)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., 0::2] ** 2 + x[..., 1::2] ** 2)


def _row_sum(a):
    """``np.sum(a, axis=-1)``, bit for bit, over a last axis of at least two
    columns.  NumPy sums fewer than 8 terms one after the other in index
    order, so there the columns are added in that order, at a fraction of the
    cost of NumPy's reduction over a short last axis; from 8 terms on its
    pairwise sum reorders them, and it is called as is."""
    if a.shape[-1] >= 8:
        return np.sum(a, axis=-1)
    total = a[..., 0] + a[..., 1]
    for k in range(2, a.shape[-1]):
        total += a[..., k]
    return total


def _lq_rescaled(mods, q):
    """(sum_k m_k^q)^{1/q} per row of ``mods`` (R, n), taken as
    M (sum_k (m_k / M)^q)^{1/q} with M = max_k m_k, so no power leaves the
    double range; a zero row gives 0."""
    top = np.max(mods, axis=-1)
    with np.errstate(under="ignore"):
        ratios = mods / np.where(top > 0, top, 1.0)[:, None]
        return top * np.sum(ratios ** q, axis=-1) ** (1.0 / q)


class ConvexBody:
    """Common behavior of the parametric kinds; subclasses provide ``_norm_impl``
    and may provide ``_radial_impl`` (default 1/``_norm_impl``)."""

    dim: ComplexDim

    # --- evaluation -----------------------------------------------------

    def norm(self, x):
        """The norm whose unit ball is this body; 1-homogeneous, vectorized."""
        return self._norm_impl(self._points(x, "norm"))

    def radial(self, theta):
        """rho(theta) = 1/||theta|| for unit vectors theta.

        Checks the input once (finite vectors of unit length within 1e-8)
        and hands it to ``_radial_impl``: 1/``_norm_impl`` unless a kind
        defines its radial function directly.
        """
        theta = self._points(theta, "radial")
        if not _all_unit(theta):
            if np.any(np.all(theta == 0, axis=-1)):
                raise InvalidInputError("radial function is undefined at the zero vector")
            raise InvalidInputError("radial expects unit vectors; normalize first")
        return self._radial_impl(theta)

    def _radial_impl(self, theta):
        return 1.0 / self._norm_impl(theta)

    def factor_radial(self, rule):
        """rho at the nodes of a ``QuadratureRule`` as a table on its factors
        (``QuadratureRule.table``), no node array formed.

        A body with ``phase_bandwidth`` 0 depends on the moduli only, so this
        is ``_radial_impl`` once per base row, shape (H, 1), on blocks of
        ``CHUNK_ROWS`` base rows viewed as real points (a real base made
        complex first): the kernels are row by row, so the blocks keep the
        bits of one call.  The rule has checked its rows; only its sphere is
        compared here.  A kind whose radial function reads the phases (nonzero
        ``phase_bandwidth``) must override it: this table holds one value per
        base row, which such a kind does not have.
        """
        _check_rule_sphere(rule, self.dim.N)
        out = np.empty((rule.base.shape[0], 1))
        for lo in range(0, rule.base.shape[0], CHUNK_ROWS):
            rows = np.ascontiguousarray(rule.base[lo:lo + CHUNK_ROWS], dtype=complex).view(float)
            out[lo:lo + CHUNK_ROWS, 0] = self._radial_impl(rows)
        return out

    def _points(self, x, what):
        """x as a float array of finite vectors in R^{2n}; InvalidInputError otherwise."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim.N:
            raise InvalidInputError(f"expected vectors in R^{self.dim.N}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError(f"{what} input must be finite")
        return x

    # --- structure ------------------------------------------------------

    @property
    def phase_bandwidth(self):
        """Highest frequency of the radial function in any relative phase;
        0 when the norm depends on the moduli |z_k| only."""
        return 0

    @property
    def radial_degree(self):
        """The degree J of the radial function as a polynomial on the sphere,
        or None when it is not one.  A product of integer powers of such
        functions is a polynomial whose degree fixes an exact rule
        (``sections._exact_level``)."""
        return None

    def scaled(self, factor):
        raise NotImplementedError

    @property
    def label(self):
        raise NotImplementedError

    def spec_dict(self):
        """JSON body-spec form: {"n": ..., "kind": ..., "params": {...}}."""
        raise NotImplementedError

    def __repr__(self):
        return self.label


@dataclass(frozen=True, repr=False)
class EuclideanBall(ConvexBody):
    dim: ComplexDim
    radius: float = 1.0

    def __post_init__(self):
        _positive(self.radius, "radius")

    def _norm_impl(self, x):
        # the x_k^2 summed one coordinate at a time in coordinate order
        # (``_row_sum``): the bits of np.linalg.norm(x, axis=-1)
        return np.sqrt(_row_sum(x * x)) / self.radius

    @property
    def radial_degree(self):
        return 0  # the constant radius

    def scaled(self, factor):
        return EuclideanBall(self.dim, self.radius * factor)

    @property
    def label(self):
        return f"ball(n={self.dim.n},r={self.radius:g})"

    def spec_dict(self):
        return {"n": self.dim.n, "kind": "euclidean", "params": {"radius": self.radius}}


@dataclass(frozen=True, repr=False)
class ComplexLqBall(ConvexBody):
    """Unit ball of (sum_k |z_k|^q)^{1/q} / scale; q = inf gives the polydisc."""

    dim: ComplexDim
    q: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise InvalidInputError("exponent q must satisfy q >= 1")
        _positive(self.scale, "scale")

    def _norm_impl(self, x):
        # the m_k^q summed one modulus at a time in index order (``_row_sum``),
        # the bits of np.sum(..., axis=-1); for q = inf the m_k compared one
        # at a time (a maximum is exact in any order)
        mods = moduli(x)
        if math.isinf(self.q):
            top = mods[..., 0]
            for k in range(1, self.dim.n):
                top = np.maximum(top, mods[..., k])
            return top / self.scale
        with np.errstate(over="ignore", under="ignore"):  # such rows are redone below
            total = _row_sum(mods ** self.q)
        out = total ** (1.0 / self.q)
        # a sum out of range (inf, or below the smallest normal double, where
        # it has lost digits or reads 0 for a nonzero point): rescale the row
        bad = ~(total >= _TINY) | (total == math.inf)
        if np.any(bad):
            out = np.array(out)
            out[bad] = _lq_rescaled(mods[bad], self.q)
            out = out[()]
        return out / self.scale

    @property
    def radial_degree(self):
        return 0 if self.q == 2.0 else None  # q = 2: a ball

    def scaled(self, factor):
        return ComplexLqBall(self.dim, self.q, self.scale * factor)

    @property
    def label(self):
        qs = "inf" if math.isinf(self.q) else f"{self.q:g}"
        return f"lq(n={self.dim.n},q={qs},s={self.scale:g})"

    def spec_dict(self):
        return {
            "n": self.dim.n,
            "kind": "lq",
            "params": {"q": "inf" if math.isinf(self.q) else self.q, "scale": self.scale},
        }


@dataclass(frozen=True, repr=False)
class ComplexEllipsoid(ConvexBody):
    """Unit ball of sqrt(sum_k |z_k|^2 / a_k^2)."""

    semiaxes: tuple
    dim: ComplexDim = field(init=False, compare=False)

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semiaxes)
        if len(axes) < 2:
            raise InvalidInputError("need at least two semiaxes")
        for a in axes:
            _positive(a, "semiaxis")
        object.__setattr__(self, "semiaxes", axes)
        object.__setattr__(self, "dim", ComplexDim(len(axes)))

    def _norm_impl(self, x):
        mods2 = x[..., 0::2] ** 2 + x[..., 1::2] ** 2
        # summed one coordinate at a time, so each row rounds the same alone
        # or in a batch (a matrix product does not)
        inv = [1.0 / a ** 2 for a in self.semiaxes]
        total = mods2[..., 0] * inv[0]
        for k in range(1, self.dim.n):
            total += mods2[..., k] * inv[k]
        return np.sqrt(total)

    @property
    def radial_degree(self):
        return 0 if len(set(self.semiaxes)) == 1 else None  # equal semiaxes: a ball

    def scaled(self, factor):
        return ComplexEllipsoid(tuple(a * factor for a in self.semiaxes))

    @property
    def label(self):
        axes = ",".join(f"{a:g}" for a in self.semiaxes)
        return f"ellipsoid({axes})"

    def spec_dict(self):
        return {
            "n": self.dim.n,
            "kind": "ellipsoid",
            "params": {"semiaxes": list(self.semiaxes)},
        }


@dataclass(frozen=True, repr=False)
class PerturbedBall(ConvexBody):
    """Radial function r * (1 + sum_t c_t Y_{j_t, l_t}) with even rotation-invariant
    harmonics; ``radial`` evaluates it directly and the norm inverts it.

    Terms are (even degree j >= 2, invariant-basis index l, coefficient c),
    summed into one invariant expansion ``perturbation``.  Construction
    certifies positivity of the radial function and midpoint convexity on
    1e5 sampled pairs unless ``certify=False`` (used to build deliberately
    broken bodies for the validator).  The pairs are tested in blocks of
    ``CHUNK_ROWS``: the first points are drawn whole, the second ones one
    block at a time from the same stream, so only the first points grow
    with the pair count, and the samples and the worst violation are those
    of a whole-array pass.
    """

    dim: ComplexDim
    radius: float = 1.0
    terms: tuple = ()
    certify: bool = field(default=True, compare=False)
    perturbation: harmonics.HarmonicExpansion = field(init=False, compare=False)

    def __post_init__(self):
        _positive(self.radius, "radius")
        cleaned = []
        coeffs = {}
        for j, ell, c in self.terms:
            j, ell, c = _integer(j, "term degree"), _integer(ell, "term index"), float(c)
            if not math.isfinite(c):
                raise InvalidInputError(f"perturbation coefficient must be finite, got {c!r}")
            if j < 2 or j % 2:
                raise InvalidInputError("perturbation degrees must be even and >= 2")
            size = len(harmonics.invariant_harmonic_basis(self.dim.N, j))
            if not 0 <= ell < size:
                raise InvalidInputError(
                    f"invariant harmonic index {ell} out of range for degree {j} (size {size})"
                )
            cleaned.append((j, ell, c))
            coeffs.setdefault(j, np.zeros(size))[ell] += c
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "perturbation", harmonics.HarmonicExpansion(
            self.dim.N, max(coeffs, default=0), coeffs, tail_ratio=0.0, l2_norm=0.0))
        if self.certify:
            self._certify()

    @property
    def phase_bandwidth(self):
        # an invariant degree-j harmonic has bidegree (j/2, j/2): each of its
        # monomials z^a conj(z)^b has frequency a_k - b_k, |a_k - b_k| <= j/2
        return max((j // 2 for j, _, _ in self.terms), default=0)

    @property
    def radial_degree(self):
        # r (1 + sum c_t Y_t): the top term degree, 0 for no terms
        return max((j for j, _, _ in self.terms), default=0)

    # the defining profile is the radial function; the name stays for its
    # callers (the benchmark's tracer wraps it)
    radial_profile = ConvexBody.radial

    def _radial_impl(self, theta):
        """The profile r (1 + perturbation) at unit vectors, taken as checked."""
        rho = self.radius * (1.0 + self.perturbation._unit_row_values(theta.reshape(-1, self.dim.N)))
        return rho.reshape(theta.shape[:-1])[()]  # [()]: a scalar for one vector

    def factor_radial(self, rule):
        """The radial profile at the nodes of a ``QuadratureRule`` on
        S^{2n-1}, shape (H, F), through ``HarmonicExpansion.factor_values``."""
        _check_rule_sphere(rule, self.dim.N)
        return self.radius * (1.0 + self.perturbation.factor_values(rule))

    def _norm_impl(self, x):
        flat = x.reshape(-1, self.dim.N)
        lengths = np.sqrt(_row_sum(flat * flat))
        zero = lengths == 0
        # a zero row is read at e_0 and its norm set to exactly 0
        unit = flat / np.where(zero, 1.0, lengths)[:, None]
        unit[zero, 0] = 1.0
        out = np.where(zero, 0.0, lengths / self._radial_impl(unit))
        return out.reshape(x.shape[:-1])[()]  # [()]: a scalar for one vector

    def _certify(self):
        """Raise ``ConvexityError`` unless the radial profile is positive on
        4096 probes and the midpoint gap is at most ``_MIDPOINT_TOL`` on
        ``_CERTIFY_PAIRS`` pairs; return the worst midpoint gap."""
        # finite samples of the right width: the kernels take them unchecked
        rng = philox(_CERTIFY_SEED)
        N = self.dim.N
        probe = rng.normal(size=(4096, N))
        probe /= np.linalg.norm(probe, axis=-1, keepdims=True)
        rho = self._radial_impl(probe)
        if np.min(rho) <= 0:
            raise ConvexityError(
                f"{self.label}: radial function nonpositive (min {np.min(rho):.3g}); "
                "convexity certification failed"
            )
        # x whole, then y a block at a time: the draws of y drawn whole after
        # x.  The blocks are the norm kernel's own chunks, so every gap has
        # the bits of a whole-array pass
        x = rng.normal(size=(_CERTIFY_PAIRS, N))
        block_worst = []
        for lo in range(0, _CERTIFY_PAIRS, CHUNK_ROWS):
            xs = x[lo:lo + CHUNK_ROWS]
            y = rng.normal(size=xs.shape)
            mid = self._norm_impl(0.5 * (xs + y))
            block_worst.append(np.max(mid - 0.5 * (self._norm_impl(xs) + self._norm_impl(y))))
        worst = float(np.max(block_worst))
        if worst > _MIDPOINT_TOL:
            raise ConvexityError(
                f"{self.label}: midpoint convexity violated by {worst:.3g} "
                f"(tolerance {_MIDPOINT_TOL:g})"
            )
        return worst

    def scaled(self, factor):
        return PerturbedBall(self.dim, self.radius * factor, self.terms, certify=False)

    @property
    def label(self):
        ts = ";".join(f"{j},{ell},{c:g}" for j, ell, c in self.terms)
        return f"perturbed(n={self.dim.n},r={self.radius:g},[{ts}])"

    def spec_dict(self):
        return {
            "n": self.dim.n,
            "kind": "perturbed",
            "params": {"radius": self.radius, "terms": [list(t) for t in self.terms]},
        }


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst: float
    tolerance: float


@dataclass(frozen=True)
class ValidationReport:
    body: str
    sample_count: int
    seed: int
    checks: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    def failed_checks(self):
        return [name for name, c in self.checks.items() if not c.passed]

    def to_dict(self):
        return {
            "body": self.body,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
            "checks": {
                name: {"passed": c.passed, "worst": c.worst, "tolerance": c.tolerance}
                for name, c in self.checks.items()
            },
        }


def validate(body, sample_count=1000, seed=0) -> ValidationReport:
    """Randomized certification of the structural hypotheses.

    Checks 1-homogeneity, invariance under simultaneous pair rotation,
    midpoint convexity, and radial/norm consistency.  Failures are reported,
    never raised; deterministic for a given seed.  ``sample_count`` is an
    integer >= 1 and ``seed`` a non-negative integer (``config._seed``).
    """
    sample_count, seed = _integer(sample_count, "sample_count"), _seed(seed)
    if sample_count < 1:
        raise InvalidInputError("sample_count must be >= 1")
    rng = philox(seed)
    N = body.dim.N
    x = rng.normal(size=(sample_count, N))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    base = body.norm(x)

    lam = rng.uniform(0.1, 2.5, size=sample_count) * rng.choice([-1.0, 1.0], size=sample_count)
    hom = np.abs(body.norm(lam[:, None] * x) - np.abs(lam) * base) / (np.abs(lam) * base)
    homog = float(np.max(hom)) if np.all(np.isfinite(hom)) else math.inf

    # rotation check: one random theta per sample
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=sample_count)
    rot = np.abs(body.norm(rotate_pairs(x, thetas)) - base) / base
    worst_rot = float(np.max(rot)) if np.all(np.isfinite(rot)) else math.inf

    y = rng.normal(size=(sample_count, N))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    mid = body.norm(0.5 * (x + y)) - 0.5 * (body.norm(x) + body.norm(y))
    bad_norms = (base <= 0) | ~np.isfinite(base)
    worst_mid = math.inf if np.any(bad_norms) or not np.all(np.isfinite(mid)) else float(np.max(mid))

    rad = np.abs(body.radial(x) * base - 1.0) if not np.any(bad_norms) else np.array([math.inf])
    worst_rad = float(np.max(rad))

    checks = {
        "homogeneity": CheckResult(homog <= 1e-12, homog, 1e-12),
        "rotation_invariance": CheckResult(worst_rot <= 1e-12, worst_rot, 1e-12),
        "convexity": CheckResult(worst_mid <= _MIDPOINT_TOL, worst_mid, _MIDPOINT_TOL),
        "radial_norm_consistency": CheckResult(worst_rad <= 1e-13, worst_rad, 1e-13),
    }
    return ValidationReport(body.label, sample_count, seed, checks)


# --- JSON schema ----------------------------------------------------------

_KINDS = ("euclidean", "lq", "ellipsoid", "perturbed")


def body_from_dict(spec, certify=True) -> ConvexBody:
    """Build a body from {"n": int, "kind": str, "params": {...}}."""
    if not isinstance(spec, dict):
        raise InvalidInputError("body spec must be a JSON object")
    try:
        n = spec["n"]
        kind = spec["kind"]
        params = spec.get("params", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed body spec: {exc}") from exc
    if kind not in _KINDS:
        raise InvalidInputError(f"unknown body kind {kind!r}; expected one of {_KINDS}")
    if not isinstance(params, dict):
        raise InvalidInputError(f"body params must be a JSON object, got {params!r}")
    dim = ComplexDim(n)
    try:
        if kind == "euclidean":
            return EuclideanBall(dim, _real(params.get("radius", 1.0), "radius"))
        if kind == "lq":
            qraw = params["q"]
            q = math.inf if qraw in ("inf", "infinity") else _real(qraw, "exponent q")
            return ComplexLqBall(dim, q, _real(params.get("scale", 1.0), "scale"))
        if kind == "ellipsoid":
            if not isinstance(params["semiaxes"], (list, tuple)):
                raise InvalidInputError(f"semiaxes must be a list, got {params['semiaxes']!r}")
            axes = tuple(_real(a, "semiaxis") for a in params["semiaxes"])
            if len(axes) != dim.n:
                raise InvalidInputError("semiaxes count must equal n")
            return ComplexEllipsoid(axes)
        terms = tuple((j, ell, _real(c, "perturbation coefficient"))
                      for j, ell, c in params.get("terms", ()))
        return PerturbedBall(dim, _real(params.get("radius", 1.0), "radius"), terms,
                             certify=certify)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"malformed {kind} params: {exc}") from exc


def body_to_dict(body) -> dict:
    return body.spec_dict()
