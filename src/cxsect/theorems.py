"""Numerical verification of the stated results: the spherical Parseval
identity, positivity of the transformed norm power at exponent 2, the
stability and separation comparisons, the two-sided corollary, and the
Gamma-function inequality.

The pair comparisons read one gap per ordered pair (K, L), the largest
section(K) - section(L), computed once by ``VerificationContext.gap``;
separation's epsilon is the negated gap, the smallest section(L) - section(K).

Stability and separation are one comparison, ``_comparison``:
Vol(K)^a <= Vol(L)^a + shift with a = (n-1)/n, where the shift is epsilon
for stability and -(pi r(K)^2 / n) epsilon for separation.  The two-sided
corollary runs stability in both orders and reads the volume terms from
those two reports.

Every inequality check carries one tolerance rule, ``_tolerance``:
tol_multiplier * (propagated quadrature, truncation and gap errors of its
inputs) + 1e-12 * max(|compared values|, 1).  The verified statements are
exact, so only numerics can produce a spurious violation, and a violation
beyond the tolerance fails loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grids, sections
from .bodies import validate
from .config import RunConfig, _integer, _real, default_config
from .errors import InvalidInputError, NumericalEvaluationError
from .harmonics import ft_norm_power
from .spherequad import _TINY

_TOL_FLOOR = 1e-12
# the pairing identity's largest relative error (``cxsect theorem --which
# parseval`` and the suite's C3 read it)
PARSEVAL_BOUND = 1e-2
# positivity passes when the grid minimum is at least this times the maximum
POSITIVITY_BOUND = -1e-6


class VerificationContext:
    """Shared per-run caches: volumes, section grids, transforms, validations,
    inradii and section gaps, each made once per key through ``_memo``."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or default_config()
        self._cache = {}

    def _memo(self, key, make):
        """The cached value for ``key``, made by ``make()`` on first use."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def volume(self, body):
        return self._memo(("volume", body),
                          lambda: sections.volume_with_error(body, self.config))

    def grid(self, n, with_phases):
        cfg = self.config
        return self._memo(("grid", n, with_phases), lambda: grids.direction_grid(
            n, cfg.moduli_res[n], cfg.phase_res[n], with_phases=with_phases))

    def section_grid_values(self, body, with_phases):
        """Scan-level section values on the shared direction grid."""
        return self._memo(("sections", body, with_phases), lambda: sections.section_values(
            body, self.grid(body.dim.n, with_phases).directions, config=self.config,
            scan=True))

    def ensure_valid(self, body):
        report = self._memo(("valid", body), lambda: validate(body, 1000, self.config.seed))
        if not report.passed:
            raise InvalidInputError(
                f"{body.label} failed validation: {', '.join(report.failed_checks())}"
            )

    def ft(self, body, p, jmax=None):
        """Transformed norm power at exponent p, truncated at ``jmax`` (default
        the configured degree), built once per body, exponent and degree."""
        if jmax is None:
            jmax = self.config.jmax_for(body.dim.N)
        return self._memo(("ft", body, float(p), jmax), lambda: ft_norm_power(
            body, p, jmax=jmax, tail_warn=self.config.tail_warn))

    def inradius(self, body):
        return self._memo(("inradius", body), lambda: sections.min_radial(body, self.config)[0]
                          / self.volume(body)[0] ** (1.0 / (2 * body.dim.n)))

    def gap(self, K, L):
        """Section gap of the ordered pair (K, L), computed once per pair."""
        return self._memo(("gap", K, L), lambda: _max_section_difference(K, L, self))


def _check_pair(K, L, ctx, epsilon):
    """Preconditions shared by the stability and separation checks; returns a
    supplied ``epsilon`` as a float (None when the gap is to be computed)."""
    for b in (K, L):
        if b.dim.n not in (2, 3):
            raise InvalidInputError(
                f"theorem checks require complex dimension 2 or 3, got {b.dim.n}"
            )
    if K.dim.n != L.dim.n:
        raise InvalidInputError("bodies must share a dimension")
    ctx.ensure_valid(K)
    ctx.ensure_valid(L)
    if epsilon is None:
        return None
    eps = _real(epsilon, "epsilon")
    if not (math.isfinite(eps) and eps >= 0):
        raise InvalidInputError(f"epsilon must be finite and nonnegative, got {epsilon}")
    return eps


# --- section gap -----------------------------------------------------------


@dataclass(frozen=True)
class GapResult:
    """Largest section difference over the refined direction grid.

    ``epsilon`` is the clamped value max(0, refined_max); ``refined_max`` may
    be negative when the first body's sections lie below everywhere.
    """

    epsilon: float
    refined_max: float
    argmax_xi: tuple
    error: float
    grid_points: int
    evaluations: int


def _max_section_difference(K, L, ctx) -> GapResult:
    """Maximize section(K) - section(L): scan-level grid + pattern search,
    final value re-evaluated at the full quadrature level.

    Both bodies share one set of hyperplane bases per batch of directions:
    one per refinement batch, and one at the maximizer for both bodies and
    both quadrature levels.  The directions come from the grid, so they are
    unit and of the bodies' dimension, and the section kernels take the
    bases unchecked.
    """
    if K.dim.n != L.dim.n:
        raise InvalidInputError("bodies must share a dimension")
    cfg = ctx.config
    with_phases = max(K.phase_bandwidth, L.phase_bandwidth) != 0
    grid = ctx.grid(K.dim.n, with_phases)
    diff_grid = (ctx.section_grid_values(K, with_phases)
                 - ctx.section_grid_values(L, with_phases))
    scan_rule = sections._section_rule(K.dim.n, cfg, scan=True)

    def diff_fn(X):
        bases = sections.hyperplane_basis(X)
        return (sections._section_sums(K, bases, scan_rule)
                - sections._section_sums(L, bases, scan_rule))

    _, xi_star, _, evals = grids.refine_extremum(
        diff_fn, grid, diff_grid, mode="max", halvings=cfg.refine_halvings
    )
    # full-level value and quadrature error at the maximizer
    bases = sections.hyperplane_basis(xi_star)
    vK, eK = sections._direct_on_bases(K, bases, cfg)
    vL, eL = sections._direct_on_bases(L, bases, cfg)
    value = float(vK[0] - vL[0])
    return GapResult(max(0.0, value), value, tuple(xi_star), float(eK[0] + eL[0]),
                     grid.size, grid.size + evals)


def section_gap(K, L, context: VerificationContext | None = None) -> GapResult:
    """Smallest epsilon with section(K, xi) <= section(L, xi) + epsilon on the grid."""
    return (context or VerificationContext()).gap(K, L)


# --- stability / corollary / separation ------------------------------------


def _volume_power_terms(body, ctx):
    n = body.dim.n
    alpha = (n - 1) / n
    vol, verr = ctx.volume(body)
    value = vol ** alpha
    err = alpha * vol ** (alpha - 1.0) * verr
    return value, err


def _tolerance(cfg, error, *values):
    """The tolerance rule of every inequality check: ``tol_multiplier`` times
    the propagated error, plus a floor of ``_TOL_FLOOR`` times the largest
    |value| (at least 1) for the rounding of exact cases."""
    return cfg.tol_multiplier * error + _TOL_FLOOR * max(*map(abs, values), 1.0)


def _comparison(K, L, ctx, shift, *shift_errors):
    """Vol(K)^a against Vol(L)^a + shift, a = (n-1)/n.

    Returns (lhs, rhs, lhs_error, rhs_error, margin, tol); the check passes
    when margin = rhs - lhs >= -tol.  The rhs error is the error of
    Vol(L)^a plus ``shift_errors``, summed left to right.
    """
    lhs, lhs_err = _volume_power_terms(K, ctx)
    rterm, rhs_err = _volume_power_terms(L, ctx)
    for err in shift_errors:
        rhs_err = rhs_err + err
    rhs = rterm + shift
    tol = _tolerance(ctx.config, lhs_err + rhs_err, lhs, rhs)
    return lhs, rhs, lhs_err, rhs_err, rhs - lhs, tol


@dataclass(frozen=True)
class StabilityReport:
    body_k: str
    body_l: str
    n: int
    epsilon: float
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool
    epsilon_error: float
    lhs_error: float
    rhs_error: float
    grid_points: int
    evaluations: int
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "bodies": {"K": self.body_k, "L": self.body_l},
            "n": self.n,
            "epsilon": self.epsilon,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "passed": self.passed,
            "errors": {
                "epsilon": self.epsilon_error,
                "lhs": self.lhs_error,
                "rhs": self.rhs_error,
            },
            "grid": {"points": self.grid_points, "evaluations": self.evaluations},
        }
        out.update(self.extra)
        return out


def stability_verify(K, L, context: VerificationContext | None = None,
                     epsilon=None) -> StabilityReport:
    """Volume comparison under an epsilon-relaxed section hypothesis.

    epsilon is the computed section gap (the smallest constant making the
    hypothesis hold on the refined grid), so the check is self-contained:
    Vol(K)^{(n-1)/n} <= Vol(L)^{(n-1)/n} + epsilon  (margin >= -tol).
    A caller-supplied ``epsilon`` runs the hypothesis-driven form instead;
    the conclusion is only guaranteed when that hypothesis actually holds.
    """
    ctx = context or VerificationContext()
    supplied = _check_pair(K, L, ctx, epsilon)
    if supplied is None:
        gap = ctx.gap(K, L)
        eps, eps_err = gap.epsilon, gap.error
        grid_points, evaluations = gap.grid_points, gap.evaluations
        extra = {}
    else:
        eps, eps_err = supplied, 0.0
        grid_points = evaluations = 0
        extra = {"epsilon_source": "supplied"}
    lhs, rhs, lhs_err, rhs_err, margin, tol = _comparison(K, L, ctx, eps, eps_err)
    return StabilityReport(
        K.label, L.label, K.dim.n, eps, lhs, rhs, margin, tol,
        margin >= -tol, eps_err, lhs_err, rhs_err,
        grid_points, evaluations, extra=extra,
    )


@dataclass(frozen=True)
class Corollary1Report:
    body_k: str
    body_l: str
    n: int
    volume_difference: float
    max_section_difference: float
    margin: float
    tol: float
    passed: bool
    forward: StabilityReport
    reverse: StabilityReport

    def to_dict(self):
        return {
            "bodies": {"K": self.body_k, "L": self.body_l},
            "n": self.n,
            "volume_difference": self.volume_difference,
            "max_section_difference": self.max_section_difference,
            "margin": self.margin,
            "tol": self.tol,
            "passed": self.passed,
            "forward": self.forward.to_dict(),
            "reverse": self.reverse.to_dict(),
        }


def corollary1_verify(K, L, context: VerificationContext | None = None) -> Corollary1Report:
    """Two-sided form: |Vol(K)^a - Vol(L)^a| <= max_xi |section difference| + tol.

    Implemented as the stability check run in both orders, whose reports
    give the volume terms and their errors; the reported margin uses the
    direct two-sided quantities.
    """
    ctx = context or VerificationContext()
    fwd = stability_verify(K, L, context=ctx)
    rev = stability_verify(L, K, context=ctx)
    vol_diff = abs(fwd.lhs - rev.lhs)
    max_gap = max(fwd.epsilon, rev.epsilon)
    gap_err = max(fwd.epsilon_error, rev.epsilon_error)
    margin = max_gap - vol_diff
    tol = _tolerance(ctx.config, fwd.lhs_error + rev.lhs_error + gap_err, vol_diff, max_gap)
    return Corollary1Report(
        K.label, L.label, K.dim.n, vol_diff, max_gap, margin, tol,
        margin >= -tol and fwd.passed and rev.passed, fwd, rev,
    )


@dataclass(frozen=True)
class SeparationReport:
    body_k: str
    body_l: str
    n: int
    epsilon: float
    inradius_sq: float
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool
    degenerate: bool
    note: str

    def to_dict(self):
        return {
            "bodies": {"K": self.body_k, "L": self.body_l},
            "n": self.n,
            "epsilon": self.epsilon,
            "normalized_inradius_sq": self.inradius_sq,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "passed": self.passed,
            "degenerate": self.degenerate,
            "note": self.note,
        }


def separation_verify(K, L, context: VerificationContext | None = None,
                      epsilon=None) -> SeparationReport:
    """Strengthened comparison when K's sections sit below L's by a margin.

    epsilon = max(0, min_xi [section(L) - section(K)]), the negated section
    gap of (K, L): max(0, -gap(K, L).refined_max).  The check is
    Vol(K)^{(n-1)/n} <= Vol(L)^{(n-1)/n} - (pi r(K)^2 / n) epsilon + tol,
    where r(K) is the normalized inradius.  epsilon = 0 degenerates to the
    plain comparison and is labeled as such.  A caller-supplied ``epsilon``
    runs the hypothesis-driven form.
    """
    ctx = context or VerificationContext()
    supplied = _check_pair(K, L, ctx, epsilon)
    if supplied is None:
        gap = ctx.gap(K, L)
        value, gap_err = -gap.refined_max, gap.error
    else:
        value, gap_err = supplied, 0.0
    degenerate = value <= 0.0
    eps = max(0.0, value)
    note = "hypothesis not satisfied, degenerate check" if degenerate else ""
    if supplied is not None:
        note = "supplied-epsilon run" + ("; " + note if note else "")
    r2 = ctx.inradius(K) ** 2
    factor = math.pi * r2 / K.dim.n
    # the last error term is the inradius allowance
    lhs, rhs, _, _, margin, tol = _comparison(K, L, ctx, -factor * eps,
                                              factor * gap_err, 1e-9 * factor * eps)
    return SeparationReport(
        K.label, L.label, K.dim.n, eps, r2, lhs, rhs, margin, tol,
        margin >= -tol, degenerate, note,
    )


# --- Parseval --------------------------------------------------------------


@dataclass(frozen=True)
class ParsevalResult:
    body_k: str
    body_l: str
    n: int
    p: float
    lhs: float
    rhs: float
    relative_error: float
    jmax: int
    bound: float
    passed: bool
    warnings: tuple = ()

    def to_dict(self):
        return {
            "bodies": {"K": self.body_k, "L": self.body_l},
            "n": self.n,
            "p": self.p,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relative_error": self.relative_error,
            "jmax": self.jmax,
            "bound": self.bound,
            "passed": self.passed,
            "warnings": list(self.warnings),
        }


def parseval_check(K, L, p, context: VerificationContext | None = None,
                   jmax=None) -> ParsevalResult:
    """Spherical pairing identity for the exponent pair (p, 2n-p).

    lhs:  int over S^{2n-1} of ft[||.||_K^{-p}] * ft[||.||_L^{-2n+p}]
    rhs:  (2 pi)^{2n} int over S^{2n-1} of rho_K^p rho_L^{2n-p}
    lhs is the coefficient pairing sum_j c^K_j . c^L_j of the two truncated
    expansions, which is their sphere integral exactly (the basis is
    orthonormal); rhs is ``sections._radial_power_integral`` of rho_K^p and
    rho_L^{2n-p} on ``sections.radial_power_rule`` at the configured level
    (the integrand is rotation-invariant), so it runs in blocks of base rows
    through the rule's torus factors, as the polar volume does.  Both
    transforms come from the context, truncated at ``jmax`` (default the
    configured degree).  The result passes when the relative error is at
    most ``PARSEVAL_BOUND``, read at the call, and carries that bound.
    """
    ctx = context or VerificationContext()
    cfg = ctx.config
    if K.dim.n != L.dim.n:
        raise InvalidInputError("bodies must share a dimension")
    n = K.dim.n
    N = 2 * n
    p = _real(p, "parseval exponent")
    if not 0 < p < N:
        raise InvalidInputError(f"parseval exponent must lie in (0, {N})")
    ft_k = ctx.ft(K, p, jmax)
    ft_l = ctx.ft(L, N - p, jmax)
    lhs = float(sum(ft_k.coeffs[j] @ ft_l.coeffs[j] for j in ft_k.degrees()))
    reduced = sections.radial_power_rule(cfg.reduced_levels[n], K, L)
    rhs = (2.0 * math.pi) ** N * sections._radial_power_integral(reduced, ((K, p), (L, N - p)))
    if not rhs >= _TINY:
        raise NumericalEvaluationError(f"the pairing of {K.label} and {L.label} underflows")
    rel = abs(lhs - rhs) / abs(rhs)
    return ParsevalResult(
        K.label, L.label, n, p, lhs, rhs, rel, ft_k.jmax, PARSEVAL_BOUND, rel <= PARSEVAL_BOUND,
        tuple(ft_k.warnings) + tuple(ft_l.warnings),
    )


# --- positivity -------------------------------------------------------------


@dataclass(frozen=True)
class PositivityResult:
    body: str
    n: int
    min_value: float
    max_value: float
    location: tuple
    passed: bool | None
    exploratory: bool
    warnings: tuple = ()

    def to_dict(self):
        return {
            "body": self.body,
            "n": self.n,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "location": list(self.location),
            "passed": self.passed,
            "exploratory": self.exploratory,
            "warnings": list(self.warnings),
        }


def positivity_check(K, context: VerificationContext | None = None) -> PositivityResult:
    """Sign scan of the transformed norm power at exponent 2 over a refined grid.

    Pass criterion (complex dimension 2 or 3): grid minimum >=
    ``POSITIVITY_BOUND`` (-1e-6) times the grid maximum.  Dimension 4 runs in exploratory mode: values are reported, no
    pass/fail is attached.
    """
    ctx = context or VerificationContext()
    n = K.dim.n
    exploratory = n == 4
    ft = ctx.ft(K, 2.0)
    grid = ctx.grid(n, K.phase_bandwidth != 0)
    vals = ft.evaluate(grid.directions)
    vmax = float(np.max(vals))
    _, xi_star, vmin, _ = grids.refine_extremum(
        ft.evaluate, grid, vals, mode="min", halvings=ctx.config.refine_halvings,
    )
    passed = None if exploratory else bool(vmin >= POSITIVITY_BOUND * vmax)
    return PositivityResult(
        K.label, n, float(vmin), vmax, tuple(xi_star), passed, exploratory,
        tuple(ft.warnings),
    )


# --- Gamma inequality --------------------------------------------------------


@dataclass(frozen=True)
class GammaRow:
    n: int
    lhs: float
    rhs: float
    log_margin: float
    passed: bool


def gamma_lemma_check(n_max=170):
    """Gamma(n)^{1/n} <= n^{(n-1)/n} for n = 1..n_max, through log-gamma.

    Equality at n = 1, strict inequality required for n >= 2.
    """
    n_max = _integer(n_max, "n_max")
    if not 1 <= n_max <= 170:
        raise InvalidInputError("n_max must be between 1 and 170")
    rows = []
    for n in range(1, n_max + 1):
        lg = math.lgamma(n)
        log_margin = (n - 1) * math.log(n) - lg
        lhs = math.exp(lg / n)
        rhs = math.exp((n - 1) * math.log(n) / n)
        passed = abs(log_margin) <= 1e-14 if n == 1 else log_margin > 0.0
        rows.append(GammaRow(n, lhs, rhs, log_margin, passed))
    return rows
