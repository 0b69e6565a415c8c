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

Both routes take a batch of directions, shape (P, 2n) or one vector, and
return (values, errors) arrays of shape (P,).  Directions are checked and
normalized in one place, ``unit_directions``.  The polar volume and the
pairing of ``theorems.parseval_check`` share ``_radial_power_integral``, which
sums the quadrature of a product of radial powers over blocks of base rows.
"""
from __future__ import annotations

import math

import numpy as np

from . import grids
from .config import RunConfig, default_config
from .errors import InvalidInputError, NumericalEvaluationError
from .harmonics import HarmonicExpansion
from .spherequad import (_TINY, CHUNK_ENTRIES, CHUNK_ROWS, QuadratureRule, integrate_sphere,
                         invariant_sphere_rule)

# the configuration of every call that passes none; built once, never written
_DEFAULT_CONFIG = default_config()


def unit_directions(dirs) -> np.ndarray:
    """Directions as unit rows: (P, 2n) or one vector in, (P, 2n) out.

    The one place directions are checked: a row of odd length, zero or not
    finite raises ``InvalidInputError``.
    """
    X = np.atleast_2d(np.asarray(dirs, dtype=float))
    if X.ndim != 2 or X.shape[1] % 2:
        raise InvalidInputError("directions must be vectors of even length")
    length = np.sqrt(np.einsum("pk,pk->p", X, X))
    if not ((length > 0.0) & (length < np.inf)).all():
        raise InvalidInputError("cannot normalize a zero or non-finite vector")
    return X * (1.0 / length)[:, None]


def hyperplane_basis(dirs) -> np.ndarray:
    """J-paired orthonormal bases of the hyperplanes orthogonal to xi and J xi
    for a batch of directions: (P, 2n) or one vector in, (P, 2n-2, 2n) out.

    Rows come as (v_1, J v_1, v_2, J v_2, ...), so in these coordinates J is
    the complex structure of C^{n-1}.  Directions go through
    ``unit_directions``.  In complex coordinates z_k = x_{2k} + i x_{2k+1}
    the rows are Gram-Schmidt in C^n: the coordinate vectors e_0, e_1, ... are
    projected in fixed order, twice, against xi and the vectors kept so far
    (one product per pass for the whole batch), and a vector that becomes
    dependent is dropped.  A kept v gives the rows v and J v = i v, since the
    complex projection onto v is the real one onto span{v, J v}.  The basis
    depends on xi only through its complex line.
    """
    X = unit_directions(dirs)
    P, N = X.shape
    n = N // 2
    # per direction: xi, then one row per candidate; the row of a dropped or
    # untried candidate stays zero, so projecting against it changes nothing
    frame = np.zeros((P, n + 1, n), dtype=complex)
    frame[:, 0] = X.view(complex)  # z_k = x_{2k} + i x_{2k+1}
    kept = np.zeros((P, n), dtype=bool)
    count = np.zeros(P, dtype=int)
    for c in range(n):
        F = frame[:, :c + 1]
        Fc = F.conj()
        # two passes for orthogonality to ~1e-15; the first, from e_c, has
        # the coefficients conj(F[:, :, c])
        v = -np.einsum("pf,pfk->pk", Fc[:, :, c], F)
        v[:, c] += 1.0
        v -= np.einsum("pf,pfk->pk", np.einsum("pk,pfk->pf", v, Fc), F)
        length = np.sqrt(np.einsum("pk,pk->p", v.view(float), v.view(float)))
        kept[:, c] = length > 1e-7  # after a complete basis the residual is ~1e-16
        count += kept[:, c]
        np.divide(v, length[:, None], out=frame[:, c + 1], where=kept[:, c, None])
        if (count == n - 1).all():
            break
    if (count != n - 1).any():
        raise InvalidInputError("failed to complete hyperplane basis")
    rows = frame[:, 1:][kept].reshape(P, n - 1, 1, n)
    return np.concatenate([rows, 1j * rows], axis=2).view(float).reshape(P, N - 2, N)


def _section_rule(n, config, bump=0, scan=False):
    level = config.product_levels[2 * n - 2]
    if scan:
        level = max(8, level // 2)
    return invariant_sphere_rule(n - 1, level + bump, nphase=level + bump)


def section_volume_direct(body, dirs, config: RunConfig | None = None):
    """Section volumes and error estimates, (values, errors) of shape (P,),
    at a batch of directions by the kernel of ``section_values``.

    The error estimate is the difference against the rule two levels up,
    whose values are the ones reported.
    """
    return _direct_on_bases(body, _body_bases(body, dirs), config or _DEFAULT_CONFIG)


def _direct_on_bases(body, bases, cfg):
    """``section_volume_direct`` on stacked hyperplane bases of the body's
    dimension, taken as checked."""
    n = body.dim.n
    coarse = _section_sums(body, bases, _section_rule(n, cfg))
    values = _section_sums(body, bases, _section_rule(n, cfg, bump=2))
    return values, np.abs(values - coarse)


def _body_bases(body, dirs):
    """``hyperplane_basis(dirs)``, checked against the body's dimension."""
    bases = hyperplane_basis(dirs)
    if bases.shape[2] != body.dim.N:
        raise InvalidInputError("direction dimension does not match the body")
    return bases


def section_volume_fourier(body, dirs, ft: HarmonicExpansion):
    """Section volumes from the transformed norm power at exponent 2n-2,
    (values, errors) of shape (P,) at a batch of directions.

    values = ft(xi) / (4 pi (n-1)); the error estimate is the magnitude of
    the top-two-degree contribution at xi (truncation indicator).  Section
    volumes are positive, so a value below minus its estimate signals
    unreliable truncation.
    """
    n = body.dim.n
    if ft.multiplier_power is None or abs(ft.multiplier_power - (2 * n - 2)) > 1e-12:
        raise InvalidInputError("fourier section needs ft_norm_power at p = 2n-2")
    X = unit_directions(dirs)
    scale = 4.0 * math.pi * (n - 1)
    return ft.evaluate(X) / scale, np.abs(ft.tail_values(X)) / scale


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
    reference.

    The rule and the directions are checked here; the kernel
    ``_section_sums`` takes the stacked bases as checked.  Directions are
    taken max(1, ``CHUNK_ROWS`` // M) at a time, so one call of the body's
    radial kernel holds at most max(M, ``CHUNK_ROWS``) points; a chunk's
    points theta B are unit vectors by construction, from one batched matrix
    product, rule nodes (M, 2n-2) times the stacked bases.  Each direction's
    integral is summed within its own row, so for a body of the moduli only
    its value depends on the body, the direction and the rule only, not on
    the batch or the chunk it came in.  A perturbed ball's radial values on
    one point round apart from a batch's
    (``HarmonicExpansion._unit_row_values``), which shows at n = 2, where the
    rule has one node.
    """
    cfg = config or _DEFAULT_CONFIG
    n = body.dim.n
    if rule is None:
        rule = _section_rule(n, cfg, scan=scan)
    if rule.m != 2 * n - 2:
        raise InvalidInputError(f"section rule must live on S^{2 * n - 3}")
    return _section_sums(body, _body_bases(body, dirs), rule)


def _section_sums(body, bases, rule):
    """The kernel of ``section_values``: section volumes on stacked J-paired
    bases (P, 2n-2, 2n) of the body's dimension and a rule on S^{2n-3},
    both taken as checked."""
    P, _, N = bases.shape
    out = np.empty(P)
    nodes, F = rule.nodes, rule.phases.shape[0]
    M = nodes.shape[0]
    power = N - 2
    chunk = max(1, CHUNK_ROWS // M)
    for lo in range(0, P, chunk):
        hi = min(lo + chunk, P)
        pts = np.matmul(nodes, bases[lo:hi])  # (hi - lo, M, 2n)
        with np.errstate(over="ignore"):  # overflow is caught by the checks below
            vals = body._radial_impl(pts.reshape(-1, N)).reshape(hi - lo, -1, F) ** power
            # each base row's weight on its F nodes, then summed along each
            # direction's row: unlike vals @ weights, a row rounds the same in
            # any chunk; positive weights keep a non-finite value
            vals *= rule.row_weights[:, None]
            sums = vals.reshape(hi - lo, M).sum(axis=1)
        if not np.all((sums >= _TINY) & (sums < np.inf)):  # positive integrals
            raise NumericalEvaluationError(
                f"non-finite or underflowing section integrand or integral for {body.label}")
        out[lo:hi] = sums / power
    return out


def radial_power_rule(level, *bodies) -> QuadratureRule:
    """Torus-reduced rule on S^{2n-1} for a product of integer powers of the
    bodies' radial functions with total degree 2n (the polar volume, the
    Parseval pairing).

    Each radial function has frequency at most bw = max phase_bandwidth in
    every relative phase, so the product has frequency at most 2n*bw there,
    and 2n*bw + 1 uniform phases integrate it exactly in the phases: one
    phase when every body depends on the moduli only.  The rule is exact in
    the moduli too where the product is a polynomial of degree at most
    2*level - 1: at level nJ + 1 for rho^{2n} of a body whose radial function
    is a polynomial of degree J (``_polar_level``).
    """
    n = bodies[0].dim.n
    bw = max(b.phase_bandwidth for b in bodies)
    return invariant_sphere_rule(n, level, nphase=2 * n * bw + 1)


def _polar_level(body, cfg):
    """The configured polar-volume level of ``body``: reduced_levels[n], at
    most n*J + 1 where the radial function is a polynomial of degree J on the
    sphere (``body.radial_degree``; a ball J = 0, a perturbed ball its top
    term degree).  Then rho^{2n} has degree 2nJ <= 2(nJ + 1) - 1, so
    ``radial_power_rule`` at this level is already exact, and any level above
    it only adds nodes."""
    level = cfg.reduced_levels[body.dim.n]
    J = body.radial_degree
    return level if J is None else min(level, body.dim.n * J + 1)


def _radial_power_integral(rule: QuadratureRule, powers) -> float:
    """The quadrature sum of prod_b rho_b^{e_b} on ``rule``, for ``powers``
    a sequence of (body, exponent) pairs of the rule's sphere, factors
    multiplied in that order: the polar volume and the Parseval pairing.

    The tables come through ``body.factor_radial`` on blocks of consecutive
    base rows (``QuadratureRule.row_block``) that share the rule's phase
    rows, each of at most ``CHUNK_ENTRIES`` entries: F per row when a body
    depends on the phases, else 1.  So no array grows with the node count,
    and the moduli-only tables at n <= 3 and the n = 2 tables at the default
    levels (at most 180^2 = 32,400 entries) stay one block.
    Each block is summed by ``integrate_sphere``, which names a non-finite
    value by its node in ``rule``, and the block sums by pairwise summation;
    a table of one block is summed exactly as one table.  It is the kernel
    of ``volume`` and ``theorems.parseval_check``, private so that the
    spans of ``perfbench/tracer.py`` count its time to them.
    """
    H, F = rule.base.shape[0], rule.phases.shape[0]
    width = F if any(body.phase_bandwidth for body, _ in powers) else 1
    step = max(1, CHUNK_ENTRIES // width)
    sums = []
    for lo in range(0, H, step):
        block = rule.row_block(lo, min(lo + step, H))
        with np.errstate(over="ignore"):  # integrate_sphere rejects the overflow
            tables = [body.factor_radial(block) ** e for body, e in powers]
            vals = tables[0]
            for table in tables[1:]:
                vals = vals * table
        sums.append(integrate_sphere(vals, block))
    with np.errstate(over="ignore"):  # rejected below
        total = float(np.sum(sums))
    if not math.isfinite(total):
        raise NumericalEvaluationError("non-finite weighted sum of finite integrand values")
    return total


def volume(body, rule: QuadratureRule | None = None,
           config: RunConfig | None = None) -> float:
    """Total volume by the polar formula Vol = (1/2n) int rho^{2n}.

    With no explicit rule the torus-reduced rule is used (the integrand is
    rotation-invariant for every admitted body) at the configured level,
    ``_polar_level``: reduced_levels[n], or the exact level nJ + 1 when that
    is lower for a body whose radial function is a polynomial of degree J (a
    ball, a perturbed ball).  Pass the generic product rule on S^{2n-1} for
    the reference path.  The integral is ``_radial_power_integral``, so it
    runs in blocks of base rows, evaluated through the rule's factors
    (``body.factor_radial``), and a table of one block (every moduli-only
    body at n <= 3 and every n = 2 body at the default levels) keeps the
    bits of a one-table sum.
    """
    cfg = config or _DEFAULT_CONFIG
    n = body.dim.n
    if rule is None:
        rule = radial_power_rule(_polar_level(body, cfg), body)
    if rule.m != 2 * n:
        raise InvalidInputError(f"volume rule must live on S^{2 * n - 1}")
    vol = _radial_power_integral(rule, ((body, 2 * n),)) / (2 * n)
    if not vol >= _TINY:
        raise NumericalEvaluationError(f"the volume of {body.label} underflows")
    return vol


def volume_with_error(body, config: RunConfig | None = None):
    """Volume plus a refinement-difference error estimate (reduced rule):
    ``_reported_volume`` and its difference from ``volume``, at the
    configured level ``_polar_level``.  For a ball or a perturbed ball both
    rules are exact, so the estimate is round-off."""
    cfg = config or _DEFAULT_CONFIG
    coarse = volume(body, config=cfg)
    fine = _reported_volume(body, cfg)
    return fine, abs(fine - coarse)


def _reported_volume(body, cfg):
    """The volume ``volume_with_error`` reports: the reduced rule at level
    L + max(8, L/8), L the configured level ``_polar_level``, so the bump
    comes after the cap and the two levels differ."""
    level = _polar_level(body, cfg)
    return volume(body, rule=radial_power_rule(level + max(8, level // 8), body))


def min_radial(body, config: RunConfig | None = None):
    """Minimum of the radial function over directions (grid + refinement)."""
    cfg = config or _DEFAULT_CONFIG
    n = body.dim.n
    grid = grids.direction_grid(n, cfg.moduli_res[n], cfg.phase_res[n],
                                with_phases=body.phase_bandwidth != 0)
    # grid and pattern-search directions are unit by construction
    _, dir_min, value, _ = grids.refine_extremum(
        body._radial_impl, grid, body._radial_impl(grid.directions), mode="min",
        halvings=cfg.refine_halvings,
    )
    return float(value), dir_min


def inradius_normalized(body, config: RunConfig | None = None) -> float:
    """min rho / Vol^{1/2n}, Vol the volume ``volume_with_error`` reports;
    scale-invariant by construction."""
    cfg = config or _DEFAULT_CONFIG
    return _inradius(body, cfg, _reported_volume(body, cfg))


def _inradius(body, cfg, vol):
    """min rho / vol^{1/2n}, for ``inradius_normalized`` and for
    ``theorems.VerificationContext.inradius`` with its cached volume."""
    return min_radial(body, cfg)[0] / vol ** (1.0 / (2 * body.dim.n))
