"""Direction grids on S^{2n-1} reduced by the rotation symmetry, plus local
pattern refinement around extremizers.

A direction is parametrized by moduli angles (nested polar angles of the
nonnegative moduli vector) and, when needed, relative phases of the
coordinate pairs beyond the first.  Functions of a complex line (section
volumes, transformed norm powers of the admitted bodies) are constant along
the simultaneous-phase orbit, so the first phase is pinned to zero; bodies
that depend only on the moduli drop the remaining phases too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def params_to_direction(params, n):
    """Map grid parameters to unit vectors in R^{2n}.

    params: (..., d) with d = (n-1) moduli angles in [0, pi/2] followed by
    (n-1) relative phases in [0, 2pi) (phases may be absent).
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    d = params.shape[1]
    if d not in (n - 1, 2 * (n - 1)):
        raise InvalidInputError(f"expected {n - 1} or {2 * (n - 1)} parameters, got {d}")
    angles = params[:, : n - 1]
    phases = np.zeros((params.shape[0], n))
    if d == 2 * (n - 1):
        phases[:, 1:] = params[:, n - 1:]
    u = np.empty((params.shape[0], n))
    running = np.ones(params.shape[0])
    for i in range(n - 1):
        u[:, i] = running * np.cos(angles[:, i])
        running = running * np.sin(angles[:, i])
    u[:, n - 1] = running
    out = np.empty((params.shape[0], 2 * n))
    out[:, 0::2] = u * np.cos(phases)
    out[:, 1::2] = u * np.sin(phases)
    return out


@dataclass(frozen=True)
class DirectionGrid:
    n: int
    params: np.ndarray      # (P, d)
    directions: np.ndarray  # (P, 2n)
    steps: np.ndarray       # (d,) initial spacing per parameter
    with_phases: bool

    @property
    def size(self):
        return self.params.shape[0]


def direction_grid(n, moduli_res, phase_res=0, with_phases=False) -> DirectionGrid:
    """Product grid over moduli angles (and relative phases when requested)."""
    if moduli_res < 2:
        raise InvalidInputError("moduli_res must be >= 2")
    axes = []
    steps = []
    for _ in range(n - 1):
        step = (math.pi / 2) / moduli_res
        axes.append(np.linspace(0.0, math.pi / 2, moduli_res + 1))
        steps.append(step)
    if with_phases:
        if phase_res < 2:
            raise InvalidInputError("phase_res must be >= 2 when phases are used")
        for _ in range(n - 1):
            step = 2 * math.pi / phase_res
            axes.append(np.arange(phase_res) * step)
            steps.append(step)
    mesh = np.meshgrid(*axes, indexing="ij")
    params = np.stack([g.ravel() for g in mesh], axis=1)
    dirs = params_to_direction(params, n)
    return DirectionGrid(n, params, dirs, np.array(steps), with_phases)


def refine_extremum(fn, grid: DirectionGrid, values, mode="max", halvings=3):
    """Locate an extremum of ``fn`` over directions: coarse grid + pattern search.

    ``fn`` maps an (M, 2n) array of unit directions to values; ``values`` holds
    its values on ``grid.directions``, from the caller.  Starting from the best
    grid point, each sweep evaluates the 2d coordinate steps in the order
    (coordinate 0, +), (0, -), (1, +), ... as one batch (moduli angles clipped
    to [0, pi/2], phases taken mod 2 pi), in up to two sweeps per step size;
    the step vector is halved ``halvings`` times.  Ties keep the earlier
    point: the grid's first best point starts, only a strict improvement
    moves it, and the first best candidate of a sweep wins.  ``mode`` is
    "max" or "min"; any other raises ``InvalidInputError``.  Returns
    (params, direction, value, evaluations of ``fn`` made here).
    """
    if mode not in ("max", "min"):
        raise InvalidInputError(f"mode must be 'max' or 'min', got {mode!r}")
    sign = 1.0 if mode == "max" else -1.0
    vals = sign * np.asarray(values, dtype=float)
    best_idx = int(np.argmax(vals))
    best_p = grid.params[best_idx].copy()
    best_v = vals[best_idx]
    evals = 0
    steps = grid.steps.copy()
    d = best_p.size
    moves = np.repeat(np.eye(d), 2, axis=0)
    moves[1::2] *= -1.0
    for _ in range(halvings + 1):
        for _ in range(2):
            cands = best_p + moves * steps
            cands[:, : grid.n - 1] = np.clip(cands[:, : grid.n - 1], 0.0, math.pi / 2)
            cands[:, grid.n - 1:] %= 2 * math.pi
            cvals = sign * np.asarray(fn(params_to_direction(cands, grid.n)), dtype=float)
            evals += len(cands)
            k = int(np.argmax(cvals))
            if not cvals[k] > best_v:
                break
            best_v = cvals[k]
            best_p = cands[k]
        steps = steps / 2.0
    direction = params_to_direction(best_p[None, :], grid.n)[0]
    return best_p, direction, sign * best_v, evals
