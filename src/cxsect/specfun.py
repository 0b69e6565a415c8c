"""Special functions and 1-D Gaussian quadrature builders.

Everything here is numpy-only: log-gamma via a Lanczos approximation, and
Gauss-Jacobi nodes/weights via Golub-Welsch on the classical three-term
recurrences.  Multipliers elsewhere are assembled in log space from
``log_gamma`` so that large-degree Gamma ratios never overflow.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# Lanczos g=7, nine coefficients; relative accuracy ~1e-14 on the positive axis.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """ln Gamma(x) for real x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise InvalidInputError("log_gamma requires x > 0")
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc = acc + c / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    return float(out) if out.ndim == 0 else out


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
        (a + b + 1.0) * math.log(2.0) + log_gamma(a + 1.0) + log_gamma(b + 1.0) - log_gamma(a + b + 2.0)
    )
    weights = mu0 * vecs[0, :] ** 2
    return vals, weights


def gauss_gegenbauer(npts, lam):
    """Symmetric Gauss rule for weight (1-t^2)^lam on (-1, 1), antipodally exact.

    Nodes and weights are symmetrized so the t -> -t closure holds bitwise.
    """
    t, w = gauss_jacobi(npts, lam, lam)
    t = 0.5 * (t - t[::-1])
    w = 0.5 * (w + w[::-1])
    return t, w


def gauss_power01(npts, expo):
    """Gauss rule on (0, 1) with weight s^expo."""
    x, w = gauss_jacobi(npts, 0.0, float(expo))
    s = 0.5 * (x + 1.0)
    return s, w / 2.0 ** (expo + 1.0)
