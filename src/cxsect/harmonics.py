"""Spherical harmonics on S^{N-1} (N = 2n even) and the Fourier transform of
norm powers restricted to the sphere.

Harmonic polynomials are built in complex monomials z^a conj(z)^b organized
by bidegree (p, q), p + q = j.  The Laplacian acts blockwise
(z^a zbar^b -> sum_k a_k b_k z^{a-e_k} zbar^{b-e_k}), so each block's harmonic
subspace is a small null-space problem, and sphere inner products of
monomials have the closed form

    <z^a zbar^b, z^c zbar^d> = [a+d == b+c] * 2 pi^n (a+d)! / Gamma(n + j)

which makes Gram-Schmidt orthonormalization exact.  The basis is canonical:
projections of a fixed generator sequence onto the harmonic subspace,
orthonormalized in order, so indices are stable across runs.

Diagonal blocks (p == q) are exactly the harmonics invariant under the
simultaneous rotation of all coordinate pairs; restricting an expansion to
them is the fast path for invariant integrands (the full expansion over all
blocks is the reference path).

The Fourier transform of the degree -p homogeneous extension of a spherical
harmonic Y_j multiplies it by

    lambda_j(N, p) = (-1)^{j/2} 2^{N-p} pi^{N/2} Gamma((j+N-p)/2) / Gamma((j+p)/2),

computed in log space.  ``ft_norm_power`` expands the sphere restriction of
a body's norm power and rescales the coefficients degree by degree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import default_config
from .errors import InvalidInputError, NumericalEvaluationError
from .spherequad import QuadratureRule, sphere_rule
from .specfun import log_gamma

_MAX_DEGREE = {4: 24, 6: 32, 8: 32}  # per N; see harmonic_basis
_NOISE_FLOOR = 1e-12


@lru_cache(maxsize=None)
def multi_indices(n, deg):
    """All n-tuples of nonnegative integers summing to deg, lexicographic descending."""
    if n == 1:
        return ((deg,),)
    out = []
    for first in range(deg, -1, -1):
        for rest in multi_indices(n - 1, deg - first):
            out.append((first,) + rest)
    return tuple(out)


def complex_sphere_moment(n, alpha):
    """int_{S^{2n-1}} prod_k |z_k|^{2 alpha_k} dsigma = 2 pi^n alpha! / Gamma(n + |alpha|)."""
    logv = n * math.log(math.pi) + math.log(2.0)
    for a in alpha:
        logv += log_gamma(a + 1.0)
    logv -= log_gamma(n + sum(alpha))
    return math.exp(logv)


def harmonic_dim(N, j):
    """Real dimension of degree-j spherical harmonics on S^{N-1}."""
    if j == 0:
        return 1
    return math.comb(j + N - 1, N - 1) - math.comb(j + N - 3, N - 1)


def invariant_harmonic_dim(n, j):
    """Dimension of the rotation-invariant (bidegree (j/2, j/2)) harmonics."""
    if j % 2:
        return 0
    k = j // 2

    def b(t):
        return math.comb(t + n - 1, n - 1) if t >= 0 else 0

    return b(k) ** 2 - b(k - 1) ** 2


class _Block:
    """Harmonic polynomials of bidegree (p, q) on C^n, orthonormal on S^{2n-1}.

    For p > q the basis is complex (real harmonics are sqrt(2) Re / sqrt(2) Im
    of each element); for p == q it is Hermitian-coefficient, hence real-valued.
    Coefficients live in ``C`` with shape (dim, P*Q) over the monomial pairs
    (a, b), flattened a-major.
    """

    def __init__(self, n, p, q):
        self.n, self.p, self.q = n, p, q
        self.A = multi_indices(n, p)
        self.B = multi_indices(n, q)
        P, Q = len(self.A), len(self.B)
        self.P, self.Q = P, Q
        self.is_real = p == q
        V = self._nullspace()
        self.dim = V.shape[1]
        if self.dim != self._dim_formula():
            raise NumericalEvaluationError(
                f"harmonic block ({p},{q}) of C^{n}: null space dimension "
                f"{self.dim} != {self._dim_formula()}"
            )
        S = self._exact_gram()
        self._gram = S
        self.C = self._canonical_basis(V, S)

    def _dim_formula(self):
        def b(t, n):
            return math.comb(t + n - 1, n - 1) if t >= 0 else 0

        return b(self.p, self.n) * b(self.q, self.n) \
            - b(self.p - 1, self.n) * b(self.q - 1, self.n)

    def _nullspace(self):
        n, p, q = self.n, self.p, self.q
        P, Q = self.P, self.Q
        if p == 0 or q == 0:
            return np.eye(P * Q, dtype=complex)
        rows_a = {a: i for i, a in enumerate(multi_indices(n, p - 1))}
        rows_b = {b: i for i, b in enumerate(multi_indices(n, q - 1))}
        nb = len(rows_b)
        L = np.zeros((len(rows_a) * nb, P * Q))
        for ia, a in enumerate(self.A):
            for ib, b in enumerate(self.B):
                col = ia * Q + ib
                for k in range(n):
                    if a[k] and b[k]:
                        a2 = a[:k] + (a[k] - 1,) + a[k + 1:]
                        b2 = b[:k] + (b[k] - 1,) + b[k + 1:]
                        L[rows_a[a2] * nb + rows_b[b2], col] += a[k] * b[k]
        _, s, vh = np.linalg.svd(L)
        rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s.size else 0
        return vh[rank:].conj().T.astype(complex)

    def _exact_gram(self):
        # group monomial pairs by a - b; inner products vanish across groups
        n = self.n
        P, Q = self.P, self.Q
        Aarr = np.array(self.A, dtype=int)
        Barr = np.array(self.B, dtype=int)
        groups = {}
        for ia in range(P):
            for ib in range(Q):
                groups.setdefault(tuple(Aarr[ia] - Barr[ib]), []).append((ia, ib))
        S = np.zeros((P * Q, P * Q))
        for members in groups.values():
            for ia, ib in members:
                for ic, idd in members:
                    e = tuple(Aarr[ia] + Barr[idd])
                    S[ia * Q + ib, ic * Q + idd] = complex_sphere_moment(n, e)
        return S

    def _generators(self):
        """Canonical generator sequence: unit pairs, or Hermitian pairs when p == q."""
        P, Q = self.P, self.Q
        if not self.is_real:
            for g in range(P * Q):
                vec = np.zeros(P * Q, dtype=complex)
                vec[g] = 1.0
                yield vec
            return
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for i in range(P):
            for j in range(i, Q):
                if i == j:
                    vec = np.zeros(P * Q, dtype=complex)
                    vec[i * Q + i] = 1.0
                    yield vec
                else:
                    vec = np.zeros(P * Q, dtype=complex)
                    vec[i * Q + j] = inv_sqrt2
                    vec[j * Q + i] = inv_sqrt2
                    yield vec
                    vec = np.zeros(P * Q, dtype=complex)
                    vec[i * Q + j] = 1j * inv_sqrt2
                    vec[j * Q + i] = -1j * inv_sqrt2
                    yield vec

    def _hermitize(self, vec):
        M = vec.reshape(self.P, self.Q)
        return (0.5 * (M + M.conj().T)).ravel()

    def _canonical_basis(self, V, S):
        G = V.conj().T @ S @ V
        proj = V @ np.linalg.solve(G, V.conj().T @ S)
        basis, simages = [], []
        for gen in self._generators():
            cand = proj @ gen
            if self.is_real:
                cand = self._hermitize(cand)
            scand = S @ cand
            for _ in range(2):  # reorthogonalization pass for stability
                for bvec, simg in zip(basis, simages):
                    coef = np.vdot(bvec, scand)
                    cand = cand - coef * bvec
                    scand = scand - coef * simg
            nrm = math.sqrt(abs(np.vdot(cand, scand)))
            if nrm > 1e-8:
                basis.append(cand / nrm)
                simages.append(scand / nrm)
            if len(basis) == self.dim:
                break
        if len(basis) != self.dim:
            raise NumericalEvaluationError(
                f"harmonic block ({self.p},{self.q}) of C^{self.n}: "
                f"orthonormalization found {len(basis)} of {self.dim} functions"
            )
        return np.array(basis)

    # -- evaluation ----------------------------------------------------

    def monomials(self, X):
        """Za (M, P) and Zb (M, Q) monomial values at points X in R^{2n}."""
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        maxexp = max(self.p, self.q)
        pows = [None] * self.n
        for k in range(self.n):
            table = np.empty((maxexp + 1, X.shape[0]), dtype=complex)
            table[0] = 1.0
            for e in range(1, maxexp + 1):
                table[e] = table[e - 1] * Z[:, k]
            pows[k] = table

        def build(idxs):
            out = np.empty((X.shape[0], len(idxs)), dtype=complex)
            for i, a in enumerate(idxs):
                v = pows[0][a[0]]
                for k in range(1, self.n):
                    if a[k]:
                        v = v * pows[k][a[k]]
                out[:, i] = v.copy() if v is pows[0][a[0]] else v
            return out

        return build(self.A), build(self.B)

    def eval_basis(self, X):
        """Values of the block's own basis functions at X, shape (M, dim), complex."""
        out = np.empty((X.shape[0], self.dim), dtype=complex)
        step = max(2048, 12_000_000 // max(self.P * self.Q, 1))
        CT = self.C.T
        for lo in range(0, X.shape[0], step):
            hi = min(lo + step, X.shape[0])
            Za, Zb = self.monomials(X[lo:hi])
            pairs = (Za[:, :, None] * Zb.conj()[:, None, :]).reshape(hi - lo, -1)
            out[lo:hi] = pairs @ CT
        return out

    def eval_combo(self, X, coeffvec):
        """Evaluate sum_i coeffvec[i] * basis_i at X; returns the complex values."""
        combo = (coeffvec @ self.C).reshape(self.P, self.Q)
        out = np.empty(X.shape[0], dtype=complex)
        step = max(8192, 24_000_000 // max(self.P * self.Q, 1))
        for lo in range(0, X.shape[0], step):
            hi = min(lo + step, X.shape[0])
            Za, Zb = self.monomials(X[lo:hi])
            out[lo:hi] = np.einsum("mp,pq,mq->m", Za, combo, Zb.conj(), optimize=True)
        return out

    def moments(self, nodes, wf, chunk=200_000):
        """mu_ab = sum_i wf_i z^a(x_i) zbar^b(x_i), chunked over nodes."""
        mu = np.zeros((self.P, self.Q), dtype=complex)
        for lo in range(0, nodes.shape[0], chunk):
            hi = min(lo + chunk, nodes.shape[0])
            Za, Zb = self.monomials(nodes[lo:hi])
            mu += Za.T @ (wf[lo:hi, None] * Zb.conj())
        return mu


@lru_cache(maxsize=None)
def _block(n, p, q):
    return _Block(n, p, q)


def _degree_blocks(n, j, invariant_only):
    if invariant_only:
        return ((j // 2, j // 2),)
    out = [(p, j - p) for p in range(j, j // 2, -1)]
    out.append((j // 2, j // 2))
    return tuple(out)


class HarmonicBasis:
    """Real orthonormal basis of (a subspace of) degree-j harmonics on S^{N-1}.

    Functions are indexed 0..len-1 in a fixed order: for each off-diagonal
    block, the sqrt(2) Re / sqrt(2) Im pair of every complex basis element;
    the diagonal (rotation-invariant) block last.
    """

    def __init__(self, N, j, invariant_only=False):
        self.N, self.j = N, j
        self.n = N // 2
        self.blocks = [_block(self.n, p, q) for p, q in _degree_blocks(self.n, j, invariant_only)]
        self._offsets = []
        pos = 0
        for blk in self.blocks:
            self._offsets.append(pos)
            pos += blk.dim if blk.is_real else 2 * blk.dim
        self.size = pos

    def __len__(self):
        return self.size

    def evaluate(self, X):
        """All basis function values at unit vectors X, shape (M, len(self))."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.size))
        for blk, off in zip(self.blocks, self._offsets):
            vals = blk.eval_basis(X)
            if blk.is_real:
                out[:, off:off + blk.dim] = vals.real
            else:
                out[:, off:off + 2 * blk.dim:2] = math.sqrt(2.0) * vals.real
                out[:, off + 1:off + 2 * blk.dim:2] = math.sqrt(2.0) * vals.imag
        return out

    def function(self, ell):
        """The ell-th basis function as a standalone callable on unit vectors."""
        if not 0 <= ell < self.size:
            raise InvalidInputError(f"basis index {ell} out of range [0, {self.size})")

        def fn(X):
            pts = np.atleast_2d(np.asarray(X, dtype=float))
            vals = self.evaluate(pts)[:, ell]
            return vals if np.ndim(X) == 2 else float(vals[0])

        return fn

    def real_coefficients(self, t_by_block):
        """Map per-block complex integrals t_i = int f * Y_i to real coefficients."""
        out = np.empty(self.size)
        for blk, off, t in zip(self.blocks, self._offsets, t_by_block):
            if blk.is_real:
                out[off:off + blk.dim] = t.real
            else:
                out[off:off + 2 * blk.dim:2] = math.sqrt(2.0) * t.real
                out[off + 1:off + 2 * blk.dim:2] = math.sqrt(2.0) * t.imag
        return out

    def combo_coefficients(self, coeffs):
        """Split a real coefficient vector back into per-block complex combos."""
        combos = []
        for blk, off in zip(self.blocks, self._offsets):
            if blk.is_real:
                combos.append(coeffs[off:off + blk.dim].astype(complex))
            else:
                cre = coeffs[off:off + 2 * blk.dim:2]
                cim = coeffs[off + 1:off + 2 * blk.dim:2]
                combos.append(math.sqrt(2.0) * (cre - 1j * cim))
        return combos


@lru_cache(maxsize=None)
def _basis(N, j, invariant_only):
    return HarmonicBasis(N, j, invariant_only)


def _check_degree(N, j):
    if N not in _MAX_DEGREE or j % 2 or not 0 <= j <= _MAX_DEGREE[N]:
        raise InvalidInputError(f"no harmonic basis for N={N}, j={j}: supported are N in "
                                f"{tuple(_MAX_DEGREE)} and even j <= {_MAX_DEGREE.get(N, 32)}")


def harmonic_basis(N, j, invariant_only=False):
    """Orthonormal real basis of degree-j spherical harmonics on S^{N-1}.

    N in {4, 6, 8}, j even, j <= 32 (24 at N = 4, where the Gram identity
    misses 1e-10 from degree 26).  With ``invariant_only`` the basis spans
    only the harmonics invariant under the simultaneous rotation of all
    coordinate pairs.
    """
    _check_degree(N, j)
    return _basis(N, j, bool(invariant_only))


def invariant_harmonic_basis(N, j):
    """Rotation-invariant degree-j harmonics (the diagonal bidegree block)."""
    return harmonic_basis(N, j, invariant_only=True)


def bochner_multiplier(N, p, j):
    """Degree-j Fourier multiplier for homogeneous extensions of degree -p.

    lambda_j = (-1)^{j/2} 2^{N-p} pi^{N/2} Gamma((j+N-p)/2) / Gamma((j+p)/2),
    evaluated in log space.  Requires 0 < p < N and even j.
    """
    if not 0 < p < N:
        raise InvalidInputError(f"multiplier requires 0 < p < N, got p={p}, N={N}")
    if j % 2 or j < 0:
        raise InvalidInputError("degree must be even and nonnegative")
    sign = -1.0 if (j // 2) % 2 else 1.0
    logv = (
        (N - p) * math.log(2.0)
        + 0.5 * N * math.log(math.pi)
        + log_gamma((j + N - p) / 2.0)
        - log_gamma((j + p) / 2.0)
    )
    return sign * math.exp(logv)


@dataclass
class HarmonicExpansion:
    """Truncated expansion sum_{j even <= jmax} sum_l c[j][l] Y_{j,l} on S^{N-1}.

    ``multiplier_power`` records that coefficients were rescaled by
    lambda_j(N, p); ``tail_ratio`` always refers to the unscaled expansion.
    Instances are immutable in practice and safe to evaluate concurrently.
    """

    N: int
    jmax: int
    invariant_only: bool
    coeffs: dict
    tail_ratio: float
    l2_norm: float
    multiplier_power: float | None = None
    warnings: tuple = ()
    label: str = ""

    def degrees(self):
        return sorted(self.coeffs)

    def coefficient(self, j, ell):
        return float(self.coeffs[j][ell])

    def degree_energies(self):
        return {j: float(np.sum(c * c)) for j, c in self.coeffs.items()}

    def evaluate(self, X, degrees=None):
        """Values at unit vectors X (array (M, N) or single vector)."""
        pts = np.atleast_2d(np.asarray(X, dtype=float))
        if pts.shape[1] != self.N:
            raise InvalidInputError(f"expected vectors in R^{self.N}")
        total = np.zeros(pts.shape[0])
        for j in self.degrees() if degrees is None else degrees:
            basis = _basis(self.N, j, self.invariant_only)
            combos = basis.combo_coefficients(self.coeffs[j])
            for blk, combo in zip(basis.blocks, combos):
                if not np.any(combo):
                    continue
                total += blk.eval_combo(pts, combo).real
        return total if np.ndim(X) == 2 else float(total[0])

    __call__ = evaluate

    def tail_values(self, X, top=2):
        """Contribution of the highest ``top`` degrees at X (truncation indicator)."""
        degs = self.degrees()[-top:]
        return self.evaluate(X, degrees=degs)

    def multiplied(self, p):
        """New expansion with coefficients scaled by lambda_j(N, p)."""
        scaled = {
            j: bochner_multiplier(self.N, p, j) * c for j, c in self.coeffs.items()
        }
        return HarmonicExpansion(
            self.N, self.jmax, self.invariant_only, scaled, self.tail_ratio,
            self.l2_norm, multiplier_power=p, warnings=self.warnings, label=self.label,
        )

    def to_dict(self):
        return {
            "N": self.N,
            "jmax": self.jmax,
            "invariant_only": self.invariant_only,
            "multiplier_power": self.multiplier_power,
            "tail_energy_ratio": self.tail_ratio,
            "l2_norm": self.l2_norm,
            "label": self.label,
            "warnings": list(self.warnings),
            "coefficients": [
                [j, ell, float(c[ell])]
                for j, c in sorted(self.coeffs.items())
                for ell in range(len(c))
                if c[ell] != 0.0
            ],
        }


def harmonic_expand(f, jmax, rule: QuadratureRule, invariant_only=False,
                    tail_warn=1e-3, label="") -> HarmonicExpansion:
    """Expand an even function on S^{N-1} through degree ``jmax``.

    Coefficients are c_{j,l} = int f Y_{j,l}, computed from monomial moments
    of f under ``rule`` (algebraically identical to the direct inner product,
    factored for speed).  Coefficients below 1e-12 times the L2 norm of f are
    dropped as quadrature noise.  A warning is recorded when the top two
    degrees hold more than ``tail_warn`` of the expansion energy.  Raises
    ``NumericalEvaluationError`` when f or its L2 norm is not finite.
    """
    N = rule.m
    _check_degree(N, jmax)
    warnings = []
    if rule.exactness_degree < 2 * jmax:
        warnings.append(
            f"rule exactness {rule.exactness_degree} below 2*jmax={2 * jmax}; aliasing possible"
        )
    with np.errstate(over="ignore"):  # overflow is caught by the checks below
        fvals = f(rule.nodes) if callable(f) else np.asarray(f, dtype=float)
        wf = rule.weights * fvals
        l2 = math.sqrt(max(float(np.sum(wf * fvals)), 0.0))
    if not (np.all(np.isfinite(fvals)) and math.isfinite(l2)):
        raise NumericalEvaluationError(f"non-finite expansion integrand or L2 norm {label}".rstrip())
    coeffs = {}
    for j in range(0, jmax + 1, 2):
        basis = _basis(N, j, bool(invariant_only))
        t_by_block = [
            blk.C @ blk.moments(rule.nodes, wf).ravel() for blk in basis.blocks
        ]
        cvec = basis.real_coefficients(t_by_block)
        cvec[np.abs(cvec) < _NOISE_FLOOR * l2] = 0.0
        coeffs[j] = cvec
    energies = {j: float(np.sum(c * c)) for j, c in coeffs.items()}
    total = sum(energies.values())
    degs = sorted(energies)
    tail = (energies[degs[-1]] + energies[degs[-2]]) / total if total > 0 and len(degs) >= 2 else 0.0
    if tail > tail_warn:
        warnings.append(
            f"tail energy ratio {tail:.2e} exceeds {tail_warn:.0e}; truncation unreliable"
        )
    return HarmonicExpansion(
        N, jmax, bool(invariant_only), coeffs, tail, l2, warnings=tuple(warnings), label=label,
    )


def expansion_rule(N, jmax):
    """Quadrature rule sized for expansions: exactness 2*jmax + 3 (level >= 8)."""
    return sphere_rule(N, max(jmax + 2, 8))


def ft_norm_power(body, p, jmax=None, tail_warn=1e-3) -> HarmonicExpansion:
    """Sphere restriction of the Fourier transform of ||.||_body^{-p}.

    Expands the radial power rho^p (the sphere restriction of the norm power)
    on the rotation-invariant harmonics through degree ``jmax`` (default
    ``default_config().jmax_for(N)``) and rescales degree j by
    lambda_j(N, p).  ``harmonic_expand(..., invariant_only=False)`` followed
    by ``multiplied(p)`` is the full reference expansion.
    """
    N = body.dim.N
    if not 0 < p < N:
        raise InvalidInputError(f"ft_norm_power requires 0 < p < {N}, got {p}")
    if jmax is None:
        jmax = default_config().jmax_for(N)
    expansion = harmonic_expand(
        lambda X: body.radial(X) ** p, jmax, expansion_rule(N, jmax),
        invariant_only=True, tail_warn=tail_warn,
        label=f"ft[{body.label}]^(-{p})",
    )
    return expansion.multiplied(p)


def euclidean_ft_constant(N, p):
    """Closed-form sphere value of the Fourier transform of |x|^{-p}."""
    return bochner_multiplier(N, p, 0)
