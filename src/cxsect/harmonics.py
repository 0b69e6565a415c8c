"""Spherical harmonics on S^{N-1} (N = 2n even) and the Fourier transform of
norm powers restricted to the sphere.

Every admitted body is invariant under the simultaneous rotation of all
coordinate pairs, and so is every function this module expands.  Such a
function has harmonic components only in the invariant harmonics, which are
the bidegree (k, k) harmonics of C^n, j = 2k (Rudin 1980, ch. 12); the
module builds those alone.

They are polynomials in the complex monomials z^a conj(z)^b, |a| = |b| = k.
The Laplacian acts as z^a zbar^b -> sum_m a_m b_m z^{a-e_m} zbar^{b-e_m}, so
the harmonic subspace of a block is a small null-space problem, and sphere
inner products of monomials have the closed form

    <z^a zbar^b, z^c zbar^d> = [a+d == b+c] * 2 pi^n (a+d)! / Gamma(n + j)

which makes Gram-Schmidt orthonormalization exact.  The basis is canonical:
projections of a fixed Hermitian generator matrix onto the harmonic subspace
(one product), orthonormalized in order by classical Gram-Schmidt run twice,
so indices are stable across runs and every basis function is real.

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

_MAX_DEGREE = {4: 24, 6: 32, 8: 32}  # per N; see invariant_harmonic_basis
_NOISE_FLOOR = 1e-12
_CHUNK_ROWS = 8192  # points per monomial chunk in _Block._monomial_chunks


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


def invariant_harmonic_dim(n, j):
    """Dimension of the rotation-invariant (bidegree (j/2, j/2)) harmonics."""
    if j % 2:
        return 0
    k = j // 2

    def b(t):
        return math.comb(t + n - 1, n - 1) if t >= 0 else 0

    return b(k) ** 2 - b(k - 1) ** 2


class _Block:
    """Invariant harmonic polynomials of bidegree (k, k) on C^n, orthonormal on S^{2n-1}.

    The coefficients are Hermitian, so every basis function is real-valued.
    They live in ``C`` with shape (dim, P*P) over the monomial pairs (a, b),
    |a| = |b| = k, flattened a-major.
    """

    def __init__(self, n, k):
        self.n, self.k = n, k
        self.A = multi_indices(n, k)
        self.P = len(self.A)
        self._ea = np.array(self.A)
        V = self._nullspace()
        self.dim = V.shape[1]
        expect = invariant_harmonic_dim(n, 2 * k)
        if self.dim != expect:
            raise NumericalEvaluationError(
                f"harmonic block ({k},{k}) of C^{n}: null space dimension {self.dim} != {expect}"
            )
        S = self._exact_gram()
        self._gram = S
        self.C = self._canonical_basis(V, S)

    def _nullspace(self):
        n, k, P = self.n, self.k, self.P
        if k == 0:
            return np.eye(1, dtype=complex)
        rows = {a: i for i, a in enumerate(multi_indices(n, k - 1))}
        nr = len(rows)
        L = np.zeros((nr * nr, P * P))
        for ia, a in enumerate(self.A):
            for ib, b in enumerate(self.A):
                col = ia * P + ib
                for m in range(n):
                    if a[m] and b[m]:
                        a2 = a[:m] + (a[m] - 1,) + a[m + 1:]
                        b2 = b[:m] + (b[m] - 1,) + b[m + 1:]
                        L[rows[a2] * nr + rows[b2], col] += a[m] * b[m]
        _, s, vh = np.linalg.svd(L)
        rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s.size else 0
        return vh[rank:].conj().T.astype(complex)

    def _exact_gram(self):
        # S[(a,b),(c,d)] = moment(a + d) when a - b == c - d, and 0 across groups
        P = self.P
        moment = np.array([[complex_sphere_moment(self.n, tuple(x + y for x, y in zip(a, d)))
                            for d in self.A] for a in self.A])
        diff = (self._ea[:, None, :] - self._ea[None, :, :]).reshape(P * P, -1)
        same = (diff[:, None, :] == diff[None, :, :]).all(axis=2)
        pair_moment = np.broadcast_to(moment[:, None, None, :], (P, P, P, P)).reshape(P * P, P * P)
        return np.where(same, pair_moment, 0.0)

    def _generators(self):
        """Canonical generator matrix, one column per Hermitian pair (i, j >= i)."""
        P = self.P
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        gens = np.zeros((P * P, P * P), dtype=complex)  # P diagonal + P(P-1) pair columns
        col = 0
        for i in range(P):
            gens[i * P + i, col] = 1.0
            col += 1
            for j in range(i + 1, P):
                gens[[i * P + j, j * P + i], col] = inv_sqrt2
                gens[[i * P + j, j * P + i], col + 1] = 1j * inv_sqrt2, -1j * inv_sqrt2
                col += 2
        return gens

    def _canonical_basis(self, V, S):
        G = V.conj().T @ S @ V
        proj = V @ np.linalg.solve(G, V.conj().T @ S)
        cands = (proj @ self._generators()).T
        M = cands.reshape(-1, self.P, self.P)
        cands = (0.5 * (M + M.conj().transpose(0, 2, 1))).reshape(cands.shape)
        simages = cands @ S  # S is real symmetric: row k is S @ cands[k]
        basis = np.empty((self.dim, cands.shape[1]), dtype=complex)
        sbasis = np.empty_like(basis)
        kept = 0
        for cand, scand in zip(cands, simages):
            for _ in range(2):  # classical Gram-Schmidt against the kept rows, twice
                coef = (sbasis[:kept] @ cand.conj()).conj()  # <b, cand>_S = (S b)^H cand
                cand = cand - coef @ basis[:kept]
                scand = scand - coef @ sbasis[:kept]
            nrm = math.sqrt(abs(np.vdot(cand, scand)))
            if nrm > 1e-8:
                basis[kept], sbasis[kept] = cand / nrm, scand / nrm
                kept += 1
                if kept == self.dim:
                    break
        if kept != self.dim:
            raise NumericalEvaluationError(
                f"harmonic block ({self.k},{self.k}) of C^{self.n}: "
                f"orthonormalization found {kept} of {self.dim} functions"
            )
        return basis

    # -- evaluation ----------------------------------------------------

    def _monomial_chunks(self, X):
        """Yield (lo, hi, Za): the monomials z^a at X[lo:hi], shape (rows, P).

        Each chunk of _CHUNK_ROWS points builds the power table z_m^e once and
        gathers every monomial from it.
        """
        for lo in range(0, X.shape[0], _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, X.shape[0])
            Z = X[lo:hi, 0::2] + 1j * X[lo:hi, 1::2]
            table = np.empty((self.n, hi - lo, self.k + 1), dtype=complex)
            table[:, :, 0] = 1.0
            for e in range(1, table.shape[2]):
                table[:, :, e] = table[:, :, e - 1] * Z.T
            yield lo, hi, math.prod(table[m][:, self._ea[:, m]] for m in range(self.n))

    def eval_basis(self, X):
        """Values of the block's basis functions at X, shape (M, dim)."""
        out = np.empty((X.shape[0], self.dim))
        for lo, hi, Za in self._monomial_chunks(X):
            pairs = (Za[:, :, None] * Za.conj()[:, None, :]).reshape(hi - lo, -1)
            out[lo:hi] = (pairs @ self.C.T).real
        return out

    def eval_combo(self, X, coeffvec):
        """Values of sum_i coeffvec[i] * basis_i at X."""
        combo = (np.asarray(coeffvec, dtype=complex) @ self.C).reshape(self.P, self.P)
        out = np.empty(X.shape[0])
        for lo, hi, Za in self._monomial_chunks(X):
            out[lo:hi] = np.einsum("mp,pq,mq->m", Za, combo, Za.conj(), optimize=True).real
        return out

    def moments(self, nodes, wf):
        """mu_ab = sum_i wf_i z^a(x_i) zbar^b(x_i)."""
        mu = np.zeros((self.P, self.P), dtype=complex)
        for lo, hi, Za in self._monomial_chunks(nodes):
            mu += Za.T @ (wf[lo:hi, None] * Za.conj())
        return mu


@lru_cache(maxsize=None)
def _block(n, k):
    return _Block(n, k)


class HarmonicBasis:
    """Real orthonormal basis of the invariant degree-j harmonics on S^{N-1}.

    These are the bidegree (j/2, j/2) harmonics, the ones invariant under the
    simultaneous rotation of all coordinate pairs; functions are indexed
    0..len-1 in the canonical order of their block.
    """

    def __init__(self, N, j):
        self.N, self.j = N, j
        self.block = _block(N // 2, j // 2)

    def __len__(self):
        return self.block.dim

    def evaluate(self, X):
        """All basis function values at unit vectors X, shape (M, len(self))."""
        return self.block.eval_basis(np.atleast_2d(np.asarray(X, dtype=float)))


def _check_degree(N, j):
    if N not in _MAX_DEGREE or j % 2 or not 0 <= j <= _MAX_DEGREE[N]:
        raise InvalidInputError(f"no harmonic basis for N={N}, j={j}: supported are N in "
                                f"{tuple(_MAX_DEGREE)} and even j <= {_MAX_DEGREE.get(N, 32)}")


def invariant_harmonic_basis(N, j):
    """Orthonormal real basis of the rotation-invariant degree-j harmonics on S^{N-1}.

    N in {4, 6, 8}, j even, j <= 32 (24 at N = 4, where the Gram identity of
    the full degree-26 harmonics misses 1e-10).
    """
    _check_degree(N, j)
    return HarmonicBasis(N, j)


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

    Y_{j,l} are the invariant basis functions of ``invariant_harmonic_basis``.
    ``multiplier_power`` records that coefficients were rescaled by
    lambda_j(N, p); ``tail_ratio`` always refers to the unscaled expansion.
    Instances are immutable in practice and safe to evaluate concurrently.
    """

    N: int
    jmax: int
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
            if np.any(self.coeffs[j]):
                total += _block(self.N // 2, j // 2).eval_combo(pts, self.coeffs[j])
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
            self.N, self.jmax, scaled, self.tail_ratio, self.l2_norm,
            multiplier_power=p, warnings=self.warnings, label=self.label,
        )

    def to_dict(self):
        return {
            "N": self.N,
            "jmax": self.jmax,
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


def harmonic_expand(f, jmax, rule: QuadratureRule, tail_warn=1e-3,
                    label="") -> HarmonicExpansion:
    """Expand an even function on S^{N-1} on the invariant harmonics through ``jmax``.

    Coefficients are c_{j,l} = int f Y_{j,l} over the invariant basis
    functions Y_{j,l}.  A function invariant under the simultaneous rotation
    of all coordinate pairs has no other harmonic components, so for it the
    expansion is complete.  The coefficients are computed from monomial
    moments of f under ``rule`` (algebraically identical to the direct inner
    product, factored for speed).  Coefficients below 1e-12 times the L2 norm of f are
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
        blk = _block(N // 2, j // 2)
        cvec = (blk.C @ blk.moments(rule.nodes, wf).ravel()).real.copy()
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
    return HarmonicExpansion(N, jmax, coeffs, tail, l2, warnings=tuple(warnings), label=label)


def expansion_rule(N, jmax):
    """Quadrature rule sized for expansions: exactness 2*jmax + 3 (level >= 8)."""
    return sphere_rule(N, max(jmax + 2, 8))


def ft_norm_power(body, p, jmax=None, tail_warn=1e-3) -> HarmonicExpansion:
    """Sphere restriction of the Fourier transform of ||.||_body^{-p}.

    Expands the radial power rho^p (the sphere restriction of the norm power)
    on the rotation-invariant harmonics through degree ``jmax`` (default
    ``default_config().jmax_for(N)``) and rescales degree j by
    lambda_j(N, p).
    """
    N = body.dim.N
    if not 0 < p < N:
        raise InvalidInputError(f"ft_norm_power requires 0 < p < {N}, got {p}")
    if jmax is None:
        jmax = default_config().jmax_for(N)
    expansion = harmonic_expand(
        lambda X: body.radial(X) ** p, jmax, expansion_rule(N, jmax), tail_warn=tail_warn,
        label=f"ft[{body.label}]^(-{p})",
    )
    return expansion.multiplied(p)


def euclidean_ft_constant(N, p):
    """Closed-form sphere value of the Fourier transform of |x|^{-p}."""
    return bochner_multiplier(N, p, 0)
