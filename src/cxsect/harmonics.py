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

    <z^a zbar^b, z^c zbar^d> = [a+d == b+c] * 2 pi^n (a+d)! / (n - 1 + j)!

(``complex_sphere_moment``: the factorial ratio is taken in integers and
rounded once), which makes Gram-Schmidt orthonormalization exact.  Neither
the Laplacian nor this Gram mixes monomials of different d = a - b, and the
conjugate of a d monomial is a -d one, so a block splits into the pairs
{d, -d}, and so does its basis: each pair gets its own Laplacian rows, null
space, Gram, projector and classical Gram-Schmidt run twice (CGS2), and
inner products across pairs are exactly 0.  The basis is canonical: the
projections of a fixed sequence of Hermitian generators onto the harmonic
subspace, orthonormalized in that order (each against the kept rows of its
own pair), so indices are stable across runs and every basis function is
real.

Expansion coefficients come from the quadrature moments
mu_k[a, b] = sum_i w_i f(x_i) z^a zbar^b of each block.  On the unit sphere
sum_m |z_m|^2 = 1, so z^a zbar^b = sum_m z^{a+e_m} zbar^{b+e_m} and every
lower block's moments are exact sums of the top block's:
mu_k[a, b] = sum_m mu_{k+1}[a + e_m, b + e_m].  One pass over the rule's nodes
at the top degree therefore gives every degree.  This holds because the
rule's nodes are unit vectors: ``QuadratureRule`` rejects base rows more than
1e-8 off unit length when it is built.

That pass takes the rule itself (``_Block.moments``) and runs on its factors,
base rows w and phase rows phi, whose points are z_k = w_k e^{i phi_k}, with
f a table on them (``QuadratureRule.table``).  There z^a zbar^b = w^a conj(w)^b
e^{i (a - b) . phi}, so

    mu[a, b] = sum_h w_h^a conj(w_h)^b G_h(a - b),  G_h(d) = sum_f w_hf f_hf e^{i d . phi_f},

the same quadrature sum, reassociated: the adjoint of ``factor_values``
below.  Only the phase columns some row turns enter d, so G is one product
per chunk of base rows for the distinct frequencies, and the rows a that
agree on those columns form a group whose block against each column group
has one frequency.  f is real, so mu is Hermitian: only the blocks of column
groups at or after the row group are formed (462 of 784 entries at n = 3,
k = 6 on the product rule), and the rest is their conjugate transpose.

A table of width 1 ignores the phases; the table's width alone picks this
path.  The phase rows are the uniform grid of per-pair counts n_c, equally
weighted, so then G_h(d) = u_h f_h s(d), u_h the base row's summed weight
and s(d) exactly 1 when every d_c is a multiple of n_c and exactly 0
otherwise.  The blocks where s = 0 are skipped (on the product rule, 2L
azimuths > k, only the diagonal groups remain: 140 of 784 entries at n = 3,
k = 6).  Where n_c <= k (a torus rule with few phases) the aliased blocks
d_c = +-n_c stay.

The monomial tables and block products run on the base rows only (1/2L of
a level-L product rule), and no node array is formed.  Moments, basis values
and expansion values all take their monomial tables from one chunk loop over
rows, real or complex (``_Block._monomial_chunks``): one power table per
chunk, (n, k + 1, rows), from which each monomial is gathered as a
contiguous row of a (P, rows) table and multiplied in place.

Evaluation uses the same identity the other way round.  A degree-k
combination sum_ab H[a, b] z^a zbar^b equals
sum_ab H[a, b] sum_m z^{a+e_m} zbar^{b+e_m} on the unit sphere, so it lifts
exactly to the block above: H_{k+1}[a + e_m, b + e_m] += H_k[a, b].  An
expansion is therefore one Hermitian matrix at its top degree, built once
per instance, and evaluating it is one monomial table per chunk of points and
one product.  The lift holds on unit vectors only, so
``HarmonicExpansion.evaluate`` rejects rows more than 1e-8 off unit length;
a PerturbedBall's kernels, whose rows are unit by construction, take the
unchecked path behind that check.
At the nodes z_k = w_k e^{i phi_k} of a rule (base rows w, real moduli or
complex, and phase rows phi) the same matrix gives
sum_ab H[a, b] w^a conj(w)^b e^{i (a - b) . phi}, so
``factor_values(rule)`` works on the base rows and phase rows separately,
never forms the points and checks nothing: the rule did.

The Fourier transform of the degree -p homogeneous extension of a spherical
harmonic Y_j multiplies it by

    lambda_j(N, p) = (-1)^{j/2} 2^{N-p} pi^{N/2} Gamma((j+N-p)/2) / Gamma((j+p)/2),

computed in log space.  ``ft_norm_power`` expands the sphere restriction of
a body's norm power, rho^p, and rescales the coefficients degree by degree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import default_config
from .errors import InvalidInputError, NumericalEvaluationError
from .spherequad import CHUNK_ROWS, QuadratureRule, sphere_rule

_MAX_DEGREE = {4: 24, 6: 22, 8: 12}  # per N; see invariant_harmonic_basis
_NOISE_FLOOR = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    """int_{S^{2n-1}} prod_k |z_k|^{2 alpha_k} dsigma = 2 pi^n alpha! / (n - 1 + |alpha|)!.

    The factorial ratio is an exact integer quotient, rounded once.
    """
    num = math.prod(math.factorial(a) for a in alpha)
    return 2.0 * math.pi ** n * (num / math.factorial(n - 1 + sum(alpha)))


def invariant_harmonic_dim(n, j):
    """Dimension of the rotation-invariant (bidegree (j/2, j/2)) harmonics."""
    if j % 2:
        return 0
    k = j // 2

    def b(t):
        return math.comb(t + n - 1, n - 1) if t >= 0 else 0

    return b(k) ** 2 - b(k - 1) ** 2


def _split(keys, count=None):
    """Indices of ``keys`` grouped by key value 0..count-1, each group ascending."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.cumsum(np.bincount(keys, minlength=count or 0))[:-1])


def _projector(cols, terms, S):
    """S-orthogonal projector onto the harmonic polynomials among the
    entries ``cols`` (ascending), and their dimension.  ``terms`` are the
    Laplacian's (entry, row, value) columns on these entries."""
    if terms.shape[1]:
        rows, row = np.unique(terms[1], return_inverse=True)
        lap = np.zeros((len(rows), len(cols)))
        lap[row, np.searchsorted(cols, terms[0])] = terms[2]
        _, s, vh = np.linalg.svd(lap)
        V = vh[int(np.count_nonzero(s > 1e-10 * s[0])):].T
    else:
        V = np.eye(len(cols))
    return V @ np.linalg.solve(V.T @ S @ V, V.T @ S), V.shape[1]


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
        self.dim = invariant_harmonic_dim(n, 2 * k)
        self.C = self._canonical_basis()
        self._plans = {}  # live-column mask -> ``_plan``

    def _canonical_basis(self):
        """Projections of the canonical generators onto the harmonic subspace,
        orthonormalised in generator order, one difference pair {d, -d} at a time.

        The generators are e_aa, then for each (a, b > a) the Hermitian pair
        (e_ab + e_ba)/sqrt2, i (e_ab - e_ba)/sqrt2, in the order of the
        entries (a, b), b >= a, a-major.  Each lives in the pair of d = a - b.
        Neither the Laplacian nor the exact Gram mixes pairs, so each pair gets
        its own null space, Gram, projector and CGS2 run, and the kept rows are
        merged back in generator order.
        """
        n, P = self.n, self.P
        first, second = np.divmod(np.arange(P * P), P)  # entry a*P + b -> (a, b)
        moment = np.array([[complex_sphere_moment(n, tuple(x + y for x, y in zip(a, b)))
                            for b in self.A] for a in self.A])  # moment(a + b)
        diff = self._ea[first] - self._ea[second]
        lead = diff[np.arange(P * P), np.argmax(diff != 0, axis=1)]  # 0 only for d = 0
        sign = np.where(lead < 0, -1, 1)  # d = sign * (the larger of d and -d)
        _, group = np.unique(diff * sign[:, None], axis=0, return_inverse=True)
        width = np.where(first == second, 1, 2 * (first < second))  # generators per entry
        start = np.cumsum(width) - width  # the entry's first generator
        terms = self._laplacian_terms()
        parts, found = [], 0
        for cols, lap in zip(_split(group), _split(group[terms[0]], group.max() + 1)):
            # <z^a zbar^b, z^c zbar^e> = moment(a + e) when a - b == c - e, else 0
            S = np.where(sign[cols, None] == sign[None, cols],
                         moment[first[cols, None], second[None, cols]], 0.0)
            proj, dim = _projector(cols, terms[:, lap], S)
            found += dim
            up = np.flatnonzero(width[cols])  # the entries (a, b >= a)
            flip = np.searchsorted(cols, second[cols] * P + first[cols])  # (a, b) -> (b, a)
            pair = width[cols[up]] == 2
            pu, pt = proj[:, up].T, proj[:, flip[up]].T  # projected e_ab and e_ba
            cands = np.concatenate([np.where(pair[:, None], _INV_SQRT2 * (pu + pt), pu),
                                    1j * _INV_SQRT2 * (pu - pt)[pair]])
            ids = np.concatenate([start[cols[up]], start[cols[up[pair]]] + 1])
            order = np.argsort(ids)
            ids, cands = ids[order], cands[order]
            basis, kept = self._cgs2(0.5 * (cands + cands[:, flip].conj()), S, dim)
            parts.append((cols, basis, ids[kept]))
        if found != self.dim:
            raise NumericalEvaluationError(
                f"harmonic block ({self.k},{self.k}) of C^{n}: null space dimension {found} != {self.dim}"
            )
        merged = np.sort(np.concatenate([ids for _, _, ids in parts]))
        C = np.zeros((self.dim, P * P), dtype=complex)
        for cols, basis, ids in parts:
            C[np.searchsorted(merged, ids)[:, None], cols] = basis
        return C

    def _laplacian_terms(self):
        """(entry, row, value) columns of the Laplacian
        z^a zbar^b -> sum_m a_m b_m z^{a-e_m} zbar^{b-e_m}: entry a*P + b of
        this block, row a'*P' + b' of the block below, shape (3, terms)."""
        if self.k == 0:
            return np.zeros((3, 0), dtype=int)
        up = _raise_index(self.n, self.k - 1)  # a' -> a' + e_m
        below = np.arange(up.shape[0] ** 2)
        terms = []
        for m in range(self.n):
            e = self._ea[up[:, m], m]
            terms.append(np.stack([(up[:, m, None] * self.P + up[None, :, m]).ravel(), below,
                                   (e[:, None] * e[None, :]).ravel()]))
        return np.concatenate(terms, axis=1)

    def _cgs2(self, cands, S, dim):
        """The first ``dim`` candidate rows kept by classical Gram-Schmidt, run
        twice against the kept rows under the real symmetric Gram S, normalised,
        and their indices among the candidates.  S @ cand is taken afresh for
        every inner product, so no rounding is carried from row to row."""
        S = S.astype(complex)
        basis = np.empty((dim, cands.shape[1]), dtype=complex)
        kept = []
        for i, cand in enumerate(cands):
            if len(kept) == dim:
                break
            for _ in range(2):
                coef = (basis[:len(kept)] @ (S @ cand).conj()).conj()  # <b, cand>_S = b^H S cand
                cand = cand - coef @ basis[:len(kept)]
            nrm = math.sqrt(abs(np.vdot(cand, S @ cand)))
            if nrm > 1e-8:
                basis[len(kept)] = cand / nrm
                kept.append(i)
        if len(kept) != dim:
            raise NumericalEvaluationError(
                f"harmonic block ({self.k},{self.k}) of C^{self.n}: "
                f"orthonormalization found {len(kept)} of {dim} functions"
            )
        return basis, kept

    # -- evaluation ----------------------------------------------------

    def _monomial_chunks(self, W, ea=None):
        """Yield (lo, hi, Wa): the monomials w^a at the rows W[lo:hi] of W
        (rows, n), real or complex, shape (P, hi - lo), one row per exponent
        row a of ``ea`` (default the block's order), in chunks of
        ``CHUNK_ROWS`` rows.  Each chunk takes one power table w_m^e, shape
        (n, k + 1, rows), gathers each factor of a monomial as a contiguous
        row and takes the products in place, m = 0 first."""
        ea = self._ea if ea is None else ea
        for lo in range(0, W.shape[0], CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, W.shape[0])
            table = np.empty((self.n, self.k + 1, hi - lo), dtype=W.dtype)
            table[:, 0] = 1.0
            for e in range(1, self.k + 1):
                # into a fresh array: an out= overlapping its input would take
                # NumPy's scalar complex loop for one row, which rounds apart
                table[:, e] = table[:, e - 1] * W[lo:hi].T
            Wa = table[0][ea[:, 0]]
            for m in range(1, self.n):
                Wa *= table[m][ea[:, m]]
            yield lo, hi, Wa

    def eval_basis(self, X):
        """Values of the block's basis functions at X, shape (M, dim)."""
        out = np.empty((X.shape[0], self.dim))
        for lo, hi, Za in self._monomial_chunks(np.ascontiguousarray(X).view(complex)):
            Za = Za.T
            pairs = (Za[:, :, None] * Za.conj()[:, None, :]).reshape(hi - lo, -1)
            out[lo:hi] = (pairs @ self.C.T).real
        return out

    def moments(self, rule, wf):
        """mu_ab = sum_i wf_i z^a zbar^b for real wf, a table on the factors of
        ``rule`` (base rows w, phase rows phi, node h*F + f at
        z_k = w[h, k] e^{i phi[f, k]}): the adjoint of
        ``HarmonicExpansion.factor_values``.

        There z^a zbar^b = w^a conj(w)^b e^{i (a - b) . phi}, so
        mu_ab = sum_h w^a conj(w)^b G_h(a - b) with
        G_h(d) = sum_f wf[h, f] e^{i d . phi_f}, wf (H, F).  A table of
        width 1 is a phase-independent integrand times its base row's summed
        weight; then G_h(d) = wf_h s(d), with s(d) the phase sum of the
        rule's uniform grid divided by F: 1 when every d_c is a multiple of
        the phase count n_c and 0 otherwise, taken as exact values.

        Only the pairs of phase count > 1 enter d, so G is one product per
        chunk of base rows for the distinct d there.  The rows a that agree
        on those columns form a group, and each (row group, column group)
        block has one d.  wf is real, so mu is Hermitian: only the blocks of
        column groups >= the row group are formed, and the rest is their
        conjugate transpose.  For a table of width 1 the blocks where
        s(d) = 0 are skipped, and their entries are exactly 0.
        """
        live = np.array(rule.phase_counts) > 1
        if wf.shape[1] == 1:
            plan = self._plan(live, rule.phase_counts)
            E = plan.phase_sum  # (1, D), exactly 0 or 1
        else:
            plan = self._plan(live, None)
            E = np.exp(1j * (rule.phases[:, live] @ plan.freq.T))  # (F, D)
        mu = np.zeros((self.P, self.P), dtype=complex)  # in the plan's row order
        for lo, hi, Wa in self._monomial_chunks(rule.base, plan.ea):
            GT = (wf[lo:hi] @ E).T  # (D, rows)
            Wb = Wa.conj()
            for rows, cols, fcol in plan.blocks:
                mu[rows, cols] += Wa[rows] @ (GT[fcol] * Wb[cols]).T
        mu = np.triu(mu)
        mu += np.triu(mu, 1).conj().T
        mu[np.diag_indices(self.P)] = mu.diagonal().real
        return mu[np.ix_(plan.undo, plan.undo)]

    def _plan(self, live, counts):
        """The plan of ``moments`` for the turning columns ``live`` (a bool
        mask over the n pairs) and, for a table of width 1, the phase
        ``counts``; built once per key, every array read-only.

        The rows a are put in the order of their exponents on the live
        columns (``ea``, ``undo`` restores the block's order), so the rows
        that agree there form contiguous groups.  ``freq`` holds the distinct
        d = a - b on those columns (D, live count).  ``blocks`` holds, per
        row group, its row slice, the columns of the groups >= it and the
        index into ``freq`` of each column's d; with ``counts`` only the
        column groups whose d has a nonzero phase sum, which is
        ``phase_sum`` (1, D).
        """
        key = (live.tobytes(), counts)
        if key not in self._plans:
            turn = self._ea[:, live]
            group = np.unique(turn, axis=0, return_inverse=True)[1].ravel()
            order = np.argsort(group, kind="stable")
            group, turn = group[order], turn[order]
            freq, col = np.unique((turn[:, None] - turn[None, :]).reshape(self.P ** 2, turn.shape[1]),
                                  axis=0, return_inverse=True)
            col = col.reshape(self.P, self.P)
            starts = np.searchsorted(group, np.arange(group[-1] + 2))
            phase_sum = None
            keep = np.ones(len(freq), dtype=bool)
            if counts is not None:
                keep = np.all(freq % np.array(counts)[live] == 0, axis=1)
                phase_sum = keep[None, :].astype(float)
            blocks = []
            for lo, hi in zip(starts[:-1], starts[1:]):
                cols = lo + np.flatnonzero(keep[col[lo, lo:]])  # d = 0 at lo: never empty
                fcol = col[lo, cols]
                if cols[-1] - lo + 1 == cols.size:  # a contiguous run: a view, not a copy
                    cols = slice(lo, lo + cols.size)
                blocks.append((slice(lo, hi), cols, fcol))
            ea, undo = self._ea[order], np.argsort(order)
            for arr in (ea, undo, freq, *(f for _, _, f in blocks)):
                arr.setflags(write=False)
            if phase_sum is not None:
                phase_sum.setflags(write=False)
            self._plans[key] = _MomentPlan(ea, undo, freq, tuple(blocks), phase_sum)
        return self._plans[key]


@dataclass(frozen=True)
class _MomentPlan:
    """The frequency plan of ``_Block.moments`` (see ``_Block._plan``)."""

    ea: np.ndarray
    undo: np.ndarray
    freq: np.ndarray
    blocks: tuple
    phase_sum: np.ndarray | None


@lru_cache(maxsize=None)
def _block(n, k):
    return _Block(n, k)


@lru_cache(maxsize=None)
def _raise_index(n, k):
    """up[i, m]: the position of a + e_m in multi_indices(n, k + 1), for a the
    i-th entry of multi_indices(n, k)."""
    pos = {a: i for i, a in enumerate(multi_indices(n, k + 1))}
    up = np.array([[pos[a[:m] + (a[m] + 1,) + a[m + 1:]] for m in range(n)]
                   for a in multi_indices(n, k)])
    up.flags.writeable = False  # shared by every caller through the cache
    return up


def _lower_moments(mu, n, k):
    """Degree-k moment table from the degree-(k+1) one on unit nodes.

    z^a zbar^b = sum_m z^{a+e_m} zbar^{b+e_m} where |z| = 1, so
    mu_k[a, b] = sum_m mu_{k+1}[a + e_m, b + e_m].
    """
    up = _raise_index(n, k)
    return sum(mu[up[:, m, None], up[None, :, m]] for m in range(n))


def _raise_combo(H, n, k):
    """Degree-(k+1) combination matrix equal to the degree-k one H on unit vectors.

    sum_ab H[a, b] z^a zbar^b = sum_ab H[a, b] sum_m z^{a+e_m} zbar^{b+e_m}
    where |z| = 1, so H_{k+1}[a + e_m, b + e_m] += H_k[a, b]: the adjoint of
    ``_lower_moments``.
    """
    up = _raise_index(n, k)
    P = len(multi_indices(n, k + 1))
    out = np.zeros((P, P), dtype=complex)
    for m in range(n):  # a -> a + e_m is injective, so no index repeats within one m
        out[up[:, m, None], up[None, :, m]] += H
    return out


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
        """All basis function values at unit vectors X, shape (M, len(self)).
        Rows of another width than N, or more than 1e-8 off unit length,
        raise ``InvalidInputError``."""
        return self.block.eval_basis(_unit_rows(X, self.N))


def _check_degree(N, j):
    if N not in _MAX_DEGREE:
        raise InvalidInputError(f"no harmonic basis for N={N}: supported are N in {tuple(_MAX_DEGREE)}")
    if j % 2 or not 0 <= j <= _MAX_DEGREE[N]:
        raise InvalidInputError(f"no harmonic basis for N={N}, j={j}: "
                                f"supported are even j <= {_MAX_DEGREE[N]}")


def invariant_harmonic_basis(N, j):
    """Orthonormal real basis of the rotation-invariant degree-j harmonics on S^{N-1}.

    N in {4, 6, 8}, j even, j <= 24, 22 and 12 there.  The caps at N = 4 and
    6 are the highest degrees whose blocks were measured to satisfy
    C S C^H = I to 1e-10 under the exact monomial Gram S (the blocks at
    j = 26 and 24 miss it).  At N = 8 the j = 14 block passes too, but its
    dense coefficients alone take 1.7 GB, so the cap is 12.
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
        + math.lgamma((j + N - p) / 2.0)
        - math.lgamma((j + p) / 2.0)
    )
    return sign * math.exp(logv)


def _unit_rows(X, N):
    """X as a 2-D float array of unit rows in R^N; InvalidInputError otherwise.
    The lift of ``HarmonicExpansion`` is exact on the unit sphere only."""
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != N:
        raise InvalidInputError(f"expected vectors in R^{N}")
    if not np.all(np.abs(np.sqrt(np.einsum("ij,ij->i", pts, pts)) - 1.0) <= 1e-8):
        raise InvalidInputError("expansions are evaluated at unit vectors only")
    return pts


@dataclass(eq=False)
class HarmonicExpansion:
    """Truncated expansion sum_{j even <= jmax} sum_l c[j][l] Y_{j,l} on S^{N-1}.

    Y_{j,l} are the invariant basis functions of ``invariant_harmonic_basis``.
    ``multiplier_power`` records that coefficients were rescaled by
    lambda_j(N, p); ``tail_ratio`` always refers to the unscaled expansion.
    Instances are immutable in practice and safe to evaluate concurrently;
    the lifted matrix of ``evaluate`` is cached on first use, so coefficients
    must not change after it.  Expansions compare and hash by identity: the
    coefficients are arrays, so value equality has no single truth value.
    """

    N: int
    jmax: int
    coeffs: dict
    tail_ratio: float
    l2_norm: float
    multiplier_power: float | None = None
    warnings: tuple = ()
    label: str = ""
    _lifted: dict = field(default_factory=dict, init=False, repr=False)

    def degrees(self):
        return sorted(self.coeffs)

    def coefficient(self, j, ell):
        return float(self.coeffs[j][ell])

    def degree_energies(self):
        return {j: float(np.sum(c * c)) for j, c in self.coeffs.items()}

    def evaluate(self, X):
        """Values at unit vectors X (array (M, N) or single vector).

        The whole expansion is one combination matrix at its highest degree
        with a nonzero coefficient (see ``_lift``), so this is one monomial
        table per chunk of points and one product.  The lift is exact on the unit sphere only: rows more than
        1e-8 off unit length raise ``InvalidInputError``.
        """
        return self._values(X, self.degrees())

    __call__ = evaluate

    def tail_values(self, X):
        """Contribution of the two highest degrees at unit vectors X
        (truncation indicator); lifted and checked as in ``evaluate``."""
        return self._values(X, self.degrees()[-2:])

    def _values(self, X, degrees):
        out = self._unit_row_values(_unit_rows(X, self.N), degrees)
        return out if np.ndim(X) == 2 else float(out[0])

    def _unit_row_values(self, pts, degrees=None):
        """Values of the given degrees (default all) at the rows of a 2-D
        float array of unit vectors in R^N, taken as checked: the path of
        ``evaluate`` after its check, and of callers whose points are unit by
        construction."""
        H, blk = self._lift(tuple(self.degrees() if degrees is None else degrees))
        out = np.empty(pts.shape[0])
        for lo, hi, Za in blk._monomial_chunks(np.ascontiguousarray(pts).view(complex)):
            Za = Za.T
            ZH = Za @ H  # value = Re sum_b ZH_b conj(Za_b)
            out[lo:hi] = (np.einsum("ij,ij->i", ZH.real, Za.real)
                          + np.einsum("ij,ij->i", ZH.imag, Za.imag))
        return out

    def factor_values(self, rule):
        """Values at the nodes of a ``QuadratureRule``, shape (H, F): node
        h*F + f is z_k = w[h, k] e^{i phi[f, k]} for its base rows w, real
        (moduli) or complex, and phase rows phi.

        With H the lifted matrix of ``evaluate``, z^a zbar^b =
        w^a conj(w)^b e^{i (a - b) . phi}, so the value is Re sum_ab Q_ab E_ab
        with Q = w^a conj(w)^b, one (rows, P^2) block per chunk of base rows,
        and E = H[a, b] e^{i (a - b) . phi}, one (P^2, F) matrix: Q.real @ E.real,
        less Q.imag @ E.imag where the base is complex.  No node is formed;
        the rule has checked that its base rows are of unit length.
        """
        H, blk = self._lift(tuple(self.degrees()))
        P = blk.P
        freq = (blk._ea[:, None, :] - blk._ea[None, :, :]).reshape(P * P, self.N // 2)  # a - b
        E = H.reshape(-1, 1) * np.exp(1j * (freq @ rule.phases.T))
        out = np.empty((rule.base.shape[0], rule.phases.shape[0]))
        for lo, hi, Wa in blk._monomial_chunks(rule.base):
            Wa = Wa.T
            Q = (Wa[:, :, None] * Wa.conj()[:, None, :]).reshape(hi - lo, P * P)
            out[lo:hi] = Q.real @ E.real
            if np.iscomplexobj(Q):
                out[lo:hi] -= Q.imag @ E.imag
        return out

    def _lift(self, degrees):
        """(H, block): the Hermitian P x P matrix with
        sum_ab H[a, b] z^a zbar^b = sum_{j in degrees} sum_l c[j][l] Y_{j,l}
        on the unit sphere, at the highest of ``degrees`` with a nonzero
        coefficient, and that degree's block.

        Each degree's combination c_j @ C_j is added on the way up while the
        sum is raised one degree at a time by ``_raise_combo``.  Cached per
        degree tuple.
        """
        if degrees not in self._lifted:
            live = {j for j in degrees if np.any(self.coeffs[j])}
            n, top = self.N // 2, max(live, default=0) // 2
            H = np.zeros((1, 1), dtype=complex)
            for k in range(top + 1):
                if k:
                    H = _raise_combo(H, n, k - 1)
                if 2 * k in live:
                    blk = _block(n, k)
                    H = H + (self.coeffs[2 * k] @ blk.C).reshape(blk.P, blk.P)
            self._lifted[degrees] = H, _block(n, top)
        return self._lifted[degrees]

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

    f is given by its values on ``rule``, a table on the rule's factors
    (``QuadratureRule.table``): (H, F), or its flattening in node order, or
    (H, 1) for a function that ignores the phases of the rule's uniform
    phase grid, whose moments then take the grid's exact phase sums.

    Coefficients are c_{j,l} = int f Y_{j,l} over the invariant basis
    functions Y_{j,l}.  A function invariant under the simultaneous rotation
    of all coordinate pairs has no other harmonic components, so for it the
    expansion is complete.  Only the top block, degree jmax, takes its
    moments from the rule (``_Block.moments(rule, wf)``); each lower
    block's table is gathered from the one above by
    mu_k[a, b] = sum_m mu_{k+1}[a + e_m, b + e_m], the same quadrature sum
    because |z|^2 = 1 at every node, which ``QuadratureRule`` checked when
    it was built.

    Coefficients below 1e-12 times the L2 norm of f are dropped as
    quadrature noise.  A warning is recorded when the top two degrees hold
    more than ``tail_warn`` of the expansion energy.  Raises
    ``InvalidInputError`` when f is a callable or of another shape, and
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
        fvals, weights = rule.table(f)
        wf = weights * fvals
        l2 = math.sqrt(max(float(np.sum(wf * fvals)), 0.0))
    if not (np.all(np.isfinite(fvals)) and math.isfinite(l2)):
        raise NumericalEvaluationError(f"non-finite expansion integrand or L2 norm {label}".rstrip())
    n, K = N // 2, jmax // 2
    tables = [_block(n, K).moments(rule, wf)]  # the only pass over the nodes
    for k in range(K - 1, -1, -1):
        tables.append(_lower_moments(tables[-1], n, k))
    coeffs = {}
    for k, mu in enumerate(reversed(tables)):
        blk = _block(n, k)
        cvec = (blk.C @ mu.ravel()).real.copy()
        cvec[np.abs(cvec) < _NOISE_FLOOR * l2] = 0.0
        coeffs[2 * k] = cvec
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
    lambda_j(N, p).  rho is ``body.factor_radial`` on ``expansion_rule``, a
    table of width 1 for a body that depends on the moduli only, so the
    rule's node array is never formed.
    """
    N = body.dim.N
    if not 0 < p < N:
        raise InvalidInputError(f"ft_norm_power requires 0 < p < {N}, got {p}")
    if jmax is None:
        jmax = default_config().jmax_for(N)
    _check_degree(N, jmax)  # before the rule is built
    rule = expansion_rule(N, jmax)
    with np.errstate(over="ignore"):  # harmonic_expand rejects an overflowed power
        rho_p = body.factor_radial(rule) ** p
    expansion = harmonic_expand(rho_p, jmax, rule, tail_warn=tail_warn,
                                label=f"ft[{body.label}]^(-{p})")
    return expansion.multiplied(p)


def euclidean_ft_constant(N, p):
    """Closed-form sphere value of the Fourier transform of |x|^{-p}."""
    return bochner_multiplier(N, p, 0)
