import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cxsect import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    InvalidInputError,
    NumericalEvaluationError,
    PerturbedBall,
    QuadratureRule,
    bochner_multiplier,
    ft_norm_power,
    harmonic_expand,
    invariant_harmonic_basis,
    integrate_sphere,
    invariant_sphere_rule,
    sphere_area,
    sphere_rule,
)
from cxsect import harmonics, spherequad
from cxsect.config import default_config
from cxsect.harmonics import (
    _MAX_DEGREE,
    HarmonicExpansion,
    _Block,
    _block,
    _lower_moments,
    complex_sphere_moment,
    expansion_rule,
    invariant_harmonic_dim,
    multi_indices,
)
from cxsect.spherequad import CHUNK_ROWS, factor_points
from cxsect.suite import bodies_n2, bodies_n3

from conftest import (CountingRadial, node_rule, ring_angles, ring_points, ring_rule, trapezoid,
                      unit_vectors)


def degree_dim(N, j):
    """Real dimension of all degree-j spherical harmonics on S^{N-1}."""
    return math.comb(j + N - 1, N - 1) - math.comb(j + N - 3, N - 1)


def bidegree_dim(n, p, q):
    """Dimension of the bidegree (p, q) harmonics on C^n (Rudin 1980, ch. 12)."""
    def b(t):
        return math.comb(t + n - 1, n - 1) if t >= 0 else 0

    return b(p) * b(q) - b(p - 1) * b(q - 1)


def degree_values(N, j, c, X):
    """sum_l c[l] Y_{j,l}(X) through the basis values: a per-degree reference
    that shares no code with the lifted ``HarmonicExpansion.evaluate``."""
    return invariant_harmonic_basis(N, j).evaluate(X) @ c


def point_moments(blk, X, w):
    """``blk.moments`` at the points X (M, N) with weights w: on the rule given
    by its nodes (the points as complex rows, one zero phase row)."""
    return blk.moments(node_rule(X, np.ones(X.shape[0]), 0, 1), np.reshape(w, (-1, 1)))


def node_sum_moments(blk, X, w):
    """sum_i w_i z^a zbar^b at the points X (M, N), the monomials taken as
    products of powers, a few thousand points at a time: a per-node reference
    that shares no code with ``_Block``."""
    mu = np.zeros((blk.P, blk.P), dtype=complex)
    for lo in range(0, X.shape[0], 4096):
        Z = X[lo:lo + 4096, 0::2] + 1j * X[lo:lo + 4096, 1::2]
        Za = np.prod(Z[:, None, :] ** np.array(blk.A)[None], axis=2)
        mu += Za.T @ (w[lo:lo + 4096, None] * Za.conj())
    return mu


def per_degree_values(exp, X, degrees=None):
    """The expansion at X, summed degree by degree with ``degree_values``."""
    return sum((degree_values(exp.N, j, exp.coeffs[j], X)
                for j in (exp.degrees() if degrees is None else degrees)),
               np.zeros(len(X)))


class TestBasisStructure:
    def test_constant_function(self):
        basis = invariant_harmonic_basis(4, 0)
        assert len(basis) == 1
        val = basis.evaluate(np.array([1.0, 0, 0, 0]))[0, 0]
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi ** 2), rel=1e-13)

    def test_degree2_dimension_n4(self):
        # |z1|^2 - |z2|^2, Re(z1 conj z2), Im(z1 conj z2): the traceless
        # Hermitian forms, n^2 - 1 of them
        assert len(invariant_harmonic_basis(4, 2)) == 3 == invariant_harmonic_dim(2, 2)

    def test_degree2_dimension_n6(self):
        assert len(invariant_harmonic_basis(6, 2)) == 8 == invariant_harmonic_dim(3, 2)

    @pytest.mark.parametrize("N,j", [(4, 4), (4, 10), (4, 24), (6, 4), (8, 2)])
    def test_dimension_formula(self, N, j):
        # the invariant block completes the bidegree decomposition of all
        # degree-j harmonics
        n = N // 2
        off_diagonal = sum(bidegree_dim(n, p, j - p) for p in range(j + 1) if 2 * p != j)
        assert invariant_harmonic_dim(n, j) + off_diagonal == degree_dim(N, j)
        assert len(invariant_harmonic_basis(N, j)) == invariant_harmonic_dim(n, j)

    @pytest.mark.parametrize("N,j", [(4, 2), (4, 8), (6, 2), (6, 6)])
    def test_invariant_dimension(self, N, j):
        assert len(invariant_harmonic_basis(N, j)) == invariant_harmonic_dim(N // 2, j)

    def test_unsupported_inputs(self):
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(5, 2)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 3)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 34)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 26)
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 30)
        with pytest.raises(InvalidInputError, match=r"j <= 22"):
            invariant_harmonic_basis(6, 24)
        with pytest.raises(InvalidInputError, match=r"j <= 12"):
            invariant_harmonic_basis(8, 14)
        with pytest.raises(InvalidInputError, match=r"N in \(4, 6, 8\)$"):
            invariant_harmonic_basis(10, 2)

    @pytest.mark.parametrize("X", [np.ones((3, 5)), np.ones((3, 6)) / math.sqrt(6),
                                   np.full((3, 4), 0.5 + 1e-8), np.full(4, 0.5 - 1e-8)],
                             ids=["width5", "width6", "rows-off-unit", "vector-off-unit"])
    def test_basis_rejects_bad_points(self, X):
        # the contract of HarmonicExpansion.evaluate: width N, unit rows within 1e-8
        with pytest.raises(InvalidInputError):
            invariant_harmonic_basis(4, 2).evaluate(X)


def monomials(n, k):
    """The degree-k multi-indices in n variables, lexicographic descending:
    the order of a block's monomials (none for k < 0)."""
    return sorted((a for a in itertools.product(range(k + 1), repeat=n) if sum(a) == k),
                  reverse=True) if k >= 0 else []


def sphere_moment(n, alpha):
    """int_{S^{2n-1}} |z^alpha|^2 = 2 pi^n alpha! / (n - 1 + |alpha|)!, the
    factorial ratio taken in integers and rounded once."""
    return 2.0 * math.pi ** n * (math.prod(map(math.factorial, alpha))
                                 / math.factorial(n - 1 + sum(alpha)))


@functools.lru_cache(maxsize=None)
def gram_table(n, k):
    """The exact Gram of block (n, k) from the entry formula
    <z^a zbar^b, z^c zbar^e> = [a - b == c - e] * moment(a + e), over the
    entries a*P + b: the moment table moment(a + e), shape (P, P), and the
    difference a - b of every entry, shape (P*P, n)."""
    A = monomials(n, k)
    moment = np.array([[sphere_moment(n, tuple(x + y for x, y in zip(a, e))) for e in A]
                       for a in A])
    return moment, np.array([[x - y for x, y in zip(a, b)] for a in A for b in A])


def gram_of(n, k, rows, cols):
    """Exact Gram entries between the entries ``rows`` and ``cols`` of block (n, k)."""
    moment, diff = gram_table(n, k)
    same = (diff[rows][:, None, :] == diff[cols][None, :, :]).all(axis=2)
    return np.where(same, moment[rows[:, None] // len(moment), cols[None, :] % len(moment)], 0.0)


def diff_groups(n, k):
    """The entries of block (n, k) grouped by their difference d, each ascending."""
    _, diff = gram_table(n, k)
    _, group = np.unique(diff, axis=0, return_inverse=True)
    return [np.flatnonzero(group == g) for g in range(group.max() + 1)]


def exact_gram_error(blk, C=None):
    """max |C S C^H - I| under the exact monomial Gram S of the entry
    formula, summed over the differences d (S is 0 across them)."""
    C = blk.C if C is None else C
    moment, _ = gram_table(blk.n, blk.k)
    gram = np.zeros((len(C), len(C)), dtype=complex)
    for e in diff_groups(blk.n, blk.k):
        rows = np.flatnonzero(np.any(C[:, e], axis=1))  # the others add 0
        part = C[np.ix_(rows, e)]
        gram[np.ix_(rows, rows)] += part.conj() @ moment[e[:, None] // blk.P, e[None, :] % blk.P] @ part.T
    return np.abs(gram - np.eye(len(C))).max()


def laplacian_terms(n, k):
    """(row, entry, value) of the Laplacian z^a zbar^b -> sum_m a_m b_m
    z^{a-e_m} zbar^{b-e_m} from the entry formula: entry a*P + b of block k,
    row a'*P' + b' of block k - 1."""
    A, pos = monomials(n, k), {a: i for i, a in enumerate(monomials(n, k - 1))}
    terms = []
    for ia, a in enumerate(A):
        for ib, b in enumerate(A):
            for m in range(n):
                if a[m] and b[m]:
                    lower = [pos[x[:m] + (x[m] - 1,) + x[m + 1:]] for x in (a, b)]
                    terms.append((lower[0] * len(pos) + lower[1], ia * len(A) + ib, a[m] * b[m]))
    return terms


def harmonicity_residual(blk):
    """max |L C^T| over max (|L| |C|^T), for L the Laplacian of the entry formula."""
    if blk.k == 0:
        return 0.0
    terms = np.array(laplacian_terms(blk.n, blk.k))
    lap = np.zeros((terms[:, 0].max() + 1, blk.dim), dtype=complex)
    scale = np.zeros(lap.shape)
    for chunk in np.array_split(terms, len(terms) // 4096 + 1):  # bounded memory
        rows, cols, vals = chunk.T
        np.add.at(lap, rows, vals[:, None] * blk.C[:, cols].T)
        np.add.at(scale, rows, vals[:, None] * np.abs(blk.C[:, cols]).T)
    return np.abs(lap).max() / scale.max()


def generator_matrix(P):
    """The canonical generators as columns over the entries a*P + b: e_ii,
    then the Hermitian pair of each (i, j > i)."""
    unit = np.eye(P * P).reshape(P, P, P * P)
    cols = []
    for i in range(P):
        cols.append(unit[i, i])
        for j in range(i + 1, P):
            cols.append((unit[i, j] + unit[j, i]) / math.sqrt(2.0))
            cols.append(1j * (unit[i, j] - unit[j, i]) / math.sqrt(2.0))
    return np.array(cols).T


def null_space(lap):
    """Orthonormal null space of a real matrix, by SVD with rank threshold
    1e-10 times the largest singular value."""
    if not lap.shape[0]:
        return np.eye(lap.shape[1])
    _, s, vh = np.linalg.svd(lap)
    return vh[int(np.count_nonzero(s > 1e-10 * s[0])):].T


def global_basis(n, k):
    """Block (n, k) built as one global problem, as the package did before it
    split the blocks by difference pair: one SVD of the dense Laplacian, the
    dense exact Gram, one projector and one batched CGS2 over all
    generators, with the Gram images of the candidates carried along.
    Shares no code with the package."""
    P = len(monomials(n, k))
    entries = np.arange(P * P)
    lap = np.zeros((len(monomials(n, k - 1)) ** 2, P * P))
    for row, col, val in laplacian_terms(n, k):
        lap[row, col] += val
    V, S = null_space(lap), gram_of(n, k, entries, entries)
    proj = V @ np.linalg.solve(V.T @ S @ V, V.T @ S)
    cands = (proj @ generator_matrix(P)).T
    M = cands.reshape(-1, P, P)
    cands = (0.5 * (M + M.conj().transpose(0, 2, 1))).reshape(cands.shape)
    dim = bidegree_dim(n, k, k)
    basis, sbasis, kept = np.empty((dim, P * P), dtype=complex), np.empty((dim, P * P), dtype=complex), 0
    for cand, scand in zip(cands, cands @ S):
        for _ in range(2):
            coef = (sbasis[:kept] @ cand.conj()).conj()
            cand = cand - coef @ basis[:kept]
            scand = scand - coef @ sbasis[:kept]
        nrm = math.sqrt(abs(np.vdot(cand, scand)))
        if nrm > 1e-8:
            basis[kept], sbasis[kept] = cand / nrm, scand / nrm
            kept += 1
            if kept == dim:
                return basis
    raise AssertionError(f"global build of ({k},{k}) on C^{n} found {kept} of {dim}")


def reference_basis(blk):
    """Vector-at-a-time Gram-Schmidt per difference pair {d, -d}.

    Walks the generators in order.  Each is projected by its own pair's
    projector (one matrix-vector product), hermitised, and orthogonalised
    against one kept vector of its pair at a time, twice; it is kept above the
    same threshold as in ``_Block`` while its pair holds fewer vectors than
    the dimension of the pair's harmonic subspace.  Each pair's Laplacian,
    Gram and projector come from the entry formulas, with entries and rows in
    ascending order.
    """
    n, k, P = blk.n, blk.k, blk.P
    _, diff = gram_table(n, k)
    terms = laplacian_terms(n, k)
    pairs = {}
    for entries in diff_groups(n, k):
        d = tuple(diff[entries[0]].tolist())
        key = max(d, tuple(-x for x in d))
        pairs[key] = np.sort(np.concatenate([pairs.get(key, entries[:0]), entries]))
    spaces = {}
    for key, cols in pairs.items():
        where = {int(c): i for i, c in enumerate(cols)}
        mine = [(r, where[c], v) for r, c, v in terms if c in where]
        rows = sorted({r for r, _, _ in mine})
        lap = np.zeros((len(rows), len(cols)))
        for r, c, v in mine:
            lap[rows.index(r), c] = v
        V, S = null_space(lap), gram_of(n, k, cols, cols)
        spaces[key] = (where, S, V @ np.linalg.solve(V.T @ S @ V, V.T @ S), V.shape[1], [], [])
    order = []
    for gen in generator_matrix(P).T:
        support = np.flatnonzero(gen)
        d = tuple(diff[support[0]].tolist())
        where, S, proj, dim, basis, sbasis = spaces[max(d, tuple(-x for x in d))]
        if len(basis) == dim:
            continue
        local = np.zeros(len(where), dtype=complex)
        for e in support:
            local[where[int(e)]] = gen[e]
        cand = proj @ local
        flip = [where[(e % P) * P + e // P] for e in where]
        cand = 0.5 * (cand + cand[flip].conj())
        for _ in range(2):
            for bvec, simg in zip(basis, sbasis):
                cand = cand - np.vdot(simg, cand) * bvec
        scand = S @ cand
        nrm = math.sqrt(abs(np.vdot(cand, scand)))
        if nrm > 1e-8:
            basis.append(cand / nrm)
            sbasis.append(scand / nrm)
            full = np.zeros(P * P, dtype=complex)
            full[list(where)] = cand / nrm
            order.append(full)
    return np.array(order)


class TestBatchedOrthonormalisation:
    # largest relative change of C against the reference, measured over all
    # bidegree blocks of the degree (BLAS 1 and 2 threads) and padded about
    # tenfold; the two orders of the same projections drift apart with the degree
    C_TOL = {**{(4, j): 1e-14 for j in range(0, 11, 2)}, (4, 12): 1e-13, (4, 14): 5e-13,
             (4, 16): 2e-12, **{(6, j): 1e-14 for j in range(0, 7, 2)}, (6, 8): 1e-13,
             **{(8, j): 1e-14 for j in range(0, 5, 2)}}

    @pytest.mark.parametrize("N,j", sorted(C_TOL))
    def test_matches_vector_at_a_time_reference(self, N, j):
        blk = invariant_harmonic_basis(N, j).block
        ref = reference_basis(blk)
        assert blk.C.shape == ref.shape
        assert np.abs(blk.C - ref).max() <= self.C_TOL[N, j] * np.abs(ref).max()
        # Gram error no worse than the reference's, up to a few rounding units
        # of the Gram evaluation itself
        assert exact_gram_error(blk) <= exact_gram_error(blk, ref) + 1e-15

    # (p, q) is the bidegree; the invariant blocks are the diagonal ones, p == q

    @pytest.mark.parametrize("n,p,q", [(3, 2, 2)])
    def test_generator_order(self, n, p, q):
        # the pairs' rows merge back in the order of the global build over
        # e_ii, then the Hermitian pair of each (i, j > i)
        blk = _block(n, p)
        assert blk.A == tuple(monomials(n, p)) and len(monomials(n, q)) == blk.P
        old = global_basis(n, p)
        assert np.abs(blk.C - old).max() <= 1e-14 * np.abs(old).max()

    # every block with at most 441 monomial pairs, where the global build is cheap
    GLOBAL = [(4, j) for j in range(0, 25, 2)] + [(6, j) for j in range(0, 11, 2)] \
        + [(8, j) for j in range(0, 7, 2)]

    @pytest.mark.parametrize("N,j", GLOBAL)
    def test_projector_matches_global_build(self, N, j):
        # raw C drifts from the global build with the degree (by 6.6e-6 of
        # max |C| at N=4, j=24): both are orthonormal, in different rounding
        # orders.  The projector C^T conj(C) onto the harmonics does not
        # depend on the basis, so it agrees to about the two exact-Gram
        # errors: at most 1.03 times their sum relative to max |C^T conj(C)|,
        # measured on these blocks (BLAS 1 and 2 threads), padded to 10
        blk = invariant_harmonic_basis(N, j).block
        old = global_basis(N // 2, j // 2)
        new_proj, old_proj = blk.C.T @ blk.C.conj(), old.T @ old.conj()
        errors = exact_gram_error(blk) + exact_gram_error(blk, old) + 1e-15
        assert np.abs(new_proj - old_proj).max() <= 10 * errors * np.abs(old_proj).max()

    @pytest.mark.parametrize("n,p,q", [(3, 2, 2)])
    def test_exact_gram_matches_entry_formula(self, n, p, q):
        # <z^a zbar^b, z^c zbar^d> = [a + d == b + c] * moment(a + d), against
        # a product rule exact for the degree-2(p+q) products
        rule = sphere_rule(2 * n, p + q + 1)
        Z = rule.nodes[:, 0::2] + 1j * rule.nodes[:, 1::2]
        mono = [np.prod(Z ** np.array(a), axis=1) for a in monomials(n, p)]
        pairs = np.array([za * zb.conj() for za in mono for zb in mono]).T
        quad = pairs.T @ (rule.weights[:, None] * pairs.conj())
        entries = np.arange(len(mono) ** 2)
        expect = gram_of(n, p, entries, entries)
        assert np.abs(quad - expect).max() <= 1e-14 * np.abs(expect).max()


class TestOrthonormality:
    @pytest.mark.parametrize("N,j", [(4, 2), (4, 6), (4, 12), (6, 2), (6, 4)])
    def test_gram_identity_full(self, N, j):
        # on the generic product rule, exact for every product of two basis functions
        basis = invariant_harmonic_basis(N, j)
        rule = sphere_rule(N, j + 2)
        vals = basis.evaluate(rule.nodes)
        gram = vals.T @ (rule.weights[:, None] * vals)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_exact_gram_identity_at_n4_degree_limit(self):
        # the N=4 limit is the highest degree whose blocks satisfy C S C^H = I
        # to 1e-10 under the exact monomial Gram S
        assert exact_gram_error(invariant_harmonic_basis(4, 24).block) < 1e-10

    @pytest.mark.parametrize("N,j", [(4, j) for j in range(0, 21, 2)]
                             + [(6, j) for j in range(0, 13, 2)]
                             + [(8, j) for j in range(0, 7, 2)])
    def test_exact_gram_identity_invariant_in_use(self, N, j):
        # every invariant block the default and suite configurations expand on
        assert exact_gram_error(invariant_harmonic_basis(N, j).block) < 1e-10

    def test_exact_gram_identity_at_n6_degree_limit(self):
        # measured as at N=4: the N=6 blocks miss 1e-10 from j=24 on (3.6e-10
        # there, 5.7e-11 at j=22; BLAS 1 and 2 threads)
        assert _MAX_DEGREE[6] == 22
        assert exact_gram_error(invariant_harmonic_basis(6, 22).block) < 1e-10

    @pytest.mark.parametrize("N,j", [(4, j) for j in range(0, 25, 2)]
                             + [(6, j) for j in range(0, 13, 2)]
                             + [(8, j) for j in range(0, 7, 2)])
    def test_harmonic_under_entry_laplacian(self, N, j):
        # L C^T = 0 for the Laplacian of the entry formula, to at most 1.0e-15
        # of the largest |L| |C|^T term on these blocks (BLAS 1 thread)
        assert harmonicity_residual(invariant_harmonic_basis(N, j).block) <= 1e-14

    @pytest.mark.slow
    def test_gram_identity_invariant_n6_high_degree(self):
        basis = invariant_harmonic_basis(6, 10)
        rule = sphere_rule(6, 12)
        gram = np.zeros((len(basis), len(basis)))
        for lo in range(0, rule.node_count, 40_000):
            hi = min(lo + 40_000, rule.node_count)
            vals = basis.evaluate(rule.nodes[lo:hi])
            gram += vals.T @ (rule.weights[lo:hi, None] * vals)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-10

    def test_cross_degree_orthogonality(self):
        b2 = invariant_harmonic_basis(4, 2)
        b4 = invariant_harmonic_basis(4, 4)
        rule = sphere_rule(4, 8)
        v2 = b2.evaluate(rule.nodes)
        v4 = b4.evaluate(rule.nodes)
        cross = v2.T @ (rule.weights[:, None] * v4)
        assert np.abs(cross).max() < 1e-12

    def test_harmonicity_via_laplacian_stencil(self):
        # numerical Laplacian of the homogeneous extension r^j Y(x/r) vanishes
        basis = invariant_harmonic_basis(4, 4)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=4)

        def solid(pt):
            r = np.linalg.norm(pt)
            return r ** 4 * basis.evaluate(pt / r)[0, 2]

        h = 1e-3
        lap = 0.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            lap += (solid(x0 + e) + solid(x0 - e) - 2 * solid(x0)) / h ** 2
        assert abs(lap) < 1e-5 * max(1.0, abs(solid(x0)))


class TestMoments:
    def test_constant_moment_is_area(self):
        assert complex_sphere_moment(2, (0, 0)) == pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_modulus_squared(self):
        # int |z_1|^2 over S^3 = pi^2 (coordinate symmetry)
        assert complex_sphere_moment(2, (1, 0)) == pytest.approx(math.pi ** 2, rel=1e-14)

    def test_against_quadrature(self):
        rule = sphere_rule(6, 8)
        mods2 = rule.nodes[:, 0::2] ** 2 + rule.nodes[:, 1::2] ** 2
        quad = float(rule.weights @ (mods2[:, 0] ** 2 * mods2[:, 2]))
        assert quad == pytest.approx(complex_sphere_moment(3, (2, 0, 1)), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_raising_one_exponent(self, n):
        # moment(alpha + e_k) / moment(alpha) = (alpha_k + 1) / (n + |alpha|)
        for deg in range(12):
            for alpha in multi_indices(n, deg):
                for k in range(n):
                    up = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]
                    ratio = complex_sphere_moment(n, up) / complex_sphere_moment(n, alpha)
                    assert ratio == pytest.approx((alpha[k] + 1) / (n + deg), rel=1e-15)

    def test_against_exact_fraction(self):
        # 2 pi^n / (n-1)!, then one exact factor (alpha_k + 1)/(n + |alpha|) per raised exponent
        n, alpha = 4, (5, 0, 3, 2)
        exact, deg = Fraction(1, math.factorial(n - 1)), 0
        for k, a in enumerate(alpha):
            for step in range(a):
                exact *= Fraction(step + 1, n + deg)
                deg += 1
        expect = 2.0 * math.pi ** n * float(exact)
        assert complex_sphere_moment(n, alpha) == pytest.approx(expect, rel=1e-15)


class TestMonomialKernel:
    # N=6, j=4: the invariant block of bidegree (p, q) = (2, 2), on enough
    # points for two full chunks and a partial third
    M = 2 * CHUNK_ROWS + 5

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(11)
        return unit_vectors(rng, self.M, 6), rng.normal(size=self.M)

    @pytest.mark.parametrize("p,q", [(2, 2)])
    def test_moments_match_direct_sum(self, points, p, q):
        X, w = points
        blk = _block(3, p)
        Z = [complex(*x[k:k + 2]) for x in X.tolist() for k in (0, 2, 4)]

        def mono(idxs):
            return np.array([[math.prod(Z[3 * i + k] ** e[k] for k in range(3)) for e in idxs]
                             for i in range(self.M)])

        expect = mono(multi_indices(3, p)).T @ (w[:, None] * mono(multi_indices(3, q)).conj())
        got = point_moments(blk, X, w)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p,q", [(2, 2)])
    def test_combo_matches_basis_values(self, points, p, q):
        # one degree's combination, evaluated by the lift, against the basis values
        X, _ = points
        c = np.random.default_rng(12).normal(size=_block(3, p).dim)
        expect = degree_values(6, 2 * p, c, X)
        got = HarmonicExpansion(6, 2 * p, {2 * p: c}, 0.0, 0.0).evaluate(X)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_evaluate_is_rowwise(self, points):
        X, _ = points
        basis = invariant_harmonic_basis(6, 4)
        allrows = basis.evaluate(X)
        rows = np.array([basis.evaluate(x)[0] for x in X])
        assert np.max(np.abs(allrows - rows)) <= 1e-13 * np.max(np.abs(rows))


def gegenbauer_ratio(j, lam, t):
    """C_j^lam(t) / C_j^lam(1), both from the three-term recurrence."""
    def values(t):
        prev, cur = np.ones_like(t), 2.0 * lam * t
        if j == 0:
            return prev
        for m in range(1, j):
            prev, cur = cur, (2.0 * (m + lam) * t * cur - (m + 2.0 * lam - 1.0) * prev) / (m + 1)
        return cur

    return values(t) / values(np.ones(1))[0]


def zonal_projection(f, N, j, rule, xi):
    """(P_j f)(xi), the projection of f onto all degree-j harmonics on S^{N-1}.

    P_j f(xi) = dim_j / |S^{N-1}| * int f(x) C_j^lam(<x, xi>) / C_j^lam(1) dx,
    lam = N/2 - 1, on ``rule``; it uses no harmonic basis, and it is exact
    when the rule integrates f times a degree-j polynomial exactly.
    """
    kernel = gegenbauer_ratio(j, N / 2.0 - 1.0, rule.nodes @ xi.T)
    return degree_dim(N, j) / sphere_area(N) * ((rule.weights * f(rule.nodes)) @ kernel)


def exact_rule(N, degree, jmax):
    """Product rule exact for a degree-``degree`` integrand times degree <= jmax."""
    return sphere_rule(N, (degree + jmax) // 2 + 1)


def hand_polynomial(X):
    """(sum_m m |z_m|^2)^3 + Re(z_1 conj z_2)^4 + |<z, u>|^8: invariant, degree 8.

    Built without the basis.  The last term, with u_m = m e^{i m}, has a
    nonzero component along every invariant basis function of degree <= 8
    (its projection onto a block is the block's kernel at u), so dropping
    any one function from a block shows.
    """
    z = X[:, 0::2] + 1j * X[:, 1::2]
    m = np.arange(1.0, z.shape[1] + 1.0)
    weighted = (np.abs(z) ** 2) @ m
    return weighted ** 3 + np.real(z[:, 0] * np.conj(z[:, 1])) ** 4 \
        + np.abs(z @ np.conj(m * np.exp(1j * m))) ** 8


def perturbed_suite_bodies():
    """The suite's perturbed bodies with the degree of their rho^2."""
    b2, b3 = bodies_n2(), bodies_n3()
    return [(b2["pert_a"], 8), (b2["pert_b"], 4), (b3["pert"], 4)]


def zonal_discrepancy(exp, f, rule, xi):
    """max over degrees of |degree-j part of exp - P_j f| at xi, relative to L2(f)."""
    return max(np.abs(degree_values(exp.N, j, exp.coeffs[j], xi)
                      - zonal_projection(f, exp.N, j, rule, xi)).max()
               for j in exp.degrees()) / exp.l2_norm


class TestZonalReference:
    """An invariant f has no harmonic component outside the (k, k) blocks, so
    the degree-j part of its invariant expansion is the projection of f onto
    all degree-j harmonics, which the zonal kernel computes without a basis."""

    def test_gegenbauer_recurrence_closed_forms(self):
        t = np.linspace(-1.0, 1.0, 7)
        # lam = 1: Chebyshev U_2(t) = 4t^2 - 1, U_2(1) = 3
        assert np.allclose(gegenbauer_ratio(2, 1.0, t), (4 * t * t - 1) / 3, rtol=0, atol=1e-15)
        # lam = 2: C_2^2(t) = 12t^2 - 2, C_2^2(1) = 10
        assert np.allclose(gegenbauer_ratio(2, 2.0, t), (12 * t * t - 2) / 10, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [4, 6])
    def test_hand_built_polynomial(self, N):
        rule = exact_rule(N, 8, 8)
        exp = harmonic_expand(hand_polynomial(rule.nodes), 8, rule)
        xi = unit_vectors(np.random.default_rng(20 + N), 20, N)
        assert zonal_discrepancy(exp, hand_polynomial, rule, xi) <= 1e-12


class TestExpansion:
    def test_constant_expands_to_degree_zero(self):
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(np.full(rule.node_count, 3.0), 8, rule)
        assert exp.coefficient(0, 0) == pytest.approx(3.0 * math.sqrt(2 * math.pi ** 2), rel=1e-13)
        for j in (2, 4, 6, 8):
            assert np.abs(exp.coeffs[j]).max() < 1e-10

    def test_pure_harmonic_recovered(self):
        basis = invariant_harmonic_basis(4, 2)
        rule = sphere_rule(4, 10)
        exp = harmonic_expand(basis.evaluate(rule.nodes)[:, 2], 6, rule)
        assert exp.coefficient(2, 2) == pytest.approx(1.0, abs=1e-12)
        coeffs = np.concatenate([exp.coeffs[j] for j in exp.degrees()])
        assert np.sort(np.abs(coeffs))[-2] < 1e-10  # everything else is noise

    def test_ellipsoid_energy_matches_l2(self, ell12):
        rule = expansion_rule(4, 16)
        exp = harmonic_expand(ell12.radial(rule.nodes) ** 2, 16, rule)
        total = sum(exp.degree_energies().values())
        fine = sphere_rule(4, 24)
        direct = integrate_sphere(ell12.radial(fine.nodes) ** 4, fine)
        assert total == pytest.approx(direct, rel=1e-4)
        assert total <= direct * (1 + 1e-10)  # Bessel bound

    def test_ellipsoid_hits_only_invariant_harmonics(self, ell12):
        # rho^2 is not a polynomial: a level-40 product rule resolves it to
        # round-off (about 5e-15 of the L2 norm)
        f = lambda x: ell12.radial(x) ** 2
        rule = sphere_rule(4, 40)
        exp = harmonic_expand(f(rule.nodes), 8, rule)
        xi = unit_vectors(np.random.default_rng(0), 20, 4)
        assert zonal_discrepancy(exp, f, rule, xi) <= 1e-12

    def test_invariant_path_matches_full(self):
        # the full projection is the zonal kernel's, on rho^2 of every
        # perturbed suite body
        for body, degree in perturbed_suite_bodies():
            N = body.dim.N
            f = lambda x: body.radial(x) ** 2
            rule = exact_rule(N, degree, 8)
            exp = harmonic_expand(f(rule.nodes), 8, rule)
            xi = unit_vectors(np.random.default_rng(1), 20, N)
            assert zonal_discrepancy(exp, f, rule, xi) <= 1e-12, body.label

    def test_resummation_error_decreases(self, ell12):
        x = unit_vectors(np.random.default_rng(1), 100, 4)
        truth = ell12.radial(x) ** 2
        errs = []
        for jm in (4, 8, 12, 16):
            rule = expansion_rule(4, jm)
            exp = harmonic_expand(ell12.radial(rule.nodes) ** 2, jm, rule)
            errs.append(np.abs(exp.evaluate(x) - truth).max())
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
    def test_nonfinite_integrand_or_norm_rejected(self, value):
        # 1e200 is finite, but its square overflows the L2 norm
        rule = sphere_rule(4, 8)
        with pytest.raises(NumericalEvaluationError):
            harmonic_expand(np.full(rule.node_count, value), 4, rule)

    @pytest.mark.parametrize("form", ["array", "callable"])
    @pytest.mark.parametrize("shape", [(1024, 1), (1,), (5,), (63, 1), (64, 15), (63,), (65,), (64,)],
                             ids=["column", "one", "five", "base column", "rows by phases",
                                  "short base", "long base", "per base row"])
    def test_integrand_of_wrong_shape_rejected(self, shape, form):
        # a column, a broadcasting scalar and a short array, the near misses
        # of the (H, 1) and (H, F) tables, and one value per base row: a table
        # is (M,), (H, F) or (H, 1), and a callable is never taken, whatever
        # it returns
        rule = sphere_rule(4, 8)
        assert rule.node_count == 1024 and rule.base.shape[0] == 64
        vals = np.ones(shape)
        if form == "array":
            with pytest.raises(InvalidInputError, match="shape"):
                harmonic_expand(vals, 8, rule)
        else:
            with pytest.raises(InvalidInputError, match="callable"):
                harmonic_expand(lambda x: vals, 8, rule)

    @pytest.mark.parametrize("make", [lambda: sphere_rule(4, 10), lambda: invariant_sphere_rule(3, 8, 5),
                                      lambda: invariant_sphere_rule(2, 12, 1)],
                             ids=["product", "torus", "torus one phase"])
    def test_one_value_per_base_row(self, make):
        # a table of width 1 expands as the same values at every phase row of
        # their base row, and its (H, F) table as its node order, bit for bit
        rule = make()
        f = np.random.default_rng(4).uniform(0.5, 2.0, size=(rule.base.shape[0], 1))
        per_row = harmonic_expand(f, 8, rule)
        table = np.repeat(f, rule.phases.shape[0], axis=1)
        per_node = harmonic_expand(table.ravel(), 8, rule)
        by_table = harmonic_expand(table, 8, rule)
        assert by_table.l2_norm == per_node.l2_norm
        assert all(np.array_equal(by_table.coeffs[j], per_node.coeffs[j]) for j in per_node.coeffs)
        assert per_row.l2_norm == pytest.approx(per_node.l2_norm, rel=1e-14)
        for j in per_node.coeffs:
            assert np.abs(per_row.coeffs[j] - per_node.coeffs[j]).max() <= 1e-13 * per_node.l2_norm

    def test_degree_above_limit_rejected_before_evaluation(self):
        rule = sphere_rule(4, 8)
        with pytest.raises(InvalidInputError, match="j <= 24"):
            harmonic_expand(np.ones(rule.node_count), 26, rule)

    def test_tail_warning_triggers_on_low_jmax(self, ell12):
        rule = expansion_rule(4, 4)
        exp = harmonic_expand(ell12.radial(rule.nodes) ** 2, 4, rule)
        assert any("tail energy" in w for w in exp.warnings)


def per_degree_expand(f, jmax, rule):
    """Expansion coefficients with every degree's moments taken from the nodes.

    Returns the coefficients, with those below 1e-12 times the L2 norm of f
    zeroed, and that L2 norm.
    """
    fvals = f(rule.nodes)
    wf = rule.weights * fvals
    l2 = math.sqrt(float(np.sum(wf * fvals)))
    coeffs = {}
    for j in range(0, jmax + 1, 2):
        blk = _block(rule.m // 2, j // 2)
        c = (blk.C @ point_moments(blk, rule.nodes, wf).ravel()).real
        coeffs[j] = np.where(np.abs(c) < 1e-12 * l2, 0.0, c)
    return coeffs, l2


class TestLiftedEvaluate:
    """``HarmonicExpansion.evaluate`` lifts every degree to one matrix at the
    top degree; these compare it with the sum of the degrees' basis values."""

    @staticmethod
    def random_expansion(N, jmax, seed, zero=()):
        rng = np.random.default_rng(seed)
        coeffs = {j: rng.normal(size=invariant_harmonic_dim(N // 2, j)) * (j not in zero)
                  for j in range(0, jmax + 1, 2)}
        return HarmonicExpansion(N, jmax, coeffs, 0.0, 0.0)

    @staticmethod
    def assert_close(got, expect, tol=1e-13):
        assert np.max(np.abs(got - expect)) <= tol * np.max(np.abs(expect))

    @pytest.mark.parametrize("N,jmax", [(4, 24), (6, 12), (8, 6)])
    def test_matches_per_degree_reference(self, N, jmax):
        exp = self.random_expansion(N, jmax, 21)
        X = unit_vectors(np.random.default_rng(22), 300, N)
        self.assert_close(exp.evaluate(X), per_degree_values(exp, X))

    @pytest.mark.parametrize("N,jmax,zero", [(4, 10, (2, 4, 6)), (6, 8, (0, 4, 8)),
                                             (8, 6, (2,))])
    def test_zero_degrees_in_between(self, N, jmax, zero):
        exp = self.random_expansion(N, jmax, 23, zero)
        X = unit_vectors(np.random.default_rng(24), 300, N)
        self.assert_close(exp.evaluate(X), per_degree_values(exp, X))
        self.assert_close(exp.tail_values(X), per_degree_values(exp, X, exp.degrees()[-2:]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbation_with_one_degree_four_term(self, n):
        body = PerturbedBall(ComplexDim(n), 1.0, ((4, 1, 0.03),))
        X = unit_vectors(np.random.default_rng(25), 300, 2 * n)
        self.assert_close(body.perturbation.evaluate(X), per_degree_values(body.perturbation, X))

    def test_transform_matches_per_degree_reference(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=16)
        X = unit_vectors(np.random.default_rng(26), 300, 4)
        self.assert_close(ft.evaluate(X), per_degree_values(ft, X))
        self.assert_close(ft.tail_values(X), per_degree_values(ft, X, [14, 16]))

    @pytest.mark.parametrize("N,jmax,level,nphase", [(4, 24, 6, 3), (6, 12, 5, 5), (8, 6, 3, 2),
                                                     (6, 4, 96, 1)])  # 9,216 rows: two chunks
    def test_torus_values_match_evaluate(self, N, jmax, level, nphase):
        exp = self.random_expansion(N, jmax, 37)
        rule = invariant_sphere_rule(N // 2, level, nphase)
        got = exp.factor_values(rule)
        assert got.shape == (rule.base.shape[0], rule.phases.shape[0])
        self.assert_close(got.ravel(), exp.evaluate(rule.nodes))

    def test_torus_values_reject_bad_rows(self):
        # factors the lift cannot take are rejected when the rule is built
        rule = invariant_sphere_rule(3, 4, 3)
        nan = rule.base.copy()
        nan[2, 1] = np.nan
        for U, match in ((rule.base * (1.0 + 2e-8), "unit length"), (nan, "finite"),
                         (rule.base[:, :2], "coordinate pairs")):
            with pytest.raises(InvalidInputError, match=match):
                QuadratureRule(6, U, rule.phase_counts, rule.weights, 1, 1)

    # (N, jmax, heads) -> tolerance, on a rule of rings (complex heads turned
    # in the last pair by five uniform angles).  At N = 4, jmax 24 the lifted
    # matrix has entries near 1e6 that cancel: the factored values round apart
    # from ``evaluate`` by 5.9e-14 there (8.7e-14 from the per-degree
    # reference, against ``evaluate``'s 7.2e-14); elsewhere by <= 4.6e-15
    # (1 BLAS thread).
    RING_CASES = {(4, 24, 40): 1.5e-13, (4, 16, 40): 1e-13, (6, 12, 30): 1e-13, (8, 6, 20): 1e-13,
                  (6, 4, CHUNK_ROWS + 9): 1e-13}  # the last: two chunks

    @pytest.mark.parametrize("N,jmax,heads", sorted(RING_CASES))
    def test_ring_values_match_evaluate(self, N, jmax, heads):
        # heads with z_n off the real axis, five angles
        exp = self.random_expansion(N, jmax, 39)
        X = unit_vectors(np.random.default_rng(40), heads, N)
        got = exp.factor_values(ring_rule(X, 5))
        assert got.shape == (heads, 5)
        self.assert_close(got.ravel(), exp.evaluate(ring_points(X, ring_angles(5))),
                          self.RING_CASES[N, jmax, heads])

    def test_ring_values_of_an_empty_perturbation(self):
        X = unit_vectors(np.random.default_rng(41), 4, 6)
        got = HarmonicExpansion(6, 0, {}, 0.0, 0.0).factor_values(ring_rule(X, 2))
        assert np.array_equal(got, np.zeros((4, 2)))

    def test_ring_values_reject_bad_input(self):
        # heads the lift cannot take are rejected when the rule is built
        X = unit_vectors(np.random.default_rng(43), 5, 6)
        nan = X.copy()
        nan[1, -1] = np.nan
        for heads, match in ((X * (1.0 + 2e-8), "unit length"), (nan, "finite")):
            with pytest.raises(InvalidInputError, match=match):
                ring_rule(heads, 2)
        with pytest.raises(InvalidInputError, match="coordinate pairs"):
            QuadratureRule(6, np.ascontiguousarray(X[:, :4]).view(complex), (1, 2), np.ones(10), 0, 1)

    def test_all_zero_tail_is_zero(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=8)
        assert not any(np.any(ft.coeffs[j]) for j in (6, 8))
        X = unit_vectors(np.random.default_rng(27), 10, 4)
        assert np.array_equal(ft.tail_values(X), np.zeros(10))

    def test_single_vector_gives_float(self):
        exp = self.random_expansion(6, 6, 28)
        X = unit_vectors(np.random.default_rng(29), 3, 6)
        got = exp.evaluate(X[1])
        assert isinstance(got, float)
        assert got == pytest.approx(per_degree_values(exp, X[1:2])[0], rel=1e-13)
        assert isinstance(exp.tail_values(X[1]), float)

    @pytest.mark.parametrize("bad", [1.0 + 2e-8, 1.0 - 2e-8, 2.0, 0.0, np.nan, np.inf])
    def test_non_unit_rows_rejected(self, bad):
        exp = self.random_expansion(4, 4, 30)
        X = unit_vectors(np.random.default_rng(31), 5, 4)
        X[3] *= bad
        for fn in (exp.evaluate, exp.tail_values):
            with pytest.raises(InvalidInputError):
                fn(X)
            with pytest.raises(InvalidInputError):
                fn(X[3])

    def test_rows_within_tolerance_accepted(self):
        exp = self.random_expansion(4, 4, 32)
        X = unit_vectors(np.random.default_rng(33), 5, 4) * (1.0 + 5e-9)
        assert np.all(np.isfinite(exp.evaluate(X)))

    def test_cached_lift_leaves_repr_and_body_identity(self):
        terms = ((2, 0, 0.06), (4, 1, 0.02))
        a = PerturbedBall(ComplexDim(2), 1.0, terms)
        b = PerturbedBall(ComplexDim(2), 1.0, terms, certify=False)  # nothing evaluated yet
        before = repr(b.perturbation)
        b.radial(unit_vectors(np.random.default_rng(35), 2, 4))
        assert repr(b.perturbation) == before
        assert a == b and hash(a) == hash(b)

    def test_expansions_compare_by_identity(self):
        # coefficients are arrays: value equality would have no truth value
        a = self.random_expansion(4, 8, 36)
        b = self.random_expansion(4, 8, 36)
        assert a == a
        assert (a == b) is False and a != b
        assert len({a, b, a}) == 2


class TestMomentRecursion:
    # (N, jmax): the highest degree per N that the default and suite
    # configurations expand at (N = 4 at its basis limit) -> semiaxes of the
    # expanded ellipsoid, product-rule level, coefficient tolerance over L2.
    # (4, 24) is on its expansion_rule; the other two rules are below the
    # expansion's exactness, since the recursion needs only unit nodes.  The
    # tolerances are the largest change against the per-degree reference,
    # measured on these cases (1 BLAS thread) and padded about tenfold: 3.4e-14,
    # 2.3e-15 and 1.6e-15.  Both paths round at |C| * eps, and the N = 4
    # blocks at j = 24 have |C| ~ 1e6.
    CASES = {(4, 24): ((1.0, 3.0), 26, 3e-13), (6, 12): ((1.0, 1.5, 2.0), 8, 3e-14),
             (8, 6): ((1.0, 1.5, 2.0, 2.5), 4, 2e-14)}

    @pytest.mark.parametrize("n,k", [(N // 2, k) for N, jmax in CASES for k in range(jmax // 2)])
    def test_lowered_table_matches_direct_moments(self, n, k):
        rng = np.random.default_rng(40 + 20 * n + k)
        X = unit_vectors(rng, 500, 2 * n)
        w = rng.normal(size=500)
        lowered = _lower_moments(point_moments(_block(n, k + 1), X, w), n, k)
        direct = point_moments(_block(n, k), X, w)
        assert np.abs(lowered - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("N,jmax", sorted(CASES))
    def test_expansion_matches_per_degree_moments(self, N, jmax):
        semiaxes, level, tol = self.CASES[N, jmax]
        body, rule = ComplexEllipsoid(semiaxes), sphere_rule(N, level)
        f = lambda X: body.radial(X) ** (N - 2)
        exp = harmonic_expand(f(rule.nodes), jmax, rule)
        ref, l2 = per_degree_expand(f, jmax, rule)
        assert exp.degrees() == sorted(ref) == list(exp.coeffs)
        for j in ref:
            assert np.array_equal(exp.coeffs[j] == 0.0, ref[j] == 0.0), j
            assert np.abs(exp.coeffs[j] - ref[j]).max() <= tol * l2, j

    def test_one_moment_pass_per_transform(self, monkeypatch, ball3):
        degrees = []
        moments = _Block.moments

        def counted(self, rule, wf):
            degrees.append((2 * self.k, rule, wf.shape))
            return moments(self, rule, wf)

        monkeypatch.setattr(_Block, "moments", counted)
        ft_norm_power(ball3, 4, jmax=12)
        rule = expansion_rule(6, 12)  # a table of width 1: the exact phase sums
        assert degrees == [(12, rule, (rule.base.shape[0], 1))]


def general_layout(n, rows, counts, seed):
    """A rule no builder makes: complex unit base rows with no pair on the
    real axis, and phase counts that turn the first and the last pair and
    leave the others fixed."""
    base = unit_vectors(np.random.default_rng(seed), rows, 2 * n).view(complex)
    counts = (counts[0],) + (1,) * (n - 2) + (counts[1],)
    return QuadratureRule(2 * n, base, counts, np.ones(rows * math.prod(counts)), 0, 1)


class TestRingMoments:
    """``_Block.moments`` on a rule's factors against the per-node sum at the
    points of the factors (``factor_points``), with random real weights so no
    symmetry of the integrand helps."""

    # layout -> (rule, k); measured <= 5.3e-15 of the largest entry (1 BLAS thread)
    RULES = {"product N=6 L=14": (lambda: sphere_rule(6, 14), 6),
             "product N=4 L=26": (lambda: sphere_rule(4, 26), 12),
             "invariant n=3 L=14 nphase=8": (lambda: invariant_sphere_rule(3, 14, 8), 6),
             "nodes N=6 L=6": (lambda: node_rule(sphere_rule(6, 6).nodes.copy(),
                                                 sphere_rule(6, 6).weights.copy(), 11, 6), 5),
             # the base spans two chunks; two of its three pairs turn
             "general n=3 rows=chunk+9": (lambda: general_layout(3, CHUNK_ROWS + 9, (3, 4), 8), 4)}

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_ring_sum_matches_node_sum(self, name):
        make, k = self.RULES[name]
        rule = make()
        X = factor_points(rule.base, rule.phases)  # the nodes, not kept on a cached rule
        wf = np.random.default_rng(7).normal(size=(rule.base.shape[0], rule.phases.shape[0]))
        blk = _block(rule.base.shape[1], k)
        per_node = node_sum_moments(blk, X, wf.ravel())
        got = blk.moments(rule, wf)
        assert np.abs(got - per_node).max() <= 1e-13 * np.abs(per_node).max()

    @pytest.mark.parametrize("n,k", [(2, 12), (3, 6), (4, 3)])
    def test_ring_one_is_the_node_sum(self, n, k):
        # one zero phase row: every base row is a point of its own
        rng = np.random.default_rng(50 + n)
        X, w = unit_vectors(rng, CHUNK_ROWS + 7, 2 * n), rng.normal(size=CHUNK_ROWS + 7)
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        expect = sum(Za @ (w[lo:hi, None] * Za.T.conj())
                     for lo, hi, Za in _block(n, k)._monomial_chunks(Z))
        got = point_moments(_block(n, k), X, w)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_two_rings_off_the_real_axis(self):
        # two rings given by their heads, z_n off the real axis, three angles
        # each: the factored sum against the per-node sum
        rng = np.random.default_rng(5)
        heads, w = unit_vectors(rng, 2, 4), rng.normal(size=(2, 3))
        blk = _block(2, 3)
        per_node = node_sum_moments(blk, ring_points(heads, ring_angles(3)), w.ravel())
        got = blk.moments(ring_rule(heads, 3), w)
        assert np.abs(got - per_node).max() <= 1e-13 * np.abs(per_node).max()


def planned_in_the_call(blk, rule, wf):
    """``blk.moments`` with its plan built in the call, as it was before the
    block kept its plans: the reference for bit identity.  The rows are
    grouped by their exponents on the turning columns, each group's row
    block is formed against the column groups from it on (the Hermitian
    half; for a table of width 1 only those whose phase sum is not 0), and
    the rest is the conjugate transpose."""
    Phi, counts = rule.phases, rule.phase_counts
    live = Phi.any(axis=0)
    turn = blk._ea[:, live]
    group = np.unique(turn, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(group, kind="stable")
    group, turn = group[order], turn[order]
    freq, col = np.unique((turn[:, None] - turn[None, :]).reshape(blk.P ** 2, turn.shape[1]),
                          axis=0, return_inverse=True)
    col = col.reshape(blk.P, blk.P)
    if wf.shape[1] > 1:
        keep = np.ones(len(freq), dtype=bool)
        E = np.exp(1j * (Phi[:, live] @ freq.T))
    else:
        keep = np.all(freq % np.array(counts)[live] == 0, axis=1)
        E = keep[None, :].astype(float)
    bounds = np.searchsorted(group, np.arange(group[-1] + 2))
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = lo + np.flatnonzero(keep[col[lo, lo:]])
        blocks.append((slice(lo, hi), cols, col[lo, cols]))
    mu = np.zeros((blk.P, blk.P), dtype=complex)
    for lo, hi, Wa in blk._monomial_chunks(rule.base, blk._ea[order]):
        GT = (wf[lo:hi] @ E).T
        Wb = Wa.conj()
        for rows, cols, fcol in blocks:
            mu[rows, cols] += Wa[rows] @ (GT[fcol] * Wb[cols]).T
    mu = np.triu(mu)
    mu += np.triu(mu, 1).conj().T
    mu[np.diag_indices(blk.P)] = mu.diagonal().real
    undo = np.argsort(order)
    return mu[np.ix_(undo, undo)]


class TestMomentPlan:
    """The block keeps one plan per set of turning columns (and phase counts,
    for an integrand per base row); the moments stay bit for bit those of a
    plan built in the call."""

    # n -> (k, product rule, torus rule): the product rule turns the last
    # pair, the torus rule every pair but the first, so one block holds two plans
    RULES = {2: (12, lambda: sphere_rule(4, 26), lambda: invariant_sphere_rule(2, 26, 13)),
             3: (6, lambda: sphere_rule(6, 14), lambda: invariant_sphere_rule(3, 14, 8)),
             4: (3, lambda: sphere_rule(8, 4), lambda: invariant_sphere_rule(4, 5, 4))}

    @pytest.mark.parametrize("n", sorted(RULES))
    def test_bit_identical_to_a_plan_built_in_the_call(self, n):
        k, *makers = self.RULES[n]
        blk = _block(n, k)
        for make in makers:
            rule = make()
            rng = np.random.default_rng(n)
            H, F = rule.base.shape[0], rule.phases.shape[0]
            per_node = (rng.normal(size=rule.node_count) * rule.weights).reshape(H, F)
            per_row = (rng.normal(size=H) * rule.base_weights)[:, None]
            for wf in (per_node, per_row):
                ref = planned_in_the_call(blk, rule, wf)
                for _ in range(2):  # the first call may build the plan, the second reuses it
                    assert np.array_equal(blk.moments(rule, wf), ref)
        for make in makers:
            rule = make()
            live = rule.phases.any(axis=0)
            assert blk._plan(live, None) is blk._plan(live, None)
            assert blk._plan(live, rule.phase_counts) is blk._plan(live, rule.phase_counts)
            assert blk._plan(live, None) is not blk._plan(live, rule.phase_counts)

    def test_plans_keyed_by_the_turning_columns(self):
        blk = _block(3, 2)
        last, middle = np.array([False, False, True]), np.array([False, True, False])
        assert blk._plan(last, None) is not blk._plan(middle, None)
        plan = blk._plan(last, None)
        assert not any(arr.flags.writeable for arr in (plan.ea, plan.undo, plan.freq))
        assert not any(fcol.flags.writeable for _, _, fcol in plan.blocks)


def row_layout_monomials(blk, W):
    """The monomials w^a at the rows of W (rows, n), shape (rows, P), from one
    power table (n, rows, k + 1) and the product of the n gathered factors
    (``math.prod``): a test-only copy of the row-layout gather that the
    tables by exponent row replaced."""
    table = np.empty((blk.n, W.shape[0], blk.k + 1), dtype=W.dtype)
    table[:, :, 0] = 1.0
    for e in range(1, blk.k + 1):
        table[:, :, e] = table[:, :, e - 1] * W.T
    return math.prod(table[m][:, blk._ea[:, m]] for m in range(blk.n))


def phase_sums(blk, phases):
    """S(a - b) = sum_f e^{i (a - b) . phi_f} over the phase rows, (P, P),
    summed numerically: a reference for the plan's exact phase sums."""
    d = blk._ea[:, None, :] - blk._ea[None, :, :]
    return np.exp(1j * (d @ np.asarray(phases).T)).sum(axis=-1)


class TestBaseRowMoments:
    """An integrand that ignores the phases, given once per base row: its
    moments take the exact phase sums of the rule's uniform phase grid and
    skip the blocks where they vanish."""

    # rule, k: the product rules at the degrees the suite expands, torus
    # rules with more phases than k, and one with fewer (nphase 4 <= k = 6),
    # whose aliased blocks d_c = +-4 carry moments
    RULES = {"product N=4 L=26": (lambda: sphere_rule(4, 26), 12),
             "product N=6 L=14": (lambda: sphere_rule(6, 14), 6),
             "product N=8 L=4": (lambda: sphere_rule(8, 4), 3),
             "torus n=3 L=14 nphase=8": (lambda: invariant_sphere_rule(3, 14, 8), 6),
             "torus n=2 L=26 nphase=13": (lambda: invariant_sphere_rule(2, 26, 13), 12),
             "torus n=3 L=14 nphase=4": (lambda: invariant_sphere_rule(3, 14, 4), 6)}

    @classmethod
    def both_paths(cls, name):
        """(rule, block, moments per base row, moments per node of the same
        integrand broadcast over the phase rows)."""
        make, k = cls.RULES[name]
        rule = make()
        blk = _block(rule.base.shape[1], k)
        f = np.random.default_rng(k).normal(size=rule.base.shape[0])
        per_row = blk.moments(rule, (rule.base_weights * f)[:, None])
        F = rule.phases.shape[0]
        per_node = blk.moments(rule, (rule.weights * np.repeat(f, F)).reshape(-1, F))
        return rule, blk, per_row, per_node

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_matches_the_node_moments(self, name):
        _, _, per_row, per_node = self.both_paths(name)
        assert np.abs(per_row - per_node).max() <= 1e-13 * np.abs(per_node).max()

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_skipped_entries_are_the_zero_phase_sums(self, name):
        rule, blk, per_row, _ = self.both_paths(name)
        S = phase_sums(blk, rule.phases)
        F = rule.phases.shape[0]
        zero = np.abs(S) <= 1e-9 * F
        assert np.all(np.abs(S[~zero] - F) <= 1e-9 * F)  # every other sum is F
        assert np.array_equal(per_row == 0.0, zero)
        if name == "torus n=3 L=14 nphase=4":  # aliased blocks off the diagonal
            assert np.count_nonzero(~zero & ~np.eye(blk.P, dtype=bool))

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_hermitian_bit_for_bit(self, name):
        _, _, per_row, per_node = self.both_paths(name)
        for mu in (per_row, per_node):
            assert np.array_equal(mu, mu.conj().T)

    def test_entries_formed_on_the_product_rule(self):
        # n = 3, k = 6: the Hermitian half forms 462 of the 784 entries, and
        # with 2L = 28 azimuths > k the phase sums leave the diagonal groups,
        # 140 entries
        blk, rule = _block(3, 6), sphere_rule(6, 14)
        live = rule.phases.any(axis=0)

        def formed(plan):
            idx = np.arange(blk.P)
            return sum(idx[rows].size * idx[cols].size for rows, cols, _ in plan.blocks)

        assert formed(blk._plan(live, None)) == 462
        assert formed(blk._plan(live, rule.phase_counts)) == 140

    @pytest.mark.parametrize("n,k,complex_base", [(3, 6, True), (3, 6, False), (2, 12, True),
                                                  (4, 3, True), (3, 0, True)])
    def test_monomial_table_matches_the_row_layout_gather(self, n, k, complex_base):
        # the same bits, in two chunks and for rows taken one, two or three at
        # a time: a row's monomials do not depend on the rows beside it
        rng = np.random.default_rng(10 * n + k)
        W = unit_vectors(rng, CHUNK_ROWS + 11, 2 * n)
        W = np.ascontiguousarray(W).view(complex) if complex_base else np.abs(W[:, :n])
        blk = _block(n, k)

        def table(rows):
            return np.concatenate([Wa.T for _, _, Wa in blk._monomial_chunks(rows)])

        got = table(W)
        assert np.array_equal(got, row_layout_monomials(blk, W))
        for r in (1, 2, 3):
            for lo in range(0, 60, r):
                assert np.array_equal(table(W[lo:lo + r]), got[lo:lo + r])


def multiplier_oracle(N, p, j):
    """Independent multiplier value via the Gaussian pairing.

    Pairs the homogeneous harmonic r^{-p} Y against the transform of the
    solid-harmonic Gaussian r^j Y e^{-r^2/2} (whose transform reproduces
    itself times (2 pi)^{N/2} (-1)^{j/2}), leaving the ratio of two radial
    integrals evaluated here by dense trapezoid quadrature.
    """
    r = np.linspace(1e-9, 40.0, 400_001)
    num = trapezoid(r ** (j - p + N - 1) * np.exp(-r * r / 2.0), r)
    den = trapezoid(r ** (p + j - 1) * np.exp(-r * r / 2.0), r)
    sign = -1.0 if (j // 2) % 2 else 1.0
    return sign * (2.0 * math.pi) ** (N / 2.0) * num / den


class TestMultiplier:
    def test_golden_n2(self):
        assert bochner_multiplier(4, 2, 0) == pytest.approx(4 * math.pi ** 2, rel=1e-14)

    def test_golden_n3(self):
        assert bochner_multiplier(6, 4, 0) == pytest.approx(4 * math.pi ** 3, rel=1e-14)

    def test_degree2_sign_flip(self):
        assert bochner_multiplier(4, 2, 2) == pytest.approx(-4 * math.pi ** 2, rel=1e-14)

    @pytest.mark.parametrize("N,p,j", [(4, 2.0, 2), (4, 2.0, 4), (4, 3.0, 2),
                                       (6, 2.0, 2), (6, 4.0, 6), (8, 6.0, 4)])
    def test_against_gaussian_pairing_oracle(self, N, p, j):
        assert bochner_multiplier(N, p, j) == pytest.approx(
            multiplier_oracle(N, p, j), rel=1e-8)

    def test_sign_alternation(self):
        signs = [math.copysign(1, bochner_multiplier(4, 2.5, j)) for j in (0, 2, 4, 6)]
        assert signs == [1, -1, 1, -1]

    def test_degree_zero_positive_across_exponents(self):
        for N in (4, 6, 8):
            for p in np.linspace(0.25, N - 0.25, 12):
                assert bochner_multiplier(N, float(p), 0) > 0

    def test_no_overflow_at_extreme_degree(self):
        # Gamma ratios at degree 32 overflow naive evaluation; log space must not
        val = bochner_multiplier(6, 5.5, 32)
        assert math.isfinite(val) and val != 0.0

    def test_out_of_range_p(self):
        with pytest.raises(InvalidInputError):
            bochner_multiplier(4, 0.0, 0)
        with pytest.raises(InvalidInputError):
            bochner_multiplier(4, 4.0, 0)

    def test_hecke_identity_for_solid_harmonic_gaussian(self):
        # transform of Y(x/r) r^j e^{-r^2/2} is (2 pi)^{N/2} (-1)^{j/2} times itself;
        # checked by direct oscillatory quadrature on a tensor grid (the Gaussian
        # decay makes the equispaced Riemann sum spectrally accurate), accumulated
        # slice by slice to stay within memory.
        N, j = 4, 2
        basis = invariant_harmonic_basis(N, j)
        rng = np.random.default_rng(5)
        xi = rng.normal(size=N)
        grid = np.linspace(-9.0, 9.0, 48)
        h = grid[1] - grid[0]
        tail = np.stack(np.meshgrid(*([grid] * (N - 1)), indexing="ij"), axis=-1).reshape(-1, N - 1)
        acc = 0.0 + 0.0j
        for x1 in grid:
            mesh = np.column_stack([np.full(len(tail), x1), tail])
            r = np.linalg.norm(mesh, axis=1)
            good = r > 1e-12
            solid = np.zeros(len(mesh))
            solid[good] = r[good] ** j * basis.evaluate(mesh[good] / r[good, None])[:, 2]
            acc += np.sum(solid * np.exp(-r * r / 2.0) * np.exp(-1j * mesh @ xi))
        got = float(np.real(acc)) * h ** N
        expect = (2 * math.pi) ** (N / 2) * (-1) ** (j // 2) \
            * np.linalg.norm(xi) ** j * basis.evaluate(xi / np.linalg.norm(xi))[0, 2] \
            * math.exp(-xi @ xi / 2)
        assert got == pytest.approx(expect, rel=1e-6)


def fresh_expansion_rules(monkeypatch):
    """The rules ``ft_norm_power`` takes from ``expansion_rule``, collected in
    the returned list; each is built afresh, so no earlier test's read of a
    cached rule's ``nodes`` shows in its ``nodes_built``."""
    rules, real = [], harmonics.expansion_rule
    monkeypatch.setattr(harmonics, "sphere_rule", sphere_rule.__wrapped__)
    monkeypatch.setattr(harmonics, "expansion_rule",
                        lambda N, jmax: rules.append(real(N, jmax)) or rules[-1])
    return rules


class TestFtNormPower:
    def test_euclidean_constant_n2(self, ball2):
        ft = ft_norm_power(ball2, 2.0, jmax=8)
        x = unit_vectors(np.random.default_rng(2), 20, 4)
        assert np.allclose(ft.evaluate(x), 4 * math.pi ** 2, rtol=1e-12)

    def test_euclidean_constant_n3(self, ball3):
        ft = ft_norm_power(ball3, 4.0, jmax=8)
        x = unit_vectors(np.random.default_rng(3), 10, 6)
        assert np.allclose(ft.evaluate(x), 4 * math.pi ** 3, rtol=1e-12)

    def test_scaling_in_radius(self):
        r = 1.7
        p = 2.0
        small = ft_norm_power(EuclideanBall(ComplexDim(2), 1.0), p, jmax=8)
        big = ft_norm_power(EuclideanBall(ComplexDim(2), r), p, jmax=8)
        x = unit_vectors(np.random.default_rng(4), 10, 4)
        assert np.allclose(big.evaluate(x), r ** p * small.evaluate(x), rtol=1e-12)

    def test_self_duality_roundtrip(self):
        # applying the transform twice to the Euclidean norm: lam0(p) * lam0(N-p) = (2 pi)^N
        N, p = 4, 2.0
        lam = bochner_multiplier(N, p, 0)
        second = EuclideanBall(ComplexDim(2), lam ** (1.0 / (N - p)))
        ft2 = ft_norm_power(second, N - p, jmax=4)
        x = unit_vectors(np.random.default_rng(5), 5, 4)
        assert np.allclose(ft2.evaluate(x), (2 * math.pi) ** N, rtol=1e-11)

    def test_rotation_equivariance_coefficients(self):
        # an invariant body's transform is lambda_j times the full degree-j
        # projection of rho^2, which lives on the invariant harmonics only
        for body, degree in perturbed_suite_bodies():
            N = body.dim.N
            f = lambda x: body.radial(x) ** 2
            ft = ft_norm_power(body, 2.0, jmax=8)
            rule = exact_rule(N, degree, 8)
            xi = unit_vectors(np.random.default_rng(2), 20, N)
            for j in ft.degrees():
                got = degree_values(N, j, ft.coeffs[j], xi) / bochner_multiplier(N, 2.0, j)
                ref = zonal_projection(f, N, j, rule, xi)
                assert np.abs(got - ref).max() <= 1e-12 * ft.l2_norm, (body.label, j)

    @pytest.mark.parametrize("body,jmax", [(ComplexLqBall(ComplexDim(3), 4.0), 4),
                                           (ComplexEllipsoid((1.0, 2.0)), 8)])
    def test_moduli_only_body_evaluated_once_per_ring(self, body, jmax, monkeypatch):
        rule = expansion_rule(body.dim.N, jmax)
        counter = CountingRadial(monkeypatch)
        ft_norm_power(body, 2.0, jmax=jmax)
        assert counter.rows == [rule.node_count // rule.phases.shape[0]]

    def test_perturbed_body_evaluated_ring_by_ring(self, pert2, monkeypatch):
        # the profile comes from the rings, with no node array and no call of
        # radial, and expands as the per-node profile does
        rules = fresh_expansion_rules(monkeypatch)
        counter = CountingRadial(monkeypatch)
        ft = ft_norm_power(pert2, 2.0, jmax=8)
        monkeypatch.undo()
        (rule,) = rules
        assert counter.rows == [] and not rule.nodes_built
        ref = harmonic_expand(pert2.radial(rule.nodes) ** 2, 8, rule).multiplied(2.0)
        for j in ref.coeffs:  # measured <= 2.4e-16 of the largest
            assert np.abs(ft.coeffs[j] - ref.coeffs[j]).max() <= 1e-14 * ft.coeffs[0][0]

    @staticmethod
    def forbid_point_arrays(monkeypatch):
        def never(base, phases):
            raise AssertionError("a point array was formed")

        monkeypatch.setattr(spherequad, "factor_points", never)

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_no_node_array_built(self, N, monkeypatch):
        # the n = 4 rule's base takes 16.8 MB, its node array would take 268 MB
        n = N // 2
        bodies = [ComplexLqBall(ComplexDim(n), 3.0), PerturbedBall(ComplexDim(n), 1.0, ((2, 0, 0.04),))]
        rules = fresh_expansion_rules(monkeypatch)
        self.forbid_point_arrays(monkeypatch)
        for body in bodies:
            ft_norm_power(body, 2.0)
        assert len(rules) == 2 and not any(rule.nodes_built for rule in rules)
        assert rules[0].base.shape == (rules[0].level ** (N - 2), n)

    @pytest.mark.parametrize("body", [ComplexLqBall(ComplexDim(2), 3.0), ComplexEllipsoid((1.0, 2.0))],
                             ids=["lq3", "ellipsoid"])
    def test_moduli_only_body_expanded_per_base_row(self, body, monkeypatch):
        # rho^p reaches harmonic_expand as a table of width 1, and no
        # node-length array is formed: on a rule of 200 azimuths (2,000,000
        # nodes, 16 MB per double array, built before tracing) the transform's
        # peak traced allocation stays below a quarter of one such array
        import tracemalloc

        rule, shapes, real = sphere_rule.__wrapped__(4, 100), [], harmonics.harmonic_expand
        monkeypatch.setattr(harmonics, "expansion_rule", lambda N, jmax: rule)
        monkeypatch.setattr(harmonics, "harmonic_expand",
                            lambda f, *args, **kw: shapes.append(np.shape(f)) or real(f, *args, **kw))
        ft_norm_power(body, 2.0, jmax=8)  # blocks and plans built
        tracemalloc.start()
        try:
            ft_norm_power(body, 2.0, jmax=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(rule.base.shape[0], 1)] * 2
        assert peak < rule.node_count * 8 // 4

    def test_no_point_array_on_the_torus_rule(self, monkeypatch):
        # the moments of a torus rule come from its moduli rows and phase
        # rows; no point array of any size is formed
        rule = invariant_sphere_rule.__wrapped__(3, 14, 8)  # a fresh, unbuilt rule
        self.forbid_point_arrays(monkeypatch)
        for body in (ComplexLqBall(ComplexDim(3), 3.0),
                     PerturbedBall(ComplexDim(3), 1.0, ((2, 0, 0.04),))):
            exp = harmonic_expand(body.factor_radial(rule) ** 2, 12, rule)
            assert exp.degrees() == list(range(0, 13, 2))
        assert not rule.nodes_built

    def test_default_jmax_from_config(self, ball2):
        ft = ft_norm_power(ball2, 2.0)
        assert ft.jmax == default_config().jmax_for(4)
        assert ft.degrees() == list(range(0, ft.jmax + 1, 2))

    def test_degree_above_cap_rejected_before_rule_build(self, ball3, monkeypatch):
        def never(N, jmax):
            raise AssertionError("expansion rule built")

        monkeypatch.setattr(harmonics, "expansion_rule", never)
        with pytest.raises(InvalidInputError, match="j <= 22"):
            ft_norm_power(ball3, 4.0, jmax=24)

    def test_p_out_of_range(self, ball2):
        with pytest.raises(InvalidInputError):
            ft_norm_power(ball2, 4.0)
        with pytest.raises(InvalidInputError):
            ft_norm_power(ball2, 0.0)

    def test_transform_matches_direct_sections(self):
        # p = 2n-2 at n=2: transform equals 4 pi times the direct section volume
        from cxsect import section_volume_direct

        body = ComplexLqBall(ComplexDim(2), 4.0)
        ft = ft_norm_power(body, 2.0, jmax=16)
        x = unit_vectors(np.random.default_rng(6), 8, 4)
        direct, _ = section_volume_direct(body, x)
        assert ft.evaluate(x) == pytest.approx(4 * math.pi * direct, rel=5e-3)

    def test_crosscheck_error_decreases_with_jmax(self, ell12):
        from cxsect import section_volume_direct

        x = unit_vectors(np.random.default_rng(7), 12, 4)
        direct, _ = section_volume_direct(ell12, x)
        errs = []
        for jm in (8, 12, 16):
            ft = ft_norm_power(ell12, 2.0, jmax=jm)
            fourier = ft.evaluate(x) / (4 * math.pi)
            errs.append(float(np.max(np.abs(fourier / direct - 1.0))))
        assert errs[0] > errs[1] > errs[2]

    def test_serialization_shape(self, ell12):
        ft = ft_norm_power(ell12, 2.0, jmax=8)
        blob = ft.to_dict()
        assert blob["N"] == 4 and blob["multiplier_power"] == 2.0
        assert all(len(entry) == 3 for entry in blob["coefficients"])

