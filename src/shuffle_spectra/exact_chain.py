"""Exact brute-force engine over S_n for small n.

Permutations are tuples over {0, ..., n-1}; sigma[i] is the card at position i.
One shuffle step multiplies on the right by a uniformly chosen generator, so a
transposition generator swaps two fixed positions. States are indexed by the
Lehmer rank, which coincides with lexicographic order (identity has rank 0).

Transition matrices are stored as integer sparse matrices scaled by n^k, so
stochasticity, symmetry and commutation can be checked exactly.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .partitions import SizeLimitError
from .profiles import _comparison_sums

MAX_PERM_N = 10
MAX_BUILD_N = 8
MAX_EXACT_PRODUCT_N = 7
MAX_DENSE_EIG_N = 6


def _check_perm(sigma):
    sigma = tuple(sigma)
    n = len(sigma)
    if n > MAX_PERM_N:
        raise SizeLimitError(f"permutation indexing limited to n <= {MAX_PERM_N}")
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    return sigma


def perm_rank(sigma):
    """Lehmer rank in [0, n!); the identity maps to 0."""
    sigma = _check_perm(sigma)
    n = len(sigma)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if sigma[j] < sigma[i])
        rank += smaller * math.factorial(n - 1 - i)
    return rank


def perm_unrank(rank, n):
    """Inverse of perm_rank."""
    if n > MAX_PERM_N:
        raise SizeLimitError(f"permutation indexing limited to n <= {MAX_PERM_N}")
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    avail = list(range(n))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        q, rank = divmod(rank, f)
        out.append(avail.pop(q))
    return tuple(out)


@dataclass
class SparseScaledMatrix:
    """Integer sparse matrix equal to n^scale times a transition matrix."""

    n: int
    scale: int
    mat: sparse.csr_matrix  # int64 entries

    @property
    def denom(self):
        return self.n**self.scale

    def dense_float(self):
        return self.mat.toarray() / self.denom

    def row_sums(self):
        return np.asarray(self.mat.sum(axis=1)).ravel()

    def is_symmetric_exact(self):
        return (self.mat != self.mat.T).nnz == 0


def _build_from_weights(n, weights, scale):
    """Right-multiplication walk: weights maps generator tuple -> integer weight."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    gens = list(weights.items())
    rows = np.empty(m * len(gens), dtype=np.int64)
    cols = np.empty(m * len(gens), dtype=np.int64)
    data = np.empty(m * len(gens), dtype=np.int64)
    k = 0
    for x, p in enumerate(perms):
        for g, w in gens:
            y = index[tuple(p[g[i]] for i in range(n))]
            rows[k] = x
            cols[k] = y
            data[k] = w
            k += 1
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(m, m), dtype=np.int64)
    mat.sum_duplicates()
    return SparseScaledMatrix(n, scale, mat)


def _transposition(n, a, b):
    g = list(range(n))
    g[a], g[b] = g[b], g[a]
    return tuple(g)


def build_matrix(chain, n):
    """Exact transition matrix of random transpositions ("rt") or star ("star").

    rt: scale 2, weight n on the diagonal and 2 on each transposition neighbor.
    star: scale 1, weight 1 on the diagonal and on each (top, j) swap.
    """
    if not 2 <= n <= MAX_BUILD_N:
        raise SizeLimitError(f"matrix construction limited to 2 <= n <= {MAX_BUILD_N}")
    ident = tuple(range(n))
    if chain == "rt":
        weights = {ident: n}
        for a in range(n):
            for b in range(a + 1, n):
                weights[_transposition(n, a, b)] = 2
        return _build_from_weights(n, weights, 2)
    if chain == "star":
        weights = {ident: 1}
        for j in range(1, n):
            weights[_transposition(n, 0, j)] = 1
        return _build_from_weights(n, weights, 1)
    raise ValueError(f"unknown chain {chain!r}")


def build_skewed_matrix(n):
    """Negative control: symmetric walk weighted on a single transposition.

    Not conjugacy-invariant, so it need not commute with the star chain.
    Scale 1: weight 1 on the diagonal, n-1 on the (0 1) swap.
    """
    if not 2 <= n <= MAX_BUILD_N:
        raise SizeLimitError(f"matrix construction limited to 2 <= n <= {MAX_BUILD_N}")
    weights = {tuple(range(n)): 1, _transposition(n, 0, 1): n - 1}
    return _build_from_weights(n, weights, 1)


def trajectory(matrix, start, t_max):
    """Iterator over the distributions at t = 0, 1, ..., t_max from the point
    mass at rank `start`."""
    if t_max < 0:
        raise ValueError("t must be nonnegative")
    m = matrix.mat.shape[0]
    if not 0 <= start < m:
        raise ValueError("start rank out of range")
    a = matrix.mat.astype(np.float64).multiply(1.0 / matrix.denom).tocsr()
    d = np.zeros(m)
    d[start] = 1.0
    # symmetric matrices in practice; the transpose keeps the row convention
    return itertools.accumulate(range(t_max), lambda d, _: a.T @ d, initial=d)


def evolve(matrix, start, t):
    """Distribution after t steps from the point mass at rank `start`."""
    for d in trajectory(matrix, start, t):
        pass
    return d


def tv_to_uniform(d):
    """Total variation distance of a distribution vector from uniform."""
    d = np.asarray(d, dtype=float)
    return 0.5 * np.abs(d - 1.0 / d.size).sum()


def tv_between(d1, d2):
    """Total variation distance between two distribution vectors."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    if d1.shape != d2.shape:
        raise ValueError("distributions live on different spaces")
    return 0.5 * np.abs(d1 - d2).sum()


def exact_commutes(m1, m2):
    """Exact integer check that the two scaled matrices commute."""
    if m1.n != m2.n:
        raise ValueError("matrices over different groups")
    if m1.n > MAX_EXACT_PRODUCT_N:
        raise SizeLimitError(f"exact products limited to n <= {MAX_EXACT_PRODUCT_N}")
    ab = m1.mat @ m2.mat
    ba = m2.mat @ m1.mat
    return (ab != ba).nnz == 0


def commutation_check(n):
    """True iff the star and random-transpositions matrices commute exactly."""
    if not 2 <= n <= MAX_EXACT_PRODUCT_N:
        raise SizeLimitError(f"commutation check limited to 2 <= n <= {MAX_EXACT_PRODUCT_N}")
    return exact_commutes(build_matrix("star", n), build_matrix("rt", n))


def jacobi_eigh(a, rel_tol=1e-12, max_sweeps=60):
    """Eigen-decomposition of a dense symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvector columns), unsorted. Convergence: the
    off-diagonal Frobenius norm is driven below rel_tol times the Frobenius
    norm of the input.
    """
    a = np.array(a, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("jacobi_eigh requires a symmetric square matrix")
    v = np.eye(m)
    fro = np.linalg.norm(a)
    if fro == 0.0 or m == 1:
        return np.diag(a).copy(), v
    target = rel_tol * fro
    skip = target / m  # rotations below this cannot push off-norm above target
    for _ in range(max_sweeps):
        # off-diagonal Frobenius norm, computed without cancellation
        b = a.copy()
        np.fill_diagonal(b, 0.0)
        off = np.linalg.norm(b)
        if off <= target:
            return np.diag(a).copy(), v
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    raise RuntimeError("Jacobi sweeps failed to converge")


def numeric_eig_multiset(matrix):
    """All eigenvalues of the scaled matrix, sorted ascending."""
    if matrix.n > MAX_DENSE_EIG_N:
        raise SizeLimitError(f"dense eigensolve limited to n <= {MAX_DENSE_EIG_N}")
    if not matrix.is_symmetric_exact():
        raise ValueError("matrix must be symmetric")
    w, _ = jacobi_eigh(matrix.dense_float())
    return np.sort(w)


def spectral_rhs(n, t, t_star):
    """Formula-side bound: sqrt(sum_lam d_lam sum_i d_red (s^t - sbar^t*)^2)."""
    return math.exp(0.5 * _comparison_sums(n, t, t_star, 1)[0])


def lemma_l2_check(n, t, t_star):
    """Both sides of the transitive comparison inequality at identity start.

    Throughout, t is the random-transpositions time and t_star the star time:
    lhs = 2 TV(rt^t, star^t*) and rhs = sqrt(sum d d_corner (s^t - sbar^t*)^2);
    lhs <= rhs must hold.
    """
    if not 2 <= n <= MAX_DENSE_EIG_N:
        raise SizeLimitError(f"lemma_l2_check limited to 2 <= n <= {MAX_DENSE_EIG_N}")
    if t < 0 or t_star < 0:
        raise ValueError("times must be nonnegative")
    p = build_matrix("star", n)
    q = build_matrix("rt", n)
    lhs = 2.0 * tv_between(evolve(p, 0, t_star), evolve(q, 0, t))
    return lhs, spectral_rhs(n, t, t_star)
