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
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .partitions import MAX_BUILD_N, MAX_DENSE_EIG_N, MAX_EXACT_PRODUCT_N, SizeLimitError
from .profiles import _comparison_sums

EXACT_TV_T_CAP = 10_000


@dataclass
class SparseScaledMatrix:
    """Integer sparse matrix equal to n^scale times a transition matrix."""

    n: int
    scale: int
    mat: sparse.csr_matrix  # int64 entries
    # (start, t, d): the last distribution evolve computed on this matrix
    _cursor: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def denom(self):
        return self.n**self.scale

    def dense_float(self):
        return self.mat.toarray() / self.denom

    def is_symmetric_exact(self):
        return (self.mat != self.mat.T).nnz == 0


def _lehmer_ranks(cols):
    """Lehmer ranks of permutations stored by position: cols[i] holds sigma[i]
    of every permutation. int32 holds every rank for n <= 12."""
    n = len(cols)
    ranks = np.zeros(cols.shape[1], dtype=np.int32)
    smaller = np.empty(cols.shape[1], dtype=np.int8)
    for i in range(n - 1):
        # Horner form of sum_i smaller_i * (n - 1 - i)!, in place
        smaller[:] = 0
        for j in range(i + 1, n):
            smaller += cols[j] < cols[i]
        ranks *= n - i
        ranks += smaller
    return ranks


def _build_from_weights(n, weights, scale):
    """Right-multiplication walk: weights maps generator tuple -> integer weight."""
    # itertools order is lexicographic, so column x holds the permutation of rank x
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8).T.copy()
    m = perms.shape[1]
    gens = np.array(list(weights), dtype=np.intp)
    # x * g has sigma[g[i]] at position i; generator-major, one block per g
    cols = _lehmer_ranks(perms[gens.T].reshape(n, -1))
    rows = np.tile(np.arange(m, dtype=np.int32), len(gens))
    data = np.repeat(np.array(list(weights.values()), dtype=np.int64), m)
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(m, m), dtype=np.int64)
    mat.sum_duplicates()
    return SparseScaledMatrix(n, scale, mat)


def _transposition(n, a, b):
    g = list(range(n))
    g[a], g[b] = g[b], g[a]
    return tuple(g)


def check_build_n(n):
    """Raise SizeLimitError unless an n-card matrix may be built."""
    if not 2 <= n <= MAX_BUILD_N:
        raise SizeLimitError(f"matrix construction limited to 2 <= n <= {MAX_BUILD_N}")


def build_matrix(chain, n):
    """Exact transition matrix of random transpositions ("rt") or star ("star").

    rt: scale 2, weight n on the diagonal and 2 on each transposition neighbor.
    star: scale 1, weight 1 on the diagonal and on each (top, j) swap.
    """
    check_build_n(n)
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
    check_build_n(n)
    weights = {tuple(range(n)): 1, _transposition(n, 0, 1): n - 1}
    return _build_from_weights(n, weights, 1)


def _point_mass(matrix, start, t):
    """Point mass at rank `start`, once t and start are checked."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = matrix.mat.shape[0]
    if not 0 <= start < m:
        raise ValueError("start rank out of range")
    d = np.zeros(m)
    d[start] = 1.0
    return d


def _steps(matrix, d, k):
    """Yields d, then the k distributions that follow it, one step at a time;
    read-only, since each yielded array feeds the next step."""
    d.flags.writeable = False
    yield d
    if not k:  # a repeated t needs no operator
        return
    # one copy: the float data shares the integer matrix's index arrays
    mat = matrix.mat
    data = mat.data.astype(np.float64) * (1.0 / matrix.denom)
    a = sparse.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape, copy=False)
    # symmetric matrices in practice; the transpose keeps the row convention
    at = a.T
    for _ in range(k):
        d = at @ d
        d.flags.writeable = False
        yield d


def trajectory(matrix, start, t_max):
    """Iterator over the distributions at t = 0, 1, ..., t_max from the point
    mass at rank `start`."""
    return _steps(matrix, _point_mass(matrix, start, t_max), t_max)


def evolve(matrix, start, t):
    """Distribution after t steps from the point mass at rank `start`.

    Resumes from the last distribution computed on the same matrix when the
    start matches and t has not gone back, so a curve over t costs one step per t.
    """
    d = _point_mass(matrix, start, t)
    cursor = matrix._cursor
    t0 = 0
    if cursor is not None and cursor[0] == start and cursor[1] <= t:
        _, t0, d = cursor
    for d in _steps(matrix, d, t - t0):
        pass
    matrix._cursor = (start, t, d)
    return d.copy()


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


def numeric_eig_multiset(matrix):
    """All eigenvalues of the scaled matrix, sorted ascending."""
    if matrix.n > MAX_DENSE_EIG_N:
        raise SizeLimitError(f"dense eigensolve limited to n <= {MAX_DENSE_EIG_N}")
    # eigvalsh reads one triangle only, so an asymmetric input must stop here
    if not matrix.is_symmetric_exact():
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(matrix.dense_float())


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
