"""Exact brute-force engine over S_n for small n.

Permutations are tuples over {0, ..., n-1}; sigma[i] is the card at position i.
One shuffle step multiplies on the right by a uniformly chosen generator, so a
transposition generator swaps two fixed positions. States are indexed by their
lexicographic rank (identity has rank 0).

Transition matrices are stored as integer sparse matrices scaled by n^k, so
stochasticity, symmetry and commutation can be checked exactly.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .partitions import MAX_EXACT_PRODUCT_N, check_n
from .profiles import _check_bound_n, _check_time, _comparison_sums, _float_if_0d

EXACT_TV_T_CAP = 10_000
MAX_BUILD_N = 8
MAX_DENSE_EIG_N = 6


@dataclass
class SparseScaledMatrix:
    """Integer sparse matrix equal to n^scale times a transition matrix."""

    n: int
    scale: int
    mat: sparse.csr_matrix  # int64 entries
    # (start, t, d): the last distribution evolve computed on this matrix
    _cursor: tuple = field(default=None, init=False, repr=False, compare=False)
    # float CSR operator of mat, built by the first step taken on it
    _op: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def denom(self):
        return self.n**self.scale

    def dense_float(self):
        return self.mat.toarray() / self.denom

    def is_symmetric_exact(self):
        return (self.mat != self.mat.T).nnz == 0


def _swap_maps(n, pairs):
    """Rank maps pi[x] = rank(x * (a b)) over S_n for each swap (a, b) in pairs,
    a < b, from the lexicographic block structure one level down."""
    below = {(a - 1, b - 1) for a, b in pairs if a} | {(0, b - 1) for a, b in pairs if b > 1}
    prev = _swap_maps(n - 1, below) if below else {}
    f = math.factorial(n - 1)
    base = np.repeat(np.arange(0, n * f, f, dtype=np.int32), f)
    # a swap that keeps the first card acts one level down in each block
    keep = {(a + 1, b + 1): base + np.tile(pi, n) for (a, b), pi in prev.items()}
    maps = {}
    if any(a == 0 for a, _ in pairs):
        # (0 1) on the first two mixed-radix digits of the rank
        g = f // (n - 1)
        r = np.arange(n * f, dtype=np.int32)
        d0, d1 = r // f, r // g % (n - 1)
        maps[0, 1] = (d1 + (d1 >= d0)) * f + (d0 - (d0 > d1)) * g + r % g
    for a, b in pairs:
        if a:
            maps[a, b] = keep[a, b]
        elif b > 1:  # (0 b) = (1 b)(0 1)(1 b)
            maps[a, b] = keep[1, b][maps[0, 1][keep[1, b]]]
    return {p: maps[p] for p in pairs}


def _build_from_weights(n, ident, pairs, weight, scale):
    """Right-multiplication walk: weight ident on the identity and weight on
    each swap (a, b) in pairs."""
    m = math.factorial(n)
    k = len(pairs) + 1
    bits = (k - 1).bit_length()
    maps = _swap_maps(n, pairs)
    # int32 keys col << bits | generator, filled one generator per row; a
    # state's columns are distinct, so sorting each state's keys gives
    # canonical CSR with no duplicates to sum
    block = np.empty((k, m), dtype=np.int32)
    np.left_shift(np.arange(m, dtype=np.int32), bits, out=block[0])
    for j, pair in enumerate(pairs, start=1):
        np.left_shift(maps.pop(pair), bits, out=block[j])
        block[j] |= j
    keys = np.ascontiguousarray(block.T)
    keys.sort(axis=1)
    keys = keys.ravel()
    cols = np.right_shift(keys, bits, out=block.ravel())
    keys &= (1 << bits) - 1  # now the generator of each entry
    data = np.where(keys, np.int64(weight), np.int64(ident))
    indptr = np.arange(0, m * k + 1, k, dtype=np.int32)
    mat = sparse.csr_matrix((data, cols, indptr), shape=(m, m))
    return SparseScaledMatrix(n, scale, mat)


def check_build_n(n):
    """n as an int; raises SizeLimitError unless an n-card matrix may be built."""
    return check_n(n, 2, MAX_BUILD_N, "matrix construction")


def build_matrix(chain, n):
    """Exact transition matrix of random transpositions ("rt") or star ("star").

    rt: scale 2, weight n on the diagonal and 2 on each transposition neighbor.
    star: scale 1, weight 1 on the diagonal and on each (top, j) swap.
    """
    n = check_build_n(n)
    if chain == "rt":
        return _build_from_weights(n, n, list(itertools.combinations(range(n), 2)), 2, 2)
    if chain == "star":
        return _build_from_weights(n, 1, [(0, j) for j in range(1, n)], 1, 1)
    raise ValueError(f"unknown chain {chain!r}")


def build_skewed_matrix(n):
    """Negative control: symmetric walk weighted on a single transposition.

    Not conjugacy-invariant, so it need not commute with the star chain.
    Scale 1: weight 1 on the diagonal, n-1 on the (0 1) swap.
    """
    n = check_build_n(n)
    return _build_from_weights(n, 1, [(0, 1)], n - 1, 1)


def evolve(matrix, start, t):
    """Distribution after t steps from the point mass at rank `start`.

    Resumes from the last distribution computed on the same matrix when the
    start matches and t has not gone back, so a curve over t costs one step per t.
    The matrix must be symmetric, as every matrix built here is (each generator
    is an involution carrying one weight): a step multiplies the distribution,
    a row vector, by the matrix on the right, and is taken as the CSR
    matrix times a column. Symmetry is not checked.
    """
    start, t = operator.index(start), _check_time(t)
    m = matrix.mat.shape[0]
    if not 0 <= start < m:
        raise ValueError("start rank out of range")
    cursor = matrix._cursor
    if cursor is not None and cursor[0] == start and cursor[1] <= t:
        _, t0, d = cursor
    else:
        t0, d = 0, np.zeros(m)
        d[start] = 1.0
    if t > t0 and matrix._op is None:  # a repeated t needs no operator
        # one copy: the float data shares the integer matrix's index arrays
        mat = matrix.mat
        data = np.multiply(mat.data, 1.0 / matrix.denom)
        matrix._op = sparse.csr_matrix(
            (data, mat.indices, mat.indptr), shape=mat.shape, copy=False
        )
    for _ in range(t - t0):
        d = matrix._op @ d
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
    check_n(m1.n, 2, MAX_EXACT_PRODUCT_N, "exact products")
    ab = m1.mat @ m2.mat
    ba = m2.mat @ m1.mat
    return (ab != ba).nnz == 0


def commutation_check(n):
    """True iff the star and random-transpositions matrices commute exactly."""
    n = check_n(n, 2, MAX_EXACT_PRODUCT_N, "commutation check")
    return exact_commutes(build_matrix("star", n), build_matrix("rt", n))


def numeric_eig_multiset(matrix):
    """All eigenvalues of the scaled matrix, sorted ascending."""
    check_n(matrix.n, 2, MAX_DENSE_EIG_N, "dense eigensolve")
    # eigvalsh reads one triangle only, so an asymmetric input must stop here
    if not matrix.is_symmetric_exact():
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(matrix.dense_float())


def spectral_rhs(n, t, t_star):
    """Formula-side bound: sqrt(sum_lam d_lam sum_i d_red (s^t - sbar^t*)^2).

    t and t_star may be integer arrays that broadcast together: the result is
    then an array of their broadcast shape, from one evaluation of the sums,
    and each entry equals the scalar call's float.
    """
    n = _check_bound_n(n)
    # a scalar as by _check_time, and 0-d; an array needs an integer dtype
    t, t_star = (np.asarray(_check_time(x) if np.ndim(x) == 0 else x) for x in (t, t_star))
    for times in (t, t_star):
        if not np.issubdtype(times.dtype, np.integer):
            raise TypeError(f"times must have an integer dtype, not {times.dtype}")
        if (times < 0).any():
            raise ValueError("t must be nonnegative")
    return _float_if_0d(np.exp(0.5 * _comparison_sums(n, t, t_star, 1)[0]))


def lemma_l2_check(n, t, t_star):
    """Both sides of the transitive comparison inequality at identity start.

    Throughout, t is the random-transpositions time and t_star the star time:
    lhs = 2 TV(rt^t, star^t*) and rhs = sqrt(sum d d_corner (s^t - sbar^t*)^2);
    lhs <= rhs must hold.
    """
    n = check_build_n(n)
    try:  # spectral_rhs would take arrays, evolve would not
        t, t_star = _check_time(t), _check_time(t_star)
    except TypeError as err:
        raise TypeError("lemma_l2_check takes scalar integer times") from err
    rhs = spectral_rhs(n, t, t_star)
    p = build_matrix("star", n)
    q = build_matrix("rt", n)
    return 2.0 * tv_between(evolve(p, 0, t_star), evolve(q, 0, t)), rhs
