"""Lumping oracles: the orbits and the orbit matrix read off all of S_n.

`orbits(n)` labels every permutation, listed by itertools in rank order, by
a key of its cycle type computed on the whole (n!, n) array, and numbers the
keys with np.unique. The library labels S_n from S_(n-1)'s labels by the
first card and never lists S_n, so the two share no step.

`orbit_matrix` sums row reps[o] of the integer matrix by the orbit labels of
its columns. This reads every neighbour of each representative from the
built CSR arrays, so it shares no step with the library's orbit matrix,
which applies the generators to the representative's permutation.
"""

import itertools

import numpy as np
from scipy import sparse


def orbit_keys(perms):
    """(rt key, star key) of each row of an (m, n) int8 permutation array.

    The rt key sums (n + 1)^(l - 1) over the n points, l the length of the
    point's cycle, so it fixes the cycle type; the star key adds the length
    of 0's cycle. Lengths above n/2 are all counted as n/2 + 1: at most one
    cycle is that long, and its points are exactly the ones counted so.
    """
    m, n = perms.shape
    points = np.arange(n, dtype=np.int8)
    moving = perms != points
    longer = moving.astype(np.int8)  # min(cycle length, n/2 + 1) - 1 of each point
    rows = np.arange(0, m * n, n, dtype=np.int32)[:, None]
    power = perms
    for _ in range(n // 2 - 1):
        # x(x^k(i)) by one gather through int32 flat indices, an int8 result
        power = perms.ravel().take(power + rows)
        moving &= power != points
        longer += moving
    weights = (n + 1) ** np.arange(n // 2 + 1, dtype=np.int32)  # keys below 2^31 for n <= 8
    rt = (weights[longer] @ np.ones(n, dtype=np.int32)).astype(np.int64)
    return rt, rt * n + longer[:, 0]


def orbits(n):
    """{chain: (labels, sizes, reps)} over S_n: labels[x] is the orbit of
    rank x, sizes[o] the size of orbit o and reps[o] its lowest rank, the
    orbits numbered in the order of their keys."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    out = {}
    for chain, key in zip(("rt", "star"), orbit_keys(perms)):
        _, reps, labels, sizes = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        out[chain] = labels, sizes, reps
    return out


def orbit_matrix(matrix, labels, reps):
    """(k, k) int64 orbit matrix of a SparseScaledMatrix, k = len(reps)."""
    rows = matrix.mat[reps]
    k = len(reps)
    # toarray sums the entries that land on one orbit, in int64 as int8 could wrap
    data = rows.data.astype(np.int64)
    return sparse.csr_matrix((data, labels[rows.indices], rows.indptr), shape=(k, k)).toarray()
