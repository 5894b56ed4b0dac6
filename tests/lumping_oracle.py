"""Orbit matrix oracle: the lumped chain read off the n!-state matrix.

Row o is row reps[o] of the integer matrix, its entries summed by the orbit
labels of their columns. This reads every neighbour of each representative
from the built CSR arrays, so it shares no step with the library's orbit
matrix, which applies the generators to the representative's permutation.
"""

import numpy as np
from scipy import sparse


def orbit_matrix(matrix, labels, reps):
    """(k, k) int64 orbit matrix of a SparseScaledMatrix, k = len(reps)."""
    rows = matrix.mat[reps]
    k = len(reps)
    # toarray sums the entries that land on one orbit, in int64 as int8 could wrap
    data = rows.data.astype(np.int64)
    return sparse.csr_matrix((data, labels[rows.indices], rows.indptr), shape=(k, k)).toarray()
