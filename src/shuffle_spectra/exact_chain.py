"""Exact engine over S_n for small n.

Permutations are tuples over {0, ..., n-1}; sigma[i] is the card at position i.
One shuffle step multiplies on the right by a uniformly chosen generator, so a
transposition generator swaps two fixed positions. States are indexed by their
lexicographic rank (identity has rank 0).

Transition matrices are stored as integer sparse matrices scaled by n^k, so
stochasticity, symmetry and commutation can be checked exactly. Their entries
are int8: a weight is at most n <= 8 and a row sums to n^k <= 64. Whatever
sums or multiplies them widens first, to a type that holds the result.

`evolve` walks the lumped chain. Random transpositions is invariant under
conjugation by S_n, and star transpositions under conjugation by the
permutations that fix position 0, so each walk from the identity has a law
that is constant on orbits: cycle types for rt (p(n) of them), and cycle
types with the length of 0's cycle marked for star (p(0) + ... + p(n-1)),
each rank's orbit read off S_(n-1)'s by its first card. The integer orbit
matrix K, its row o from the generators applied to orbit o's lowest rank,
steps that law exactly as the full matrix steps the distribution (Kemeny and
Snell, Finite Markov Chains, 1960, on lumpability). So the walk never reads
the n! matrix, whose CSR arrays build_matrix makes on the first read of .mat
for the checks that need every state; only a nonzero start lists S_n.
"""

import functools
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
    # the int8 CSR matrix, or a function that makes it on the first read of mat
    _mat: object = field(repr=False)
    # "rt" or "star", set only by build_matrix: the orbits evolve lumps by
    chain: str = field(default=None, init=False, repr=False, compare=False)
    # (t, law): the last orbit law evolve computed on this matrix
    _cursor: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def mat(self):
        if callable(self._mat):
            self._mat = self._mat()
        return self._mat

    @property
    def denom(self):
        return self.n**self.scale

    def dense_float(self):
        return self.mat.toarray() / self.denom

    def __eq__(self, other):
        """Equal n, scale and CSR arrays, indices sorted in place: no third matrix
        as scipy's == builds; a stored zero only makes equal ones unequal."""
        if not isinstance(other, SparseScaledMatrix):
            return NotImplemented
        a, b = self.mat, other.mat
        a.sort_indices(), b.sort_indices()
        return (self.n, self.scale, a.shape) == (other.n, other.scale, b.shape) and all(
            np.array_equal(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data")
        )

    def is_symmetric_exact(self):
        """Whether mat equals its transpose, compared as == compares them."""
        return self == SparseScaledMatrix(self.n, self.scale, self.mat.T.tocsr())


def _swap_maps(n, pairs, out=None):
    """Rank maps pi[x] = rank(x * (a b)) over S_n for each swap (a, b) in pairs,
    a < b, from the lexicographic block structure one level down. Each map is
    written into out[a, b], an int32 array of n! entries, if out is given."""
    m = math.factorial(n)
    if out is None:
        out = {p: np.empty(m, dtype=np.int32) for p in pairs}
    below = {(a - 1, b - 1) for a, b in pairs if a} | {(0, b - 1) for a, b in pairs if b > 1}
    prev = _swap_maps(n - 1, below) if below else {}
    f = m // n
    base = np.arange(0, m, f, dtype=np.int32)[:, None]

    def keep(a, b, dst):
        # a swap that keeps the first card acts one level down in each block
        np.add(base, prev[a - 1, b - 1], out=dst.reshape(n, f))
        return dst

    for a, b in pairs:
        if a:
            keep(a, b, out[a, b])
    if any(a == 0 for a, _ in pairs):
        # (0 1) on the first two mixed-radix digits of the rank
        g = f // (n - 1)
        r = np.arange(m, dtype=np.int32)
        d0, d1 = r // f, r // g % (n - 1)
        m01 = out[0, 1] if (0, 1) in out else np.empty(m, dtype=np.int32)
        np.add((d1 + (d1 >= d0)) * f + (d0 - (d0 > d1)) * g, r % g, out=m01)
        for a, b in pairs:
            if not a and b > 1:  # (0 b) = (1 b)(0 1)(1 b)
                k1b = out[1, b] if (1, b) in out else keep(1, b, np.empty(m, dtype=np.int32))
                np.take(k1b, m01.take(k1b), out=out[a, b], mode="clip")
    return out


def _build_from_weights(n, ident, pairs, weight):
    """CSR of the right-multiplication walk: weight ident on the identity and
    weight on each swap (a, b) in pairs."""
    m = math.factorial(n)
    k = len(pairs) + 1
    bits = (k - 1).bit_length()
    # int32 keys col << bits | generator, one generator per row, each swap's
    # map written straight into its row; a state's columns are distinct, so
    # sorting each state's keys gives canonical CSR with no duplicates to sum
    block = np.empty((k, m), dtype=np.int32)
    block[0] = np.arange(m, dtype=np.int32)
    _swap_maps(n, pairs, dict(zip(pairs, block[1:])))
    block <<= bits
    block[1:] |= np.arange(1, k, dtype=np.int32)[:, None]
    keys = np.ascontiguousarray(block.T)
    keys.sort(axis=1)
    keys = keys.ravel()
    cols = np.right_shift(keys, bits, out=block.ravel())
    keys &= (1 << bits) - 1  # now the generator of each entry
    data = np.where(keys, np.int8(weight), np.int8(ident))
    indptr = np.arange(0, m * k + 1, k, dtype=np.int32)
    return sparse.csr_matrix((data, cols, indptr), shape=(m, m))


def check_build_n(n):
    """n as an int; raises SizeLimitError unless an n-card matrix may be built."""
    return check_n(n, 2, MAX_BUILD_N, "matrix construction")


def _generators(chain, n):
    """(identity weight, swaps, swap weight, scale) of chain's matrix."""
    if chain == "rt":
        return n, list(itertools.combinations(range(n), 2)), 2, 2
    if chain == "star":
        return 1, [(0, j) for j in range(1, n)], 1, 1
    raise ValueError(f"unknown chain {chain!r}")


def build_matrix(chain, n):
    """Exact transition matrix of random transpositions ("rt") or star ("star").

    rt: scale 2, weight n on the diagonal and 2 on each transposition neighbor.
    star: scale 1, weight 1 on the diagonal and on each (top, j) swap.
    The CSR arrays are made on the first read of .mat; evolve never reads it.
    """
    n = check_build_n(n)
    ident, pairs, weight, scale = _generators(chain, n)
    matrix = SparseScaledMatrix(n, scale, lambda: _build_from_weights(n, ident, pairs, weight))
    matrix.chain = chain
    return matrix


def build_skewed_matrix(n):
    """Negative control: symmetric walk weighted on a single transposition.

    Not conjugacy-invariant, so it need not commute with the star chain.
    Scale 1: weight 1 on the diagonal, n-1 on the (0 1) swap.
    """
    n = check_build_n(n)
    return SparseScaledMatrix(n, 1, lambda: _build_from_weights(n, 1, [(0, 1)], n - 1))


@functools.cache
def _lex_perms(n):
    """Every permutation of range(n) as an int8 row, in rank order: (n!, n)."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        # first card v, then a permutation of k - 1 cards with v skipped
        first = np.arange(k, dtype=np.int8)
        block = np.empty((k, len(perms), k), dtype=np.int8)
        block[:, :, 0] = first[:, None]
        np.add(perms, perms >= first[:, None, None], out=block[:, :, 1:])
        perms = block.reshape(-1, k)
    perms.flags.writeable = False  # cached: every caller sees this array
    return perms


def _ranks(perms):
    """Rank of each row of an (m, n) int8 permutation array, by its Lehmer code."""
    m, n = perms.shape
    cols = perms.T.copy()
    rank = np.zeros(m, dtype=np.intp)
    for i in range(n - 1):
        rank *= n - i
        for j in range(i + 1, n):
            rank += cols[j] < cols[i]
    return rank


def _unrank(ranks, n):
    """The int8 row of each rank's permutation, from its Lehmer digits."""
    perms = np.array([ranks // math.factorial(n - 1 - i) % (n - i) for i in range(n)], np.int8).T
    for i in range(n - 2, -1, -1):  # digit i counts the smaller cards right of i
        perms[:, i + 1 :] += perms[:, i + 1 :] >= perms[:, i : i + 1]
    return perms


@functools.cache
def _orbits(n):
    """{chain: (labels, sizes, reps)} over S_n: labels[x] is the orbit of
    rank x, sizes[o] the number of ranks in orbit o and reps[o] its lowest,
    orbits numbered by a key that sums (n + 1)^(l - 1) over the points, l the
    length of the point's cycle, then for star by 0's cycle length.

    Rank v (n-1)! + r is (v, tau), tau of rank r in S_(n-1): v = 0 adds a
    fixed 0 to tau's cycles, and v >= 1 has the cycles of tau d_v with 0's one
    longer, d_v = (0 v-1 ... 1). As d_(v+1) = (v-1 v) d_v, block v + 1 reads
    block v's star labels below through the rank map of tau -> tau * (v-1 v)."""
    if n == 1:  # one rank in one orbit, as read-only views
        one = tuple(np.broadcast_to(np.intp(x), 1) for x in (0, 1, 0))
        return dict.fromkeys(("rt", "star"), one)
    below, f = _orbits(n - 1), math.factorial(n - 1)
    (rt_labels, _, rt_reps), (star_labels, _, star_reps) = below["rt"], below["star"]
    # a candidate orbit of S_n per orbit below, met first at these ranks
    firsts = np.concatenate([rt_reps, f + star_reps])
    maps = _swap_maps(n - 1, [(a, a + 1) for a in range(n - 2)]).values()
    moved = itertools.accumulate(maps, operator.getitem, initial=len(rt_reps) + star_labels)
    index = np.concatenate([rt_labels, *moved])  # the candidate of each rank
    x = _unrank(firsts, n)
    powers = itertools.accumulate([x] * n, lambda p, _: np.take_along_axis(x, p, 1))
    length = (np.array(list(powers)) == np.arange(n)).argmax(axis=0) + 1  # first fixing power
    rt_key = ((n + 1) ** (length - 1)).sum(axis=1)
    out = {}
    for chain, key in (("rt", rt_key), ("star", rt_key * n + length[:, 0] - 1)):
        orbit_keys, table = np.unique(key, return_inverse=True)
        labels = table[index]
        reps = np.full(len(orbit_keys), n * f, dtype=np.intp)
        np.minimum.at(reps, table, firsts)
        out[chain] = labels, np.bincount(labels), reps
        for cached in out[chain]:
            cached.flags.writeable = False
    return out


@functools.cache
def _orbit_matrix(chain, n):
    """Integer orbit matrix K of build_matrix(chain, n), int64: row o holds
    the weights from orbit o's lowest rank to each orbit, each swap's target
    found by applying it to that rank's permutation. Read-only, as cached."""
    ident, pairs, weight, _ = _generators(chain, n)
    labels, _, reps = _orbits(n)[chain]
    k, g = len(reps), len(pairs)
    # x * (a b) reads x's columns in the order of (a b)
    order = [[{a: b, b: a}.get(i, i) for i in range(n)] for a, b in pairs]
    targets = labels[_ranks(_unrank(reps, n)[:, order].reshape(-1, n))]
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (np.arange(k).repeat(g), targets), weight)
    out.flat[::k + 1] += ident  # the diagonal
    out.flags.writeable = False
    return out


@functools.cache
def _orbit_op(chain, n):
    """The float orbit operator K / n^scale that evolve steps by. Read-only."""
    op = _orbit_matrix(chain, n) / n ** _generators(chain, n)[3]
    op.flags.writeable = False
    return op


@functools.lru_cache(maxsize=2)  # a TV curve from one start alternates rt and star
def _start_index(n, start):
    """{chain: the orbit of start^-1 x for every rank x}, from one ranking:
    the law from start at x is the law from the identity at start^-1 x."""
    labels = {chain: orbits[0] for chain, orbits in _orbits(n).items()}
    if start:
        perms = _lex_perms(n)
        ranks = _ranks(np.argsort(perms[start]).astype(np.int8)[perms])
        for chain in labels:
            labels[chain] = labels[chain][ranks]
            labels[chain].flags.writeable = False
    return labels


def evolve(matrix, start, t):
    """Distribution after t steps from the point mass at rank `start`.

    Walks the lumped chain of a build_matrix("rt" | "star") matrix: a float
    step over its orbits (at most 45 at n = 8) from the identity's orbit,
    lifted to the n! ranks by one gather through the orbit of start^-1 x.
    Resumes from the last orbit law computed on the same matrix when t has
    not gone back, whatever the start, so a curve over t costs one step per t.
    """
    start, t = operator.index(start), _check_time(t)
    if matrix.chain not in ("rt", "star"):
        raise ValueError("evolve walks only the rt and star matrices of build_matrix")
    if not 0 <= start < math.factorial(matrix.n):
        raise ValueError("start rank out of range")
    return _orbit_law(matrix, t)[_start_index(matrix.n, start)[matrix.chain]]


def _orbit_law(matrix, t):
    """The law after t steps from the identity, as the mass of one rank in
    each orbit; resumes from matrix._cursor when t has not gone back."""
    labels, sizes, _ = _orbits(matrix.n)[matrix.chain]
    cursor = matrix._cursor
    if cursor is not None and cursor[0] <= t:
        t0, law = cursor
    else:
        t0, law = 0, np.zeros(len(sizes))
        law[labels[0]] = 1.0
    if t > t0:  # a repeated t needs no operator
        op = _orbit_op(matrix.chain, matrix.n)
        for _ in range(t - t0):
            law = law @ op
    matrix._cursor = (t, law)
    return law / sizes


def _pair_sums(p, q, t, t_star):
    """Sums over S_n between the rt walk q after each of t steps (rows) and
    the star walk p after each of t_star steps (columns), both from the
    identity: sum |q - p| and sum (q - p)^2, then sum (q - 1/n!)^2 by row and
    sum (p - 1/n!)^2 by column. Star's orbits refine rt's, so each is a sum
    over star's orbits weighted by their sizes, one row at a time, so that an
    entry does not depend on the grid's shape."""
    _, sizes, reps = _orbits(p.n)["star"]
    rt_of = _orbits(q.n)["rt"][0][reps]  # the rt orbit of each star orbit
    lq = np.array([_orbit_law(q, s)[rt_of] for s in t])
    lp = np.array([_orbit_law(p, s) for s in t_star])
    diff = lq[:, None] - lp
    u = 1 / math.factorial(p.n)
    return [(x * sizes).sum(-1) for x in (np.abs(diff), diff * diff, (lq - u) ** 2, (lp - u) ** 2)]


def tv_to_uniform(d):
    """Total variation distance of a distribution vector from uniform."""
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        raise ValueError("distribution vector is empty")
    dev = d - 1.0 / d.size  # then its abs in place: one n!-long temporary, not two
    return 0.5 * np.abs(dev, out=dev).sum()


def exact_commutes(m1, m2):
    """Exact integer check that the two scaled matrices commute.

    One product [A, -B] [B; A] = AB - BA, zero exactly where every value it
    stores is zero, so a stored zero can never give a false answer; scipy's
    != on AB and BA built a third matrix beside both. Multiplies in the
    narrowest signed type of int16, int32 and int64 that holds
    n^(scale1 + scale2): that bounds every entry of AB and of BA, and as A
    and B are nonnegative, every partial sum of AB - BA lies within it
    either side of 0. Never int8, whose products could wrap and compare
    equal."""
    if m1.n != m2.n:
        raise ValueError("matrices over different groups")
    n = check_n(m1.n, 2, MAX_EXACT_PRODUCT_N, "exact products")
    top = n ** (m1.scale + m2.scale)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)
    a, b = m1.mat.astype(dtype), m2.mat.astype(dtype)
    diff = sparse.hstack([a, -b], format="csr") @ sparse.vstack([b, a], format="csr")
    return not diff.data.any()


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
    try:  # spectral_rhs and _pair_sums would take arrays
        t, t_star = _check_time(t), _check_time(t_star)
    except TypeError as err:
        raise TypeError("lemma_l2_check takes scalar integer times") from err
    rhs = spectral_rhs(n, t, t_star)
    l1 = _pair_sums(build_matrix("star", n), build_matrix("rt", n), (t,), (t_star,))[0]
    return l1[0, 0], rhs
