"""Integer partitions, Young diagram operations, and irreducible dimensions.

Partitions are plain tuples of positive integers in non-increasing order.
The empty tuple is the unique partition of 0.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PARTITION_CAP = 60  # p(60) = 966,467; p(70) is 4.1 M and p(100) 190 M
EXACT_DIM_CAP = 30
# exact_chain's cap on matrix products, here so that cli can gate verify's
# matrix checks without importing exact_chain and with it scipy
MAX_EXACT_PRODUCT_N = 7


class SizeLimitError(ValueError):
    """Raised when a request exceeds one of the hard size guards."""


def check_partition(parts):
    """Validate and normalize a partition to a tuple. Raises ValueError."""
    try:  # ints, numpy ints and bools pass; 2.5, 3.0 and "2" do not
        parts = tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError("partition parts must be integers") from None
    for p, q in zip(parts, parts[1:] + (1,)):  # q: the next part, 1 after the last
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if q > p:
            raise ValueError(f"partition parts must be non-increasing: {parts}")
    return parts


def check_n(n, lo, hi, what):
    """The deck size n as an int (numpy integers and bools too; a float or a
    string raises TypeError). Raises SizeLimitError unless lo <= n <= hi."""
    n = operator.index(n)
    if not lo <= n <= hi:
        raise SizeLimitError(f"{what} limited to {lo} <= n <= {hi}")
    return n


@lru_cache(maxsize=1)
def count_table(n):
    """at_most[v, k]: the number of partitions of k with no part above v, v, k <= n.
    Read-only, as the cache shares it."""
    count = [1] + [0] * n
    columns = [count[:]]
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            count[k] += count[k - part]
        columns.append(count[:])
    at_most = np.array(columns)
    at_most.flags.writeable = False
    return at_most


@lru_cache(maxsize=1)
def _source(n):
    """The partitions of n, n >= 1, stored as (first part, tail index) pairs.

    In reverse-lex order the partitions of k are, for f = k..1, f in front of
    the partitions of k - f with first part at most f, which form a suffix of
    the list for k - f. Level k < n keeps the suffix with first part at most
    n - k: the tails of the partitions of n with first part n - k. An entry
    stores its first part and the index of its tail in a lower level; level 0
    is the empty partition, first part 0 and its own tail. The levels follow
    each other in order of k, so entry r is the r-th partition of n less its
    first part, and there are p(n) entries. Returns first (int8), tail
    (int32) and off, where level k starts at entry off[k].
    """
    at_most = count_table(n)
    k = np.arange(n)
    off = np.zeros(n + 1, np.intp)
    np.cumsum(at_most[np.minimum(k, n - k), k], out=off[1:])
    # the blocks (k, f) of levels k = 1..n - 1 in entry order, f = min(k, n - k)..1
    width = np.minimum(k[1:], n - k[1:])
    k = np.repeat(k[1:], width)
    f = np.repeat(np.cumsum(width), width) - np.arange(len(k))
    count = at_most[np.minimum(f, k - f), k - f]
    # block (k, f) points at the last count entries of level k - f
    shift = off[k - f + 1] - count - (off[1] + np.cumsum(count) - count)
    first, tail = np.zeros(off[n], np.int8), np.zeros(off[n], np.int32)
    first[off[1]:] = np.repeat(f, count)
    tail[off[1]:] = np.repeat(shift, count) + np.arange(off[1], off[n])
    for array in (first, tail, off):  # shared by every caller through the cache
        array.flags.writeable = False
    return first, tail, off


def partition_blocks(n, size):
    """The partitions of n in reverse-lex order, size at a time, as int8 rows
    padded with zeros to the longest partition of the block."""
    n = check_n(n, 0, PARTITION_CAP, "partitions")
    size = operator.index(size)
    if size < 1:
        raise ValueError(f"block size must be at least 1, got {size}")
    if n == 0:
        yield np.zeros((1, 0), np.int8)
        return
    first, tail, off = _source(n)
    for lo in range(0, off[n], size):
        g = np.arange(lo, min(lo + size, off[n]))
        block = np.zeros((len(g), n), np.int8)
        block[:, 0] = n + 1 - np.searchsorted(off, g, "right")  # n - level
        width = 1
        while width < n and (parts := first.take(g)).any():
            block[:, width] = parts
            g = tail.take(g)
            width += 1
        yield block[:, :width]


def enumerate_partitions(n):
    """All partitions of n in reverse-lexicographic order, starting at (n,)."""
    if operator.index(n) == 0:  # partition_blocks checks every other n
        return [()]
    out = []
    for block in partition_blocks(n, 4096):
        # a row's bytes less its zero padding iterate as its parts, plain ints
        raw, width = block.tobytes(), block.shape[1]
        out += [tuple(raw[i:i + width].rstrip(b"\0")) for i in range(0, len(raw), width)]
    return out


def transpose(parts):
    """Conjugate diagram: column lengths of the Young diagram of parts."""
    return _transpose(check_partition(parts))


def _transpose(parts):
    """transpose of a checked partition."""
    t = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            t[j] += 1
    return tuple(t)


def exact_dim(parts):
    """Exact SYT count via the hook length formula. Guarded at EXACT_DIM_CAP."""
    parts = check_partition(parts)
    check_n(sum(parts), 0, EXACT_DIM_CAP, "exact dimension")
    return _dim(parts, _transpose(parts))


def _dim(parts, tr):
    """exact_dim of a checked partition with transpose tr."""
    # box (i, j) has hook (p_i - j) + (p'_j - i) - 1
    hook_product = math.prod(p - j + tr[j] - i - 1 for i, p in enumerate(parts) for j in range(p))
    return math.factorial(sum(parts)) // hook_product


@dataclass(frozen=True)
class Corner:
    """A removable box: 1-based row index and the reduced partition of n-1."""

    row: int
    reduced: tuple


def corners(parts):
    """All removable corners of a nonempty partition, ascending row order."""
    parts = check_partition(parts)
    if not parts:
        raise ValueError("the empty partition has no corners")
    return _corners(parts)


def _corners(parts):
    """corners of a checked nonempty partition."""
    out = []
    k = len(parts)
    for i, p in enumerate(parts):
        if i + 1 == k or parts[i + 1] < p:
            if p > 1:
                reduced = parts[:i] + (p - 1,) + parts[i + 1:]
            else:
                reduced = parts[:i] + parts[i + 1:]
            out.append(Corner(i + 1, reduced))
    return out
