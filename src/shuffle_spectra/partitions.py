"""Integer partitions, Young diagram operations, and irreducible dimensions.

Partitions are plain tuples of positive integers in non-increasing order.
The empty tuple is the unique partition of 0.
"""

import math
from dataclasses import dataclass

PARTITION_CAP = 100
EXACT_DIM_CAP = 30


class SizeLimitError(ValueError):
    """Raised when a request exceeds one of the hard size guards."""


def check_partition(parts):
    """Validate and normalize a partition to a tuple. Raises ValueError."""
    parts = tuple(int(p) for p in parts)
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i + 1 < len(parts) and parts[i + 1] > p:
            raise ValueError(f"partition parts must be non-increasing: {parts}")
    return parts


def enumerate_partitions(n):
    """All partitions of n in reverse-lexicographic order, starting at (n,)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PARTITION_CAP:
        raise SizeLimitError(f"n={n} exceeds partition cap {PARTITION_CAP}")
    return list(iter_partitions(n))


def iter_partitions(n):
    """Generator form of enumerate_partitions (no cap check)."""
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        # rightmost part greater than 1
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        # collapse everything from j on and refill greedily with a[j]-1
        total = a[j] + (len(a) - j - 1)
        x = a[j] - 1
        del a[j:]
        k, r = divmod(total, x)
        a.extend([x] * k)
        if r:
            a.append(r)


def transpose(parts):
    """Conjugate diagram: column lengths of the Young diagram of parts."""
    parts = check_partition(parts)
    if not parts:
        return ()
    t = [0] * parts[0]
    for p in parts:
        for j in range(p):
            t[j] += 1
    return tuple(t)


def exact_dim(parts):
    """Exact SYT count via the hook length formula. Guarded at EXACT_DIM_CAP."""
    parts = check_partition(parts)
    n = sum(parts)
    if n > EXACT_DIM_CAP:
        raise SizeLimitError(f"exact dimension limited to n <= {EXACT_DIM_CAP}")
    # box (i, j) has hook (p_i - j) + (p'_j - i) - 1
    tr = transpose(parts)
    hook_product = math.prod(p - j + tr[j] - i - 1 for i, p in enumerate(parts) for j in range(p))
    return math.factorial(n) // hook_product


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
