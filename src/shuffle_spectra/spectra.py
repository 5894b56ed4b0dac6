"""Closed-form eigenvalue spectra of random transpositions and star transpositions.

Both chains on S_n are simultaneously diagonalizable; every eigenvalue is
indexed by a partition of n (random transpositions) or by a removable corner
of a partition of n (star transpositions). Eigenvalues are exact rationals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import profiles
from .partitions import (
    EXACT_DIM_CAP, _transpose, check_n, check_partition, corners, enumerate_partitions,
)

CHAINS = ("rt", "star")


@dataclass(frozen=True)
class RtEig:
    """One random-transpositions eigenvalue s = 1/n + ((n-1)/n) r, r the character
    ratio of the transposition class; its multiplicity is exact_dim(lam) ** 2."""

    lam: tuple
    r: Fraction
    s: Fraction


@dataclass(frozen=True)
class StarEig:
    """One star-transpositions eigenvalue, indexed by a removable corner; its
    multiplicity is exact_dim(lam) * exact_dim(reduced)."""

    lam: tuple
    corner_row: int
    reduced: tuple
    s_bar: Fraction


def _checked(parts):
    """check_partition, then the size of a partition of n >= 2."""
    parts = check_partition(parts)
    n = sum(parts)
    if n < 2:
        raise ValueError("need a partition of n >= 2")
    return parts, n


def rt_eigenvalue(parts):
    """Random-transpositions eigenvalue block for one partition."""
    parts, n = _checked(parts)
    # the content sum: sum_i C(p_i, 2) less sum_j C(p'_j, 2), which is sum_i (i - 1) p_i
    r = Fraction(sum(math.comb(p, 2) - i * p for i, p in enumerate(parts)), math.comb(n, 2))
    return RtEig(parts, r, Fraction(1, n) + Fraction(n - 1, n) * r)


def star_eigenvalues(parts):
    """Star-transpositions eigenvalues of one partition, one per corner."""
    parts, n = _checked(parts)
    return [
        StarEig(parts, c.row, c.reduced, Fraction(parts[c.row - 1] - c.row + 1, n))
        for c in corners(parts)
    ]


def _over(top, hooks):
    """top // the product of hooks, or 0 where a hook is 0: only a faulty
    recursion yields one, and d = 0 fails verify's identities."""
    prod = math.prod(hooks)
    return top // prod if prod else 0


@lru_cache(maxsize=1, typed=True)  # typed: a cached 5 must not answer 5.0
def blocks(n):
    """Every partition of n, in enumeration order, as (lam, lam_t, d, s, corners):
    its transpose, exact dimension, random-transpositions eigenvalue, and one
    (row, d_corner, s_bar) per removable corner in row order, all read from the
    spectral table's level recursion, so verify's identities check its hooks,
    lifts and content sums. d(lam - e_1), where lam_1 > lam_2, comes from lam's
    hooks less one in row 1 before its corner, and each corner reads it at its
    lift lam - e_i + e_1. Read-only, as the cache shares it."""
    n = check_n(n, 2, EXACT_DIM_CAP, "exact multiplicities")
    lams = enumerate_partitions(n)
    fact, cn2 = math.factorial(n), math.comb(n, 2)
    s_bar_of = [Fraction(v, n) for v in range(2 - n, n + 1)]  # by s_bar index
    # 0 where lam_1 = lam_2: a lift that lands there reads d_corner 0, a failed identity
    ds, d_mu, counts, lifts, sbars = [], [0] * len(lams), [], [], []
    for lo, hooks, count, lift, sbar_idx in profiles._partition_rows(n):
        for x, (lam, row) in enumerate(zip(lams[lo:], hooks.tolist()), lo):
            ds.append(_over(fact, row))
            if len(lam) == 1 or lam[1] < lam[0]:
                first = lam[0] - 1  # row 1's corner box has hook 1
                d_mu[x] = _over(fact // n, [h - 1 for h in row[:first]] + row[first:])
        counts += count.tolist()
        lifts += lift.tolist()
        sbars += sbar_idx.tolist()
    out, end = [], 0
    for lam, d, count, c in zip(lams, ds, counts, profiles._content_sums(n)[0].tolist()):
        rows = [i for i, (p, q) in enumerate(zip(lam, lam[1:] + (0,)), 1) if p > q]
        cs = zip(rows, lifts[end:end + count], sbars[end:end + count])
        end += count
        s = Fraction(cn2 + (n - 1) * (c - cn2), n * cn2)
        out.append((lam, _transpose(lam), d, s, tuple((r, d_mu[x], s_bar_of[v]) for r, x, v in cs)))
    return tuple(out)


def spectrum_rows(chain, n):
    """(partition, eigenvalue, multiplicity) of every block of chain at n, in
    enumeration order; star lists a partition's corners in row order."""
    if chain not in CHAINS:
        raise ValueError(f"chain must be one of {CHAINS}, got {chain!r}")
    if chain == "rt":
        return [(lam, s, d * d) for lam, _, d, s, _ in blocks(n)]
    return [(lam, s_bar, d * d_c) for lam, _, d, _, cs in blocks(n) for _, d_c, s_bar in cs]


def spectrum_trace(chain, n):
    """Exact rational sum of mult * eigenvalue; equals (n-1)! for both chains."""
    return sum((mult * eig for _, eig, mult in spectrum_rows(chain, n)), Fraction(0))


def total_multiplicity(chain, n):
    """Exact sum of multiplicities over all blocks; must equal n!."""
    return sum(mult for _, _, mult in spectrum_rows(chain, n))
