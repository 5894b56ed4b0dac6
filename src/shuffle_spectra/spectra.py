"""Closed-form eigenvalue spectra of random transpositions and star transpositions.

Both chains on S_n are simultaneously diagonalizable; every eigenvalue is
indexed by a partition of n (random transpositions) or by a removable corner
of a partition of n (star transpositions). Eigenvalues are exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .partitions import (
    EXACT_DIM_CAP,
    _corners,
    _dim,
    _transpose,
    check_n,
    check_partition,
    enumerate_partitions,
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
    return _rt_eigenvalue(*_checked(parts))


def _rt_eigenvalue(parts, n):
    # the content sum: sum_i C(p_i, 2) less sum_j C(p'_j, 2), which is sum_i (i - 1) p_i
    r = Fraction(sum(comb(p, 2) - i * p for i, p in enumerate(parts)), comb(n, 2))
    return RtEig(parts, r, Fraction(1, n) + Fraction(n - 1, n) * r)


def star_eigenvalues(parts):
    """Star-transpositions eigenvalues of one partition, one per corner."""
    return _star_eigenvalues(*_checked(parts))


def _star_eigenvalues(parts, n):
    return [
        StarEig(parts, c.row, c.reduced, Fraction(parts[c.row - 1] - c.row + 1, n))
        for c in _corners(parts)
    ]


@lru_cache(maxsize=1, typed=True)  # typed: a cached 5 must not answer 5.0
def blocks(n):
    """Every partition of n, in enumeration order, as (lam, lam_t, d, s, corners):
    its transpose, exact dimension, random-transpositions eigenvalue, and one
    (row, d_corner, s_bar) per removable corner in row order. Each partition, of
    n or of n - 1, is transposed once and its dimension computed once, and none
    is checked again. Read-only, as the cache shares it."""
    n = check_n(n, 2, EXACT_DIM_CAP, "exact multiplicities")
    dims_red = {mu: _dim(mu, _transpose(mu)) for mu in enumerate_partitions(n - 1)}
    out = []
    for lam in enumerate_partitions(n):
        lam_t = _transpose(lam)
        cs = tuple((e.corner_row, dims_red[e.reduced], e.s_bar) for e in _star_eigenvalues(lam, n))
        out.append((lam, lam_t, _dim(lam, lam_t), _rt_eigenvalue(lam, n).s, cs))
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
