"""Independent reference values for the benchmark's correctness checks.

Nothing here imports shuffle_spectra. Partitions come from Kelleher's
ascending-composition generator, dimensions from the hook-length formula in
Python integers, and eigenvalues from contents of Young diagrams, so a defect
in the library cannot hide behind a reference that shares its code.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

BOUND_REL_TOL = 1e-9  # log-space sums against naive summation
EIG_TOL = 1e-8
TV_TOL = 1e-12  # float round-off in evolved distributions
LEMMA_TOL = 1e-10


def partitions(n):
    """Every partition of n as a non-increasing tuple (Kelleher's accel_asc)."""
    if n == 0:
        return [()]
    out = []
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            out.append(tuple(a[k + 1::-1]))
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        out.append(tuple(a[k::-1]))
    return out


def hook_dim(lam, n_factorial):
    """Number of standard Young tableaux of lam: n! / product of hook lengths."""
    if not lam:
        return 1
    ends = [0] * lam[0]
    for p in lam:
        ends[p - 1] += 1
    conj = list(itertools.accumulate(reversed(ends)))[::-1]  # column lengths
    prod = 1
    for i, p in enumerate(lam):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return n_factorial // prod


def content_sum(lam):
    """Sum over boxes of (column - row), both 0-based."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))


def removable(lam):
    """(0-based row, reduced partition) for every removable corner of lam."""
    out = []
    for i, p in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < p:
            out.append((i, lam[:i] + ((p - 1,) if p > 1 else ()) + lam[i + 1:]))
    return out


def cutoff_times(n, c):
    """Matched cutoff times (t, t_star) as documented by the package."""
    x = n * (math.log(n) + c)
    t_star = math.floor(x + 0.5)
    t = math.floor(0.5 * x + 0.5)
    if t % 2 != t_star % 2:
        t += 1
    return t, t_star


@functools.cache
def partition_count(n):
    return len(partitions(n))


@functools.cache
def pair_count(n):
    """Number of (partition, removable corner) pairs of n."""
    return sum(len(removable(lam)) for lam in partitions(n))


def nnz(chain, n):
    """Nonzeros of the transition matrix: one per distinct generator per state."""
    gens = 1 + n * (n - 1) // 2 if chain == "rt" else n
    return math.factorial(n) * gens


class SpectralTable:
    """Every (partition, corner) pair of n with exact weights, as float arrays.

    rt eigenvalue of lam: (n + 2 * content_sum) / n^2 with multiplicity d^2;
    star eigenvalue of a corner with content k: (k + 1) / n with multiplicity
    d * d_reduced.
    """

    def __init__(self, n):
        self.n = n
        fact = math.factorial(n)
        fact1 = math.factorial(n - 1)
        reduced_dim = {}
        weight, s_pair, sbar, pair_nontrivial = [], [], [], []
        d_sq, s_lam, lam_nontrivial = [], [], []
        # exact multiplicities keyed by eigenvalue numerator (rt: / n^2, star: / n)
        self._rt_num, self._star_num = {}, {}
        for lam in partitions(n):
            d = hook_dim(lam, fact)
            num = n + 2 * content_sum(lam)
            self._rt_num[num] = self._rt_num.get(num, 0) + d * d
            s = num / (n * n)
            d_sq.append(float(d * d))
            s_lam.append(s)
            lam_nontrivial.append(lam[0] != n)
            for i, red in removable(lam):
                dr = reduced_dim.get(red)
                if dr is None:
                    dr = reduced_dim[red] = hook_dim(red, fact1)
                k = lam[i] - i
                self._star_num[k] = self._star_num.get(k, 0) + d * dr
                weight.append(float(d * dr))
                s_pair.append(s)
                sbar.append(k / n)
                pair_nontrivial.append(lam[0] != n)
        self.weight = np.array(weight)
        self.s_pair = np.array(s_pair)
        self.sbar = np.array(sbar)
        self.pair_nontrivial = np.array(pair_nontrivial)
        self.d_sq = np.array(d_sq)
        self.s_lam = np.array(s_lam)
        self.lam_nontrivial = np.array(lam_nontrivial)

    def squared_sum(self, t, t_star):
        """sum d * d_corner * (s^t - sbar^t_star)^2 over all pairs."""
        diff = self.s_pair**t - self.sbar**t_star
        return float(np.sum(self.weight * diff * diff))

    def comparison_total(self, t, t_star):
        return 0.5 * math.sqrt(self.squared_sum(t, t_star))

    def l2(self, chain, t):
        """(1/2) sqrt(sum of mult * eig^(2t)) over the non-trivial spectrum."""
        if chain == "rt":
            terms = self.d_sq * self.s_lam ** (2 * t)
            mask = self.lam_nontrivial
        else:
            terms = self.weight * self.sbar ** (2 * t)
            mask = self.pair_nontrivial
        return 0.5 * math.sqrt(float(np.sum(terms[mask])))

    def exact_spectrum(self, chain):
        """{eigenvalue Fraction: multiplicity} of the chain on S_n."""
        nums, den = (self._rt_num, self.n**2) if chain == "rt" else (self._star_num, self.n)
        return {Fraction(num, den): mult for num, mult in nums.items()}

    def sorted_spectrum(self, chain):
        """Every eigenvalue with its multiplicity, ascending, as floats."""
        spec = sorted(self.exact_spectrum(chain).items())
        return np.repeat([float(v) for v, _ in spec], [m for _, m in spec])


def rel_close(value, ref, tol=BOUND_REL_TOL):
    if ref == 0.0:
        return abs(value) <= tol
    return abs(value - ref) <= tol * abs(ref)
