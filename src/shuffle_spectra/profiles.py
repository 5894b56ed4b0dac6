"""Limit-profile functions and the large-n spectral comparison bound.

The comparison bound sums d * d_corner * (s^t - sbar^t*)^2 over every
partition of n and every removable corner. Dimensions grow like sqrt(n!), so
every factor is carried as a sign plus a natural-log magnitude and the sum is
accumulated with a stable log-sum-exp.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import (
    _LOG_INT,
    SizeLimitError,
    _log_factorial,
    iter_partitions,
)

POISSON_MEAN_CAP = 50.0
PROFILE_C_MIN = -8.0
PROFILE_C_MAX = 12.0
BOUND_N_CAP = 60
_TAIL_EPS = 1e-13
_LOG_DIFF_GUARD = 1e-13

_NEG_INF = float("-inf")


def _signed_diff(sa, la, sb, lb):
    """(sign, log magnitude) of a - b for values given as signed log reals."""
    if sa == 0:
        return -sb, lb
    if sb == 0:
        return sa, la
    if sa == sb:
        if abs(la - lb) < _LOG_DIFF_GUARD:
            return 0, _NEG_INF  # below accumulation noise
        if la > lb:
            return sa, la + math.log1p(-math.exp(lb - la))
        return -sa, lb + math.log1p(-math.exp(la - lb))
    return sa, np.logaddexp(la, lb)


def _signed_pow(x, t):
    """x**t for a float base and integer exponent, as (sign, log magnitude)."""
    if t == 0:
        return 1, 0.0
    if x == 0.0:
        return 0, _NEG_INF
    sign = 1 if x > 0.0 or t % 2 == 0 else -1
    return sign, t * math.log(abs(x))


def _log_sum(log_terms):
    if not log_terms:
        return _NEG_INF
    arr = np.asarray(log_terms)
    m = arr.max()
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(np.exp(arr - m).sum())


@dataclass(frozen=True)
class ProfilePoint:
    c: float
    value: float


@dataclass(frozen=True)
class BoundReport:
    n: int
    c: float
    t: int
    t_star: int
    total: float
    parts: tuple  # the four error-decomposition terms
    truncation_m: int


def _poisson_tv_raw(mu1, mu2):
    """TV distance between Poisson(mu1) and Poisson(mu2), direct summation.

    Sums from k = 0 upward; stops once both remaining tails are below 1e-13,
    certified either by the accumulated mass or, past both means, by the
    geometric tail bound term * k / (k - mu).
    """
    lm1, lm2 = math.log(mu1), math.log(mu2)
    top = max(mu1, mu2)
    acc = 0.0
    c1 = 0.0
    c2 = 0.0
    k = 0
    while True:
        lg = math.lgamma(k + 1)
        t1 = math.exp(k * lm1 - mu1 - lg)
        t2 = math.exp(k * lm2 - mu2 - lg)
        acc += abs(t1 - t2)
        c1 += t1
        c2 += t2
        k += 1
        if 1.0 - c1 < _TAIL_EPS and 1.0 - c2 < _TAIL_EPS:
            break
        if k > 2 * top and max(t1, t2) * k / (k - top) < _TAIL_EPS:
            break
        if k > 1_000_000:
            raise RuntimeError("Poisson tail failed to converge")
    return min(max(0.5 * acc, 0.0), 1.0)


def poisson_tv(mu1, mu2):
    """TV distance between two Poisson laws with means in (0, 50]."""
    for mu in (mu1, mu2):
        if not 0.0 < mu <= POISSON_MEAN_CAP:
            raise ValueError(f"Poisson mean must be in (0, {POISSON_MEAN_CAP}]")
    return _poisson_tv_raw(mu1, mu2)


def star_profile(c):
    """Limit profile of star transpositions at time n(log n + c)."""
    if not PROFILE_C_MIN <= c <= PROFILE_C_MAX:
        raise ValueError(f"c must be in [{PROFILE_C_MIN}, {PROFILE_C_MAX}]")
    return ProfilePoint(c, _poisson_tv_raw(1.0 + math.exp(-c), 1.0))


# By the paper's theorem random transpositions at time (1/2) n (log n + c) has
# the same limit profile as star transpositions at its own cutoff n (log n + c).
rt_profile = star_profile


def profile_curve(c_min, c_max, step):
    """star_profile sampled on an inclusive grid."""
    if step <= 0:
        raise ValueError("step must be positive")
    if c_min > c_max:
        raise ValueError("empty grid: c_min > c_max")
    points = []
    k = 0
    while True:
        c = c_min + k * step
        if c > c_max + 1e-9:
            break
        points.append(star_profile(c))
        k += 1
    return points


def cutoff_times(n, c):
    """Matched cutoff-window times: rt at (1/2) n (log n + c), star at n (log n + c).

    Rounds half-up, then bumps the rt time by one if the parities differ so the
    sign of negative eigenvalues raised to these powers matches.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    x = n * (math.log(n) + c)
    if not math.isfinite(x):
        raise ValueError(f"cutoff time is not finite at n={n}, c={c}")
    t_star = math.floor(x + 0.5)
    t = math.floor(0.5 * x + 0.5)
    if t < 0 or t_star < 0:
        raise ValueError(f"negative times at n={n}, c={c}")
    if t % 2 != t_star % 2:
        t += 1
    return t, t_star


def _fast_log_dim(lam, tr, log_fact):
    """log dimension with precomputed transpose; trusts its inputs."""
    table = _LOG_INT
    acc = log_fact
    for i, p in enumerate(lam):
        for j in range(p):
            acc -= table[(p - j) + (tr[j] - i) - 1]
    return acc


@lru_cache(maxsize=4)
def _log_dims_of(n):
    """Map from every partition of n to its log dimension. Cached: the
    comparison sums at a fixed n reuse the table for n-1 on every call."""
    log_fact = _log_factorial(n)
    out = {}
    for lam in iter_partitions(n):
        if not lam:
            out[lam] = 0.0
            continue
        tr = [0] * lam[0]
        for p in lam:
            for j in range(p):
                tr[j] += 1
        out[lam] = _fast_log_dim(lam, tr, log_fact)
    return out


def _blocks(n):
    """Per-partition spectral data for the comparison sums.

    Yields (lam_1, lam'_1, log d, s, corner list of (log d_corner, sbar)).
    """
    reduced_logd = _log_dims_of(n - 1)
    inv_cn2 = 1.0 / (n * (n - 1) // 2)
    log_fact = _log_factorial(n)
    for lam in iter_partitions(n):
        tr = [0] * lam[0]
        for p in lam:
            for j in range(p):
                tr[j] += 1
        num = sum(p * (p - 1) // 2 for p in lam) - sum(q * (q - 1) // 2 for q in tr)
        s = 1.0 / n + (n - 1) / n * (num * inv_cn2)
        logd = _fast_log_dim(lam, tr, log_fact)
        corner_data = []
        k = len(lam)
        for i0, p in enumerate(lam):
            if i0 + 1 == k or lam[i0 + 1] < p:
                if p > 1:
                    reduced = lam[:i0] + (p - 1,) + lam[i0 + 1:]
                else:
                    reduced = lam[:i0] + lam[i0 + 1:]
                corner_data.append((reduced_logd[reduced], (p - i0) / n))
        yield lam[0], tr[0], logd, s, corner_data


def _check_bound_n(n):
    if not 2 <= n <= BOUND_N_CAP:
        raise SizeLimitError(f"spectral sums limited to 2 <= n <= {BOUND_N_CAP}")


def _check_truncation(n, truncation_m):
    if not 1 <= truncation_m <= n // 2:
        raise ValueError(f"truncation rank must be in [1, {n // 2}]")


def _comparison_sums(n, t, t_star, truncation_m):
    """One walk over the partitions of n for every comparison sum.

    Returns (log S, terms), where S = sum over partitions and corners of
    d * d_corner * (s^t - sbar^t*)^2 and terms are the four error terms of
    bound_decomposition, split at lam_1 = n - truncation_m.
    """
    cut = n - truncation_m
    log_terms = []
    logs1 = []
    logs2 = []
    logs3 = []
    logs4 = []
    for lam1, lam1_t, logd, s, corner_data in _blocks(n):
        ssign, slog = _signed_pow(s, t)
        inner = lam1 <= cut and lam1_t <= cut
        if lam1 <= cut:
            logs1.append(2.0 * logd + 2.0 * slog)
        for logd_red, sbar in corner_data:
            bsign, blog = _signed_pow(sbar, t_star)
            if inner:
                logs2.append(logd + logd_red + 2.0 * blog)
                logs3.append(logd + slog + logd_red + blog)
            dsign, dlog = _signed_diff(ssign, slog, bsign, blog)
            if dsign == 0:
                continue
            term = logd + logd_red + 2.0 * dlog
            log_terms.append(term)
            if lam1 > cut:
                logs4.append(term)
            if lam1_t > cut:
                logs4.append(term)
    terms = tuple(math.exp(_log_sum(logs)) for logs in (logs1, logs2, logs3, logs4))
    return _log_sum(log_terms), terms


def comparison_bound(n, c, truncation_m=None):
    """Evaluate the spectral comparison bound at the matched cutoff times.

    total = (1/2) sqrt(sum over partitions and corners of
    d * d_corner * (s^t - sbar^t*)^2), accumulated in log space; parts are
    bound_decomposition(n, c, truncation_m), from the same pass.
    """
    _check_bound_n(n)
    t, t_star = cutoff_times(n, c)
    if truncation_m is None:
        truncation_m = min(5, n // 2)
    _check_truncation(n, truncation_m)
    log_total_sq, parts = _comparison_sums(n, t, t_star, truncation_m)
    total = 0.5 * math.exp(0.5 * log_total_sq)
    return BoundReport(n, c, t, t_star, total, parts, truncation_m)


def bound_decomposition(n, c, truncation_m):
    """The four error terms of the comparison sum, split at lam_1 = n - M.

    term1: sum over lam_1 <= n-M of d^2 |s|^(2t)
    term2: sum over lam_1, lam'_1 <= n-M of d sum_i d_corner |sbar|^(2t*)
    term3: same index set, d |s|^t sum_i d_corner |sbar|^t*
    term4: both boundary sums (lam_1 > n-M, plus lam'_1 > n-M) of the full
           squared differences.
    """
    _check_bound_n(n)
    _check_truncation(n, truncation_m)
    t, t_star = cutoff_times(n, c)
    return _comparison_sums(n, t, t_star, truncation_m)[1]


def l2_bound(chain, n, t):
    """Classic l2 distance-to-uniform bound: (1/2) sqrt(sum mult |eig|^(2t))."""
    _check_bound_n(n)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if chain not in ("rt", "star"):
        raise ValueError(f"unknown chain {chain!r}")
    log_terms = []
    for lam1, _, logd, s, corner_data in _blocks(n):
        if lam1 == n:  # trivial block
            continue
        if chain == "rt":
            log_terms.append(2.0 * logd + _signed_pow(s, 2 * t)[1])
        else:
            for logd_red, sbar in corner_data:
                log_terms.append(logd + logd_red + _signed_pow(sbar, 2 * t)[1])
    return 0.5 * math.exp(0.5 * _log_sum(log_terms))
