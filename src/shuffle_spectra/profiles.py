"""Limit-profile functions and the large-n spectral comparison bound.

The comparison bound sums d * d_corner * (s^t - sbar^t*)^2 over every
partition of n and every removable corner. Dimensions grow like sqrt(n!), so
every factor is carried as a sign plus a natural-log magnitude and the sum is
accumulated with a stable log-sum-exp.
"""

import bisect
import itertools
import math
import operator
import queue
import threading
from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import PARTITION_CAP, _source, check_n, count_table

PROFILE_C_MIN = -8.0
PROFILE_C_MAX = 12.0
_PROFILE_GRID_CAP = 100_000
_TAIL_EPS = 1e-13
_LOG_DIFF_GUARD = 1e-13

_NEG_INF = float("-inf")
# log of every hook length; a hook never exceeds n <= PARTITION_CAP
_LOG_INT = np.array([_NEG_INF] + [math.log(k) for k in range(1, PARTITION_CAP + 1)])


def _signed_pow(sign, log_abs, t):
    """x**t elementwise for x given as sign and log|x| arrays, t an integer or
    integer array >= 0: t's axes come first and x's last."""
    t = np.asarray(t)[..., None]
    zero = t == 0
    with np.errstate(invalid="ignore"):  # 0 * log|0| at t = 0, replaced below
        log_pow = np.where(zero, 0.0, t * log_abs)
    return np.where(zero, 1, np.where(t % 2 == 1, sign, np.abs(sign))), log_pow


def _signed_diff(sa, la, sb, lb):
    """Elementwise (sign, log magnitude) of a - b for signed log arrays.

    Sign 0 marks a zero difference, which includes equal signs with log
    magnitudes closer than the accumulation-noise guard; its log magnitude is
    then meaningless.
    """
    sign = np.where(la > lb, sa, -sb)
    hi = np.maximum(la, lb)
    # nan (a = b = 0) and log1p(-1) (|a| = |b|) land only on entries that
    # get sign 0 or are overwritten below
    with np.errstate(invalid="ignore", divide="ignore"):
        dlog = np.minimum(la, lb) - hi
        sign[(sa == sb) & (dlog > -_LOG_DIFF_GUARD)] = 0
        dlog = hi + np.log1p(-np.exp(dlog))
    opposite = sa * sb < 0
    dlog[opposite] = np.logaddexp(la[opposite], lb[opposite])
    return sign, dlog


def _log_sum(log_terms, kept=None):
    """log sum exp over the last axis of the entries where kept (all if None).
    Dropped ones count as -inf and may hold nan: each row sums in one order."""
    if kept is not None:
        log_terms = np.where(kept, log_terms, _NEG_INF)
    m = log_terms.max(-1, initial=_NEG_INF, keepdims=True)
    m[m == _NEG_INF] = 0.0  # an empty sum: log(0) gives -inf below
    with np.errstate(divide="ignore"):
        return m[..., 0] + np.log(np.exp(log_terms - m).sum(-1))


def _float_if_0d(x):
    """A 0-d result as a Python float; an array as it is."""
    return float(x) if np.ndim(x) == 0 else x


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


def _check_time(t):
    """t as an int in [0, 2**63) (numpy integers and bools too); a float raises TypeError."""
    t = operator.index(t)
    if not 0 <= t < 2**63:  # times are int64 in the sums
        raise ValueError(f"t must be nonnegative and below 2**63, got {t}")
    return t


def _check_c(c):
    if not PROFILE_C_MIN <= c <= PROFILE_C_MAX:
        raise ValueError(f"c must be in [{PROFILE_C_MIN}, {PROFILE_C_MAX}]")


def star_profile(c):
    """Limit profile of star transpositions at time n (log n + c), and by the
    paper's theorem of random transpositions at its own cutoff (1/2) n (log n + c)."""
    _check_c(c)
    return ProfilePoint(c, _poisson_tv_raw(1.0 + math.exp(-c), 1.0))


def profile_curve(c_min, c_max, step):
    """star_profile sampled on an inclusive grid."""
    if not (math.isfinite(c_min) and math.isfinite(c_max)):
        raise ValueError("c_min and c_max must be finite")
    if not 0 < step < math.inf:  # also catches nan
        raise ValueError(f"step must be finite and positive, got {step}")
    if c_min > c_max:
        raise ValueError("empty grid: c_min > c_max")
    c_end = c_max + 1e-9  # a point past c_max by rounding is read at c_max, and is the last
    if not (c_end - c_min) / step < _PROFILE_GRID_CAP:  # also catches nan
        raise ValueError(f"grid has more than {_PROFILE_GRID_CAP} points")
    points = []
    for k in itertools.count():
        c = c_min + k * step
        if c > c_end or points and points[-1].c == c_max:
            return points
        points.append(star_profile(min(c, c_max)))


def cutoff_times(n, c):
    """Matched cutoff-window times: rt at (1/2) n (log n + c), star at n (log n + c).

    c must lie in the limit profile's window [PROFILE_C_MIN, PROFILE_C_MAX].
    Rounds half-up, then bumps the rt time by one if the parities differ so the
    sign of negative eigenvalues raised to these powers matches.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_c(c)
    x = n * (math.log(n) + c)
    t_star = math.floor(x + 0.5)
    t = math.floor(0.5 * x + 0.5)
    if t < 0 or t_star < 0:
        raise ValueError(f"negative times at n={n}, c={c}")
    if t % 2 != t_star % 2:
        t += 1
    return t, t_star


def _signs_and_logs(values):
    """(sign, log|x|) columns of a float sequence; log|0| = -inf."""
    logs = [math.log(abs(x)) if x else _NEG_INF for x in values]
    return np.sign(values).astype(np.int8), np.array(logs)


_SpectralTable = namedtuple(
    "_SpectralTable",
    "lam1 lam1_t logd s_sign s_log sbar_sign sbar_log"
    " sum_sign sum_log pkey_sum pkey_j pkey_logw key_sum key_j key_sbar key_logw",
)
_TABLE_CHUNK = 8192  # partitions per batch of the level recursion, and so of corner arrays
_CODE = 256  # a corner's code: lift * _CODE + sbar index (< 2n - 1); int32 to n = 75


def _partition_rows(n):
    """The partitions of n in table order, by the level recursion of _source(n).

    Entry e = (f, tau) of level k, tau the entry at its tail index, stands for
    lam = (n - k, e). e's hooks in box order are its row-0 hooks f - j + tau'_j,
    then tau's hooks; lam adds its row 0 the same way, with e' = tau' + [j < f].
    e's corners are row 0 if f > tau_1, then tau's corners one row lower. e less
    a corner of tau is (f, tau less it) at level k - 1, and e less its row 0 is
    (f - 1, tau): each index is a fixed offset from an index of tau's. lam less
    a corner of e, plus e_1, is entry e less it, so that index is the corner's
    lift, the table index of lam - e_i + e_1. So a level is a few gathers from
    lower ones. Only entries that later levels read as tails are stored (first
    part at most (n - k) / 2): lam's hooks, right-aligned, so tau's already sit
    in e's last columns, and e's corners.

    Yields per batch of _TABLE_CHUNK partitions (the last may be shorter): the
    index of its first partition, the hooks (int8, n columns), and the corners
    in row order: their number per partition, their lifts and their sbar
    indices lam_i - i + n - 2.
    """
    first, tail, off = _source(n)
    at_most = count_table(n)
    level = np.arange(n)
    kept = at_most[np.minimum((n - level) // 2, level), level]
    start = np.zeros(n + 1, np.intp)
    np.cumsum(kept, out=start[1:])
    shift = off[1:] - kept - start[:-1]  # a stored entry's slot is its index less this
    # entry (g, tau) of level k - 1 has index tau + step[k, g]: its block ends
    # before the partitions of k - 1 with first part < g, and its tails end
    # with level k - 1 - g (row k = 0 only shifts the empty partition's corners: none)
    below = np.zeros((n + 2, n + 1), np.int64)  # below[g, k]: first part < g
    below[1:] = at_most
    k, g = level[:, None], np.arange(n + 1)
    step = off[k] - below[g, k - 1] - off[np.maximum(k - g, 0)]
    # per (level, first part) of e, at kf = k (n + 1) + f: its corners' codes
    # over tau's, one row lower; and the code of its row-0 corner less
    # tau * _CODE, sbar index f + n - 2 (f >= 1)
    most = (math.isqrt(8 * n - 7) - 1) // 2  # corners of a partition of n - 1
    plan = np.zeros((n * (n + 1), 1 + most), np.int32)
    plan[:, 1:] = (step * _CODE - 1).reshape(-1, 1)
    front = (step[:, g - 1] * _CODE + g + n - 2).ravel()
    # a stored row: hooks (n bytes, padded to whole int32s), then as int32 the
    # number of corners and their codes, right-aligned
    pad, width = -(-n // 4), -(-n // 4) + 1 + most
    store = np.zeros((start[n], 4 * width), np.int8)
    store[0, :n] = np.arange(n, 0, -1)  # lam = (n) of the empty partition, level 0's tail
    hook_column, corner_column = np.arange(n, dtype=np.int8), np.arange(most + 1)
    offs, slot = off.tolist(), shift.tolist()
    for lo in range(0, offs[n], _TABLE_CHUNK):
        # the batch's entries lo..hi - 1 meet levels ka..kb - 1, from edge to edge
        hi = min(lo + _TABLE_CHUNK, offs[n])
        ka, kb = bisect.bisect_right(offs, lo) - 1, bisect.bisect_left(offs, hi)
        edge = [lo, *offs[ka + 1:kb], hi]
        lev = level[ka:kb].repeat(np.diff(edge))
        f, t = first[lo:hi], tail[lo:hi]
        kf = lev * (n + 1) + f
        src = t - shift[lev - f]
        # A gathered row holds tau's lam's row 0, (n - k + f) - j + tau'_j, in
        # front. lam's row 0, (n - k) - j + e'_j, is that plus fix = [j < f] - f.
        # e's row 0 lies where tau's lam's row 0 holds f - j (tau'_j = 0 there,
        # as tau_1 <= f <= n - k) and takes tau'_j more: lam's row 0 plus
        # lead = j - (n - k) - [j < f].
        box = (hook_column < f[:, None]).view(np.int8)
        fix = box - f[:, None]
        lead = hook_column[:n // 2] + (lev - n).astype(np.int8)[:, None] - box[:, :n // 2]
        grows = f > first[t]  # e's row 0 is a corner
        add = plan[kf]
        add[:, 0] = grows
        grow = grows.nonzero()[0]
        grow_code = t[grow] * _CODE + front[kf[grow]]
        gptr = np.searchsorted(grow, np.array(edge) - lo).tolist()
        # flat int32 positions of a growing row's number of corners and list end
        grow_count, grow_end = grow * width + pad, (grow + 1) * width
        rows = np.empty((hi - lo, 4 * width), np.int8)
        flat = rows.view(np.int32).reshape(-1)
        hooks, c = rows[:, :n], flat.reshape(hi - lo, width)[:, pad:]
        for i, k in enumerate(range(ka, kb)):
            a, b, w = edge[i] - lo, edge[i + 1] - lo, min(k, n - k)
            store.take(src[a:b], 0, rows[a:b], "clip")  # "raise" would buffer the output
            h = hooks[a:b]
            h[:, :n - k] += fix[a:b, :n - k]
            h[:, n - k:n - k + w] += h[:, :w] + lead[a:b, :w]
            c[a:b] += add[a:b]
            gs = slice(gptr[i], gptr[i + 1])
            flat[grow_end[gs] - flat[grow_count[gs]]] = grow_code[gs]  # in front of tau's
            # store the level's last kept[k] entries
            x = max(edge[i], offs[k + 1] - kept[k])
            store[x - slot[k]:edge[i + 1] - slot[k]] = rows[x - lo:b]
        # lam = (n - k, e): e's corners one row lower, after row 0 if n - k > f,
        # whose sbar index is 2n - 2 - k
        top = f < n - lev
        lam = np.empty((hi - lo, most + 1), np.int32)
        lam[:, 1:] = c[:, 1:] - 1
        r = top.nonzero()[0]
        lam.reshape(-1)[r * (most + 1) + most - c[r, 0]] = (r + lo) * _CODE + 2 * n - 2 - lev[r]
        count = c[:, 0] + top
        lift, sbar = np.divmod(lam[corner_column >= most + 1 - count[:, None]], _CODE)
        yield lo, hooks, count, lift, sbar


def _content_sums(n):
    """Content sum (from 0) and lam'_1 of every partition of n in table order,
    by one walk over the levels of _source(n). Entry e = (f, tau) of level k
    has content sum C(f, 2) + cs(tau) - |tau| and one part more than tau, and
    lam = (n - k, e) adds C(n - k, 2) - k and one part more than e."""
    first, tail, off = _source(n)
    rise = np.arange(n + 1) * np.arange(1, n + 2) // 2  # C(f, 2) + f
    sums, lam1_t = np.zeros(off[n], np.int32), np.ones(off[n], np.int32)
    for k in range(1, n):
        level, t = slice(off[k], off[k + 1]), tail[off[k]:off[k + 1]]
        sums[level] = rise.take(first[level]) - k + sums.take(t)
        lam1_t[level] = lam1_t.take(t) + 1
    k = np.arange(n)
    sums += np.repeat((n - k) * (n - k - 1) // 2 - k + n * (n - 1) // 2, np.diff(off))
    return sums, lam1_t


def _ahead(batches):
    """Yield the items of the iterator batches in order, made on one worker
    thread at most two items ahead of the caller. The worker ends before
    this generator does: its exception re-raises here, and when the caller
    stops early (an exception at the yield, or close()), the caller drains
    the queue until the worker, which checks after each put, has stopped."""
    out, stop = queue.Queue(2), threading.Event()

    def work():
        end = None
        try:
            for item in batches:
                out.put((True, item))
                if stop.is_set():
                    break
        except BaseException as exc:  # re-raised on the caller's thread
            end = exc
        out.put((False, end))

    # joined below; daemon so that an interrupt during the drain cannot hold up exit
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    more = True
    try:
        while True:
            more, item = out.get()
            if not more:
                break
            yield item
    finally:
        stop.set()
        while more:
            more, _ = out.get()
        worker.join()
    if item is not None:
        raise item


@lru_cache(maxsize=1)
def _spectral_table(n):
    """The spectral table of n, in read-only columns: per partition of n, in
    table order, lam_1, lam'_1, log d and s (sign and log); sbar = (p - i)/n
    by index (sbar_*) and s by content sum (sum_*); and, ascending, so the
    trivial block's come last, the log sum of d^2 per partition key (content
    sum, min(n - lam_1, n // 2)) (pkey_*) and of d d_corner per corner key
    (content sum, j, sbar index), j = min(n - lam_1, n - lam'_1, n // 2)
    (key_*). The (content sum, j) cells in use are numbered first, so each
    batch of _partition_rows adds its corners' d d_corner / n! to their keys
    by np.add.at in table order (the same bits in any batching). Each mu of
    n - 1 is lam - e_1 for one lam with lam_1 > lam_2: its log d, from lam's
    hooks less one in row 1, is stored at lam's index, and each corner reads
    it at its lift lam - e_i + e_1, never a later partition. With more than
    one batch, the level recursion runs on a worker thread (_ahead), up to
    two batches ahead of the log d and key sums here; it reads only the
    cached _source(n) and count_table(n). Only the latest n is kept: callers
    evaluate one n at several times."""
    first, _, off = _source(n)
    count_table(n)  # cached here, so the worker only reads it
    lam1 = np.repeat(np.arange(n, 0, -1, dtype=np.int32), np.diff(off))
    sums, lam1_t = _content_sums(n)
    log_fact, log_red, cn2 = math.lgamma(n + 1), math.lgamma(n), n * (n - 1) // 2
    width, span = 2 * n - 1, n // 2 + 1
    jp = np.minimum(n - lam1, span - 1)
    pcell = sums * span + jp  # over every content sum and every j
    pair = pcell - jp + np.minimum(jp, n - lam1_t)  # the cell of lam's corner keys
    used = np.zeros((2 * cn2 + 1) * span, bool)
    used[pair] = True
    pair = (np.cumsum(used, dtype=np.int32) - 1)[pair]  # its compact id
    cw = np.zeros(np.count_nonzero(used) * width)
    logd, logd_mu = np.empty(off[n]), np.empty(off[n])  # log d(lam - e_1) at lam
    batches = _partition_rows(n)
    if off[n] > _TABLE_CHUNK:  # the next batch is made while this one is summed
        batches = _ahead(batches)
    with closing(batches):
        for lo, hooks, counts, lift, sbar_idx in batches:
            hi = lo + len(hooks)
            # log d of each lam, and of lam - e_1 where lam_1 > lam_2: row 1 less
            # one before its corner
            top = np.flatnonzero(lam1[lo:hi] > first[lo:hi])
            boxes = np.empty((n, len(hooks) + len(top)), np.int8)
            boxes[:, :len(hooks)] = hooks.T
            boxes[:, len(hooks):] = hooks[top].T
            boxes[:, len(hooks):] -= np.arange(n)[:, None] + 1 < lam1[lo:hi][top]
            logs = np.repeat([log_fact, log_red], [len(hooks), len(top)])
            for box in boxes:  # in a scalar walk's box order
                logs -= _LOG_INT.take(box)
            logd[lo:hi], logd_mu[top + lo] = logs[:len(hooks)], logs[len(hooks):]
            weight = np.exp(np.repeat(logd[lo:hi], counts) + logd_mu[lift] - log_fact)
            np.add.at(cw, np.repeat(pair[lo:hi], counts) * width + sbar_idx, weight)
    pw = np.zeros(len(used))
    np.add.at(pw, pcell, np.exp(2.0 * logd - log_fact))
    pk, ck = np.flatnonzero(pw), np.flatnonzero(cw)
    cell = np.flatnonzero(used)[ck // width]
    # s of every content sum in [-cn2, cn2], the one float expression per value;
    # s = 0 exactly where 2 * content = -n, which that expression leaves as a residue
    content = np.arange(-cn2, cn2 + 1)
    s_of_num = 1.0 / n + (n - 1) / n * (content * (1 / cn2))
    s_of_num[2 * content == -n] = 0.0
    sign_of_num, log_of_num = _signs_and_logs(s_of_num.tolist())
    sbar = _signs_and_logs([v / n for v in range(2 - n, n + 1)])
    table = _SpectralTable(
        lam1, lam1_t, logd, sign_of_num[sums], log_of_num[sums], *sbar,
        sign_of_num, log_of_num,
        *divmod(pk, span), np.log(pw[pk]) + log_fact,
        *divmod(cell, span), ck % width, np.log(cw[ck]) + log_fact,
    )
    for column in table:
        column.flags.writeable = False
    return table


def _check_bound_n(n):
    return check_n(n, 2, PARTITION_CAP, "spectral sums")  # the table reads every partition of n


def _check_truncation(n, truncation_m):
    truncation_m = operator.index(truncation_m)  # a float or a string raises TypeError
    if not 1 <= truncation_m <= n // 2:
        raise ValueError(f"truncation rank must be in [1, {n // 2}]")
    return truncation_m


def _comparison_sums(n, t, t_star, truncation_m):
    """Every comparison sum at times (t, t*), evaluated over the table's keys.

    Returns (log S, terms), where S = sum over partitions and corners of
    d * d_corner * (s^t - sbar^t*)^2 and terms are the four error terms of
    bound_decomposition, split at lam_1 = n - truncation_m. A corner enters
    only through s, sbar and d * d_corner, so each sum runs over the corner
    keys (content sum, j, sbar), weighted by their sums of d * d_corner, and
    term1 over the partition keys; inner corners are those with j >= M.

    t and t_star are integers or integer arrays that broadcast together, and
    the keys lie on a last axis: log S and each term are floats, or arrays of
    the broadcast shape whose entries equal the scalar calls' floats.
    """
    t, t_star = np.broadcast_arrays(t, t_star)
    tab = _spectral_table(n)
    ssign, slog = _signed_pow(tab.sum_sign, tab.sum_log, t)
    bsign, blog = _signed_pow(tab.sbar_sign, tab.sbar_log, t_star)
    high = tab.pkey_j >= truncation_m
    log1 = _log_sum(tab.pkey_logw[high] + 2.0 * slog.take(tab.pkey_sum[high], -1))
    inner = tab.key_j >= truncation_m
    weight, ksum, ksbar = tab.key_logw, tab.key_sum, tab.key_sbar
    log2 = _log_sum(weight[inner] + 2.0 * blog.take(ksbar[inner], -1))
    log3 = _log_sum(weight[inner] + slog.take(ksum[inner], -1) + blog.take(ksbar[inner], -1))
    dsign, dlog = _signed_diff(
        ssign.take(ksum, -1), slog.take(ksum, -1), bsign.take(ksbar, -1), blog.take(ksbar, -1)
    )
    terms = weight + 2.0 * dlog
    kept = dsign != 0
    # term4 sums the lam_1 > n - M and the lam'_1 > n - M sides; as M <= n/2 and
    # lam_1 + lam'_1 <= n + 1, no partition lies on both
    log4 = _log_sum(terms, kept & ~inner)
    parts = tuple(_float_if_0d(np.exp(v)) for v in (log1, log2, log3, log4))
    return _float_if_0d(_log_sum(terms, kept)), parts


def comparison_bound(n, c, truncation_m=None):
    """Evaluate the spectral comparison bound at the matched cutoff times.

    total = (1/2) sqrt(sum over partitions and corners of
    d * d_corner * (s^t - sbar^t*)^2), accumulated in log space; parts are
    bound_decomposition(n, c, truncation_m), from the same evaluation.
    """
    n = _check_bound_n(n)
    t, t_star = cutoff_times(n, c)
    if truncation_m is None:
        truncation_m = min(5, n // 2)
    truncation_m = _check_truncation(n, truncation_m)
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
    return comparison_bound(n, c, truncation_m).parts


def l2_bound(chain, n, t):
    """Classic l2 distance-to-uniform bound: (1/2) sqrt(sum mult |eig|^(2t))."""
    n = _check_bound_n(n)
    t = _check_time(t)  # 2 * t may leave int64: the log is doubled below
    if chain not in ("rt", "star"):
        raise ValueError(f"unknown chain {chain!r}")
    tab = _spectral_table(n)
    if chain == "rt":
        log_terms = tab.pkey_logw + 2.0 * _signed_pow(tab.sum_sign, tab.sum_log, t)[1][tab.pkey_sum]
    else:
        log_terms = tab.key_logw + 2.0 * _signed_pow(tab.sbar_sign, tab.sbar_log, t)[1][tab.key_sbar]
    # the trivial block (n,) is alone in the last key of each kind
    return 0.5 * math.exp(0.5 * _log_sum(log_terms[:-1]))
