"""The comparison sums and l2 bounds evaluated corner by corner, the tests'
oracle for the library's evaluation over grouped keys, and the per-corner
columns they run over, which the library never holds whole."""

import math
from collections import namedtuple

import numpy as np

from shuffle_spectra import profiles
from shuffle_spectra.partitions import _source
from shuffle_spectra.profiles import _log_sum, _signed_diff, _signed_pow

Corners = namedtuple("Corners", "parent logd_red sbar_idx")


def corner_columns(n):
    """Per corner of every partition of n, in table order: the partition's
    index, log d_corner and the sbar index. Lifts and sbar indices come from
    the level recursion (profiles._partition_rows); log d_corner from the
    uncached table of n - 1. lam - e_i is mu = lift - e_1, and lam -> lam - e_1
    keeps reverse-lex order, so mu's index is the lift's rank among the lam
    with lam_1 > lam_2."""
    counts, lifts, sbar_idx = [], [], []
    for _, _, count, lift, sbar in profiles._partition_rows(n):
        counts.append(count)
        lifts.append(lift)
        sbar_idx.append(sbar)
    first, _, off = _source(n)
    lam1 = np.repeat(np.arange(n, 0, -1), np.diff(off))
    rank = np.cumsum(lam1 > first) - 1
    # the one partition of 1 has d = 1, and the table starts at n = 2
    logd_mu = np.zeros(1) if n == 2 else profiles._spectral_table.__wrapped__(n - 1).logd
    parent = np.repeat(np.arange(off[n]), np.concatenate(counts))
    return Corners(parent, logd_mu[rank[np.concatenate(lifts)]], np.concatenate(sbar_idx))


def corner_sums(tab, corners, n, t, t_star, truncation_m):
    """(log S, four error terms) with one term per partition or corner."""
    cut = n - truncation_m
    parent = corners.parent
    ssign, slog = _signed_pow(tab.s_sign, tab.s_log, t)
    bsign, blog = _signed_pow(tab.sbar_sign, tab.sbar_log, t_star)
    bsign, blog = bsign[corners.sbar_idx], blog[corners.sbar_idx]
    low = tab.lam1 <= cut
    high_t = tab.lam1_t > cut
    log1 = _log_sum(2.0 * tab.logd[low] + 2.0 * slog[low])
    inner = (low & ~high_t)[parent]
    owner = parent[inner]
    log2 = _log_sum(tab.logd[owner] + corners.logd_red[inner] + 2.0 * blog[inner])
    log3 = _log_sum(tab.logd[owner] + slog[owner] + corners.logd_red[inner] + blog[inner])
    dsign, dlog = _signed_diff(ssign[parent], slog[parent], bsign, blog)
    terms = tab.logd[parent] + corners.logd_red + 2.0 * dlog
    kept = dsign != 0
    log4 = _log_sum(terms[kept & (~low | high_t)[parent]])
    parts = tuple(math.exp(v) for v in (log1, log2, log3, log4))
    return _log_sum(terms[kept]), parts


def corner_l2(tab, corners, chain, t):
    """(1/2) sqrt of the sum over non-trivial blocks of mult * |eig|^(2t)."""
    if chain == "rt":
        log_terms = 2.0 * tab.logd + _signed_pow(tab.s_sign, tab.s_log, 2 * t)[1]
    else:
        blog = _signed_pow(tab.sbar_sign, tab.sbar_log, 2 * t)[1][corners.sbar_idx]
        log_terms = tab.logd[corners.parent] + corners.logd_red + blog
    # the trivial block (n,) comes first and has a single corner
    return 0.5 * math.exp(0.5 * _log_sum(log_terms[1:]))
