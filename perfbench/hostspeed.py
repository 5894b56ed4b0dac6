"""Host speed reference: a fixed piece of pure-Python work, timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more over tens of seconds to minutes. Raw wall times of runs made
minutes apart therefore spread more than any useful regression bound. So a
pass pauses between operations (passes.py: at the start, after the first
operation, about every SYNC_GAP_S seconds of timed work, and at the end); at
each pause the parent (run.py) times reference_work() REF_REPEATS times back
to back while the pass's clock is stopped. Every time the run measured is then
reported in seconds at reference speed:

    raw seconds * REF_S / (mean reference time over the run)

The pauses spread the reference samples over the time the work runs. One
factor per run, rather than one per stretch between pauses, averages out the
reference's own second-to-second jitter, which a 10-second library call does
not feel.

The reference shares no code with shuffle_spectra, so a change to the library
cannot move it, and it runs in the parent process, whose state does not depend
on the library either. It is shaped like the library's hot loops (partition
walks, conjugates, a dictionary of per-partition values looked up at every
corner, float logs, a numpy log-sum-exp), so it slows when they do. On a
2-core host, over seven minutes of comparison_bound(44, c) calls each
bracketed by reference runs, log call time correlated 0.86 with log reference
time, against 0.81 for a plain partition walk without the table; scaling
40-second medians by the reference cut their spread between quartiles from
0.14 to 0.06 of the median. Raw medians and the mean reference time are
echoed on the '#' lines of every run."""

import gc
import math
import time

import numpy as np

import oracles

REF_N = 36  # 17977 partitions of 36 and 14883 of 35: about 0.3 s on a quiet core
SYNC = "perfbench-sync"  # a child's line asking the parent to time the reference now
REF_S = 0.4  # the nominal reference time; a scaled figure reads as if the reference took this
REF_REPEATS = 2  # back to back at each pause: one short sample is too noisy on its own


def _log_dim(lam, logs, log_fact):
    """Hook-length log dimension of lam."""
    tr = [0] * lam[0]
    for p in lam:
        for j in range(p):
            tr[j] += 1
    acc = log_fact
    for i, p in enumerate(lam):
        for j in range(p):
            acc -= logs[(p - j) + (tr[j] - i) - 1]
    return acc


def reference_work(n=REF_N):
    """Fixed work shaped like a comparison sum: a table of log dimensions at
    n - 1, a walk over the partitions of n with corner lookups into it, and a
    log-sum-exp over the terms."""
    logs = [0.0] + [math.log(k) for k in range(1, 2 * n + 2)]
    table = {lam: _log_dim(lam, logs, math.lgamma(n)) for lam in oracles.partitions(n - 1)}
    terms = []
    for lam in oracles.partitions(n):
        logd = _log_dim(lam, logs, math.lgamma(n + 1))
        k = len(lam)
        for i, p in enumerate(lam):
            if i + 1 == k or lam[i + 1] < p:
                corner = lam[:i] + (p - 1,) + lam[i + 1:] if p > 1 else lam[:i]
                terms.append(logd + table[corner] + (p - i) / n)
    arr = np.asarray(terms)
    top = arr.max()
    return float(top + math.log(np.exp(arr - top).sum()))


def measure(repeats=REF_REPEATS):
    """Seconds each of `repeats` reference_work() calls takes now, with the
    cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def scale(ref_times):
    """Factor that turns raw seconds into seconds at reference speed."""
    return REF_S * len(ref_times) / math.fsum(ref_times)
