"""The timed section of each workload, run inside a fresh interpreter.

Every library call goes through Pass.call, which records a span when the pass
is traced. Results are turned into plain JSON values here; checking them is
left to the parent process (run.py), outside the timed section.

At the start, after the first operation, after any operation that ends at
least SYNC_GAP_S after the last pause, and at the end, a pass run by child.py
pauses: it writes hostspeed.SYNC on stdout and waits for a line on stdin,
while the parent times its reference work (hostspeed.py). The timed clock
stops during a pause.
"""

import contextlib
import io
import sys
import time

import numpy as np

import hostspeed
from shuffle_spectra import cli, exact_chain, partitions, profiles, spectra


SYNC_GAP_S = 2.5  # timed seconds between pauses; each pause takes about a second


class _FirstResult(Exception):
    """Ends a first-result probe once its first operation is recorded."""


class Pass:
    """Runs operations in order, timing each one against the pass start."""

    def __init__(self, traced, first_only=False, pause=None):
        self.traced = traced
        self.first_only = first_only
        self.pause = pause  # called at each sync point; None runs without pauses
        self.ops = []
        self.spans = []  # [name, op index, start, end], seconds of timed clock
        self.syncs = []  # timed clock at each pause
        self.matrices = []  # (op index, chain, n, matrix), checked after timing
        self._failed_call = None
        self._paused = 0.0
        self._ops_at_sync = -1
        self.t0 = time.perf_counter()

    def clock(self):
        """Seconds since the pass started, pauses excluded."""
        return time.perf_counter() - self.t0 - self._paused

    def sync(self):
        """Stop the clock while the parent times its reference work, unless
        no operation has ended since the last pause."""
        if self.pause is None or self._ops_at_sync == len(self.ops):
            return
        self._ops_at_sync = len(self.ops)
        self.syncs.append(self.clock())
        start = time.perf_counter()
        self.pause()
        self._paused += time.perf_counter() - start

    def call(self, name, fn, *args):
        start = self.clock()
        try:
            return fn(*args)
        except Exception:
            self._failed_call = self._failed_call or name
            raise
        finally:
            if self.traced:
                self.spans.append([name, len(self.ops), start, self.clock()])

    def op(self, kind, key, fn, *args):
        """One checked operation; an exception from fn is recorded, not raised."""
        self._failed_call = None
        start = self.clock()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = self.clock()
        self.ops.append({
            "kind": kind, "key": key, "start": start, "end": end,
            "result": result, "error": error, "error_call": self._failed_call,
        })
        if len(self.ops) == 1 or (self.syncs and end - self.syncs[-1] >= SYNC_GAP_S):
            self.sync()
        if self.first_only:
            raise _FirstResult

    def keep(self, chain, n, matrix):
        self.matrices.append((len(self.ops), chain, n, matrix))


def _report(rep):
    return {"n": rep.n, "t": rep.t, "t_star": rep.t_star, "total": rep.total,
            "parts": list(rep.parts), "m": rep.truncation_m}


def _bound(p, n, c):
    return _report(p.call("profiles.comparison_bound", profiles.comparison_bound, n, c))


def _decompose(p, n, c, m):
    return list(p.call("profiles.bound_decomposition", profiles.bound_decomposition, n, c, m))


def bound_grid(p, inp):
    for c in inp["cs"]:
        p.op("bound", {"n": inp["n"], "c": c}, _bound, p, inp["n"], c)


def bound_ladder(p, inp):
    for step in inp["steps"]:
        n, c = step["n"], step["c"]
        p.op("bound", {"n": n, "c": c}, _bound, p, n, c)
        p.op("decompose", {"n": n, "c": c, "M": step["M"]}, _decompose, p, n, c, step["M"])
        for chain, t in (("rt", step["t"]), ("star", step["t_star"])):
            p.op("l2", {"chain": chain, "n": n, "t": t},
                 p.call, "profiles.l2_bound", profiles.l2_bound, chain, n, t)


def _tv_after(p, matrix, start, t):
    d = p.call("exact_chain.evolve", exact_chain.evolve, matrix, start, t)
    return float(p.call("exact_chain.tv", exact_chain.tv_to_uniform, d))


def _compare(p, n, c, mats):
    """The `compare` subcommand's path: bound, both matrices, evolve, TV."""
    rep = _bound(p, n, c)
    for chain in ("star", "rt"):
        mats[chain] = p.call("exact_chain.build_matrix", exact_chain.build_matrix, chain, n)
        p.keep(chain, n, mats[chain])
    return {"bound": rep, "tv_star": _tv_after(p, mats["star"], 0, rep["t_star"]),
            "tv_rt": _tv_after(p, mats["rt"], 0, rep["t"])}


def _curve_point(p, mats, chain, start, t):
    return _tv_after(p, mats[chain], start, t)


def _eig(p, chain, n):
    m = p.call("exact_chain.build_matrix", exact_chain.build_matrix, chain, n)
    p.keep(chain, n, m)
    w = p.call("exact_chain.numeric_eig_multiset", exact_chain.numeric_eig_multiset, m)
    rows = p.call("spectra.spectrum_rows", spectra.spectrum_rows, chain, n)
    return {"numeric": np.asarray(w).tolist(), "rows": [[str(e), int(k)] for _, e, k in rows]}


def _trace(p, chain, n):
    tr = p.call("spectra.spectrum_trace", spectra.spectrum_trace, chain, n)
    tm = p.call("spectra.total_multiplicity", spectra.total_multiplicity, chain, n)
    return {"trace": str(tr), "total_multiplicity": int(tm)}


def _lemma(p, n, t, t_star):
    lhs, rhs = p.call("exact_chain.lemma_l2_check", exact_chain.lemma_l2_check, n, t, t_star)
    return [float(lhs), float(rhs)]


def _verify(p, n):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = p.call("cli.run", cli.run, ["verify", "--n", str(n)])
    return {"rc": rc, "stdout": buf.getvalue()}


def exact_small(p, inp):
    mats = {}
    cmp = inp["compare"]
    p.op("compare", {"n": cmp["n"], "c": cmp["c"]}, _compare, p, cmp["n"], cmp["c"], mats)
    for chain, done in (("star", cmp["t_star"]), ("rt", cmp["t"])):
        for t in range(inp["curve_t_max"][chain] + 1):
            if t != done:
                p.op("curve", {"chain": chain, "n": cmp["n"], "t": t},
                     _curve_point, p, mats, chain, inp["start_rank"], t)
    n = inp["commutation_n"]
    p.op("commutation", {"n": n}, p.call, "exact_chain.commutation_check",
         exact_chain.commutation_check, n)
    for n in inp["eig_ns"]:
        for chain in ("rt", "star"):
            p.op("eig", {"chain": chain, "n": n}, _eig, p, chain, n)
    for chain in ("rt", "star"):
        p.op("trace", {"chain": chain, "n": inp["trace_n"]}, _trace, p, chain, inp["trace_n"])
    n = inp["lemma_n"]
    for t, t_star in inp["lemma_times"]:
        p.op("lemma", {"n": n, "t": t, "t_star": t_star}, _lemma, p, n, t, t_star)
    for n in inp["verify_ns"]:
        p.op("verify", {"n": n}, _verify, p, n)


BODIES = {"bound-grid": bound_grid, "bound-ladder": bound_ladder, "exact-small": exact_small}


def _probe(p, n):
    lams = p.call("partitions.enumerate_partitions", partitions.enumerate_partitions, n)
    return {"count": len(lams), "first": list(lams[0]), "last": list(lams[-1])}


def _matrix_facts(op_index, chain, n, m):
    rows = np.asarray(m.mat.sum(axis=1)).ravel()
    return {"op": op_index, "chain": chain, "n": n, "scale": int(m.scale),
            "nnz": int(m.mat.nnz), "row_min": int(rows.min()), "row_max": int(rows.max()),
            "symmetric": bool((m.mat != m.mat.T).nnz == 0)}


def pause_for_parent():
    """Hand over to the parent until it writes a line; exit if it has gone."""
    print(hostspeed.SYNC, flush=True)
    if not sys.stdin.readline():
        sys.exit(3)


def run(workload, inputs, traced, first_only=False, pause=None):
    """Time one pass; a traced pass then probes partition enumeration per n.

    With first_only the pass stops after its first operation. pause, if
    given, is called at every sync point (pause_for_parent in a child).
    """
    p = Pass(traced, first_only, pause)
    p.sync()
    try:
        BODIES[workload](p, inputs)
    except _FirstResult:
        pass
    run_s = p.clock()
    p.sync()
    if traced:
        p.pause = None  # the partition probes come after the timed section
        for n in inputs["probe_ns"]:
            p.op("probe", {"n": n}, _probe, p, n)
    return {"run_s": run_s, "ops": p.ops, "spans": p.spans, "syncs": p.syncs,
            "matrices": [_matrix_facts(*m) for m in p.matrices]}
