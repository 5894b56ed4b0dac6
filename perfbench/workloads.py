"""Workload inputs, work counts and output checks, all outside the timed section.

This module never imports shuffle_spectra: inputs come from the seed alone and
every check compares against oracles.py.
"""

import math
import random
from fractions import Fraction

import numpy as np

import oracles

WORKLOADS = ("bound-grid", "bound-ladder", "exact-small")

GRID_N = 48
GRID_LEN = 2  # first call at n = 48 builds the n-1 table; the second reuses it
LADDER_NS = tuple(range(44, 7, -4))  # largest first: its first result is the slow one
CURVE_T_MAX = {"star": 80, "rt": 40}
LEMMA_N = 6
LEMMA_POINTS = 6
LEMMA_TIME_SUM = 36  # t + t_star per point, so the seed never changes the lemma work

# Per traced library function: the work count its time is divided by.
COUNTED = {
    "profiles.comparison_bound": ("terms", "ns_per_term"),
    "profiles.bound_decomposition": ("terms", "ns_per_term"),
    "profiles.l2_bound": ("terms", "ns_per_term"),
    "partitions.enumerate_partitions": ("partitions", "ns_per_partition"),
    "exact_chain.build_matrix": ("nnz", "ns_per_nnz"),
    "exact_chain.evolve": ("state_steps", "ns_per_state_step"),
    "exact_chain.tv": None,
    "exact_chain.numeric_eig_multiset": None,
    "exact_chain.commutation_check": None,
    "exact_chain.lemma_l2_check": None,
    "spectra.spectrum_rows": ("rows", None),
    "spectra.spectrum_trace": ("rows", None),
    "spectra.total_multiplicity": ("rows", None),
    "cli.run": None,
}
LAYERS = ("profiles", "partitions", "exact_chain", "spectra", "cli")
KIND_LAYER = {
    "bound": "profiles", "decompose": "profiles", "l2": "profiles",
    "compare": "exact_chain", "curve": "exact_chain", "commutation": "exact_chain",
    "eig": "exact_chain", "lemma": "exact_chain", "trace": "spectra", "verify": "cli",
    "probe": "partitions",
}


def _c(rng):
    return rng.randrange(-2000, 2001) / 1000.0


def make_inputs(workload, seed):
    """Inputs for one workload; the seed moves c, M, start ranks and times only."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bound-grid":
        cs = [k / 1000.0 for k in rng.sample(range(-2000, 2001), GRID_LEN)]
        return {"n": GRID_N, "cs": cs, "probe_ns": [GRID_N]}
    if workload == "bound-ladder":
        steps = []
        for n in LADDER_NS:
            c = _c(rng)
            t, t_star = oracles.cutoff_times(n, c)
            steps.append({"n": n, "c": c, "M": rng.randint(1, min(5, n // 2)),
                          "t": t, "t_star": t_star})
        return {"steps": steps, "probe_ns": list(LADDER_NS)}
    if workload == "exact-small":
        c = _c(rng)
        t, t_star = oracles.cutoff_times(8, c)
        lemma = []
        for _ in range(LEMMA_POINTS):
            lt = rng.randint(0, LEMMA_TIME_SUM)
            lemma.append([lt, LEMMA_TIME_SUM - lt])
        return {
            # the TV curves skip the compare step's times, so the seed never
            # changes the number of evolve steps
            "compare": {"n": 8, "c": c, "t": t, "t_star": t_star},
            "start_rank": rng.randrange(math.factorial(8)),
            "curve_t_max": dict(CURVE_T_MAX),
            "commutation_n": 7,
            "eig_ns": [3, 4, 5],
            "trace_n": 12,
            "lemma_n": LEMMA_N,
            "lemma_times": lemma,
            "verify_ns": [5, 6],
            "probe_ns": [3, 4, 5, 6, 7, 8, 12],
        }
    raise ValueError(f"unknown workload {workload!r}")


def work_counts(workload, inputs):
    """{function: {"calls": k, <count>: total}} derived from the inputs alone."""
    counts = {}

    def add(name, count=0):
        entry = counts.setdefault(name, {"calls": 0})
        entry["calls"] += 1
        if COUNTED[name]:
            key = COUNTED[name][0]
            entry[key] = entry.get(key, 0) + count

    pairs, p = oracles.pair_count, oracles.partition_count
    if workload == "bound-grid":
        for _ in inputs["cs"]:
            add("profiles.comparison_bound", pairs(inputs["n"]))
    elif workload == "bound-ladder":
        for step in inputs["steps"]:
            add("profiles.comparison_bound", pairs(step["n"]))
            add("profiles.bound_decomposition", pairs(step["n"]))
            add("profiles.l2_bound", pairs(step["n"]))
            add("profiles.l2_bound", pairs(step["n"]))
    else:
        n = inputs["compare"]["n"]
        fact = math.factorial(n)
        add("profiles.comparison_bound", pairs(n))
        for chain in ("star", "rt"):
            add("exact_chain.build_matrix", oracles.nnz(chain, n))
            # the compare step and the curve together visit every t once
            for t in range(inputs["curve_t_max"][chain] + 1):
                add("exact_chain.evolve", t * fact)
                add("exact_chain.tv")
        add("exact_chain.commutation_check")
        for m in inputs["eig_ns"]:
            for chain in ("rt", "star"):
                add("exact_chain.build_matrix", oracles.nnz(chain, m))
                add("exact_chain.numeric_eig_multiset")
                add("spectra.spectrum_rows", p(m) if chain == "rt" else pairs(m))
        m = inputs["trace_n"]
        for chain in ("rt", "star"):
            rows = p(m) if chain == "rt" else pairs(m)
            add("spectra.spectrum_trace", rows)
            add("spectra.total_multiplicity", rows)
        for _ in inputs["lemma_times"]:
            add("exact_chain.lemma_l2_check")
        for _ in inputs["verify_ns"]:
            add("cli.run")
    for m in inputs["probe_ns"]:
        add("partitions.enumerate_partitions", p(m))
    return counts


class Oracle:
    """Reference tables, one per deck size, built once per run."""

    def __init__(self):
        self._tables = {}

    def table(self, n):
        if n not in self._tables:
            self._tables[n] = oracles.SpectralTable(n)
        return self._tables[n]

    def prepare(self, workload, inputs):
        """Build every table the checks need before the passes start, so the
        run's deadline, which limits the passes, already covers this work."""
        if workload == "bound-grid":
            ns = [inputs["n"]]
        elif workload == "bound-ladder":
            ns = [s["n"] for s in inputs["steps"]]
        else:
            ns = [inputs["compare"]["n"], inputs["lemma_n"], *inputs["eig_ns"]]
        for n in ns:
            self.table(n)


def _check_bound(oracle, key, res):
    """Problems with one comparison_bound report, as (layer, reason) pairs."""
    n, c = key["n"], key["c"]
    t, t_star = oracles.cutoff_times(n, c)
    if (res["n"], res["t"], res["t_star"]) != (n, t, t_star):
        return [("profiles", f"times {res['t']},{res['t_star']} != {t},{t_star}")]
    if res["m"] != min(5, n // 2):
        return [("profiles", f"truncation {res['m']}")]
    sq = oracle.table(n).squared_sum(t, t_star)
    ref = 0.5 * math.sqrt(sq)
    if not oracles.rel_close(res["total"], ref):
        return [("profiles", f"total {res['total']!r} != naive {ref!r}")]
    return _check_parts(sq, res["parts"])


def _check_parts(squared_sum, parts):
    if len(parts) != 4 or min(parts) < 0.0:
        return [("profiles", f"bad decomposition {parts}")]
    t1, t2, t3, t4 = parts
    if squared_sum > (t1 + t2 + 2.0 * t3 + t4) * (1.0 + oracles.BOUND_REL_TOL):
        return [("profiles", f"4 total^2 = {squared_sum!r} exceeds decomposition {parts}")]
    return []


def _check_tv(oracle, chain, n, t, tv):
    limit = min(1.0, oracle.table(n).l2(chain, t)) + oracles.TV_TOL
    if not 0.0 <= tv <= limit:
        return [("exact_chain", f"TV {tv!r} of {chain} at t={t} outside [0, {limit!r}]")]
    return []


def _check_eig(oracle, key, res):
    chain, n = key["chain"], key["n"]
    tab = oracle.table(n)
    problems = []
    numeric = np.asarray(res["numeric"], dtype=float)
    ref = tab.sorted_spectrum(chain)
    if numeric.size != ref.size:
        problems.append(("exact_chain", f"{numeric.size} eigenvalues, expected {ref.size}"))
    elif np.abs(np.sort(numeric) - ref).max() > oracles.EIG_TOL:
        problems.append(("exact_chain", "eigenvalues off by more than 1e-8"))
    rows = {}
    for eig, mult in res["rows"]:
        rows[Fraction(eig)] = rows.get(Fraction(eig), 0) + mult
    if rows != tab.exact_spectrum(chain):
        problems.append(("spectra", f"spectrum_rows({chain}, {n}) differs from the oracle"))
    return problems


def eig_error(oracle, op):
    """max |numeric - exact| of an eig operation with the right eigenvalue count."""
    ref = oracle.table(op["key"]["n"]).sorted_spectrum(op["key"]["chain"])
    numeric = np.sort(np.asarray(op["result"]["numeric"], dtype=float))
    return float(np.abs(numeric - ref).max()) if numeric.size == ref.size else math.inf


def _check_verify(res):
    lines = res["stdout"].splitlines()
    if res["rc"] != 0 or not lines or lines[0] != "check;status":
        return [("cli", f"verify exited {res['rc']}")]
    bad = [ln for ln in lines[1:] if ln.split(";")[-1] not in ("pass", "skip")]
    return [("cli", f"verify rows {bad}")] if bad else []


def _check_op(oracle, op):
    key, res, kind = op["key"], op["result"], op["kind"]
    if kind == "bound":
        return _check_bound(oracle, key, res)
    if kind == "decompose":
        t, t_star = oracles.cutoff_times(key["n"], key["c"])
        return _check_parts(oracle.table(key["n"]).squared_sum(t, t_star), res)
    if kind == "l2":
        ref = oracle.table(key["n"]).l2(key["chain"], key["t"])
        ok = oracles.rel_close(res, ref)
        return [] if ok else [("profiles", f"l2 {res!r} != naive {ref!r}")]
    if kind == "compare":
        b = res["bound"]
        return (_check_bound(oracle, key, b)
                + _check_tv(oracle, "star", key["n"], b["t_star"], res["tv_star"])
                + _check_tv(oracle, "rt", key["n"], b["t"], res["tv_rt"]))
    if kind == "curve":
        return _check_tv(oracle, key["chain"], key["n"], key["t"], res)
    if kind == "commutation":
        return [] if res is True else [("exact_chain", f"commutation_check -> {res!r}")]
    if kind == "eig":
        return _check_eig(oracle, key, res)
    if kind == "trace":
        n = key["n"]
        ok = (Fraction(res["trace"]) == math.factorial(n - 1)
              and res["total_multiplicity"] == math.factorial(n))
        return [] if ok else [("spectra", f"trace/multiplicity {res}")]
    if kind == "lemma":
        lhs, rhs = res
        ref = 2.0 * oracle.table(key["n"]).comparison_total(key["t"], key["t_star"])
        if lhs > rhs + oracles.LEMMA_TOL or not oracles.rel_close(rhs, ref):
            return [("exact_chain", f"lemma lhs {lhs!r} rhs {rhs!r} naive {ref!r}")]
        return []
    if kind == "verify":
        return _check_verify(res)
    if kind == "probe":
        n = key["n"]
        ok = (res["count"] == len(oracles.partitions(n)) and res["first"] == [n]
              and res["last"] == [1] * n)
        return [] if ok else [("partitions", f"enumerate_partitions({n}) {res}")]
    raise ValueError(f"unknown operation kind {kind!r}")


def _error_layer(op):
    """The layer of the library call that raised, else the operation's own."""
    if op["error_call"]:
        return op["error_call"].split(".")[0]
    return KIND_LAYER[op["kind"]]


def _tv_points(ops):
    """{chain: [(t, tv, op index)]} from the compare step and the curves."""
    points = {}
    for i, op in enumerate(ops):
        if op["error"] is not None:
            continue
        if op["kind"] == "curve":
            points.setdefault(op["key"]["chain"], []).append((op["key"]["t"], op["result"], i))
        elif op["kind"] == "compare":
            res = op["result"]
            points.setdefault("star", []).append((res["bound"]["t_star"], res["tv_star"], i))
            points.setdefault("rt", []).append((res["bound"]["t"], res["tv_rt"], i))
    return points


def check_pass(oracle, result):
    """Problems per operation of one pass: a list parallel to result["ops"]."""
    ops = result["ops"]
    problems = []
    for op in ops:
        if op["error"] is not None:
            problems.append([(_error_layer(op), op["error"])])
        else:
            problems.append(_check_op(oracle, op))
    for chain, points in _tv_points(ops).items():
        points.sort()
        for (_, prev, _), (t, tv, i) in zip(points, points[1:]):
            if tv > prev + oracles.TV_TOL:
                problems[i].append(("exact_chain", f"{chain} TV rose to {tv!r} at t={t}"))
    for m in result["matrices"]:
        want = oracles.nnz(m["chain"], m["n"])
        ok = (m["symmetric"] and m["nnz"] == want
              and m["row_min"] == m["row_max"] == m["n"] ** m["scale"])
        if not ok:
            problems[m["op"]].append(("exact_chain", f"matrix facts {m}"))
    return problems
