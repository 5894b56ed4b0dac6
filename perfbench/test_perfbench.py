"""Tests of the benchmark itself: its inputs, its checks and its output contract.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import oracles
import passes
import run
import workloads

HERE = Path(__file__).resolve().parent


def _mini_ladder():
    steps = []
    for n, c, m in ((12, 0.25, 2), (9, -1.5, 1)):
        t, t_star = oracles.cutoff_times(n, c)
        steps.append({"n": n, "c": c, "M": m, "t": t, "t_star": t_star})
    return {"steps": steps, "probe_ns": [12, 9]}


def _check(result):
    return workloads.check_pass(workloads.Oracle(), result)


@pytest.fixture(scope="module")
def ladder_pass():
    return passes.run("bound-ladder", _mini_ladder(), traced=True)


def test_real_pass_checks_clean(ladder_pass):
    problems = _check(ladder_pass)
    assert len(problems) == len(ladder_pass["ops"]) == 10
    assert not any(problems)


def test_first_result_probe_stops_after_one_operation():
    probe = passes.run("bound-ladder", _mini_ladder(), traced=False, first_only=True)
    assert [op["kind"] for op in probe["ops"]] == ["bound"]
    assert _check(probe) == [[]]


def test_corrupted_bound_total_is_a_failure(ladder_pass):
    bad = json.loads(json.dumps(ladder_pass))
    bad["ops"][0]["result"]["total"] *= 1.0 + 1e-7
    problems = _check(bad)
    assert [lay for lay, _ in problems[0]] == ["profiles"]
    assert not any(problems[1:])


def test_raised_operation_is_a_failure(ladder_pass):
    bad = json.loads(json.dumps(ladder_pass))
    bad["ops"][2].update(result=None, error="OverflowError: x",
                         error_call="profiles.l2_bound")
    assert _check(bad)[2] == [("profiles", "OverflowError: x")]


def test_wrong_eigenvalue_count_is_a_failure():
    p = passes.Pass(traced=False)
    p.op("eig", {"chain": "star", "n": 4}, passes._eig, p, "star", 4)
    result = {"ops": p.ops, "matrices": [passes._matrix_facts(*m) for m in p.matrices]}
    assert _check(result) == [[]]
    result["ops"][0]["result"]["numeric"].pop()
    assert [lay for lay, _ in _check(result)[0]] == ["exact_chain"]


def test_rising_tv_curve_is_a_failure():
    ops = [{"kind": "curve", "key": {"chain": "rt", "n": 8, "t": t}, "result": tv,
            "error": None, "error_call": None} for t, tv in ((0, 0.9), (1, 0.8), (2, 0.85))]
    problems = _check({"ops": ops, "matrices": []})
    assert [bool(p) for p in problems] == [False, False, True]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def _seeded(inputs):
    """The values the seed is allowed to move."""
    if "cs" in inputs:
        return inputs["cs"]
    if "steps" in inputs:
        return [(s["c"], s["M"], s["t"], s["t_star"]) for s in inputs["steps"]]
    return [inputs["compare"], inputs["start_rank"], inputs["lemma_times"]]


def _fixed(inputs):
    """Everything else: deck sizes, grid lengths and the operations run."""
    if "cs" in inputs:
        return inputs["n"], len(inputs["cs"]), inputs["probe_ns"]
    if "steps" in inputs:
        return [s["n"] for s in inputs["steps"]], inputs["probe_ns"]
    rest = {k: v for k, v in inputs.items()
            if k not in ("compare", "start_rank", "lemma_times")}
    return rest, inputs["compare"]["n"], len(inputs["lemma_times"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_moves_inputs_not_work(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    assert _seeded(a) != _seeded(b)
    assert _fixed(a) == _fixed(b)
    assert workloads.work_counts(workload, a) == workloads.work_counts(workload, b)


def test_exact_small_counts():
    counts = workloads.work_counts("exact-small", workloads.make_inputs("exact-small", 3))
    fact = math.factorial(8)
    assert counts["exact_chain.evolve"] == {
        "calls": 81 + 41, "state_steps": fact * (80 * 81 // 2 + 40 * 41 // 2)}
    assert counts["exact_chain.build_matrix"]["nnz"] == fact * (8 + 29) + sum(
        math.factorial(n) * (n + 1 + n * (n - 1) // 2) for n in (3, 4, 5))


def test_oracle_matches_known_values():
    tab = oracles.SpectralTable(5)
    assert sum(tab.exact_spectrum("rt").values()) == 120
    assert sum(tab.exact_spectrum("star").values()) == 120
    assert oracles.partition_count(10) == 42
    assert oracles.cutoff_times(100, 0.0) == (231, 461)


def test_reference_scale_turns_raw_seconds_into_reference_seconds():
    assert hostspeed.scale([hostspeed.REF_S] * 3) == pytest.approx(1.0)
    # a host running the reference at half speed halves every reported time
    assert hostspeed.scale([2 * hostspeed.REF_S, 2 * hostspeed.REF_S]) == pytest.approx(0.5)
    assert hostspeed.reference_work(12) == hostspeed.reference_work(12)
    assert len(hostspeed.measure(2)) == 2 and min(hostspeed.measure(1)) > 0.0


def test_pauses_stop_the_clock():
    pauses = []
    res = passes.run("bound-ladder", _mini_ladder(), traced=False,
                     pause=lambda: (pauses.append(1), time.sleep(0.2)))
    # at the start, after the first operation, and at the end
    assert len(res["syncs"]) == len(pauses) == 3
    assert res["syncs"][0] < 0.01
    assert res["run_s"] - res["ops"][-1]["end"] < 0.05
    assert res["run_s"] < 0.2 + sum(op["end"] - op["start"] for op in res["ops"])


def test_layer_times_follow_the_scale(ladder_pass):
    counts = workloads.work_counts("bound-ladder", _mini_ladder())
    args = (ladder_pass, _check(ladder_pass), counts, workloads.Oracle())
    one, half = run.layer_metrics(*args, 1.0), run.layer_metrics(*args, 0.5)
    name = "profiles.comparison_bound.busy_s"
    assert half[name][0] == pytest.approx(one[name][0] / 2)
    assert half["profiles.comparison_bound.calls"] == one["profiles.comparison_bound.calls"]


def test_metric_names_match_benchmark_json(ladder_pass):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = workloads.work_counts("bound-ladder", _mini_ladder())
    layer = run.layer_metrics(ladder_pass, _check(ladder_pass), counts, workloads.Oracle(), 1.0)
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "first_result_s", "run_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bound-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
