"""Benchmark of shuffle-spectra: one seeded workload, timed end to end.

    python3 perfbench/run.py --workload bound-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Every pass runs in a fresh
interpreter (child.py) with PYTHONPATH=src, so library caches start cold as
they do for a command-line user. A run makes full passes of the workload
while another fits in --seconds (at least one); first-result probes, passes
that stop after the first operation, then fill the rest. Figures are medians
over the passes. Outputs are checked against oracles.py afterwards, outside
any timing.

Every time is reported in seconds at reference speed (hostspeed.py): each
pass pauses between operations while this process times a fixed piece of
work, and the run's raw times are scaled by REF_S over the mean of those
reference times, so that the drift of a shared host cancels out. Raw medians
are echoed too.

--trace 0 reports the end-to-end metrics; --trace 1 makes one untraced and
one traced full pass and reports the per-layer metrics of the traced one. The last
line of stdout is one JSON object; lines before it start with '#' and echo the
inputs, the environment and every metric with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # import-only interpreters, besides one per pass
DEADLINE_S = 165.0  # the whole run, passes and checks included
CHILD_ENV = {
    # one BLAS thread: figures should not depend on how busy the other core is
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MAX_LISTED_FAILURES = 20


class ChildError(RuntimeError):
    pass


def spawn(request, timeout):
    """Run child.py once, timing the reference work at each of its pauses.

    Returns the child's JSON result, with wall_s and refs (the reference times
    taken at each pause) added.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    refs, lines = [], []
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == hostspeed.SYNC:
                refs.append(hostspeed.measure())
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    except BrokenPipeError:
        pass  # the child died at a pause; its exit code tells why
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if expired.is_set():
        raise ChildError(f"pass timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not lines:
        tail = [ln.strip() for ln in lines if ln.strip()][-1:] or ["no output"]
        raise ChildError(f"child exited {proc.returncode}: {tail[0]}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    out["refs"] = refs
    return out


def environment():
    """Versions and hardware, so any figure can be reproduced."""
    import numpy
    import scipy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "child_env": CHILD_ENV}


def first_verified(result, problems):
    """End time of the first operation whose output passed its check."""
    for op, probs in zip(result["ops"], problems):
        if not probs:
            return op["end"]
    return result["run_s"]  # nothing verified: the user waited the whole run


def layer_metrics(result, problems, counts, oracle, scale):
    """Per-layer figures of one traced pass; times are multiplied by scale."""
    spans = [(name, op_index, start * scale, end * scale)
             for name, op_index, start, end in result["spans"]]
    busy, calls = {}, {}
    for name, _, start, end in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for name, counted in workloads.COUNTED.items():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
        if counted:
            count_name, ratio_name = counted
            count = counts.get(name, {}).get(count_name, 0)
            out[f"{name}.{count_name}"] = (count, "count")
            if ratio_name:
                ratio = busy.get(name, 0.0) * 1e9 / count if count else 0.0
                out[f"{name}.{ratio_name}"] = (ratio, "ns")
    first, repeat, seen = 0.0, [], set()
    for name, op_index, start, end in spans:
        if name == "profiles.comparison_bound":
            n = result["ops"][op_index]["key"]["n"]
            if n in seen:
                repeat.append(end - start)
            else:
                seen.add(n)
                first += end - start
    out["profiles.comparison_bound.first_s"] = (first, "s")
    out["profiles.comparison_bound.repeat_s"] = (statistics.median(repeat) if repeat else 0.0, "s")
    errs = [workloads.eig_error(oracle, op) for op, probs in zip(result["ops"], problems)
            if op["kind"] == "eig" and op["error"] is None]
    out["exact_chain.numeric_eig_multiset.max_abs_err"] = (max(errs, default=0.0), "1")
    out["cli.run.stdout_bytes"] = (sum(
        len(op["result"]["stdout"].encode()) for op in result["ops"]
        if op["kind"] == "verify" and op["error"] is None), "B")
    for layer in workloads.LAYERS:
        failed = sum(1 for probs in problems if any(lay == layer for lay, _ in probs))
        out[f"{layer}.failed"] = (failed, "count")
    return out


def spread_note(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    note = f"samples={len(ordered)} median={statistics.median(ordered):.6g} s"
    if len(ordered) < 11:
        return note + "; no percentile has 10 samples beyond it"
    pct = 100.0 * (len(ordered) - 10) / len(ordered)
    return note + f" p{pct:.0f}={ordered[len(ordered) - 11]:.6g} s"


def median_metrics(samples):
    """Per-name median of a list of {name: (value, unit)} dictionaries."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    inputs = workloads.make_inputs(args.workload, args.seed)
    counts = workloads.work_counts(args.workload, inputs)
    print("# inputs " + json.dumps(inputs, sort_keys=True))
    print("# work_counts " + json.dumps(counts, sort_keys=True))
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    oracle = workloads.Oracle()
    oracle.prepare(args.workload, inputs)

    stop = time.monotonic() + args.seconds
    setups = [spawn({"mode": "setup"}, deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    request = {"workload": args.workload, "inputs": inputs}
    passes, crashed = [], []

    def add_pass(mode, traced):
        res = spawn(dict(request, mode=mode, traced=traced), deadline - time.monotonic())
        passes.append(dict(res, traced=traced, full=mode == "pass"))
        return res["wall_s"]

    try:
        if args.trace:
            add_pass("pass", False)
            add_pass("pass", True)
        else:
            # full passes while one fits in --seconds, then first-result probes
            took = add_pass("pass", False)
            while time.monotonic() + took <= stop:
                took = add_pass("pass", False)
            # set-up, the first operation, and the reference work at two pauses
            took = (passes[0]["setup_s"] + passes[0]["ops"][0]["end"]
                    + 2 * sum(passes[0]["refs"][0]))
            while time.monotonic() + took <= stop:
                took = add_pass("first", False)
    except ChildError as exc:
        crashed.append(str(exc))
    attempted = failed = 0
    listed = 0
    for res in passes:
        res["problems"] = workloads.check_pass(oracle, res)
        attempted += len(res["ops"])
        for op, probs in zip(res["ops"], res["problems"]):
            if probs:
                failed += 1
                if listed < MAX_LISTED_FAILURES:
                    listed += 1
                    print(f"# FAIL {op['kind']} {json.dumps(op['key'])}: "
                          + "; ".join(f"{lay}: {why}" for lay, why in probs))
    for why in crashed:
        print(f"# FAIL pass: {why}")
    attempted += len(crashed)
    failed += len(crashed)

    plain = [r for r in passes if r["full"] and not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no complete pass", file=sys.stderr)
        return 1
    refs = [t for res in passes for at_pause in res["refs"] for t in at_pause]
    scale = hostspeed.scale(refs)
    run_s = [r["run_s"] * scale for r in plain]
    if args.trace:
        metrics = median_metrics([layer_metrics(r, r["problems"], counts, oracle, scale)
                                  for r in traced])
        overhead = (statistics.median(r["run_s"] for r in traced) * scale
                    - statistics.median(run_s))
        metrics["trace.overhead_s"] = (overhead, "s")
        write_trace(args, inputs, traced)
    else:
        raw = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + passes),
            "first_result_s": statistics.median(
                first_verified(r, r["problems"]) for r in passes),
            "run_s": statistics.median(r["run_s"] for r in plain),
        }
        print("# raw seconds " + json.dumps(raw, sort_keys=True))
        metrics = {name: (value * scale, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    for i, res in enumerate(passes):
        print(f"# pass {i} {'full' if res['full'] else 'first'}: pauses at "
              f"{json.dumps([round(t, 4) for t in res['syncs']])} s, reference_s "
              f"{json.dumps([[round(t, 4) for t in at] for at in res['refs']])}")
    print(f"# host reference_s mean {statistics.fmean(refs):.6g} over {len(refs)} reference runs; "
          f"times below are raw x {scale:.6g}, seconds at reference speed ({hostspeed.REF_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit}")
    print(f"# metric ops_failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("# run_s " + spread_note(run_s))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, inputs, traced):
    """Spans of every traced pass, written once the run is over."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [{"pass": i, "op": op_index, "name": name, "start": start, "end": end}
             for i, r in enumerate(traced) for name, op_index, start, end in r["spans"]]
    ops = [{"pass": i, "op": k, "kind": op["kind"], "key": op["key"],
            "start": op["start"], "end": op["end"]}
           for i, r in enumerate(traced) for k, op in enumerate(r["ops"])]
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "inputs": inputs,
                   "ops": ops, "spans": spans}, fh)
    print(f"# trace written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shuffle_spectra" / "__init__.py").is_file():
        print(f"error: no shuffle_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
