"""One pass of a workload in a fresh interpreter, so library caches start cold.

Started by run.py with the request as a JSON argument and PERFBENCH_SPAWNED
set to time.monotonic() just before the spawn; prints one JSON line last.
Set-up time ends when `import shuffle_spectra` returns, so nothing else may be
imported before it. A pass pauses at sync points (passes.py) while the parent
times its reference work.
"""

import os
import sys
import time

import shuffle_spectra  # noqa: F401

READY = time.monotonic()


def main():
    import json
    import resource

    request = json.loads(sys.argv[1])
    out = {"setup_s": READY - float(os.environ["PERFBENCH_SPAWNED"])}
    if request["mode"] in ("pass", "first"):
        import passes

        out.update(passes.run(request["workload"], request["inputs"], request["traced"],
                              first_only=request["mode"] == "first",
                              pause=passes.pause_for_parent))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
