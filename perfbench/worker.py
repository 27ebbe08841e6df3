"""One fresh interpreter that sets up a workload and runs its ops.

    python3 perfbench/worker.py WORKLOAD WORKDIR --seconds S [--trace] [--setup-only]

Prints ``ready`` once set-up is done, so the parent can time set-up from
the moment it started the process. Then it runs ops in a closed loop until
their summed wall time reaches S seconds and every input has been used at
least once, checks each output outside the timed region, and writes a JSON
summary (and, traced, the spans) into WORKDIR. Run with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "cli-cold":
        import contextprob.cli  # noqa: F401  the whole set-up of a CLI call

        print("ready", flush=True)
        return 0

    rec = None
    if args.trace:
        import spans  # only traced runs load the tracer

        rec = spans.Recorder()
    with rec.span("import.contextprob") if rec else nullcontext():
        import ops
    if rec:
        spans.install(rec)
    manifest = json.loads((args.workdir / "manifest.json").read_text(encoding="utf-8"))
    with rec.span("setup") if rec else nullcontext():
        workload = ops.WORKLOADS[args.workload](manifest, args.workdir, rec)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    latencies: list[float] = []
    failures: list[list] = []
    busy = 0.0
    i = 0
    while busy < args.seconds or i < workload.inputs:
        if rec:
            rec.op = i
            sid = rec.open("bench.op")
        start = time.perf_counter()
        try:
            out = workload.run(i)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if rec:
            rec.close(sid)
            rec.op = -1
        if error is None:
            error = workload.check(i, out)
        if error is not None:
            near = workload.near_facet(i) if hasattr(workload, "near_facet") else False
            failures.append([i, error, near])
        latencies.append(elapsed)
        busy += elapsed
        i += 1

    summary = {
        "latencies": latencies,
        "failures": failures,
        "inputs": workload.inputs,
        "stats": workload.stats() if hasattr(workload, "stats") else {},
    }
    tag = "traced" if rec else "plain"
    (args.workdir / f"result-{tag}.json").write_text(json.dumps(summary), encoding="utf-8")
    if rec:
        spans.dump(args.workdir / "spans.json.gz", rec.spans())
    return 0


if __name__ == "__main__":
    sys.exit(main())
