"""contextprob benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, untraced

Run from the root of a checkout; the program is imported from ``src``.
Inputs are generated from the seed into ``.perfbench_work/`` (removed at
exit); traced runs leave their spans in ``.perfbench_out/``. Each workload
is a closed loop with one client. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics untraced and the per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-cold", "realizability-screen", "combine-scale", "semspace-corpus")
SETUP_SAMPLES = 10  # fresh interpreters per run; set-up reports their median
IMPORT_PROBES = 3  # fresh interpreters under -X importtime per traced run
# The tail percentile is clamped into this range. Above p90, the tail of
# sub-millisecond ops on a shared 2-CPU host measured other tenants: over six
# realizability-screen runs the spread (IQR/median) was 2.4% at p90, 7.5% at
# p95 and 12% at p99.
TAIL_PERCENTILES = (50.0, 90.0)
# An untraced in-process run is split over this many fresh workers, one after
# the other. The upper tail of sub-millisecond ops moved with the process:
# consecutive 8 s workers on the same inputs gave p90s of 0.83, 0.92 and
# 0.83 ms on a shared 2-CPU host. Pooling the ops of five workers averages
# that out, and each worker's start is one set-up sample.
TIMED_WORKERS = 5
CHILD_GRACE_S = 120.0  # a child still running this long after its budget is killed

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "cli.report_timing_s": "s",
    "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in ("python", "import", *spans.MODULES, "bench")},
    "polytope.realizable.calls": "count",
    "polytope.realizable.self_s": "s",
    "polytope.realizable.p50_us": "us",
    "polytope.classify.self_s": "s",
    "polytope.realizable.feasible_frac": "ratio",
    "polytope.realizable.agree_frac": "ratio",
    "bell.CorrelationTable.self_s": "s",
    "bell.bell_value_all_forms.self_s": "s",
    "bell.sweep_mixing.self_s": "s",
    "entangle.combine.dense.self_s": "s",
    "entangle.combine.sparse.self_s": "s",
    "entangle.marginal.self_s": "s",
    "entangle.joint_expectation.self_s": "s",
    "entangle.conditional_collapse.self_s": "s",
    "entangle.guppy_gap.self_s": "s",
    "entangle.support_ratio": "ratio",
    "concepts.parse_ratings.self_s": "s",
    "concepts.context_distribution.self_s": "s",
    "hilbert.tensor.self_s": "s",
    "hilbert.Observable.self_s": "s",
    "semspace.parse_corpus.self_s": "s",
    "semspace.build_matrix.self_s": "s",
    "semspace.svd_truncate.self_s": "s",
    "semspace.similarity.self_s": "s",
    "semspace.order_representation.self_s": "s",
    "semspace.svd_truncate.computed_flops": "flop",
    "semspace.build_matrix.computed_bytes": "B",
    "entangle.EntangledState.self_s": "s",
    "entangle.CompatibilityRelation.self_s": "s",
    "concepts.ContextDistribution.self_s": "s",
    "hilbert.StateVector.self_s": "s",
    "semspace.TermDocMatrix.self_s": "s",
    "semspace.SemanticSpace.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.layer_cover_frac": "ratio",
    "trace.spans_per_op": "count",
}


# -- processes --------------------------------------------------------------


@dataclass
class Child:
    stdout: bytes
    code: int
    start: float
    end: float
    ready_s: float | None
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread.

    Each workload is one client on one thread. A second BLAS thread made
    runs bimodal on a shared 2-CPU host (the SVD op took ~230 or ~310 ms per
    process, depending on the other CPU), while one thread held ~310 ms.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, *, stderr, limit_s: float, start: float | None = None, ready: bool = False) -> Child:
    """Run one process to its end; time it and read its peak resident memory.

    With ``ready`` the child's first output line must be ``ready``; the time
    until it arrives is its set-up time.
    """
    start = time.perf_counter() if start is None else start
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        ready_s = None
        if ready:
            line = proc.stdout.readline()
            if line.strip() == b"ready":
                ready_s = time.perf_counter() - start
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, proc.returncode, start, end, ready_s, usage.ru_maxrss / 1024.0)


class Harness:
    """One workload at one seed: inputs, set-up probes and the timed loop."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.env = child_env()
        self.manifest = gen.generate(workload, seed, workdir)
        self.stderr_path = workdir / "stderr.txt"

    def _run(self, argv, *, limit_s=None, **kw) -> Child:
        with open(self.stderr_path, "wb") as err:
            return run_child(argv, self.env, stderr=err, limit_s=limit_s or self.seconds + CHILD_GRACE_S, **kw)

    def _stderr_tail(self) -> str:
        lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def worker_argv(self, *extra, python_flags=()) -> list[str]:
        return [sys.executable, *python_flags, str(HERE / "worker.py"), self.workload, str(self.workdir), *extra]

    def setup_probe(self, python_flags=()) -> Child:
        child = self._run(self.worker_argv("--setup-only", python_flags=python_flags), ready=True)
        if child.code != 0 or child.ready_s is None:
            raise HarnessError(f"set-up failed: {self._stderr_tail()}")
        return child

    def warm(self) -> None:
        """Fill the bytecode caches so that no timed start compiles."""
        self.setup_probe()
        if self.workload == "cli-cold":
            self._run([sys.executable, "-m", "contextprob", *self.manifest["ops"][0]["args"]])

    def import_times(self) -> dict:
        """Import breakdown of fresh set-ups from ``-X importtime``, median of IMPORT_PROBES."""
        probes = []
        for _ in range(IMPORT_PROBES):
            self.setup_probe(python_flags=("-X", "importtime"))
            probes.append(spans.parse_importtime(self.stderr_path.read_text(encoding="utf-8")))
        return {k: statistics.median(p[k] for p in probes) for k in probes[0]}

    # -- the timed loop -----------------------------------------------------

    def run_worker(self, seconds: float, traced: bool) -> dict:
        """Set up and run an in-process workload in one fresh worker."""
        flags = ["--seconds", repr(seconds)] + (["--trace"] if traced else [])
        child = self._run(self.worker_argv(*flags), ready=True)
        if child.code != 0 or child.ready_s is None:
            raise HarnessError(f"worker failed: {self._stderr_tail()}")
        tag = "traced" if traced else "plain"
        result = json.loads((self.workdir / f"result-{tag}.json").read_text(encoding="utf-8"))
        result.update(setup_s=[child.ready_s], peak_rss_mb=child.peak_rss_mb)
        if traced:
            result["spans"] = spans.load(self.workdir / "spans.json.gz")
        return result

    def run_cli(self, seconds: float, traced: bool) -> dict:
        """Closed loop of ``python -m contextprob`` calls, one process per op."""
        ops = self.manifest["ops"]
        rec = spans.Recorder()
        latencies, failures, calls = [], [], []
        peak = 0.0
        spans_file = self.workdir / "cli-spans.json.gz"
        i = 0
        while math.fsum(latencies) < seconds or i < len(ops):
            op = ops[i % len(ops)]
            start = time.perf_counter()
            if traced:
                argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), repr(start), "--"]
            else:
                argv = [sys.executable, "-m", "contextprob"]
            child = self._run(argv + op["args"], start=start, limit_s=CHILD_GRACE_S)
            latencies.append(child.wall_s)
            peak = max(peak, child.peak_rss_mb)
            error, timing = check_cli(op, child, self.manifest, self._stderr_tail)
            if error:
                failures.append([i, f"{op['name']}: {error}", False])
            elif traced:
                rec.op = i
                root = rec.add("bench.op", child.start, child.end)
                child_spans = spans.load(spans_file)
                rec.merge(child_spans, root)
                rec.add("python.exit", max(s[4] for s in child_spans), child.end, root)
                rec.op = -1
                imported = sum(s[4] - s[3] for s in child_spans if s[2] == "import.contextprob")
                calls.append({"wall": child.wall_s, "import": imported, "timing": timing})
            i += 1
        return {
            "latencies": latencies,
            "failures": failures,
            "inputs": len(ops),
            "peak_rss_mb": peak,
            "stats": {"calls": calls},
            "spans": rec.spans() if traced else None,
        }

    def run_ops(self, seconds: float, traced: bool) -> dict:
        if self.workload == "cli-cold":
            return self.run_cli(seconds, traced)
        if traced:
            return self.run_worker(seconds, traced)
        parts = [self.run_worker(seconds / TIMED_WORKERS, traced) for _ in range(TIMED_WORKERS)]
        return {
            "latencies": [x for p in parts for x in p["latencies"]],
            "failures": [f for p in parts for f in p["failures"]],
            "inputs": parts[0]["inputs"],
            "setup_s": [x for p in parts for x in p["setup_s"]],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }

    def setup_samples(self, first: list[float]) -> list[float]:
        """Set-up times of fresh interpreters; ``first`` are the run's own workers'."""
        samples = list(first)
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.setup_probe().ready_s)
        return samples


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- output checks of the CLI -----------------------------------------------

TSIRELSON = 2.0 * math.sqrt(2.0)


def check_cli(op, child: Child, manifest: dict, stderr_tail) -> tuple[str | None, float | None]:
    """Check one CLI report; return (error or None, the report's timing_s)."""
    if child.code != 0:
        return f"exit code {child.code}: {stderr_tail()}", None
    try:
        report = json.loads(child.stdout)
        return _check_results(op["name"], report["results"], manifest), float(report["timing_s"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}", None


def _check_results(name: str, r: dict, manifest: dict) -> str | None:
    if name == "ratings":
        typ = r["typicalities"]
        if abs(math.fsum(typ.values()) - 1.0) > 1e-9:
            return "typicalities do not sum to 1"
        if r["ranking"] != sorted(typ, key=lambda x: (-typ[x], x)):
            return "ranking is not ordered by typicality"
    elif name == "bell":
        if abs(r["bell_value"] - 4.0) > 1e-12 or r["violated"] is not True:
            return f"bell_value {r['bell_value']!r} at odd-event 0, expected 4"
    elif name == "sweep":
        points = r["points"]
        if len(points) != manifest["sweep_points"]:
            return f"{len(points)} sweep points, expected {manifest['sweep_points']}"
        for pt in points:
            expect = 4.0 - 2.0 * pt["odd_event_probability"]
            if abs(pt["bell_value"] - expect) > 1e-12 or pt["violated"] != (expect > 2.0 + 1e-12):
                return f"sweep point {pt} disagrees with 4 - 2p"
    elif name == "guppy":
        if r["guppy_effect"] is not True or not r["gap"] > 0:
            return "no guppy effect on the pet-fish fixture"
    elif name == "semspace":
        cmp = r["comparison"]
        if cmp["bag_of_words"] != "indistinguishable" or cmp["order"] != "distinguishable":
            return f"sentence comparison {cmp}"
    elif name == "kolmo":
        if abs(r["all_forms_value"] - TSIRELSON) > 1e-12:
            return f"all_forms_value {r['all_forms_value']!r}, expected 2*sqrt(2)"
        if r["feasible"] is not False or r["classification"] != "quantum-achievable":
            return "the Tsirelson table is reported classical"
    return None


# -- metrics ----------------------------------------------------------------


def nearest_rank(ordered: list[float], pct: float) -> float:
    """The ``pct`` percentile of sorted samples by the nearest-rank rule."""
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, clamped into TAIL_PERCENTILES."""
    n = len(latencies)
    lo, hi = TAIL_PERCENTILES
    pct = min(hi, max(lo, math.floor(100.0 * (n - 10) / n)))
    return pct, nearest_rank(sorted(latencies), pct)


def outcome(run: dict) -> dict:
    """``correct``, ``attempted`` and ``failed`` of the result line, counted in inputs.

    Every run uses each of its seeded inputs at least once and the program
    is deterministic, so whether an input fails does not depend on how many
    ops fit into the run: ``attempted`` is the number of distinct inputs
    used and ``failed`` the number of them on which any op failed. The op
    counts are printed beside ``failed_frac``. ``correct`` is false when an
    op fails away from the polytope boundary, where no defect is known.
    """
    inputs = run["inputs"]
    failures = run["failures"]
    return {
        "correct": all(near for _, _, near in failures),
        "attempted": min(len(run["latencies"]), inputs),
        "failed": len({i % inputs for i, _, _ in failures}),
    }


def end_to_end(workload: str, run: dict, setup: list[float]) -> tuple[dict, list[str]]:
    lat = run["latencies"]
    n = len(lat)
    failed = len(run["failures"])
    busy = math.fsum(lat)
    pct, tail_s = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (n - failed) / busy,
        "op_p50_ms": nearest_rank(sorted(lat), 50.0) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{n - failed} passed of {n} in {busy:.2f} s of ops",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct:g} of n={n}, {n - math.ceil(pct / 100.0 * n)} samples above",
        "peak_rss_mb": "max over op processes" if workload == "cli-cold" else f"max over {TIMED_WORKERS} worker processes",
    }
    near = sum(1 for f in run["failures"] if f[2])
    counted = outcome(run)
    lines = [f"  {k:<14}{v:>14.6g} {END_TO_END[k]:<6} ({notes[k]})" for k, v in values.items()]
    lines.append(
        f"  {'failed_frac':<14}{failed / n:>14.6g} {'ratio':<6} "
        f"({failed} of {n} ops attempted, {near} of them within 1e-5 of a facet; "
        f"{counted['failed']} of {counted['attempted']} distinct inputs)"
    )
    return values, lines


def per_layer(h: Harness, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced run; self times are seconds per op."""
    totals = spans.op_totals(traced["spans"])
    ops = max(totals["ops"], 1)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            kind = "layer" if "." not in key else "name"
            values[name] = totals[f"{kind}_s"].get(key, 0.0) / ops + totals[f"setup_{kind}_s"].get(key, 0.0)
    stats = traced["stats"]
    values["polytope.realizable.calls"] = totals["calls"].get("polytope.realizable", 0) / ops
    durations = [s[4] - s[3] for s in traced["spans"] if s[2] == "polytope.realizable" and s[5] >= 0]
    if durations:
        values["polytope.realizable.p50_us"] = statistics.median(durations) * 1e6
    for src, dst in (
        ("feasible_frac", "polytope.realizable.feasible_frac"),
        ("agree_frac", "polytope.realizable.agree_frac"),
        ("support_ratio", "entangle.support_ratio"),
        ("svd_flops", "semspace.svd_truncate.computed_flops"),
        ("matrix_bytes", "semspace.build_matrix.computed_bytes"),
    ):
        if src in stats:
            values[dst] = stats[src]
    imports = h.import_times()
    for package, metric in (("contextprob", "total"), ("numpy", "numpy"), ("scipy", "scipy")):
        values[f"import.{metric}_s"] = imports[package]
    if h.workload == "cli-cold":
        calls = stats["calls"]
        values["cli.report_timing_s"] = statistics.median(x["timing"] for x in calls)
        values["cli.overhead_s"] = statistics.median(x["wall"] - x["import"] - x["timing"] for x in calls)
    layers = ("python", "import", *spans.MODULES)
    values["trace.layer_cover_frac"] = sum(totals["layer_s"].get(k, 0.0) for k in layers) / totals["wall_s"]
    values["trace.overhead_frac"] = statistics.fmean(traced["latencies"]) / statistics.fmean(plain["latencies"]) - 1.0
    values["trace.spans_per_op"] = sum(1 for s in traced["spans"] if s[5] >= 0 and s[1] >= 0) / ops
    return values


# -- entry point ------------------------------------------------------------


def host() -> dict:
    """Machine and library versions, from the interpreter only."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list[str]]:
    h = Harness(workload, seed, seconds, workdir)
    h.warm()
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    if not trace:
        run = h.run_ops(seconds, traced=False)
        setup = h.setup_samples(run.get("setup_s", []))
        values, text = end_to_end(workload, run, setup)
        lines += text
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        plain = h.run_ops(seconds / 2, traced=False)
        traced = h.run_ops(seconds / 2, traced=True)
        run = {k: plain[k] + traced[k] for k in ("latencies", "failures")}
        run["inputs"] = plain["inputs"]
        values = per_layer(h, plain, traced)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans.dump(out / f"spans-{workload}-seed{seed}.json.gz", traced["spans"], {"host": host(), "metrics": values})
        lines += [f"  {k:<44}{v:>14.6g} {PER_LAYER[k]}" for k, v in values.items() if v]
        cover, overhead = values["trace.layer_cover_frac"], values["trace.overhead_frac"]
        lines.append(
            f"  op wall time = library layers {cover:.4f} + benchmark code {1 - cover:.4f}; "
            f"tracing overhead {overhead:.4f}"
        )
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    for f in run["failures"][:3]:
        lines.append(f"  failed op {f[0]}: {f[1]}")
    return {**outcome(run), "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contextprob" / "__init__.py").is_file():
        print(f"error: no contextprob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print("host: " + " ".join(f"{k}={v}" for k, v in host().items()))
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            sub = workdir / name
            sub.mkdir()
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), sub)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined), flush=True)
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()


if __name__ == "__main__":
    sys.exit(main())
