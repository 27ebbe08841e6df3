"""Fast self-test of the benchmark harness.

Checks the metric registry against BENCHMARK.json, the facet oracle on
known tables, the tail rule, the import-time parser, the input-level
failure count of the result line, and the spans of a short traced run of
two workloads: every parent resolves, self times are non-negative and the
layer self times of an op never exceed its wall time.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units():
    for registry in (run.END_TO_END, run.PER_LAYER):
        for name, unit in registry.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_registry():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, registry in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == registry
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_oracle_on_known_tables():
    r = 1.0 / 2.0**0.5
    tsirelson = oracle.decide([r, -r, r, r])
    assert not tsirelson["classical"] and tsirelson["band"] == "quantum-achievable"
    pr_box = oracle.decide([1.0, 1.0, 1.0, -1.0])
    assert not pr_box["classical"] and pr_box["band"] == "supra-quantum"
    a = 0.5 * (1 + 5e-8)
    assert not oracle.decide([a, a, a, -a])["classical"]
    assert oracle.decide([0.5, 0.5, 0.5, -0.5])["classical"]
    # A deterministic strategy sits on positivity facets but inside the polytope.
    joints, singles = oracle.strategy_image([1.0] + [0.0] * 15)
    assert oracle.decide(joints, singles[:2], singles[2:])["classical"]
    assert not oracle.decide([1.0, 1.0, 1.0, 1.0], [1.0, 1.0], [-1.0, 1.0])["classical"]


def test_tail_keeps_ten_samples_above():
    for n in (20, 55, 100, 1000, 30000):
        pct, value = run.tail([float(k) for k in range(n)])
        assert run.TAIL_PERCENTILES[0] <= pct <= run.TAIL_PERCENTILES[1]
        assert sum(1 for k in range(n) if k > value) >= 10


def test_parse_importtime_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       200 |        350 |     numpy",
        "import time:        40 |         40 |       numpy.fft",
        "import time:       410 |        450 |     scipy",
        "import time:        10 |        800 |   contextprob.hilbert",
        "import time:        20 |        900 | contextprob",
        "import time:        30 |         30 | contextprob.cli",
    ])
    got = spans.parse_importtime(text)
    assert got == pytest.approx({"contextprob": 930e-6, "numpy": 390e-6, "scipy": 450e-6})


def test_self_times_subtract_children():
    rows = [[0, -1, "op", 0.0, 10.0, 0], [1, 0, "a.f", 1.0, 4.0, 0], [2, 1, "b.g", 2.0, 3.0, 0]]
    assert spans.self_times(rows) == [7.0, 2.0, 1.0]


def _check_spans(rows):
    by_id = {r[0]: r for r in rows}
    assert sorted(by_id) == list(range(len(rows)))
    own = spans.self_times(rows)
    wall = {}
    below_root = {}
    all_self = {}
    for (sid, parent, name, start, end, op), t in zip(rows, own):
        assert end >= start, name
        assert t >= -1e-9, (name, t)
        if parent >= 0:
            p = by_id[parent]
            assert parent < sid and p[5] == op
            assert p[3] <= start + 1e-9 and end <= p[4] + 1e-9, name
        if op < 0:
            continue  # set-up spans
        if parent >= 0:
            below_root[op] = below_root.get(op, 0.0) + t
        else:
            assert name == "bench.op"
            wall[op] = end - start
        all_self[op] = all_self.get(op, 0.0) + t
    assert wall
    for op, total in below_root.items():
        assert total <= wall[op] + 1e-9
        assert all_self[op] == pytest.approx(wall[op], abs=1e-9)


@pytest.mark.parametrize("workload", ["realizability-screen", "cli-cold"])
def test_traced_run_spans_are_consistent(workload, tmp_path):
    h = run.Harness(workload, 7, 0.05, tmp_path)
    traced = h.run_ops(0.05, traced=True)
    assert traced["latencies"] and not [f for f in traced["failures"] if not f[2]]
    _check_spans(traced["spans"])
    values = run.per_layer(h, traced, traced)
    assert set(values) == set(run.PER_LAYER)
    assert 0.0 < values["trace.layer_cover_frac"] <= 1.0 + 1e-9


def test_generation_is_seeded(tmp_path):
    a = gen.generate("realizability-screen", 3, tmp_path)
    b = gen.generate("realizability-screen", 3, tmp_path)
    c = gen.generate("realizability-screen", 4, tmp_path)
    assert a == b and a != c
    kinds = {t["kind"] for t in a["tables"]}
    assert kinds == set(gen.PARAMS["realizability-screen"]["mix"])


def test_facet_slice_is_the_same_for_every_seed(tmp_path):
    def facet_tables(seed):
        tables = gen.generate("realizability-screen", seed, tmp_path)["tables"]
        return sorted(json.dumps(t) for t in tables if t["kind"].startswith("facet-"))

    a, b = facet_tables(3), facet_tables(4)
    assert a == b and len(a) == 500


def test_outcome_counts_distinct_inputs():
    run_ = {"inputs": 4, "latencies": [0.1] * 10, "failures": [[1, "x", True], [5, "x", True], [6, "y", True]]}
    assert run.outcome(run_) == {"correct": True, "attempted": 4, "failed": 2}
    run_["failures"].append([3, "z", False])
    assert run.outcome(run_) == {"correct": False, "attempted": 4, "failed": 3}
    assert run.outcome({"inputs": 4, "latencies": [0.1] * 3, "failures": []})["attempted"] == 3
