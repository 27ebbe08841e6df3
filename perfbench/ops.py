"""Set-up, operations and output checks of the in-process workloads.

Each class's constructor is the workload's set-up: it loads the generated
inputs into library objects with the library's own parsers and
constructors. ``inputs`` is the number of distinct inputs; op ``i`` uses
input ``i % inputs``. ``run(i)`` performs op number ``i``; ``check(i, result)``
returns ``None`` when the output is right, or a short reason when it is
not, and runs outside the timed region. ``stats()`` reports what the
checks counted.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import contextprob as cp
import oracle


class Realizability:
    """CorrelationTable -> bell_value_all_forms -> classify -> realizable."""

    def __init__(self, manifest: dict, workdir: Path, rec) -> None:
        self.tables = manifest["tables"]
        self.inputs = len(self.tables)
        self.strategies = [(s.row_outcomes, s.col_outcomes) for s in cp.enumerate_strategies()]
        self.checked = self.feasible = self.agree = 0

    def run(self, i: int):
        t = self.tables[i % len(self.tables)]
        table = cp.CorrelationTable(
            ("row-0", "row-1"),
            ("col-0", "col-1"),
            [t["joint"][:2], t["joint"][2:]],
            singles_a=t["singles_a"],
            singles_b=t["singles_b"],
        )
        value = cp.bell_value_all_forms(table)
        band = cp.classify(table)
        result = cp.realizable(table)
        weights = result.weights if result.feasible else None
        return value, band, result, weights

    def check(self, i: int, out) -> str | None:
        t = self.tables[i % len(self.tables)]
        expect = t["expect"]
        value, band, result, weights = out
        self.checked += 1
        self.feasible += result.feasible
        self.agree += result.feasible == expect["classical"]
        if band != expect["band"]:
            return f"classify says {band}, oracle says {expect['band']}"
        if abs(value - oracle.all_forms_value(t["joint"])) > 1e-12:
            return "all-forms value differs from the oracle's"
        if result.feasible != expect["classical"]:
            return f"realizable says feasible={result.feasible}, oracle says {expect['classical']}"
        if weights is not None:
            joints, singles = oracle.strategy_image(weights, self.strategies)
            target = t["joint"] + (t["singles_a"] + t["singles_b"] if t["singles_a"] else [])
            got = joints + (singles if t["singles_a"] else [])
            if min(weights) < 0 or abs(math.fsum(weights) - 1.0) > 1e-9:
                return "weights are not a probability vector"
            if max(abs(a - b) for a, b in zip(got, target)) > 1e-9:
                return "weights do not reproduce the table within 1e-9"
        elif result.witness is None:
            return "infeasible result without a witness"
        return None

    def near_facet(self, i: int) -> bool:
        return self.tables[i % len(self.tables)]["expect"]["min_abs_slack"] <= 1e-5

    def stats(self) -> dict:
        n = max(self.checked, 1)
        return {"feasible_frac": self.feasible / n, "agree_frac": self.agree / n}


class Combine:
    """One round over the dense and the sparse relation shape."""

    def __init__(self, manifest: dict, workdir: Path, rec) -> None:
        self.rec = rec
        self.inputs = 1  # every op is the same round
        self.support = self.pairs = 0
        self.shapes = {}
        for shape, spec in manifest["shapes"].items():
            files = {k: (workdir / v).read_text(encoding="utf-8") for k, v in spec["files"].items()}
            table_a = cp.parse_ratings(files["ratings_a"])
            table_b = cp.parse_ratings(files["ratings_b"])
            s = dict(spec)
            s["table_a"], s["table_b"] = table_a, table_b
            s["relation"] = cp.parse_relation(files["relation"])
            s["obs_a"] = cp.Observable(table_a.exemplars, dict(zip(table_a.exemplars, spec["signs_a"])))
            s["obs_b"] = cp.Observable(table_b.exemplars, dict(zip(table_b.exemplars, spec["signs_b"])))
            if shape == "dense":
                s["state_a"] = cp.context_state(table_a, spec["context_a"])
                s["state_b"] = cp.context_state(table_b, spec["context_b"])
            self.shapes[shape] = s

    def _round(self, s) -> dict:
        dist_a = cp.context_distribution(s["table_a"], s["context_a"])
        dist_b = cp.context_distribution(s["table_b"], s["context_b"])
        state = cp.combine(dist_a, dist_b, s["relation"])
        out = {
            "support": len(state.amplitudes),
            "marginal_a": cp.marginal(state, "A"),
            "marginal_b": cp.marginal(state, "B"),
            "expectation": cp.joint_expectation(state, s["obs_a"], s["obs_b"]),
            "collapsed": cp.conditional_collapse(state, "A", s["collapse"]),
            "gap": cp.guppy_gap(state, dist_a, dist_b, s["exemplar"]),
        }
        if "state_a" in s:
            out["tensor"] = cp.tensor(s["state_a"], s["state_b"])
        return out

    def run(self, i: int):
        results = {}
        for shape, s in self.shapes.items():
            with self.rec.span(f"bench.shape.{shape}") if self.rec else nullcontext():
                results[shape] = self._round(s)
        return results

    def check(self, i: int, out) -> str | None:
        for shape, r in out.items():
            s = self.shapes[shape]
            self.support += r["support"]
            self.pairs += s["pairs"]
            if r["support"] != s["support"]:
                return f"{shape}: support has {r['support']} pairs, expected {s['support']}"
            for side in ("marginal_a", "marginal_b"):
                if abs(math.fsum(r[side].probabilities.values()) - 1.0) > 1e-9:
                    return f"{shape}: {side} does not sum to 1"
            rows = {x for x, _ in r["collapsed"].amplitudes}
            if rows != {s["collapse"]}:
                return f"{shape}: collapse kept rows {sorted(rows)[:3]}"
            if not -1.0 <= r["expectation"] <= 1.0 or not math.isfinite(r["gap"]):
                return f"{shape}: expectation or gap out of range"
            if "tensor" in r and r["tensor"].dim != len(s["table_a"].exemplars) * len(s["table_b"].exemplars):
                return f"{shape}: tensor has the wrong dimension"
        return None

    def stats(self) -> dict:
        return {"support_ratio": self.support / max(self.pairs, 1)}


class Semspace:
    """parse_corpus -> build_matrix -> svd_truncate -> similarity -> sentence representations."""

    def __init__(self, manifest: dict, workdir: Path, rec) -> None:
        self.rank = manifest["params"]["rank"]
        self.corpora = manifest["corpora"]
        self.inputs = len(self.corpora)
        self.texts = [(workdir / c["file"]).read_text(encoding="utf-8") for c in self.corpora]
        self.checked = self.flops = self.bytes = 0

    def run(self, i: int):
        c = self.corpora[i % len(self.corpora)]
        matrix = cp.build_matrix(cp.parse_corpus(self.texts[i % len(self.texts)]))
        space = cp.svd_truncate(matrix, self.rank)
        sims = [cp.similarity(space, a, b) for a, b in c["pairs"]]
        sentences = [
            (
                [cp.bow_vector(t, matrix.terms) for t in pair],
                [cp.order_representation(t, c["order_vocabulary"]) for t in pair],
            )
            for pair in c["sentences"]
        ]
        return matrix, space, sims, sentences

    def check(self, i: int, out) -> str | None:
        c = self.corpora[i % len(self.corpora)]
        matrix, space, sims, sentences = out
        m, n = sorted(matrix.counts.shape, reverse=True)
        self.checked += 1
        self.flops += 6 * m * n * n + 20 * n**3
        self.bytes += matrix.counts.nbytes
        if len(matrix.terms) != c["terms"]:
            return f"{len(matrix.terms)} terms, expected {c['terms']}"
        error = float(np.linalg.norm(matrix.counts - space.reconstruct()))
        if abs(error - c["dropped_norm"]) > 1e-8 * max(1.0, c["dropped_norm"]):
            return f"reconstruction error {error!r}, dropped singular values give {c['dropped_norm']!r}"
        if not all(-1.0 <= v <= 1.0 for v in sims):
            return "similarity outside [-1, 1]"
        for bows, orders in sentences:
            if not np.array_equal(*bows):
                return "bag of words tells a reordered sentence apart"
            if np.array_equal(*orders):
                return "order representation misses a reordering"
        return None

    def stats(self) -> dict:
        """Work of one op, computed from the matrix shape, not measured.

        SVD flops use the R-SVD count 6mn^2 + 20n^3 for an m x n matrix with
        m >= n (Golub & Van Loan); bytes are those of the int64 count matrix.
        """
        n = max(self.checked, 1)
        return {"svd_flops": self.flops / n, "matrix_bytes": self.bytes / n}


WORKLOADS = {
    "realizability-screen": Realizability,
    "combine-scale": Combine,
    "semspace-corpus": Semspace,
}
