"""Seeded inputs for each workload.

Everything the program sees is written to files in a work directory; the
expected answers go into the manifest next to them. The same seed gives the
same files. Generation is not timed and is not part of set-up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

FIXTURES = "src/contextprob/fixtures"
FACET_SLICE_SEED = 20260101  # the facet-adjacent tables do not depend on --seed

PARAMS = {
    "cli-cold": {
        "subcommands": ["ratings", "bell", "sweep", "guppy", "semspace", "kolmo"],
        "sweep_points": [950, 1050],
    },
    "realizability-screen": {
        "mix": {
            "classical-joints": 400,
            "classical-singles": 400,
            "quantum-band": 400,
            "supra-quantum": 300,
            "facet-chsh": 250,
            "facet-positivity": 250,
        },
        "deltas": [1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6],
    },
    "combine-scale": {
        "dense_exemplars": 300,
        "sparse_exemplars": 3000,
        "sparse_pairs_per_exemplar": 3,
        "zero_rating_frac": 0.1,
    },
    "semspace-corpus": {
        "corpora": 3,
        "docs": 800,
        "tokens_per_doc": 150,
        "vocabulary": 4000,
        "zipf_exponent": 1.0,
        "rank": 100,
        "term_pairs": 50,
        "sentences": 10,
        "sentence_tokens": 3,
        "order_vocabulary": 40,
    },
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of one workload and return its manifest."""
    rng = np.random.default_rng([seed, sorted(PARAMS).index(workload)])
    manifest = {"workload": workload, "seed": seed, "params": PARAMS[workload]}
    manifest.update(_GENERATORS[workload](rng, workdir, PARAMS[workload]))
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


# -- cli-cold ---------------------------------------------------------------


def _cli(rng, workdir, p) -> dict:
    fx = FIXTURES
    contexts = (Path(fx) / "pet_context_ratings.tsv").read_text(encoding="utf-8")
    context = str(rng.choice(contexts.splitlines()[0].split("\t")[1:]))
    points = int(rng.integers(p["sweep_points"][0], p["sweep_points"][1] + 1))
    words = ["mary", "hits", "john"]
    first = [str(w) for w in rng.permutation(words)]
    second = list(first)
    while second == first:
        second = [str(w) for w in rng.permutation(words)]
    ops = {
        "ratings": ["ratings", f"{fx}/pet_context_ratings.tsv", "--context", context],
        "bell": ["bell", "--odd-event", "0"],
        "sweep": ["sweep", "--grid", f"0:1:{1.0 / (points - 1)!r}"],
        "guppy": [
            "guppy",
            "--concept-a", f"{fx}/petfish_pet_ratings.tsv",
            "--concept-b", f"{fx}/petfish_fish_ratings.tsv",
            "--relation", f"{fx}/pet_fish_pairs.tsv",
            "--exemplar", "guppy",
        ],
        "semspace": [
            "semspace", "--corpus", f"{fx}/toy_corpus.txt",
            "--compare", " ".join(first), " ".join(second),
        ],
        "kolmo": ["kolmo", "--scenario", f"{fx}/tsirelson_pattern.json"],
    }
    start = int(rng.integers(len(p["subcommands"])))
    order = p["subcommands"][start:] + p["subcommands"][:start]
    return {"ops": [{"name": n, "args": ops[n]} for n in order], "sweep_points": points}


# -- realizability-screen ---------------------------------------------------

#: Joints and singles of each deterministic strategy, in oracle.STRATEGIES order.
_VERTICES = [oracle.strategy_image([float(k == m) for k in range(16)]) for m in range(16)]


def _mixture(rng, rows, alpha):
    """Joints and singles of a Dirichlet mixture of the strategies in ``rows``."""
    weights = [0.0] * 16
    for m, w in zip(rows, rng.dirichlet(np.full(len(rows), alpha))):
        weights[m] = float(w)
    return oracle.strategy_image(weights)


def _table(kind, joints, singles=None, delta=None):
    sa, sb = (singles[:2], singles[2:]) if singles is not None else (None, None)
    expect = oracle.decide(joints, sa, sb)
    return {"kind": kind, "delta": delta, "joint": joints, "singles_a": sa, "singles_b": sb, "expect": expect}


def _in_range(values) -> bool:
    return all(-1.0 <= v <= 1.0 for v in values)


def _realizability(rng, workdir, p) -> dict:
    everyone = range(16)
    tables = []
    mix = p["mix"]
    for _ in range(mix["classical-joints"]):
        tables.append(_table("classical-joints", _mixture(rng, everyone, 0.5)[0]))
    for _ in range(mix["classical-singles"]):
        joints, singles = _mixture(rng, everyone, 0.5)
        tables.append(_table("classical-singles", joints, singles))
    for kind, lo, hi in (
        ("quantum-band", 2.0 + 1e-3, oracle.TSIRELSON - 1e-3),
        ("supra-quantum", oracle.TSIRELSON + 1e-3, 4.0),
    ):
        made = 0
        while made < mix[kind]:
            signs = oracle.FORMS[rng.integers(8)]
            scale = 1.0 / math.sqrt(2.0) if kind == "quantum-band" else 1.0
            lam = rng.uniform(0.3, 1.0) if kind == "quantum-band" else rng.uniform(0.8, 1.0)
            inner = _mixture(rng, everyone, 0.5)[0]
            joints = [lam * scale * s + (1.0 - lam) * e for s, e in zip(signs, inner)]
            if not (_in_range(joints) and lo < oracle.all_forms_value(joints) < hi):
                continue
            singles = [0.0] * 4 if made % 2 else None
            tables.append(_table(kind, joints, singles))
            made += 1
    # The facet-adjacent slice is the same for every seed, the seed only
    # shuffles where its tables sit. The program gets some of these tables
    # wrong (the known realizability defect at the polytope boundary), and
    # which ones varies with the point drawn on the facet; a fixed slice
    # makes the number of failed tables the same in every run.
    fixed = np.random.default_rng(FACET_SLICE_SEED)
    deltas = p["deltas"]
    for kind in ("facet-chsh", "facet-positivity"):
        made = 0
        while made < mix[kind]:
            delta = deltas[(made // 2) % len(deltas)]
            outward = 1.0 if made % 2 == 0 else -1.0
            if kind == "facet-chsh":
                signs = oracle.FORMS[fixed.integers(8)]
                on_facet = [m for m, (v, _) in enumerate(_VERTICES) if oracle.form_value(signs, v) == 2.0]
                joints = _mixture(fixed, on_facet, 1.0)[0]
                joints = [e + outward * delta * s / 4.0 for e, s in zip(joints, signs)]
                singles = None
            else:
                i, j = (int(x) for x in fixed.integers(2, size=2))
                sa, sb = (int(x) for x in fixed.choice((1, -1), size=2))
                avoid = [m for m, (_, v) in enumerate(_VERTICES) if not (v[i] == sa and v[2 + j] == sb)]
                joints, singles = _mixture(fixed, avoid, 1.0)
                joints[2 * i + j] -= outward * sa * sb * 4.0 * delta
            if not _in_range(joints):
                continue
            tables.append(_table(kind, joints, singles, delta * outward))
            made += 1
    order = rng.permutation(len(tables))
    return {"tables": [tables[k] for k in order]}


# -- combine-scale ----------------------------------------------------------


def _ratings_tsv(rng, labels, zero_frac) -> tuple[str, np.ndarray]:
    values = rng.uniform(0.05, 5.0, size=(len(labels), 2))
    values[rng.random(values.shape) < zero_frac] = 0.0
    values[0] = 1.0  # every column keeps some mass
    lines = ["exemplar\tc0\tc1"]
    lines += [f"{x}\t{a!r}\t{b!r}" for x, (a, b) in zip(labels, values.tolist())]
    return "\n".join(lines) + "\n", values


def _combine(rng, workdir, p) -> dict:
    shapes = {}
    for shape, n in (("dense", p["dense_exemplars"]), ("sparse", p["sparse_exemplars"])):
        labels = [f"e{k:04d}" for k in range(n)]
        text_a, ra = _ratings_tsv(rng, labels, p["zero_rating_frac"])
        text_b, rb = _ratings_tsv(rng, labels, p["zero_rating_frac"])
        ctx_a, ctx_b = (int(c) for c in rng.integers(2, size=2))
        if shape == "dense":
            partners = [range(n)] * n
        else:
            partners = [sorted(rng.choice(n, p["sparse_pairs_per_exemplar"], replace=False)) for _ in range(n)]
        pairs = [(a, b) for a in range(n) for b in partners[a]]
        positive = [(a, b) for a, b in pairs if ra[a, ctx_a] > 0 and rb[b, ctx_b] > 0]
        rows = sorted({a for a, _ in positive})
        files = {}
        for name, text in (
            ("ratings_a", text_a),
            ("ratings_b", text_b),
            ("relation", "".join(f"{labels[a]}\t{labels[b]}\n" for a, b in pairs)),
        ):
            files[name] = f"{shape}_{name}.tsv"
            (workdir / files[name]).write_text(text, encoding="utf-8")
        shapes[shape] = {
            "files": files,
            "context_a": f"c{ctx_a}",
            "context_b": f"c{ctx_b}",
            "signs_a": rng.choice((1, -1), size=n).tolist(),
            "signs_b": rng.choice((1, -1), size=n).tolist(),
            "collapse": labels[rows[int(rng.integers(len(rows)))]],
            "exemplar": labels[int(rng.integers(n))],
            "pairs": len(pairs),
            "support": len(positive),
        }
    return {"shapes": shapes}


# -- semspace-corpus --------------------------------------------------------


def _semspace(rng, workdir, p) -> dict:
    size = p["vocabulary"]
    freq = 1.0 / np.arange(1, size + 1) ** p["zipf_exponent"]
    freq /= freq.sum()
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    corpora = []
    for c in range(p["corpora"]):
        words = ["".join(letters[rng.integers(26, size=3)]) + f"{k}" for k in range(size)]
        ids = rng.choice(size, size=(p["docs"], p["tokens_per_doc"]), p=freq)
        text = "\n".join(" ".join(words[t] for t in row) for row in ids.tolist()) + "\n"
        name = f"corpus{c}.txt"
        (workdir / name).write_text(text, encoding="utf-8")
        counts = np.zeros((size, p["docs"]))
        np.add.at(counts, (ids, np.arange(p["docs"])[:, None]), 1.0)
        seen = np.flatnonzero(counts.sum(axis=1))
        sv = np.linalg.svd(counts[seen], compute_uv=False)
        present = [words[k] for k in seen]
        pick = rng.choice(len(present), size=(p["term_pairs"], 2))
        small = [present[k] for k in rng.choice(len(present), p["order_vocabulary"], replace=False)]
        sentences = []
        for _ in range(p["sentences"]):
            toks = [small[k] for k in rng.choice(len(small), p["sentence_tokens"], replace=False)]
            sentences.append([toks, toks[1:] + toks[:1]])
        corpora.append({
            "file": name,
            "terms": len(seen),
            "dropped_norm": float(np.sqrt(np.sum(sv[p["rank"]:] ** 2))),
            "pairs": [[present[a], present[b]] for a, b in pick.tolist()],
            "order_vocabulary": small,
            "sentences": sentences,
        })
    return {"corpora": corpora}


_GENERATORS = {
    "cli-cold": _cli,
    "realizability-screen": _realizability,
    "combine-scale": _combine,
    "semspace-corpus": _semspace,
}
