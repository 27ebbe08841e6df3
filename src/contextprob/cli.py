"""Batch command-line front end.

Subcommands: ratings, bell, sweep, guppy, semspace, kolmo. Every run emits
one report: a JSON record by default, or, for ``ratings`` and ``sweep``,
tab-separated plot data under ``--format tsv``. Reports are deterministic
for identical inputs and flags except for the separate timing field; errors
go to stderr and flip the exit code to 1. Each input file is read once, and
the report's ``inputs`` digests the bytes that were parsed.

A run imports only the modules its subcommand needs: each handler imports
them itself, so ``bell``, ``kolmo`` and ``sweep`` never load numpy, and
``hashlib`` loads only when a JSON record has input files to digest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from ._labels import listing, shown
from ._tolerance import DEFAULT_TOL, GRID_SLACK, RESIDUAL_TOL, WEIGHT_CUTOFF, check_tolerance

if TYPE_CHECKING:
    from . import bell, concepts

SCHEMA_VERSION = 1

#: Most points a sweep grid may hold; the report keeps one record per point.
MAX_GRID_POINTS = 1_000_000


def _resolve_context(table: concepts.RatingTable, query: str) -> str:
    """Exact context label, or a unique case-insensitive substring of one."""
    if query not in table.contexts.positions:
        hits = [c for c in table.contexts if query.lower() in c.lower()]
        if len(hits) > 1:
            raise ValueError(f"context {shown(query)} is ambiguous; matches: {listing(hits)}")
        if hits:
            return hits[0]
    return table.contexts[table.context_index(query)]


def _pick_context(table: concepts.RatingTable, given: str | None, flag: str) -> str:
    if given is not None:
        return _resolve_context(table, given)
    if len(table.contexts) == 1:
        return table.contexts[0]
    raise ValueError(
        f"{flag} is required for a multi-context table; "
        f"available contexts: {listing(table.contexts)}"
    )


def _load_table(args) -> bell.CorrelationTable:
    if (args.scenario is None) == (args.odd_event is None):
        raise ValueError("give exactly one of --scenario and --odd-event")
    from . import _inputs, bell

    if args.scenario is not None:
        return _inputs.parse(args.scenario, bell._parse_scenario, record=args.inputs)
    return bell.pet_food_table(bell.PetFoodScenario(args.odd_event))


def _cmd_ratings(args):
    from . import _inputs, concepts

    table = _inputs.parse(args.table, concepts.parse_ratings, record=args.inputs)
    context = _resolve_context(table, args.context)
    dist = concepts.context_distribution(table, context)
    ranking = concepts.rank_exemplars(table, context)
    if args.format == "tsv":
        tsv = ["rank\texemplar\ttypicality"]
        tsv += [
            f"{i + 1}\t{x}\t{dist.probability(x)!r}" for i, x in enumerate(ranking)
        ]
        return tsv
    return {
        "context": context,
        "typicalities": {x: dist.probability(x) for x in table.exemplars},
        "ranking": ranking,
    }


def _cmd_bell(args):
    from dataclasses import asdict

    from . import bell, polytope

    table = _load_table(args)
    tol = check_tolerance(args.tolerance)  # checked with or without singles
    product = None
    if table.has_singles:
        check = bell.product_equality_check(
            (*table.singles_a, *table.singles_b), table.joints_flat(), tol=tol
        )
        product = asdict(check)
    return {
        "bell_value": bell.bell_value(table),
        "all_forms_value": bell.bell_value_all_forms(table),
        "violated": polytope.primary_violated(table),
        "classification": polytope.classify(table),
        "product_equality": product,
        "table": asdict(table),
    }


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {shown(text)}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValueError(f"grid values must be numbers, got {shown(text)}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid values must be finite, got {shown(text)}")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ValueError(f"grid range [{start}, {stop}] exceeds [0, 1]")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    # The last point may overshoot stop by the slack, so the slack counts too.
    bound = stop + GRID_SLACK
    span = (bound - start) / step
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"grid {shown(text)} has more than {MAX_GRID_POINTS} points")
    # start + k * step for k = 0, 1, ... while within the slack, clipped at 1;
    # the values rise with k, so those within are a prefix.
    n = int(span) + 2
    while start + (n - 1) * step > bound:
        n -= 1
    return [v if (v := start + k * step) < 1.0 else 1.0 for k in range(n)]


def _cmd_sweep(args):
    from . import bell

    points = bell.sweep_mixing(_parse_grid(args.grid))
    if args.format == "tsv":
        tsv = ["odd_event_probability\tbell_value\tviolated"]
        tsv += [
            f"{pt.odd_event_probability!r}\t{pt.bell_value!r}\t"
            f"{'true' if pt.violated else 'false'}"
            for pt in points
        ]
        return tsv
    return {
        "points": [
            {
                "odd_event_probability": pt.odd_event_probability,
                "bell_value": pt.bell_value,
                "violated": pt.violated,
            }
            for pt in points
        ]
    }


def _cmd_guppy(args):
    from . import _inputs, concepts, entangle

    table_a = _inputs.parse(args.concept_a, concepts.parse_ratings, record=args.inputs)
    table_b = _inputs.parse(args.concept_b, concepts.parse_ratings, record=args.inputs)
    ctx_a = _pick_context(table_a, args.context_a, "--context-a")
    ctx_b = _pick_context(table_b, args.context_b, "--context-b")
    dist_a = concepts.context_distribution(table_a, ctx_a)
    dist_b = concepts.context_distribution(table_b, ctx_b)
    relation = _inputs.parse(args.relation, entangle.parse_relation, record=args.inputs)
    state = entangle.combine(dist_a, dist_b, relation)
    gap = entangle.guppy_gap(state, dist_a, dist_b, args.exemplar)
    return {
        "exemplar": args.exemplar,
        "context_a": ctx_a,
        "context_b": ctx_b,
        "typicality_a": dist_a.probability(args.exemplar),
        "typicality_b": dist_b.probability(args.exemplar),
        "combined_marginal": entangle.marginal(state, "A").probability(args.exemplar),
        "gap": gap,
        "guppy_effect": gap > 0,
        "support": sorted(list(pair) for pair in state.support),
    }


def _cmd_semspace(args):
    from . import _inputs, semspace

    lowercase = not args.no_lowercase
    corpus = _inputs.parse(args.corpus, semspace.parse_corpus, lowercase, record=args.inputs)
    matrix = semspace.build_matrix(corpus)
    k = args.rank if args.rank is not None else min(len(matrix.terms), len(matrix.docs))
    space = semspace.svd_truncate(matrix, k)
    results = {
        "rank": space.rank,
        "terms": len(matrix.terms),
        "docs": len(matrix.docs),
        "singular_values": [float(s) for s in space.singular_values],
        "similarity": None,
        "comparison": None,
    }
    if args.pair is not None:
        t1, t2 = args.pair
        results["similarity"] = {
            "terms": [t1, t2],
            "value": semspace.similarity(space, t1, t2),
        }
    if args.compare is not None:
        s1, s2 = args.compare
        tok1, tok2 = semspace.tokenize(s1, lowercase), semspace.tokenize(s2, lowercase)
        import numpy as np

        same_bow = np.array_equal(
            semspace.bow_vector(tok1, matrix.terms), semspace.bow_vector(tok2, matrix.terms)
        )
        same_order = semspace.order_index(tok1, matrix.terms) == semspace.order_index(
            tok2, matrix.terms
        )
        results["comparison"] = {
            "sentence_1": s1,
            "sentence_2": s2,
            "bag_of_words": "indistinguishable" if same_bow else "distinguishable",
            "order": "indistinguishable" if same_order else "distinguishable",
        }
    return results


def _cmd_kolmo(args):
    from dataclasses import asdict

    from . import bell, polytope

    table = _load_table(args)
    result = polytope.realizable(table)
    weights = None
    if result.feasible:
        weights = [
            dict(asdict(s), weight=w)
            for s, w in zip(polytope.enumerate_strategies(), result.weights)
            if w > WEIGHT_CUTOFF
        ]
    return {
        "feasible": result.feasible,
        "classification": polytope.classify(table),
        "all_forms_value": bell.bell_value_all_forms(table),
        "max_residual": result.max_residual,
        "weights": weights,
        "witness": None if result.witness is None else asdict(result.witness),
        "table": asdict(table),
    }


def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", help="scenario JSON file with a joint table or mixing probability")
    sp.add_argument(
        "--odd-event",
        type=float,
        metavar="PROB",
        help="pet-food scenario: probability of the odd crossed-eating event",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextprob",
        description="Contextual probability toolkit: concept typicalities, "
        "entangled combinations, Bell-functional tests, classical "
        "realizability, and toy semantic spaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler):
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(handler=handler, format="record")
        return sp

    def add_format(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format",
            choices=("record", "tsv"),
            help="output format: JSON record (default) or tab-separated plot data",
        )

    sp = add("ratings", "rank exemplars of a rating table under one context", _cmd_ratings)
    add_format(sp)
    sp.add_argument("table", help="rating table file (tab-separated)")
    sp.add_argument(
        "--context",
        required=True,
        help="context label, or a unique substring of one",
    )

    sp = add("bell", "evaluate the Bell functional on a scenario", _cmd_bell)
    _add_scenario_flags(sp)
    sp.add_argument(
        "--tolerance",
        type=float,
        default=RESIDUAL_TOL,
        help="tolerance for the product-equality flags (default %(default)s)",
    )

    sp = add("sweep", "sweep the pet-food mixing probability", _cmd_sweep)
    add_format(sp)
    sp.epilog = (
        "A point's 'violated' compares its rounded functional value with "
        f"2 + {DEFAULT_TOL:g}, so within {DEFAULT_TOL:g} of the ceiling it can "
        "read false where 'bell --odd-event' at the same probability, which "
        "decides from the exact slacks, reads true."
    )
    sp.add_argument(
        "--grid",
        required=True,
        metavar="START:STOP:STEP",
        help="inclusive grid of mixing probabilities within [0, 1]",
    )

    sp = add("guppy", "combine two concepts and report an exemplar's boost", _cmd_guppy)
    sp.add_argument("--concept-a", required=True, help="rating table for the first concept")
    sp.add_argument("--concept-b", required=True, help="rating table for the second concept")
    sp.add_argument("--relation", required=True, help="compatibility pair file")
    sp.add_argument("--exemplar", required=True, help="exemplar present in both concepts")
    sp.add_argument("--context-a", help="context of the first table (default: its only one)")
    sp.add_argument("--context-b", help="context of the second table (default: its only one)")

    sp = add("semspace", "build a semantic space and compare representations", _cmd_semspace)
    sp.add_argument("--corpus", required=True, help="corpus file, one document per line")
    sp.add_argument("--rank", type=int, help="truncation rank (default: full rank)")
    sp.add_argument(
        "--pair", nargs=2, metavar=("TERM1", "TERM2"), help="report similarity of two terms"
    )
    sp.add_argument(
        "--compare",
        nargs=2,
        metavar=("SENT1", "SENT2"),
        help="compare two sentences as bags of words and in word order",
    )
    sp.add_argument(
        "--no-lowercase",
        action="store_true",
        help="keep the corpus and sentence case as-is",
    )

    sp = add("kolmo", "decide classical realizability of a scenario", _cmd_kolmo)
    _add_scenario_flags(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(raw)
    start = time.perf_counter()
    args.inputs = {}  # each input file's bytes, as the handler parsed them
    try:
        # The results dict, or the TSV rows under --format tsv.
        output = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digests = {}
    if args.inputs and args.format == "record":  # a TSV report lists no inputs
        import hashlib

        digests = {p: "sha256:" + hashlib.sha256(b).hexdigest() for p, b in args.inputs.items()}
    elapsed = time.perf_counter() - start

    if args.format == "tsv":
        lines = [
            f"# contextprob schema={SCHEMA_VERSION} version={__version__}",
            f"# command: {args.command} " + " ".join(raw[1:]),
            *output,
        ]
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "artifact_version": __version__,
            "command": raw,
            "inputs": digests,
            "results": output,
            "timing_s": round(elapsed, 6),
        }
        lines = [json.dumps(report, indent=2, sort_keys=True)]
    try:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`). Send the rest to
        # devnull so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
