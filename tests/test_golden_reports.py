"""The reports of all six subcommands on the shipped fixtures, pinned.

``golden_reports.json`` holds each report minus ``timing_s`` (a JSON record)
or its lines (tab-separated output). Commands run inside the fixture
directory, so the file names in a report do not depend on where the package
lives. semspace floats come from an SVD and are compared within 1e-12; every
other value must match exactly.

After a deliberate change to a report, rewrite the file with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from contextprob import concepts
from contextprob.cli import main
from contextprob.fixtures import fixture_path

GOLDEN = Path(__file__).with_name("golden_reports.json")
FIXTURES = fixture_path("toy_corpus.txt").parent
SEMSPACE_ATOL = 1e-12

GUPPY = [
    "guppy",
    "--concept-a", "petfish_pet_ratings.tsv",
    "--concept-b", "petfish_fish_ratings.tsv",
    "--relation", "pet_fish_pairs.tsv",
    "--exemplar", "guppy",
]

CASES = {
    "ratings-record": ["ratings", "pet_context_ratings.tsv", "--context", "chewing a bone"],
    "ratings-tsv": ["ratings", "pet_context_ratings.tsv", "--context", "weird", "--format", "tsv"],
    "bell-pet-food": ["bell", "--scenario", "pet_food_scenario.json"],
    "bell-tsirelson": ["bell", "--scenario", "tsirelson_pattern.json"],
    "sweep-record": ["sweep", "--grid", "0:1:0.001"],
    "sweep-tsv": ["sweep", "--grid", "0:1:0.001", "--format", "tsv"],
    "guppy-record": GUPPY,
    "semspace-full-rank": [
        "semspace", "--corpus", "toy_corpus.txt",
        "--compare", "mary hits john", "john hits mary",
    ],
    "semspace-rank-2": ["semspace", "--corpus", "toy_corpus.txt", "--rank", "2", "--pair", "mary", "john"],
    "kolmo-pet-food": ["kolmo", "--scenario", "pet_food_scenario.json"],
    "kolmo-tsirelson": ["kolmo", "--scenario", "tsirelson_pattern.json"],
    "kolmo-mixed": ["kolmo", "--odd-event", "1"],
}


def report(argv):
    """The report of one in-process run: the record minus ``timing_s``, or
    the lines of tab-separated output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    if "tsv" in argv:
        return out.getvalue().splitlines()
    record = json.loads(out.getvalue())
    del record["timing_s"]
    return record


def assert_close(got, want, atol, where="report"):
    """Equal structure; floats within ``atol``, everything else exact."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=atol), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], atol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, atol, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), where


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_subcommand_is_pinned(golden):
    assert golden.keys() == CASES.keys()
    assert {argv[0] for argv in CASES.values()} == {
        "ratings", "bell", "sweep", "guppy", "semspace", "kolmo"
    }


@pytest.mark.parametrize("case", CASES)
def test_report_is_unchanged(golden, monkeypatch, case):
    monkeypatch.chdir(FIXTURES)
    argv = CASES[case]
    got = report(argv)
    if argv[0] == "semspace":
        assert_close(got, golden[case], SEMSPACE_ATOL)
    else:
        assert json.dumps(got, sort_keys=True) == json.dumps(golden[case], sort_keys=True)


@pytest.mark.parametrize("case", ["ratings-record", "ratings-tsv"])
def test_a_ratings_report_builds_its_distribution_once(golden, monkeypatch, case):
    calls = []
    build = concepts.context_distribution

    def counted(table, context):
        calls.append(context)
        return build(table, context)

    monkeypatch.setattr(concepts, "context_distribution", counted)
    monkeypatch.chdir(FIXTURES)
    got = report(CASES[case])
    assert len(calls) == 1
    assert json.dumps(got, sort_keys=True) == json.dumps(golden[case], sort_keys=True)


if __name__ == "__main__":
    here = os.getcwd()
    os.chdir(FIXTURES)
    reports = {case: report(argv) for case, argv in CASES.items()}
    os.chdir(here)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
