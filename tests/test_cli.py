import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextprob import bell, cli
from contextprob._tolerance import GRID_SLACK
from contextprob.cli import main
from contextprob.fixtures import fixture_path

PET_RATINGS = str(fixture_path("pet_context_ratings.tsv"))
PETFISH_PET = str(fixture_path("petfish_pet_ratings.tsv"))
PETFISH_FISH = str(fixture_path("petfish_fish_ratings.tsv"))
PET_FISH_PAIRS = str(fixture_path("pet_fish_pairs.tsv"))
PET_FOOD_SCENARIO = str(fixture_path("pet_food_scenario.json"))
QUANTUM_PATTERN = str(fixture_path("tsirelson_pattern.json"))
TOY_CORPUS = str(fixture_path("toy_corpus.txt"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["schema_version"] == 1
    return report


# -------------------------------------------------------------------- ratings


def test_ratings_ranks_dog_first_under_the_bone_context(capsys):
    report = run_report(
        capsys, ["ratings", PET_RATINGS, "--context", "chewing a bone"]
    )
    results = report["results"]
    assert results["ranking"][0] == "dog"
    assert results["typicalities"]["dog"] == pytest.approx(6.81 / 15.84, abs=1e-9)
    assert report["inputs"][PET_RATINGS].startswith("sha256:")


def test_ratings_substring_context_resolution(capsys):
    report = run_report(capsys, ["ratings", PET_RATINGS, "--context", "weird"])
    assert report["results"]["ranking"][:2] == ["spider", "snake"]


def test_ratings_unknown_context_lists_the_available_ones(capsys):
    code, out, err = run(capsys, ["ratings", PET_RATINGS, "--context", "zzz"])
    assert code == 1
    assert err.startswith("error: unknown context")
    assert err.count("'The pet") == 2 and "weird person" in err


def test_ratings_ambiguous_context(capsys):
    code, _, err = run(capsys, ["ratings", PET_RATINGS, "--context", "pet"])
    assert code == 1
    assert "ambiguous" in err


def test_ratings_column_whose_sum_overflows(tmp_path):
    table = tmp_path / "huge.tsv"
    table.write_text("exemplar\tc\nx\t1e308\ny\t1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "contextprob", "ratings", str(table), "--context", "c"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert results["typicalities"] == {"x": 0.5, "y": 0.5}
    assert results["ranking"] == ["x", "y"]


def test_ratings_tsv_output(capsys):
    code, out, err = run(
        capsys,
        ["ratings", PET_RATINGS, "--context", "chewing a bone", "--format", "tsv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# contextprob schema=1")
    assert lines[2] == "rank\texemplar\ttypicality"
    assert lines[3].startswith("1\tdog\t")


# ----------------------------------------------------------------------- bell


def test_bell_at_zero_mixing_is_maximal(capsys):
    report = run_report(capsys, ["bell", "--odd-event", "0"])
    results = report["results"]
    assert results["bell_value"] == 4.0
    assert results["violated"] is True
    assert results["classification"] == "supra-quantum"
    assert results["product_equality"]["cells"] == [[False, True], [True, True]]
    assert results["product_equality"]["all_hold"] is False


def test_bell_at_full_mixing_is_classical(capsys):
    report = run_report(capsys, ["bell", "--odd-event", "1"])
    results = report["results"]
    assert results["bell_value"] == 2.0
    assert results["violated"] is False
    assert results["classification"] == "classical"
    assert results["product_equality"]["all_hold"] is True


def test_bell_on_the_quantum_pattern_scenario(capsys):
    report = run_report(capsys, ["bell", "--scenario", QUANTUM_PATTERN])
    results = report["results"]
    assert results["classification"] == "quantum-achievable"
    assert results["product_equality"] is None
    assert report["inputs"][QUANTUM_PATTERN].startswith("sha256:")


def test_bell_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, ["bell"])
    assert code == 1 and "exactly one" in err
    code, _, err = run(
        capsys, ["bell", "--odd-event", "0", "--scenario", PET_FOOD_SCENARIO]
    )
    assert code == 1 and "exactly one" in err


def test_bell_rejects_out_of_range_probability(capsys):
    code, _, err = run(capsys, ["bell", "--odd-event", "1.5"])
    assert code == 1
    assert err.startswith("error:")


def test_bell_has_no_tsv_format(capsys):
    # --format exists only where a TSV does: ratings and sweep.
    for argv in (
        ["bell", "--odd-event", "0"],
        ["kolmo", "--odd-event", "0"],
        guppy_argv(),
        ["semspace", "--corpus", TOY_CORPUS],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "tsv"])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --format tsv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "e10, violated, classification",
    [
        (0.25 + 2**-54, True, "quantum-achievable"),
        (0.25, False, "classical"),
        (0.25 - 2**-54, False, "classical"),
    ],
)
def test_bell_violated_is_decided_from_the_exact_slack(
    capsys, tmp_path, e10, violated, classification
):
    # |1 + 0.75| + |e10| is 2 plus or minus 2**-54, which the float sum
    # rounds to 2.0 on every row.
    scenario = tmp_path / "edge.json"
    scenario.write_text(json.dumps({"joint": [[1.0, -0.75], [e10, 0.0]]}))
    results = run_report(capsys, ["bell", "--scenario", str(scenario)])["results"]
    assert results["bell_value"] == 2.0
    assert results["violated"] is violated
    assert results["classification"] == classification
    kolmo = run_report(capsys, ["kolmo", "--scenario", str(scenario)])["results"]
    assert kolmo["feasible"] is not violated


# ---------------------------------------------------------------------- sweep


def test_sweep_quarter_grid(capsys):
    report = run_report(capsys, ["sweep", "--grid", "0:1:0.25"])
    points = report["results"]["points"]
    assert [p["bell_value"] for p in points] == [4.0, 3.5, 3.0, 2.5, 2.0]
    assert [p["violated"] for p in points] == [True, True, True, True, False]


def test_sweep_singleton_grid(capsys):
    report = run_report(capsys, ["sweep", "--grid", "0:0:1"])
    assert len(report["results"]["points"]) == 1


def test_sweep_tsv(capsys):
    code, out, err = run(capsys, ["sweep", "--grid", "0:1:0.5", "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "odd_event_probability\tbell_value\tviolated"
    assert lines[3] == "0.0\t4.0\ttrue"
    assert lines[5] == "1.0\t2.0\tfalse"


def test_bell_and_sweep_differ_only_by_the_sweep_tolerance(capsys):
    # At p = 1 - 2**-53 the functional is 2 + 2**-52, which rounds to 2.0:
    # bell decides from the exact slack, sweep compares with 2 + 1e-12.
    p = 1.0 - 2.0**-53
    bell_results = run_report(capsys, ["bell", "--odd-event", repr(p)])["results"]
    assert bell_results["bell_value"] == 2.0
    assert bell_results["violated"] is True
    sweep = run_report(capsys, ["sweep", "--grid", f"{p!r}:{p!r}:1"])["results"]
    assert sweep["points"] == [
        {"odd_event_probability": p, "bell_value": 2.0, "violated": False}
    ]


def test_sweep_grid_validation(capsys):
    for bad in ("0:2:0.5", "1:0:0.5", "0:1:0", "0:1", "a:b:c"):
        code, _, err = run(capsys, ["sweep", "--grid", bad])
        assert code == 1, bad
        assert err.startswith("error:"), bad


def test_sweep_grid_rejects_non_finite_and_oversized_grids(capsys):
    for bad in ("0:1:nan", "0:1:inf", "nan:1:0.1", "0:nan:0.1"):
        code, _, err = run(capsys, ["sweep", "--grid", bad])
        assert code == 1, bad
        assert err.startswith("error: grid values must be finite"), bad
    for bad in ("0:1:1e-12", "0:1:5e-324", "0:1:1e-6"):
        code, _, err = run(capsys, ["sweep", "--grid", bad])
        assert code == 1, bad
        assert err.startswith("error:") and "more than 1000000 points" in err, bad


def test_sweep_grid_cap_counts_the_slack_past_stop(capsys):
    # A zero-width grid keeps every point within 1e-9 of its stop, so a
    # tiny step would otherwise mean about 1e-9 / step points.
    for bad in ("0.5:0.5:1e-300", "0:0:1e-15"):
        code, _, err = run(capsys, ["sweep", "--grid", bad])
        assert code == 1, bad
        assert err.startswith("error:") and "more than 1000000 points" in err, bad


def numpy_grid(text):
    """The grid of ``text`` as numpy built it: an independent oracle."""
    start, stop, step = (float(x) for x in text.split(":"))
    bound = stop + GRID_SLACK
    values = start + np.arange(int((bound - start) / step) + 2) * step
    return np.minimum(values[values <= bound], 1.0).tolist()


@st.composite
def grid_texts(draw):
    start, stop = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    points = draw(st.integers(1, 5_000))
    step = (stop - start + GRID_SLACK) / points * draw(st.floats(0.5, 2.0))
    return f"{start!r}:{stop!r}:{step!r}"


@settings(max_examples=300, deadline=None)
@given(grid_texts())
@example("0:1:1.000001e-6")  # just under the cap of 10**6 points
@example("0:1:0.001")
@example("0.5:0.5:1e-12")
def test_grid_matches_the_numpy_formula_bit_for_bit(text):
    grid = cli._parse_grid(text)
    assert type(grid) is list
    assert [v.hex() for v in grid] == [v.hex() for v in numpy_grid(text)]


# ---------------------------------------------------------------------- guppy


def guppy_argv(relation=PET_FISH_PAIRS, exemplar="guppy"):
    return [
        "guppy",
        "--concept-a", PETFISH_PET,
        "--concept-b", PETFISH_FISH,
        "--relation", relation,
        "--exemplar", exemplar,
    ]


def test_guppy_effect_on_the_shipped_tables(capsys):
    report = run_report(capsys, guppy_argv())
    results = report["results"]
    assert results["typicality_a"] == pytest.approx(0.1, abs=1e-12)
    assert results["typicality_b"] == pytest.approx(0.1, abs=1e-12)
    assert results["combined_marginal"] == pytest.approx(0.25, abs=1e-12)
    assert results["gap"] == pytest.approx(0.15, abs=1e-12)
    assert results["guppy_effect"] is True
    assert ["guppy", "guppy"] in results["support"]


def test_guppy_gap_can_be_negative(capsys, tmp_path):
    relation = tmp_path / "only_guppy.tsv"
    relation.write_text("guppy\tguppy\n")
    report = run_report(capsys, guppy_argv(str(relation), "goldfish"))
    results = report["results"]
    assert results["combined_marginal"] == 0.0
    assert results["gap"] == pytest.approx(-0.2, abs=1e-12)
    assert results["guppy_effect"] is False


def test_guppy_missing_relation_file(capsys, tmp_path):
    code, _, err = run(capsys, guppy_argv(str(tmp_path / "nope.tsv")))
    assert code == 1
    assert err.startswith("error:")


# ------------------------------------------------------------------- semspace


def test_semspace_sentence_comparison(capsys):
    report = run_report(
        capsys,
        [
            "semspace",
            "--corpus", TOY_CORPUS,
            "--compare", "mary hits john", "john hits mary",
        ],
    )
    comparison = report["results"]["comparison"]
    assert comparison["bag_of_words"] == "indistinguishable"
    assert comparison["order"] == "distinguishable"


def test_semspace_has_no_mode_flag(capsys):
    # Both comparisons are always reported, so the flag is a usage error.
    argv = ["semspace", "--corpus", TOY_CORPUS, "--compare", "fish and chips", "chips and fish"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--mode", "bow"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode bow" in capsys.readouterr().err
    comparison = run_report(capsys, argv)["results"]["comparison"]
    assert comparison["bag_of_words"] == "indistinguishable"
    assert comparison["order"] == "distinguishable"


def test_semspace_similarity_pair(capsys):
    report = run_report(
        capsys,
        ["semspace", "--corpus", TOY_CORPUS, "--pair", "mary", "john", "--rank", "2"],
    )
    results = report["results"]
    assert results["rank"] == 2
    assert -1.0 <= results["similarity"]["value"] <= 1.0
    assert results["singular_values"] == sorted(
        results["singular_values"], reverse=True
    )


def test_semspace_rejects_bad_rank(capsys):
    code, _, err = run(
        capsys, ["semspace", "--corpus", TOY_CORPUS, "--rank", "99"]
    )
    assert code == 1
    assert "rank must be between" in err


def test_semspace_rejects_unknown_comparison_words(capsys):
    code, _, err = run(
        capsys,
        ["semspace", "--corpus", TOY_CORPUS, "--compare", "mary zebra", "zebra mary"],
    )
    assert code == 1
    assert "not in vocabulary" in err


# ---------------------------------------------------------------------- kolmo


def test_kolmo_rejects_the_perfect_correlation_scenario(capsys):
    report = run_report(capsys, ["kolmo", "--scenario", PET_FOOD_SCENARIO])
    results = report["results"]
    assert results["feasible"] is False
    assert results["weights"] is None
    assert results["classification"] == "supra-quantum"
    witness = results["witness"]
    assert witness["kind"] == "bell-form"
    assert witness["value"] == pytest.approx(4.0, abs=1e-9)
    assert witness["bound"] == 2.0


def test_kolmo_has_no_tolerance_flag(capsys):
    # The decision is exact and the weights closed form: no setting changes
    # the report, so the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["kolmo", "--odd-event", "1", "--tolerance", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-9" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bell"])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_both_tolerance_flags_are_checked_alike(capsys, command, tol):
    # With singles (the pet-food table) and without (the Tsirelson pattern).
    for table in (["--odd-event", "0"], ["--scenario", QUANTUM_PATTERN]):
        code, out, err = run(capsys, [command, *table, "--tolerance", tol])
        assert (code, out) == (1, "")
        assert err == f"error: tolerance must be a non-negative number, got {float(tol)!r}\n"


@pytest.mark.parametrize("command", ["bell", "kolmo"])
def test_a_run_computes_the_chsh_slacks_once(capsys, monkeypatch, command):
    computed = []
    slacks = bell._chsh_slacks

    def counted(joint):
        computed.append(joint)
        return slacks(joint)

    monkeypatch.setattr(bell, "_chsh_slacks", counted)
    run_report(capsys, [command, "--scenario", QUANTUM_PATTERN])
    assert len(computed) == 1


def test_kolmo_accepts_the_fully_mixed_scenario(capsys):
    report = run_report(capsys, ["kolmo", "--odd-event", "1"])
    results = report["results"]
    assert results["feasible"] is True
    assert results["witness"] is None
    total = sum(w["weight"] for w in results["weights"])
    assert total == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------- input errors


@pytest.mark.parametrize(
    "command, text",
    [
        ("kolmo", "[" * 200_000),
        ("bell", "[" * 200_000),
        ("kolmo", '{"joint": ' + "[" * 5_000 + "]" * 5_000 + "}"),
    ],
    ids=["brackets-kolmo", "brackets-bell", "deep-joint"],
)
def test_deeply_nested_scenario_is_an_error_line(capsys, tmp_path, monkeypatch, command, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(text)
    code, out, err = run(capsys, [command, "--scenario", "deep.json"])
    assert (code, out, err) == (1, "", "error: deep.json: JSON nested too deeply\n")


@pytest.mark.parametrize("command", ["bell", "kolmo"])
def test_text_singles_in_a_scenario_are_an_error_line(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    scenario = {"joint": [[0, 0], [0, 0]], "singles_a": ["0.5", 0.5], "singles_b": [0, 0]}
    (tmp_path / "text.json").write_text(json.dumps(scenario))
    code, out, err = run(capsys, [command, "--scenario", "text.json"])
    assert (code, out) == (1, "")
    assert err == "error: text.json: expectation out of range at single ('row-0'): '0.5'\n"


ALLOWED_KEYS = (
    "'description', 'odd_event_probability', 'joint', 'row_contexts', "
    "'col_contexts', 'singles_a', 'singles_b'"
)


@pytest.mark.parametrize("command", ["bell", "kolmo"])
@pytest.mark.parametrize(
    "scenario, message",
    [
        (
            {"joint": [[1, 0], [0, 1]], "single_a": [0.5, 0.5]},
            f"unknown keys 'single_a'; a scenario takes {ALLOWED_KEYS}",
        ),
        (
            {"odd_event_probability": 0.5, "Joint": [[1, 0], [0, 1]], "notes": "x"},
            f"unknown keys 'Joint', 'notes'; a scenario takes {ALLOWED_KEYS}",
        ),
        (
            {"odd_event_probability": 0.5, "singles_a": [0, 0]},
            "table keys 'singles_a' go with 'joint', not 'odd_event_probability'",
        ),
        (
            {"odd_event_probability": 0.5, "row_contexts": ["a", "b"], "singles_b": None},
            "table keys 'row_contexts', 'singles_b' go with 'joint', not 'odd_event_probability'",
        ),
    ],
    ids=["misspelled-singles", "unknown-keys", "singles-beside-p", "table-keys-beside-p"],
)
def test_a_scenario_key_that_is_not_read_is_an_error_line(
    capsys, tmp_path, monkeypatch, command, scenario, message
):
    # The parent decided the first as a joints-only table and dropped the
    # singles of the third without a word.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keys.json").write_text(json.dumps(scenario))
    code, out, err = run(capsys, [command, "--scenario", "keys.json"])
    assert (code, out, err) == (1, "", f"error: keys.json: {message}\n")


def test_a_description_goes_with_either_kind_of_scenario(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for scenario in ({"description": "d", "odd_event_probability": 0.5},
                     {"description": "d", "joint": [[1, 0], [0, 1]]}):
        (tmp_path / "d.json").write_text(json.dumps(scenario))
        run_report(capsys, ["kolmo", "--scenario", "d.json"])


def test_a_string_of_row_contexts_is_an_error_line(capsys, tmp_path, monkeypatch):
    # A string is a sequence too: "ab" must not become the labels 'a' and 'b'.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"row_contexts": "ab", "joint": [[1, 1], [1, 1]]}))
    code, out, err = run(capsys, ["bell", "--scenario", "s.json"])
    assert (code, out) == (1, "")
    assert err == "error: s.json: row_contexts must be a list of two labels, got 'ab'\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"singles_a": 5, "singles_b": [0, 0]}, "singles_a must be a list of two numbers, got 5"),
        ({"singles_a": [0, 0], "singles_b": True}, "singles_b must be a list of two numbers, got True"),
        ({"row_contexts": None}, "row_contexts must be a list of two labels, got None"),
        ({"col_contexts": 7}, "col_contexts must be a list of two labels, got 7"),
    ],
    ids=["int-singles", "bool-singles", "null-contexts", "int-contexts"],
)
def test_a_wrong_typed_scenario_field_is_named(capsys, tmp_path, monkeypatch, fields, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"joint": [[0, 0], [0, 0]], **fields}))
    code, out, err = run(capsys, ["kolmo", "--scenario", "s.json"])
    assert (code, out, err) == (1, "", f"error: s.json: {message}\n")


@pytest.mark.parametrize("value", [True, "0.5"], ids=["true", "text"])
def test_an_odd_event_probability_that_is_no_number_is_an_error_line(
    capsys, tmp_path, monkeypatch, value
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps({"odd_event_probability": value}))
    code, out, err = run(capsys, ["bell", "--scenario", "p.json"])
    assert (code, out) == (1, "")
    assert err == f"error: p.json: odd_event_probability must be a number, got {value!r}\n"


@pytest.mark.parametrize("command", ["bell"])
def test_an_infinite_tolerance_is_an_error_line(capsys, command):
    code, out, err = run(capsys, [command, "--odd-event", "0", "--tolerance", "1e400"])
    assert (code, out) == (1, "")
    assert err == "error: tolerance must be finite, got inf\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bin.tsv", ["ratings", "bin.tsv", "--context", "c"]),
        ("bin.txt", ["semspace", "--corpus", "bin.txt"]),
        ("bin.json", ["kolmo", "--scenario", "bin.json"]),
    ],
    ids=["ratings", "semspace", "scenario"],
)
def test_file_that_is_not_utf8_is_named(capsys, tmp_path, monkeypatch, name, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(b"exemplar\tc\nx\t\xff\n")
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (
        f"error: {name}: 'utf-8' codec can't decode byte 0xff in position 13: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "joint, message",
    [
        (
            [[[0.1], [0.2]], [[0.3], [0.4]]],
            "joint expectations must be 2x2, got [[[0.1], [0.2]], [[0.3], [0.4]]]",
        ),
        (
            [[0.1, None], [0.3, 0.4]],
            "expectation out of range at ('row-0', 'col-1'): None",
        ),
    ],
    ids=["3-D", "None-cell"],
)
def test_malformed_scenario_joint_is_an_error_line(
    capsys, tmp_path, monkeypatch, joint, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text(json.dumps({"joint": joint}))
    code, out, err = run(capsys, ["kolmo", "--scenario", "j.json"])
    assert (code, out, err) == (1, "", f"error: j.json: {message}\n")


LONG = "q" * 100_000

#: Inputs that name a 100,000-character value: each file's name and text, and
#: the command line that reads it.
LONG_INPUTS = {
    "row contexts twice": (
        "s.json", json.dumps({"row_contexts": [LONG, LONG], "joint": [[0, 0], [0, 0]]}),
        ["bell", "--scenario", "s.json"],
    ),
    "row contexts a string": (
        "s.json", json.dumps({"row_contexts": LONG, "joint": [[0, 0], [0, 0]]}),
        ["bell", "--scenario", "s.json"],
    ),
    "single a string": (
        "s.json",
        json.dumps({"joint": [[0, 0], [0, 0]], "singles_a": [LONG, 0], "singles_b": [0, 0]}),
        ["kolmo", "--scenario", "s.json"],
    ),
    "50,000 singles": (
        "s.json",
        json.dumps({"joint": [[0, 0], [0, 0]], "singles_a": [0] * 50_000, "singles_b": [0, 0]}),
        ["kolmo", "--scenario", "s.json"],
    ),
    "odd event a string": (
        "s.json", json.dumps({"odd_event_probability": LONG}), ["bell", "--scenario", "s.json"],
    ),
    "negative rating": (
        "r.tsv", f"exemplar\tc\n{LONG}\t-1\n", ["ratings", "r.tsv", "--context", "c"],
    ),
    "rating a string": (
        "r.tsv", f"exemplar\tc\nx\t{LONG}\n", ["ratings", "r.tsv", "--context", "c"],
    ),
    "relation line": ("p.tsv", f"{LONG}\n", guppy_argv(relation="p.tsv")),
    "relation pair twice": ("p.tsv", f"{LONG}\t{LONG}\n" * 2, guppy_argv(relation="p.tsv")),
    "grid": (None, None, ["sweep", "--grid", LONG]),
}


@pytest.mark.parametrize("name", LONG_INPUTS)
def test_a_long_input_gives_one_short_error_line(capsys, tmp_path, monkeypatch, name):
    filename, text, argv = LONG_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    if filename:
        (tmp_path / filename).write_text(text)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 1024 and "..." in err  # the value is shown cut


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_rating_names_its_line_and_cell(capsys, tmp_path, monkeypatch, cell):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.tsv").write_text(f"exemplar\tc\nx\t1\ny\t{cell}\n")
    code, out, err = run(capsys, ["ratings", "r.tsv", "--context", "c"])
    assert (code, out) == (1, "")
    assert err == f"error: r.tsv: line 3: rating at ('y', 'c') is not finite: '{cell}'\n"


# ---------------------------------------------------------- one read per input


def raw(path):
    with open(path, "rb") as f:
        return f.read()


def sha256(path):
    return "sha256:" + hashlib.sha256(raw(path)).hexdigest()


def cli_run(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "contextprob", *argv],
        capture_output=True,
        timeout=30,
        **kwargs,
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_input_is_read_once_and_digested(tmp_path):
    import threading

    fifo = tmp_path / "ratings.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:  # blocks until the run opens the pipe
            f.write(raw(PET_RATINGS))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    proc = cli_run("ratings", str(fifo), "--context", "chewing a bone")
    writer.join(timeout=5)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"] == {str(fifo): sha256(PET_RATINGS)}
    assert report["results"]["ranking"][0] == "dog"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_scenario_piped_to_dev_stdin_is_digested():
    proc = cli_run("kolmo", "--scenario", "/dev/stdin", input=raw(QUANTUM_PATTERN))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"] == {"/dev/stdin": sha256(QUANTUM_PATTERN)}
    assert report["results"]["classification"] == "quantum-achievable"


def test_guppy_reads_each_input_path_once(capsys, monkeypatch):
    import pathlib

    reads = []
    for name in ("read_bytes", "read_text"):
        method = getattr(pathlib.Path, name)

        def counted(self, *args, _method=method, **kwargs):
            reads.append(str(self))
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, name, counted)
    report = run_report(capsys, guppy_argv())
    assert sorted(reads) == sorted([PETFISH_PET, PETFISH_FISH, PET_FISH_PAIRS])
    assert report["inputs"] == {p: sha256(p) for p in (PETFISH_PET, PETFISH_FISH, PET_FISH_PAIRS)}


def crlf_copy(tmp_path, path):
    copy = tmp_path / ("crlf-" + os.path.basename(path))
    copy.write_bytes(raw(path).replace(b"\n", b"\r\n"))
    return str(copy)


def test_crlf_inputs_give_the_same_results(capsys, tmp_path):
    def argvs(p):
        return [
            ["ratings", p(PET_RATINGS), "--context", "bone"],
            ["bell", "--scenario", p(PET_FOOD_SCENARIO)],
            ["kolmo", "--scenario", p(QUANTUM_PATTERN)],
            [
                "guppy",
                "--concept-a", p(PETFISH_PET),
                "--concept-b", p(PETFISH_FISH),
                "--relation", p(PET_FISH_PAIRS),
                "--exemplar", "guppy",
            ],
            ["semspace", "--corpus", p(TOY_CORPUS), "--compare", "mary hits john", "john hits mary"],
        ]

    for lf, crlf in zip(argvs(str), argvs(lambda path: crlf_copy(tmp_path, path))):
        report = run_report(capsys, crlf)
        assert report["results"] == run_report(capsys, lf)["results"], lf[0]
        assert all(b"\r\n" in raw(p) for p in report["inputs"])


READ_ERRORS = {
    "ratings-not-utf8": (
        ["ratings", "{f}", "--context", "c"],
        b"exemplar\tc\n\xff\xfex\t1\n",
        "{f}: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ),
    "kolmo-not-utf8": (
        ["kolmo", "--scenario", "{f}"],
        b'{"joint": [[1, 0], [0, 1]], "description": "\xff"}',
        "{f}: 'utf-8' codec can't decode byte 0xff in position 44: invalid start byte",
    ),
    "semspace-not-utf8": (
        ["semspace", "--corpus", "{f}"],
        b"mary hits john\n\xc3\x28 bad\n",
        "{f}: 'utf-8' codec can't decode byte 0xc3 in position 15: invalid continuation byte",
    ),
    "negative-rating": (
        ["ratings", "{f}", "--context", "c"],
        b"exemplar\tc\ndog\t-1\ncat\t2\n",
        "{f}: line 2: negative rating at ('dog', 'c'): -1.0",
    ),
    "missing-file": (
        ["ratings", "{f}", "--context", "c"],
        None,
        "[Errno 2] No such file or directory: '{f}'",
    ),
    "deep-json": (
        ["kolmo", "--scenario", "{f}"],
        b"[" * 100_000 + b"]" * 100_000,
        "{f}: JSON nested too deeply",
    ),
    "misspelled-key": (
        ["kolmo", "--scenario", "{f}"],
        b'{"joint": [[1, 0], [0, 1]], "single_a": [0.5, 0.5]}',
        f"{{f}}: unknown keys 'single_a'; a scenario takes {ALLOWED_KEYS}",
    ),
    "truncated-json": (
        ["bell", "--scenario", "{f}"],
        b'{"joint": [[1, 0], [0, 1]\n',
        "{f}: not valid JSON: Expecting ',' delimiter: line 2 column 1 (char 26)",
    ),
    "text-cell": (
        ["ratings", "{f}", "--context", "c"],
        b"exemplar\tc\ndog\tlots\ncat\t2\n",
        "{f}: line 2: rating at ('dog', 'c') is not a number: 'lots'",
    ),
    "non-grid-joint": (
        ["bell", "--scenario", "{f}"],
        b'{"joint": [[1, 0, 0], [0, 1]]}',
        "{f}: joint expectations must be 2x2, got [[1, 0, 0], [0, 1]]",
    ),
    "guppy-bad-relation": (
        guppy_argv(relation="{f}"),
        b"guppy\tguppy\nonlyone\n",
        "{f}: line 2: expected two tab-separated labels, got 'onlyone'",
    ),
}


@pytest.mark.parametrize("argv, data, message", READ_ERRORS.values(), ids=READ_ERRORS)
def test_a_bad_input_file_is_one_error_line_naming_it(capsys, tmp_path, argv, data, message):
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    argv = [a.format(f=path) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message.format(f=path)}\n")


def test_importing_the_cli_loads_no_reader():
    # The handlers import the reader, as they import the library modules.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, contextprob.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "contextprob._inputs" not in proc.stdout


# ----------------------------------------------------------------- invariants


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing_s"}


def test_reports_are_deterministic(capsys):
    argv = ["bell", "--scenario", PET_FOOD_SCENARIO]
    first = strip_timing(run_report(capsys, argv))
    second = strip_timing(run_report(capsys, argv))
    assert first == second


def test_tsv_output_is_byte_identical_across_runs(capsys):
    argv = ["sweep", "--grid", "0:1:0.125", "--format", "tsv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_report_echoes_the_command_line(capsys):
    report = run_report(capsys, ["sweep", "--grid", "0:0:1"])
    assert report["command"] == ["sweep", "--grid", "0:0:1"]
    assert report["artifact_version"]


def test_module_entry_point_reports_the_version():
    proc = subprocess.run(
        [sys.executable, "-m", "contextprob", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("contextprob ")


@pytest.mark.parametrize(
    "argv",
    [
        ["kolmo", "--scenario", PET_FOOD_SCENARIO],
        ["sweep", "--grid", "0:1:0.25", "--format", "tsv"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # The reader is gone before the report is written, as with `| head`
    # once it has its lines.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "contextprob", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def imported_modules(*args):
    """Top-level modules a fresh interpreter imports for ``args``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_scipy_stays_out_of_the_runtime():
    library = imported_modules("-c", "import contextprob")
    assert "contextprob" in library
    assert "scipy" not in library
    command = imported_modules("-m", "contextprob", "ratings", PET_RATINGS, "--context", "bone")
    assert "numpy" in command
    assert "scipy" not in command


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import contextprob"),
        ("-m", "contextprob", "bell", "--odd-event", "0"),
        ("-m", "contextprob", "kolmo", "--scenario", QUANTUM_PATTERN),
        ("-m", "contextprob", "sweep", "--grid", "0:1:0.001"),
        ("-m", "contextprob", "kolmo", "--odd-event", "1"),  # a feasible table: Fine's weights
    ],
)
def test_bell_kolmo_and_sweep_run_without_numpy(args):
    modules = imported_modules(*args)
    assert "contextprob" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "args, digests",
    [
        (("-m", "contextprob", "bell", "--odd-event", "0"), False),
        (("-m", "contextprob", "sweep", "--grid", "0:1:0.001"), False),
        (("-m", "contextprob", "kolmo", "--scenario", QUANTUM_PATTERN), True),
        (("-m", "contextprob", "ratings", PET_RATINGS, "--context", "bone", "--format", "tsv"), False),
    ],
)
def test_hashlib_loads_only_to_digest_input_files(args, digests):
    assert ("hashlib" in imported_modules(*args)) is digests


def test_a_tsv_report_digests_no_input(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a TSV report lists no inputs to digest")

    monkeypatch.setattr(hashlib, "sha256", refuse)
    code, out, err = run(capsys, ["ratings", PET_RATINGS, "--context", "bone", "--format", "tsv"])
    assert (code, err) == (0, "")
    assert out.startswith("# contextprob schema=")
