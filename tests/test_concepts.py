import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextprob._tolerance import DEFAULT_TOL
from contextprob.concepts import (
    ContextDistribution,
    RatingTable,
    context_distribution,
    context_state,
    load_ratings,
    parse_ratings,
    rank_exemplars,
    typicality,
)
from contextprob.hilbert import Projector, born_prob
from conftest import (
    CONTEXT_BONE,
    CONTEXT_TAUGHT,
    CONTEXT_WEIRD,
    PET_CONTEXTS,
    PET_RATING_ROWS,
    pet_column,
)


def small_table(ratings, exemplars=("ant", "bee"), contexts=("c1",)):
    return RatingTable(exemplars, contexts, np.array(ratings))


# -------------------------------------------------------------------- parsing


def test_shipped_pet_table_shape(pet_table):
    assert len(pet_table.exemplars) == 14
    assert pet_table.contexts == PET_CONTEXTS


def test_shipped_pet_table_matches_frozen_rows(pet_table):
    for exemplar, row in PET_RATING_ROWS.items():
        for context, value in zip(PET_CONTEXTS, row):
            assert pet_table.rating(exemplar, context) == value


def test_parse_negative_cell_cites_coordinates():
    text = "exemplar\tc1\nant\t0.5\nbee\t-0.1\n"
    with pytest.raises(ValueError, match=r"line 3: negative rating at \('bee', 'c1'\)"):
        parse_ratings(text)


@pytest.mark.parametrize("cell", ["nan", "inf", "Infinity", "1e999"])
def test_parse_non_finite_cell_cites_coordinates(cell):
    text = f"exemplar\tc1\nant\t0.5\nbee\t{cell}\n"
    with pytest.raises(
        ValueError, match=rf"^line 3: rating at \('bee', 'c1'\) is not finite: '{cell}'$"
    ):
        parse_ratings(text)


def test_a_negative_rating_is_shown_as_a_python_float():
    # Not np.float64(-1.0), numpy 2's repr: the message reads the same under any numpy.
    with pytest.raises(ValueError) as err:
        RatingTable(("a", "b"), ("c",), [[-1.0], [1.0]])
    assert str(err.value) == "negative rating at ('a', 'c'): -1.0"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.0, math.inf], [-1.0, 1.0]], "rating at ('a', 'd') is not finite: inf"),
        ([[1.0, math.nan], [-1.0, 1.0]], "rating at ('a', 'd') is not finite: nan"),
        ([[1.0, -1.0], [math.inf, 1.0]], "negative rating at ('a', 'd'): -1.0"),
        ([[1.0, -math.inf], [math.nan, 1.0]], "negative rating at ('a', 'd'): -inf"),
    ],
    ids=["inf", "nan", "negative-first", "minus-inf"],
)
def test_the_first_refused_rating_is_named_by_its_cell(rows, message):
    # Row by row, the cell and the message parse_ratings gives, without the line.
    with pytest.raises(ValueError) as err:
        RatingTable(("a", "b"), ("c", "d"), rows)
    assert str(err.value) == message
    text = "exemplar\tc\td\n" + "".join(f"{x}\t{r[0]!r}\t{r[1]!r}\n" for x, r in zip("ab", rows))
    with pytest.raises(ValueError) as err:
        parse_ratings(text)
    assert str(err.value).startswith(f"line 2: {message.rsplit(': ', 1)[0]}: ")


def test_a_rating_array_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError) as err:
        RatingTable(("a", "b"), ("c",), [[1.0]])
    assert str(err.value) == "rating shape (1, 1) does not match 2 exemplars x 1 contexts"


def test_a_header_alone_is_no_table():
    with pytest.raises(ValueError) as err:
        parse_ratings("exemplar\tc1\n\n")
    assert str(err.value) == "rating table needs a header line and at least one exemplar row"


def test_a_header_with_an_empty_context_label_is_refused():
    with pytest.raises(ValueError) as err:
        parse_ratings("exemplar\tc1\t \nant\t1\t2\n")
    assert str(err.value) == "line 1: header must list at least one non-empty context label"


def test_a_repeated_context_label_names_the_header_line():
    with pytest.raises(ValueError) as err:
        parse_ratings("\nexemplar\tc\tc\nant\t1\t2\n")  # the header is on line 2
    assert str(err.value) == "line 2: duplicate context label: 'c'"


def test_parse_minus_infinity_is_a_negative_rating():
    with pytest.raises(ValueError, match=r"line 2: negative rating at \('ant', 'c1'\): -inf"):
        parse_ratings("exemplar\tc1\nant\t-inf\n")


def test_parse_non_numeric_cell_cites_coordinates():
    text = "exemplar\tc1\nant\tmany\n"
    with pytest.raises(ValueError, match=r"line 2: .*\('ant', 'c1'\).*'many'"):
        parse_ratings(text)


def test_parse_duplicate_exemplar_rejected():
    text = "exemplar\tc1\nant\t1\nant\t2\n"
    with pytest.raises(ValueError, match="duplicate exemplar label: 'ant'"):
        parse_ratings(text)


def test_parse_duplicate_exemplar_names_both_lines():
    text = "exemplar\tc1\nant\t1\n\nbee\t2\nant\t3\n"
    with pytest.raises(ValueError) as err:
        parse_ratings(text)
    assert str(err.value) == "line 5: duplicate exemplar label: 'ant', first on line 2"


def test_parse_empty_exemplar_names_its_line():
    text = "exemplar\tc1\nant\t1\n \t2\n"
    with pytest.raises(ValueError) as err:
        parse_ratings(text)
    assert str(err.value) == "line 3: exemplar labels must be non-empty strings, got ''"


def test_parse_all_zero_column_rejected():
    text = "exemplar\tc1\tc2\nant\t1\t0\nbee\t2\t0\n"
    with pytest.raises(ValueError, match="no mass: 'c2'"):
        parse_ratings(text)


def test_parse_ragged_row_rejected():
    text = "exemplar\tc1\tc2\nant\t1\n"
    with pytest.raises(ValueError, match="line 2: expected 3 fields, got 2"):
        parse_ratings(text)


def test_parse_skips_blank_lines():
    text = "exemplar\tc1\n\nant\t1\n\nbee\t3\n"
    table = parse_ratings(text)
    assert table.exemplars == ("ant", "bee")


def test_load_ratings_prefixes_path_on_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("exemplar\tc1\nant\t-1\n")
    with pytest.raises(ValueError, match="bad.tsv"):
        load_ratings(bad)


def test_load_ratings_names_the_file_when_it_is_not_utf8(tmp_path):
    bad = tmp_path / "bin.tsv"
    bad.write_bytes(b"exemplar\tc1\nant\t\xff\n")
    with pytest.raises(ValueError, match=r"bin\.tsv: 'utf-8' codec can't decode byte 0xff"):
        load_ratings(bad)


# ------------------------------------------------------- context_distribution


def test_distribution_dog_under_bone_context(pet_table):
    column_sum = sum(pet_column(0))
    dist = context_distribution(pet_table, CONTEXT_BONE)
    assert dist.probability("dog") == pytest.approx(6.81 / column_sum, abs=1e-12)
    assert dist.probability("dog") == pytest.approx(6.81 / 15.84, abs=1e-9)


def test_distribution_single_exemplar_is_certain():
    table = small_table([[2.4]], exemplars=("ant",))
    assert context_distribution(table, "c1").probability("ant") == 1.0


def test_distribution_equal_ratings_split_evenly():
    table = small_table([[3.3], [3.3]])
    dist = context_distribution(table, "c1")
    assert dist.probability("ant") == 0.5
    assert dist.probability("bee") == 0.5


def test_distribution_unknown_context_lists_available(pet_table):
    with pytest.raises(ValueError) as err:
        context_distribution(pet_table, "nope")
    for context in PET_CONTEXTS:
        assert context in str(err.value)


def test_a_distribution_needs_a_context_label():
    for context in ("", None):
        with pytest.raises(ValueError) as err:
            ContextDistribution(context, {"a": 1.0})
        assert str(err.value) == "context label must be a non-empty string"


def test_a_distribution_has_no_other_lazy_attribute():
    dist = ContextDistribution("c", {"a": 0.25, "b": 0.75})
    assert not hasattr(dist, "zzz")
    with pytest.raises(AttributeError) as err:
        dist.zzz
    assert str(err.value) == "'ContextDistribution' object has no attribute 'zzz'"
    # A copy is built without __init__, so it asks for names it does not hold yet.
    copied = copy.deepcopy(dist)
    assert copied.probabilities == {"a": 0.25, "b": 0.75}
    assert copied.probability("b") == 0.75


def test_distribution_constructor_validates_sum():
    with pytest.raises(ValueError, match="sum to"):
        ContextDistribution("c", {"a": 0.5, "b": 0.4})


def per_entry_distribution(probabilities):
    """The per-entry check ContextDistribution made before it checked arrays,
    kept as the oracle for its messages and its clamped values."""
    probs = {}
    for label, p in dict(probabilities).items():
        if not isinstance(label, str) or not label:
            raise ValueError(f"exemplar labels must be non-empty strings, got {label!r}")
        p = float(p)
        if not (-DEFAULT_TOL <= p <= 1.0 + DEFAULT_TOL):
            raise ValueError(f"probability for {label!r} out of range: {p!r}")
        probs[label] = min(max(p, 0.0), 1.0)
    if not probs:
        raise ValueError("distribution needs at least one exemplar")
    total = float(sum(probs.values()))
    if abs(total - 1.0) > DEFAULT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return probs


def outcome(build, probabilities):
    """Each label with the bits of its probability, or the error message."""
    try:
        result = build(probabilities)
    except ValueError as exc:
        return str(exc)
    return [(label, p.hex()) for label, p in result.items()]


def array_checked(probabilities):
    return ContextDistribution("c", probabilities).probabilities


EDGE_VALUES = [
    -0.0, 0.0, 1.0, -DEFAULT_TOL, 1.0 + DEFAULT_TOL, -DEFAULT_TOL / 2,
    DEFAULT_TOL / 2, -2 * DEFAULT_TOL, 1.0 + 2 * DEFAULT_TOL, 2.0**-1074,
    -(2.0**-1074), math.nan, math.inf, -math.inf,
]


@st.composite
def probability_maps(draw):
    """Normalized weights, some replaced by values at or past the range
    edges, under distinct non-empty labels."""
    weights = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12))
    total = sum(weights)
    probs = [w / total for w in weights] if total > 0 else weights
    for i in draw(st.lists(st.integers(0, len(probs) - 1), max_size=3)):
        probs[i] = draw(
            st.sampled_from(EDGE_VALUES) | st.floats(-1e-11, 1e-11) | st.floats(1.0, 1.0 + 1e-11)
        )
    labels = draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=len(probs), max_size=len(probs), unique=True)
    )
    return dict(zip(labels, probs))


@settings(max_examples=400, deadline=None)
@given(probability_maps())
def test_array_check_matches_the_per_entry_check_bit_for_bit(probabilities):
    expected = outcome(per_entry_distribution, probabilities)
    assert outcome(array_checked, probabilities) == expected


def test_negative_zero_and_range_dust_clamp_like_the_per_entry_check():
    probabilities = {"a": -0.0, "b": -DEFAULT_TOL, "c": 1.0 + DEFAULT_TOL / 2}
    got = ContextDistribution("c", probabilities).probabilities
    assert [p.hex() for p in got.values()] == ["-0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"]
    assert got == per_entry_distribution(probabilities)


@pytest.mark.parametrize(
    "probabilities, message",
    [
        ({}, "distribution needs at least one exemplar"),
        ({"a": 0.5, "": 0.5}, "exemplar labels must be non-empty strings, got ''"),
        ({"a": 0.5, 3: 0.5}, "exemplar labels must be non-empty strings, got 3"),
        ({"a": 0.5, "b": 1.5, "c": -0.5}, "probability for 'b' out of range: 1.5"),
        ({"a": 0.5, "b": math.nan}, "probability for 'b' out of range: nan"),
        ({"a": 0.5, "b": -0.1}, "probability for 'b' out of range: -0.1"),
        ({"a": 0.5, "b": 0.4}, "probabilities sum to 0.9, expected 1"),
    ],
    ids=["empty", "empty-label", "non-string-label", "first-out-of-range", "nan", "negative", "sum"],
)
def test_one_defect_gets_the_per_entry_message(probabilities, message):
    with pytest.raises(ValueError) as err:
        ContextDistribution("c", probabilities)
    assert str(err.value) == message
    with pytest.raises(ValueError) as oracle:
        per_entry_distribution(probabilities)
    assert str(oracle.value) == message


def test_column_whose_sum_overflows_keeps_its_proportions():
    # Each rating is finite, but the column sum is past the float range.
    text = "exemplar\tc\tplain\nx\t1e308\t1\ny\t1e308\t3\nz\t4e307\t0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = parse_ratings(text)
        dist = context_distribution(table, "c")
        assert rank_exemplars(table, "c") == ["x", "y", "z"]
        assert context_state(table, "c").dim == 3
    assert dist.probability("x") == dist.probability("y")
    assert dist.probability("x") == pytest.approx(10 / 24, rel=1e-15)
    assert dist.probability("z") == pytest.approx(4 / 24, rel=1e-15)
    assert context_distribution(table, "plain").probabilities == {
        "x": 0.25, "y": 0.75, "z": 0.0
    }


def test_ordinary_columns_are_divided_by_their_plain_sum(pet_table):
    for context in PET_CONTEXTS:
        col = pet_table.column(context)
        expected = dict(zip(pet_table.exemplars, (col / col.sum()).tolist()))
        assert context_distribution(pet_table, context).probabilities == expected


# --------------------------------------------------------------- context_state


def test_state_of_uniform_distribution():
    table = small_table([[1.0], [1.0]])
    state = context_state(table, "c1")
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)


def test_state_amplitude_is_sqrt_probability(pet_table):
    state = context_state(pet_table, CONTEXT_BONE)
    p = typicality(pet_table, CONTEXT_BONE, "dog")
    assert state.amplitude("dog") == pytest.approx(math.sqrt(p), abs=1e-15)


def test_state_of_point_distribution_is_basis_state():
    table = small_table([[1.0], [0.0]])
    state = context_state(table, "c1")
    assert state.amplitude("ant") == 1.0
    assert state.amplitude("bee") == 0.0


def test_state_round_trips_to_distribution(pet_table):
    # Born probabilities of the rank-1 projectors recover the distribution;
    # squaring a square root costs half an ulp, hence the 1e-12 comparison.
    for context in PET_CONTEXTS:
        state = context_state(pet_table, context)
        dist = context_distribution(pet_table, context)
        for exemplar in pet_table.exemplars:
            proj = Projector(state.basis, frozenset({exemplar}))
            assert born_prob(proj, state) == pytest.approx(
                dist.probability(exemplar), abs=1e-12
            )


# ------------------------------------------------------------------ typicality


def test_typicality_spider_under_weird_context(pet_table):
    column_sum = sum(pet_column(2))
    assert typicality(pet_table, CONTEXT_WEIRD, "spider") == pytest.approx(
        5.96 / column_sum, abs=1e-12
    )


def test_typicality_zero_rating_is_zero():
    table = small_table([[1.0], [0.0]])
    assert typicality(table, "c1", "bee") == 0.0


def test_typicality_sums_to_one(pet_table):
    for context in PET_CONTEXTS:
        total = sum(typicality(pet_table, context, x) for x in pet_table.exemplars)
        assert abs(total - 1.0) <= 1e-12


def test_typicality_unknown_exemplar_errors(pet_table):
    with pytest.raises(ValueError, match="unknown exemplar 'unicorn'"):
        typicality(pet_table, CONTEXT_BONE, "unicorn")


# -------------------------------------------------------------- rank_exemplars


def test_ranking_bone_context_puts_dog_first(pet_table):
    assert rank_exemplars(pet_table, CONTEXT_BONE)[0] == "dog"


def test_ranking_weird_context_spider_then_snake(pet_table):
    ranking = rank_exemplars(pet_table, CONTEXT_WEIRD)
    assert ranking[:2] == ["spider", "snake"]


def test_ranking_taught_context_dog_then_parrot(pet_table):
    ranking = rank_exemplars(pet_table, CONTEXT_TAUGHT)
    assert ranking[:2] == ["dog", "parrot"]


def test_ranking_all_equal_is_lexicographic():
    table = RatingTable(("wasp", "ant", "bee"), ("c1",), np.full((3, 1), 2.0))
    assert rank_exemplars(table, "c1") == ["ant", "bee", "wasp"]


def test_ranking_breaks_ties_alphabetically():
    table = RatingTable(("zig", "ant", "top"), ("c1",), np.array([[5.0], [1.0], [5.0]]))
    assert rank_exemplars(table, "c1") == ["top", "zig", "ant"]


def test_ranking_and_reads_match_the_per_exemplar_route_bit_for_bit():
    # Tied and zero ratings, against the sort by (-probability, label) and the
    # clipped float list that distributions kept beside their array.
    rng = np.random.default_rng(22)
    for n in (1, 2, 5, 40):
        labels = tuple(f"e{i:02d}" for i in rng.permutation(n))
        ratings = rng.choice([0.0, 0.0, 1.0, 2.5, 2.5, rng.random()], size=(n, 2))
        ratings[0] = 3.0
        table = RatingTable(labels, ("c0", "c1"), ratings)
        for context in table.contexts:
            col = table.column(context)
            want = np.clip(col / col.sum(), 0.0, 1.0).tolist()
            ranked = sorted(labels, key=lambda x: (-want[labels.index(x)], x))
            assert rank_exemplars(table, context) == ranked
            dist = context_distribution(table, context)
            for x, q in zip(labels, want):
                assert dist.probability(x).hex() == dist.probabilities[x].hex() == q.hex()
            assert list(dist.probabilities) == list(labels)


# ----------------------------------------------------------------- properties


def test_column_scaling_leaves_distribution_and_ranking_alone(pet_table):
    scaled = pet_table.ratings.copy()
    scaled[:, 2] *= 7.3
    scaled_table = RatingTable(pet_table.exemplars, pet_table.contexts, scaled)
    base = context_distribution(pet_table, CONTEXT_WEIRD)
    dist = context_distribution(scaled_table, CONTEXT_WEIRD)
    for x in pet_table.exemplars:
        assert dist.probability(x) == pytest.approx(base.probability(x), abs=1e-12)
    assert rank_exemplars(scaled_table, CONTEXT_WEIRD) == rank_exemplars(
        pet_table, CONTEXT_WEIRD
    )


def test_ranking_head_matches_raw_column_argmax(pet_table):
    for context in PET_CONTEXTS:
        column = pet_table.column(context)
        best = pet_table.exemplars[int(np.argmax(column))]
        assert rank_exemplars(pet_table, context)[0] == best
