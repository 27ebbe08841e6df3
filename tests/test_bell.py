import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextprob.bell import (
    CHSH_FORMS,
    CorrelationTable,
    PetFoodScenario,
    bell_value,
    bell_value_all_forms,
    is_violated,
    load_scenario,
    pet_food_table,
    product_equality_check,
    sweep_mixing,
)
from contextprob.concepts import ContextDistribution
from contextprob.entangle import Observable, combine, full_relation, joint_expectation
from contextprob.fixtures import fixture_path

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
ROWS = ("r0", "r1")
COLS = ("c0", "c1")


def table(joint, **kw):
    return CorrelationTable(ROWS, COLS, np.array(joint, dtype=float), **kw)


def all_forms_oracle(joints):
    """Independent enumeration: all odd-minus sign placements, by hand."""
    best = 0.0
    for signs in itertools.product((1, -1), repeat=4):
        if signs.count(-1) % 2 == 0:
            continue
        best = max(best, abs(sum(s * e for s, e in zip(signs, joints))))
    return best


# --------------------------------------------------------------- construction


def test_table_rejects_out_of_range_entry():
    with pytest.raises(ValueError, match=r"out of range at \('r0', 'c1'\)"):
        table([[0.0, 1.5], [0.0, 0.0]])


def test_table_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        CorrelationTable(ROWS, COLS, np.zeros((2, 3)))


@pytest.mark.parametrize(
    "joint, message",
    [
        (0.5, "must be 2x2"),
        ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], "must be 2x2"),
        ([[0.1, 0.2], [0.3]], "must be 2x2"),
        ("abcd", "must be 2x2"),
        ([[[0.1], [0.2]], [[0.3], [0.4]]], "must be 2x2"),
        ({"a": [0.1, 0.2], "b": [0.3, 0.4]}, "must be 2x2"),
        ([[0.1, None], [0.3, 0.4]], r"out of range at \('r0', 'c1'\): None"),
        ([[0.1, 0.2], [math.nan, 0.4]], r"out of range at \('r1', 'c0'\): nan"),
        ([[0.1, 0.2], [0.3, "0.4"]], "must be 2x2"),
        (["10", "01"], "must be 2x2"),
        ([[10**400, 0.2], [0.3, 0.4]], r"out of range at \('r0', 'c0'\)"),
    ],
    ids=[
        "scalar", "2x3", "ragged", "string", "3-D", "dict",
        "None-cell", "nan-cell", "text-cell", "text-rows", "huge-int-cell",
    ],
)
def test_every_malformed_joint_is_a_value_error(joint, message):
    with pytest.raises(ValueError, match=message):
        CorrelationTable(ROWS, COLS, joint)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CorrelationTable(ROWS, COLS, np.array([[0.5, -1], [0, 1]])),
        lambda: CorrelationTable(ROWS, COLS, [[0.5, -1], [0, 1]]),
        lambda: pet_food_table(PetFoodScenario(0.25)),
        lambda: load_scenario(fixture_path("tsirelson_pattern.json")),
    ],
    ids=["numpy", "lists", "pet-food", "scenario"],
)
def test_table_joint_is_a_tuple_of_two_float_pairs(make):
    joint = make().joint
    assert type(joint) is tuple and len(joint) == 2
    for row in joint:
        assert type(row) is tuple and len(row) == 2
        assert all(type(v) is float for v in row)


@pytest.mark.parametrize("value", [math.nextafter(-1.0, -2.0), -1.25], ids=["just-below", "-1.25"])
def test_an_expectation_below_minus_one_is_refused(value):
    with pytest.raises(ValueError, match=r"out of range at \('r1', 'c0'\)"):
        table([[0.0, 0.0], [value, 0.0]])
    with pytest.raises(ValueError, match=r"out of range at single \('r1'\)"):
        table([[0.0, 0.0], [0.0, 0.0]], singles_a=(0.0, value), singles_b=(0.0, 0.0))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"row_contexts": np.array(5)}, "row_contexts must be a list of two labels, got array(5)"),
        ({"col_contexts": np.array(5)}, "col_contexts must be a list of two labels, got array(5)"),
        ({"singles_a": np.array(1), "singles_b": (0, 0)}, "singles_a must be a list of two numbers, got array(1)"),
        ({"singles_a": (0, 0), "singles_b": np.array(1)}, "singles_b must be a list of two numbers, got array(1)"),
    ],
    ids=["row_contexts", "col_contexts", "singles_a", "singles_b"],
)
def test_a_0d_array_for_a_list_field_is_named(fields, message):
    # A 0-d array has __len__ but no length.
    given = {"row_contexts": ROWS, "col_contexts": COLS, "joint": ((0, 0), (0, 0)), **fields}
    with pytest.raises(ValueError, match=re.escape(message)):
        CorrelationTable(**given)


def test_table_requires_singles_on_both_sides_or_neither():
    with pytest.raises(ValueError, match="both sides or neither"):
        table([[0.0, 0.0], [0.0, 0.0]], singles_a=(0.0, 0.0))


def test_table_rejects_repeated_context_label():
    with pytest.raises(ValueError, match="must differ"):
        CorrelationTable(("r", "r"), COLS, np.zeros((2, 2)))


def test_table_needs_exactly_two_context_labels_a_side():
    with pytest.raises(ValueError) as err:
        CorrelationTable(["r0", "r1", "r2"], COLS, np.zeros((2, 2)))
    assert str(err.value) == "need exactly two row context labels, got ['r0', 'r1', 'r2']"
    with pytest.raises(ValueError) as err:
        CorrelationTable(ROWS, ("c0",), np.zeros((2, 2)))
    assert str(err.value) == "need exactly two col context labels, got ('c0',)"


def test_chsh_forms_are_the_eight_odd_sign_tuples():
    assert len(CHSH_FORMS) == 8
    assert len(set(CHSH_FORMS)) == 8
    for signs in CHSH_FORMS:
        assert signs.count(-1) % 2 == 1


# ----------------------------------------------------------------- bell_value


def test_bell_value_of_perfect_correlation_table_is_four():
    assert bell_value(table([[-1, 1], [1, 1]])) == 4.0


def test_bell_value_of_all_ones_is_two():
    assert bell_value(table([[1, 1], [1, 1]])) == 2.0


def test_bell_value_of_zero_table_is_zero():
    assert bell_value(table([[0, 0], [0, 0]])) == 0.0


def test_all_forms_on_perfect_correlation_table():
    assert bell_value_all_forms(table([[-1, 1], [1, 1]])) == 4.0


def test_all_forms_on_the_quantum_optimal_pattern():
    s = 1.0 / math.sqrt(2.0)
    value = bell_value_all_forms(table([[s, -s], [s, s]]))
    assert value == pytest.approx(TWO_SQRT2, abs=1e-12)


def test_all_forms_on_zero_table():
    assert bell_value_all_forms(table([[0, 0], [0, 0]])) == 0.0


def test_all_forms_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(300):
        joints = rng.uniform(-1, 1, size=4)
        t = table(joints.reshape(2, 2))
        assert bell_value_all_forms(t) == pytest.approx(
            all_forms_oracle(tuple(joints)), abs=1e-15
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_all_forms_is_within_one_rounding_of_the_exact_maximum(joints):
    exact = max(
        abs(sum(s * Fraction(e) for s, e in zip(signs, joints))) for signs in CHSH_FORMS
    )
    value = bell_value_all_forms(table([joints[:2], joints[2:]]))
    assert value == float(exact)  # the correctly rounded maximum


def test_all_forms_rounds_the_maximum_once():
    # The exact maximum 3 + 2**-52 + 2**-60 rounds up to the next float
    # above 3; 2 minus the rounded slack (-1 - 2**-52) would give 3.0.
    t = table([[1.0, -1.0], [1.0, 2.0**-52 + 2.0**-60]])
    assert bell_value_all_forms(t) == 3.0000000000000004 == math.nextafter(3.0, 4.0)


def test_all_forms_dominates_primary_functional():
    rng = np.random.default_rng(19)
    for _ in range(300):
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        assert bell_value_all_forms(t) >= bell_value(t) - 1e-12


def test_bell_values_never_exceed_four():
    rng = np.random.default_rng(23)
    for _ in range(300):
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        assert bell_value(t) <= 4.0
        assert bell_value_all_forms(t) <= 4.0


# ---------------------------------------------------------------- is_violated


def test_violation_threshold():
    assert is_violated(4.0)
    assert not is_violated(2.0)
    assert is_violated(2.0000000001)
    assert not is_violated(2.0 + 1e-13)


@pytest.mark.parametrize(
    "value",
    ["3", b"3", True, None, [3.0], np.array(3.0)],
    ids=["str", "bytes", "bool", "None", "list", "0-d-array"],
)
def test_is_violated_takes_only_a_number(value):
    # The rule of every number given as a value: no bool, nothing with a length.
    with pytest.raises(ValueError, match=re.escape(f"must be a number, got {value!r}")):
        is_violated(value)


# ----------------------------------------------------- product_equality_check


def test_product_equality_flags_the_perfect_correlation_cell():
    result = product_equality_check((1, 1, 1, 1), (-1, 1, 1, 1))
    assert result.cells[0][0] is False
    assert result.cells[0][1] and result.cells[1][0] and result.cells[1][1]
    assert not result.all_hold


def test_product_equality_accepts_product_generated_joints():
    singles = (-1, 1, -1, 1)
    joints = (
        singles[0] * singles[2],
        singles[0] * singles[3],
        singles[1] * singles[2],
        singles[1] * singles[3],
    )
    result = product_equality_check(singles, joints)
    assert result.all_hold


def test_product_equality_degenerate_tolerance_accepts_anything():
    assert product_equality_check((1, 1, 1, 1), (-1, 1, 1, 1), tol=2.0).all_hold


def test_product_equality_needs_four_singles_and_four_joints():
    for singles, joints in (((1, 1, 1), (1, 1, 1, 1)), ((1, 1, 1, 1), (1, 1, 1, 1, 1))):
        with pytest.raises(ValueError) as err:
            product_equality_check(singles, joints)
        assert str(err.value) == "need four singles and four joints"


@pytest.mark.parametrize("tol", [-1.0, math.nan, "1e-9", None, [1e-9], True])
def test_product_equality_checks_its_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
        product_equality_check((1, 1, 1, 1), (1, 1, 1, 1), tol=tol)


@pytest.mark.parametrize(
    "text",
    ["0.5", b"0.5", "1", bytearray(b"0.5"), memoryview(b"0.5"), np.array(0.5), True],
    ids=["str", "bytes", "str-int", "bytearray", "memoryview", "0-d-array", "bool"],
)
def test_text_is_no_expectation(text):
    message = re.escape(f"expectation out of range at single ('r0'): {text!r}")
    with pytest.raises(ValueError, match=message):
        table([[0, 0], [0, 0]], singles_a=[text, 0.5], singles_b=[0, 0])
    with pytest.raises(ValueError, match=r"out of range at singles\[0\]"):
        product_equality_check([text, 1, 1, 1], [1, 1, 1, 1])
    with pytest.raises(ValueError, match=r"out of range at joints\[3\]"):
        product_equality_check([1, 1, 1, 1], [1, 1, 1, text])


def test_product_equality_validates_ranges():
    with pytest.raises(ValueError, match="out of range"):
        product_equality_check((1, 1, 1, 3), (0, 0, 0, 0))


def test_product_form_lemma_all_sixteen_sign_choices():
    # Joints built from products of +-1 singles always land exactly on the
    # classical ceiling, whatever the sign quadruple.
    for quad in itertools.product((1, -1), repeat=4):
        ra, rb, ca, cb = quad
        joints = [[ra * ca, ra * cb], [rb * ca, rb * cb]]
        t = table(joints, singles_a=(ra, rb), singles_b=(ca, cb))
        assert bell_value(t) == 2.0
        check = product_equality_check((ra, rb, ca, cb), t.joints_flat())
        assert check.all_hold


# -------------------------------------------------------------- pet_food_table


def test_pet_food_table_at_zero_mixing():
    t = pet_food_table(PetFoodScenario(0.0))
    assert np.array_equal(t.joint, [[-1.0, 1.0], [1.0, 1.0]])
    assert t.singles_a == (1.0, 1.0)
    assert t.singles_b == (1.0, 1.0)
    assert bell_value(t) == 4.0


def test_pet_food_table_at_full_mixing():
    t = pet_food_table(PetFoodScenario(1.0))
    assert np.array_equal(t.joint, [[1.0, 1.0], [1.0, 1.0]])
    assert bell_value(t) == 2.0
    assert not is_violated(bell_value(t))


def test_pet_food_table_at_half_mixing():
    assert bell_value(pet_food_table(PetFoodScenario(0.5))) == 3.0


def test_pet_food_scenario_rejects_out_of_range():
    for bad in (-0.1, 1.2, float("nan")):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            PetFoodScenario(bad)


@pytest.mark.parametrize(
    "value", [True, "0.5", np.array(0.5), None], ids=["bool", "text", "0-d-array", "none"]
)
def test_a_mixing_probability_must_be_a_number(value):
    with pytest.raises(ValueError, match=re.escape(f"must be a number, got {value!r}")):
        PetFoodScenario(value)


# ---------------------------------------------------------------- sweep_mixing


def test_sweep_on_the_three_point_grid():
    points = sweep_mixing([0.0, 0.5, 1.0])
    assert [p.bell_value for p in points] == [4.0, 3.0, 2.0]
    assert [p.violated for p in points] == [True, True, False]


def test_sweep_singleton_grid():
    points = sweep_mixing([0.0])
    assert len(points) == 1
    assert points[0].bell_value == 4.0


def test_sweep_empty_grid():
    assert sweep_mixing([]) == []


def test_sweep_reports_offending_grid_point():
    with pytest.raises(ValueError, match="grid point 1"):
        sweep_mixing([0.5, 1.5])


def test_sweep_matches_the_per_point_route_bit_for_bit():
    rng = np.random.default_rng(43)
    extremes = [0.0, -0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0]
    grid = [*rng.uniform(0, 1, size=2000).tolist(), *extremes]
    for given in (grid, np.array(grid)):
        points = sweep_mixing(given)
        assert len(points) == len(grid)
        for p, point in zip(grid, points):
            value = bell_value(pet_food_table(PetFoodScenario(p)))
            assert point.odd_event_probability.hex() == p.hex()
            assert point.bell_value.hex() == value.hex()
            assert point.violated is is_violated(value)


def test_sweep_names_the_first_bad_point():
    grid = [0.25] * 500 + [math.nan, 2.0]
    with pytest.raises(ValueError, match=r"^grid point 500: .*got nan$"):
        sweep_mixing(grid)
    with pytest.raises(ValueError, match=r"^grid point 1: .*must be a number, got '0.5'$"):
        sweep_mixing([0.0, "0.5", "half"])


@pytest.mark.parametrize("bad", [True, np.array(0.5)], ids=["bool", "0-d array"])
def test_sweep_refuses_a_bool_or_a_0d_array_inside_a_grid(bad):
    # Each is refused by PetFoodScenario; a grid point takes the same rule.
    with pytest.raises(ValueError, match=r"^grid point 1: .*must be a number"):
        sweep_mixing([0.0, bad])


def test_sweep_is_affine_with_slope_minus_two():
    rng = np.random.default_rng(29)
    grid = sorted(rng.uniform(0, 1, size=40))
    points = sweep_mixing(grid)
    for lam, point in zip(grid, points):
        assert point.bell_value == pytest.approx(4.0 - 2.0 * lam, abs=1e-12)
    values = [p.bell_value for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ------------------------------------------------- integration with entangler


def test_product_state_joints_satisfy_products_and_the_bound():
    rng = np.random.default_rng(31)
    basis_a = ("a1", "a2")
    basis_b = ("b1", "b2")
    relation = full_relation(basis_a, basis_b)
    for _ in range(100):
        pa = ContextDistribution("ca", dict(zip(basis_a, rng.dirichlet([1, 1]))))
        pb = ContextDistribution("cb", dict(zip(basis_b, rng.dirichlet([1, 1]))))
        state = combine(pa, pb, relation)
        obs_a = [
            Observable(basis_a, {x: int(s) for x, s in zip(basis_a, signs)})
            for signs in rng.choice([1, -1], size=(2, 2))
        ]
        obs_b = [
            Observable(basis_b, {y: int(s) for y, s in zip(basis_b, signs)})
            for signs in rng.choice([1, -1], size=(2, 2))
        ]
        joints = tuple(
            joint_expectation(state, a, b) for a in obs_a for b in obs_b
        )
        # Summation noise can push an all-plus single a half ulp past 1.
        singles = tuple(
            np.clip(sum(o.signs[x] * pa.probability(x) for x in basis_a), -1, 1)
            for o in obs_a
        ) + tuple(
            np.clip(sum(o.signs[y] * pb.probability(y) for y in basis_b), -1, 1)
            for o in obs_b
        )
        assert product_equality_check(singles, joints).all_hold
        t = table([[joints[0], joints[1]], [joints[2], joints[3]]])
        assert bell_value(t) <= 2.0 + 1e-9


# -------------------------------------------------------------- load_scenario


def test_load_shipped_pet_food_scenario():
    t = load_scenario(fixture_path("pet_food_scenario.json"))
    assert np.array_equal(t.joint, [[-1.0, 1.0], [1.0, 1.0]])
    assert t.has_singles


def test_load_shipped_quantum_pattern_scenario():
    t = load_scenario(fixture_path("tsirelson_pattern.json"))
    assert bell_value_all_forms(t) == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert not t.has_singles


def test_load_scenario_requires_exactly_one_form(tmp_path):
    both = tmp_path / "both.json"
    both.write_text(
        json.dumps({"odd_event_probability": 0.5, "joint": [[0, 0], [0, 0]]})
    )
    with pytest.raises(ValueError, match="exactly one"):
        load_scenario(both)
    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"description": "nothing else"}))
    with pytest.raises(ValueError, match="exactly one"):
        load_scenario(neither)


def test_load_scenario_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_scenario(bad)


def test_load_scenario_needs_an_object_at_top_level(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ValueError) as err:
        load_scenario(listed)
    assert str(err.value) == f"{listed}: expected a JSON object at top level"


def test_load_scenario_validates_entries(tmp_path):
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps({"joint": [[0, 0], [0, 7]]}))
    with pytest.raises(ValueError, match="out of range"):
        load_scenario(bad)
