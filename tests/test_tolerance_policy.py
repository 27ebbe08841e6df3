"""Every tolerance in the package is named once, in ``_tolerance.py``; a setting
with one value is a constant, not a parameter. ``_tolerance.as_number``
decides what a number is for every numeric input, and no other module tests
a value for a bool."""

import ast
import inspect
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import contextprob
from contextprob import _tolerance, bell, concepts, entangle, hilbert, polytope, semspace
from contextprob._labels import shown

PACKAGE = Path(contextprob.__file__).parent

#: Float literals this small are tolerances; an algorithm switch such as
#: ``semspace.GRAM_RELATIVE_FLOOR`` (1e-4) is larger and is not one.
TOLERANCE_CEILING = 1e-6


def tolerance_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < TOLERANCE_CEILING
    ]


def test_no_tolerance_literal_outside_the_tolerance_module():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_tolerance.py")
    assert len(sources) >= 9
    assert [hit for p in sources for hit in tolerance_literals(p)] == []


def test_the_tolerance_module_holds_the_named_values():
    # The scan does find literals where they are.
    assert tolerance_literals(PACKAGE / "_tolerance.py")
    assert _tolerance.DEFAULT_TOL == 1e-12
    assert _tolerance.RESIDUAL_TOL == 1e-9
    assert _tolerance.GRID_SLACK == 1e-9
    assert _tolerance.WEIGHT_CUTOFF == 1e-15
    assert contextprob.DEFAULT_TOL is _tolerance.DEFAULT_TOL


@pytest.mark.parametrize(
    "fn",
    [hilbert.normalize, hilbert.collapse, bell.is_violated, polytope.classify, polytope.realizable],
    ids=lambda fn: fn.__name__,
)
def test_fixed_tolerances_take_no_parameter(fn):
    assert "tol" not in inspect.signature(fn).parameters


@pytest.mark.parametrize(
    "fn, fixed",
    [
        (concepts.parse_ratings, "delimiter"),
        (concepts.load_ratings, "delimiter"),
        (semspace.order_representation, "max_entries"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_fixed_settings_take_no_parameter(fn, fixed):
    # Tables are tab-separated; the order budget is DEFAULT_ORDER_BUDGET.
    assert fixed not in inspect.signature(fn).parameters


@pytest.mark.parametrize("fn", [bell.product_equality_check], ids=lambda fn: fn.__name__)
def test_residual_tolerance_defaults_to_the_named_value(fn):
    # The one settable tolerance of the library, as it changes per-cell verdicts.
    assert inspect.signature(fn).parameters["tol"].default is _tolerance.RESIDUAL_TOL


# ------------------------------------------------------------ the number rule

ROWS, COLS = ("r0", "r1"), ("c0", "c1")
ZEROS = [[0.0, 0.0], [0.0, 0.0]]


def _partner(v, f):
    """``f(float(v))``: the value that completes a unit sum or norm beside a
    number ``v``. Beside anything else, which is refused first, 0.0."""
    try:
        return f(float(v))
    except (TypeError, ValueError):
        return 0.0


#: Entry point -> (the value given at one entry -> what is stored of it, a
#: pattern for how the error names that entry, whether the entry takes a
#: fraction). Each is given 1 in every number type, and 1/3 where it takes
#: a fraction.
NUMERIC_ENTRIES = {
    "joint-cell": (
        lambda v: bell.CorrelationTable(ROWS, COLS, [[v, 0.0], [0.0, 0.0]]).joint[0][0],
        r"\('r0', 'c0'\)|joint expectations must be 2x2",
        True,
    ),
    "singles": (
        lambda v: bell.CorrelationTable(ROWS, COLS, ZEROS, [v, 0.0], [0.0, 0.0]).singles_a[0],
        r"single \('r0'\)",
        True,
    ),
    "product-equality-singles": (
        lambda v: bell.product_equality_check([v, 0.0, 0.0, 0.0], [0.0] * 4).cells,
        r"singles\[0\]",
        True,
    ),
    "product-equality-tol": (
        lambda v: bell.product_equality_check([0.0] * 4, [0.0] * 4, tol=v).tolerance,
        "tolerance",
        True,
    ),
    "check-tolerance": (_tolerance.check_tolerance, "tolerance", True),
    "is-violated": (bell.is_violated, "functional value", True),
    "pet-food": (lambda v: bell.PetFoodScenario(v).odd_event_probability, "odd_event", True),
    "sweep": (lambda v: bell.sweep_mixing([0.0, v])[1].odd_event_probability, "point 1", True),
    "rating": (
        lambda v: concepts.RatingTable(("a", "b"), ("c",), [[v], [1.0]]).ratings[0, 0],
        r"rating at \('a', 'c'\)",
        True,
    ),
    "distribution": (
        lambda v: concepts.ContextDistribution(
            "c", {"a": v, "b": _partner(v, lambda x: 1.0 - x)}
        ).probability("a"),
        "probability at 'a'",
        True,
    ),
    "state-vector": (
        lambda v: hilbert.StateVector(
            ("a", "b"), [v, _partner(v, lambda x: math.sqrt(1.0 - x * x))]
        ).amplitudes[0],
        "amplitude at 0",
        True,
    ),
    "normalize": (
        lambda v: hilbert.normalize(("a", "b"), [v, 1.0]).amplitudes[0],
        "amplitude at 0",
        True,
    ),
    "entangled-state": (
        lambda v: entangle.EntangledState(
            ("a", "b"),
            ("x",),
            {("a", "x"): v, ("b", "x"): _partner(v, lambda x: math.sqrt(1.0 - x * x))},
        ).amplitude("a", "x"),
        r"amplitude at \('a', 'x'\)",
        True,
    ),
    "observable-sign": (
        lambda v: hilbert.Observable(("a", "b"), {"a": v, "b": -1}).signs["a"],
        "sign for 'a'",
        False,
    ),
    "strategy-outcome": (
        lambda v: polytope.DeterministicStrategy((v, -1), (1, 1)).row_outcomes[0],
        "strategy outcomes",
        False,
    ),
    "count": (
        lambda v: semspace.TermDocMatrix(("s", "t"), ("d",), [[v], [2]]).counts[0, 0],
        r"count at \('s', 'd'\)",
        False,
    ),
    "singular-value": (
        lambda v: semspace.SemanticSpace(
            2, ("s", "t"), ("d1", "d2"), np.eye(2), [v, 0.0], np.eye(2)
        ).singular_values[0],
        "singular value at 0",
        True,
    ),
    "word-vector": (
        lambda v: semspace.SemanticSpace(
            1, ("s", "t"), ("d",), [[v], [0.0]], [1.0], [[1.0]]
        ).word_vectors[0, 0],
        r"word vector entry at \(0, 0\)",
        True,
    ),
    "semantic-space-rank": (
        lambda v: semspace.SemanticSpace(v, ("t",), ("d",), [[1.0]], [1.0], [[1.0]]).rank,
        "rank",
        False,
    ),
    "svd-rank": (
        lambda v: semspace.svd_truncate(
            semspace.TermDocMatrix(("s", "t"), ("d1", "d2"), np.array([[2, 0], [0, 1]])), v
        ).rank,
        "rank",
        False,
    ),
}


def number_value(number_type, fraction):
    """1 in ``number_type``; 1/3 instead in the three types that hold one,
    when the entry takes a fraction."""
    x = Fraction(1, 3) if fraction else Fraction(1)
    return {
        "int": 1,
        "float": float(x),
        "np.float64": np.float64(float(x)),
        "np.int64": np.int64(1),
        "Fraction": x,
    }[number_type]


def bits(stored):
    """A stored value, exactly: floats by ``float.hex``, ints with their type."""
    if isinstance(stored, (complex, np.complexfloating)):
        return float(stored.real).hex(), float(stored.imag).hex()
    if isinstance(stored, (float, np.floating)):
        return float(stored).hex()
    if isinstance(stored, (int, np.integer)) and not isinstance(stored, (bool, np.bool_)):
        return type(stored).__name__, int(stored)
    return stored


@pytest.mark.parametrize("number_type", ["int", "float", "np.float64", "np.int64", "Fraction"])
@pytest.mark.parametrize("name", NUMERIC_ENTRIES)
def test_every_number_type_stores_the_value_of_its_float(name, number_type):
    # Bit for bit what the entry stores for the same value as a Python float:
    # 1.0, or float(Fraction(1, 3)) = 0x1.5555555555555p-2.
    build, _, fraction = NUMERIC_ENTRIES[name]
    value = number_value(number_type, fraction)
    assert bits(build(value)) == bits(build(float(value)))


@pytest.mark.parametrize("value", ["1", True, np.True_, None, [[1]]], ids=repr)
@pytest.mark.parametrize("name", NUMERIC_ENTRIES)
def test_a_value_that_is_no_number_is_refused_naming_its_entry(name, value):
    # Text, a bool of Python or numpy, None and a nested list are no number;
    # the parent read "1", True and np.True_ as 1 at most of these entries.
    build, entry, _ = NUMERIC_ENTRIES[name]
    with pytest.raises(ValueError) as err:
        build(value)
    message = str(err.value)
    assert re.search(entry, message), message
    assert shown(value) in message, message


@pytest.mark.parametrize(
    "value, kind, number",
    [
        (2**60 + 1, "integer", 2**60 + 1),
        (np.int64(-1), "sign", -1),
        (-1.0, "sign", -1),
        (2.0, "sign", None),
        (np.complex64(1), "real", None),
        (np.complex64(1), "complex", 1 + 0j),
        (1j, "real", None),
        (10**400, "real", math.inf),
        (math.inf, "integer", None),
        (math.nan, "integer", None),
        (np.array(0.5), "real", None),
        (b"1", "real", None),
    ],
    ids=repr,
)
def test_as_number_reads_each_kind(value, kind, number):
    # An int is an integer exactly, past 2**53 too; a numpy complex is no
    # real number, though float() would take its real part with a warning.
    got = _tolerance.as_number(value, kind)
    assert got == number and type(got) is type(number)


CLASS_TESTS = ("isinstance", "issubclass")


def bool_tests(source):
    """Line numbers where ``source`` tests a value for a bool: ``isinstance``
    or ``issubclass`` against ``bool`` or numpy's bool, or a comparison with
    ``bool``, ``np.bool_`` or the dtype kind "b"."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in CLASS_TESTS:
            parts = node.args[1:]
        elif isinstance(node, ast.Compare):
            parts = [node.left, *node.comparators]
        else:
            continue
        if any(
            getattr(n, "id", None) == "bool"
            or getattr(n, "attr", None) in ("bool", "bool_")
            or (isinstance(n, ast.Constant) and n.value == "b")
            for part in parts
            for n in ast.walk(part)
        ):
            hits.append(node.lineno)
    return hits


def test_only_the_tolerance_module_tests_a_value_for_a_bool():
    # The scan finds each way of testing for a bool that the number rule replaced.
    old = (
        "def f(s, v, np):\n"
        "    if isinstance(s, bool) or s not in (1, -1):\n"
        "        pass\n"
        "    if isinstance(v, (int, np.bool_)) or type(v) is bool or v.dtype.kind == 'b':\n"
        "        pass\n"
    )
    assert bool_tests(old) == [2, 4, 4, 4]
    assert bool_tests((PACKAGE / "_tolerance.py").read_text("utf-8"))
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_tolerance.py")
    assert len(sources) >= 10
    hits = {p.name: bool_tests(p.read_text("utf-8")) for p in sources}
    assert hits == {p.name: [] for p in sources}
