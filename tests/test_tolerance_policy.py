"""Every tolerance in the package is named once, in ``_tolerance.py``; a setting
with one value is a constant, not a parameter."""

import ast
import inspect
from pathlib import Path

import pytest

import contextprob
from contextprob import _tolerance, bell, concepts, hilbert, polytope, semspace

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
