"""Bell-functional evaluation on 2x2 correlation tables.

A correlation table holds the four joint expectations E(row_i, col_j) of
+1/-1 measurements, two settings per side, optionally together with the
four single-side expectations. The primary functional is

    |E(r0,c0) - E(r0,c1)| + |E(r1,c0) + E(r1,c1)|

whose classical ceiling is 2. The full battery takes the maximum of all
eight sign placements (one relative minus, anywhere, times a global flip);
a table is classically explainable exactly when every form stays at or
below 2. A table computes the exact slack 2 - s.E of each form when it is
built, and every answer about its forms reads those eight floats; the
largest form value, also computed then, is one exact sum for each form tied
at the smallest slack.

The module is pure Python, the mixing sweep included, and never loads numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import _inputs
from ._labels import distinct_labels, listing, shown
from ._tolerance import DEFAULT_TOL, RESIDUAL_TOL, as_number, check_tolerance

#: All eight sign placements: one minus among the four terms, up to a
#: global flip, i.e. every sign tuple with an odd number of -1 entries.
CHSH_FORMS: tuple[tuple[int, int, int, int], ...] = tuple(
    s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2 == 1
)


def _expectations(values, where) -> tuple[float, ...]:
    """``values`` as floats in [-1, 1].

    The first value that is not fails, at ``where(k)``, k its index; the
    location text is built only then.
    """
    checked = []
    for value in values:
        v = as_number(value)
        if v is None or not -1.0 <= v <= 1.0:
            raise ValueError(f"expectation out of range at {where(len(checked))}: {shown(value)}")
        checked.append(v)
    return tuple(checked)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint expectations for a 2x2 settings grid, plus optional singles.

    ``joint[i][j]`` pairs row context i with column context j; it is stored
    as a tuple of two float pairs. When given, ``singles_a`` follows the row
    contexts and ``singles_b`` the columns. Building a table also keeps its
    eight CHSH slacks and its largest form value, which are not fields.
    """

    row_contexts: tuple[str, str]
    col_contexts: tuple[str, str]
    joint: tuple[tuple[float, float], tuple[float, float]]
    singles_a: tuple[float, float] | None = None
    singles_b: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        rows = _context_pair(self.row_contexts, "row")
        cols = _context_pair(self.col_contexts, "col")
        joint = _joint_grid(self.joint, rows, cols)
        singles_a = _singles(self.singles_a, rows, "singles_a")
        singles_b = _singles(self.singles_b, cols, "singles_b")
        if (singles_a is None) != (singles_b is None):
            raise ValueError("singles must be given for both sides or neither")
        object.__setattr__(self, "row_contexts", rows)
        object.__setattr__(self, "col_contexts", cols)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "singles_a", singles_a)
        object.__setattr__(self, "singles_b", singles_b)
        slacks = _chsh_slacks(joint)
        object.__setattr__(self, "_chsh_slacks", slacks)
        object.__setattr__(self, "_top_form", _top_form(joint, slacks))

    @property
    def has_singles(self) -> bool:
        return self.singles_a is not None

    def joints_flat(self) -> tuple[float, float, float, float]:
        """The four joints in row-major order."""
        return (*self.joint[0], *self.joint[1])


def _chsh_slacks(joint) -> tuple[float, ...]:
    """2 - s.E for each form s of ``CHSH_FORMS``.

    Each slack is a ``math.fsum`` of five floats, so it is correctly
    rounded and its sign is exact. The signs are written out, one line
    per form in the order of ``CHSH_FORMS``.
    """
    (e00, e01), (e10, e11) = joint
    fsum = math.fsum
    return (
        fsum((2.0, -e00, -e01, -e10, e11)),
        fsum((2.0, -e00, -e01, e10, -e11)),
        fsum((2.0, -e00, e01, -e10, -e11)),
        fsum((2.0, -e00, e01, e10, e11)),
        fsum((2.0, e00, -e01, -e10, -e11)),
        fsum((2.0, e00, -e01, e10, e11)),
        fsum((2.0, e00, e01, -e10, e11)),
        fsum((2.0, e00, e01, e10, -e11)),
    )


def _top_form(joint, slacks) -> tuple[float, tuple[int, int, int, int]]:
    """The largest s.E over ``CHSH_FORMS``, correctly rounded, and its s.

    Rounding is monotone, so the largest exact s.E is among the forms
    tied at the smallest slack; each of those is one ``math.fsum``. Of
    equal values the first form in ``CHSH_FORMS`` wins, as that order
    is descending.
    """
    low = min(slacks)
    (e00, e01), (e10, e11) = joint
    return max(
        (math.fsum((s[0] * e00, s[1] * e01, s[2] * e10, s[3] * e11)), s)
        for s, slack in zip(CHSH_FORMS, slacks)
        if slack == low
    )


def _joint_grid(joint, rows, cols) -> tuple[tuple[float, float], tuple[float, float]]:
    """``joint`` as two rows of two checked floats.

    A cell with a length (a list, an array, a string) is no number, so a
    grid holding one is not 2x2 either.
    """
    try:
        (e00, e01), (e10, e11) = joint
    except (TypeError, ValueError):
        e00 = e01 = e10 = e11 = ()  # has a length: reported as the shape below
    if any(hasattr(v, "__len__") for v in (e00, e01, e10, e11)):
        raise ValueError(f"joint expectations must be 2x2, got {shown(joint)}")
    e00, e01, e10, e11 = _expectations(
        (e00, e01, e10, e11), lambda k: f"({shown(rows[k // 2])}, {shown(cols[k % 2])})"
    )
    return (e00, e01), (e10, e11)


def _context_pair(labels, kind: str) -> tuple[str, str]:
    if isinstance(labels, str) or not hasattr(labels, "__len__"):  # no list of labels
        raise ValueError(f"{kind}_contexts must be a list of two labels, got {shown(labels)}")
    pair = tuple(labels)
    if len(pair) != 2:
        raise ValueError(f"need exactly two {kind} context labels, got {shown(labels)}")
    if pair[0] == pair[1]:
        raise ValueError(f"{kind} context labels must differ, got {shown(pair[0])} twice")
    return distinct_labels(pair, f"{kind} context")


def _singles(values, contexts, field: str) -> tuple[float, float] | None:
    if values is None:
        return None
    if isinstance(values, str) or not hasattr(values, "__len__"):  # no list of numbers
        raise ValueError(f"{field} must be a list of two numbers, got {shown(values)}")
    if len(values) != 2:
        raise ValueError(f"need exactly two single-side expectations, got {shown(values)}")
    return _expectations(values, lambda k: f"single ({shown(contexts[k])})")


def bell_value(table: CorrelationTable) -> float:
    """The primary functional: |E00 - E01| + |E10 + E11|."""
    e00, e01, e10, e11 = table.joints_flat()
    return abs(e00 - e01) + abs(e10 + e11)


def bell_value_all_forms(table: CorrelationTable) -> float:
    """Maximum of |s0*E00 + s1*E01 + s2*E10 + s3*E11| over all eight forms.

    The forms are closed under a global sign flip, so the maximum is the
    largest s.E, correctly rounded: the same float that ``polytope.classify``
    bands and a bell-form witness reports.
    """
    return table._top_form[0]


def is_violated(value: float) -> bool:
    """Whether a functional value exceeds the classical ceiling of 2
    by more than ``DEFAULT_TOL``; a ValueError when it is no number."""
    v = as_number(value)
    if v is None:
        raise ValueError(f"functional value must be a number, got {shown(value)}")
    return v > 2.0 + DEFAULT_TOL


@dataclass(frozen=True)
class ProductEqualityResult:
    """Per-cell verdicts for E(row_i, col_j) = E(row_i) * E(col_j)."""

    cells: tuple[tuple[bool, bool], tuple[bool, bool]]
    all_hold: bool
    tolerance: float


def product_equality_check(
    singles: Sequence[float],
    joints: Sequence[float],
    tol: float = RESIDUAL_TOL,
) -> ProductEqualityResult:
    """Check each joint against the product of its two singles.

    ``singles`` is (row 0, row 1, col 0, col 1); ``joints`` is row-major
    (r0c0, r0c1, r1c0, r1c1). When all four products match, every sign
    placement of the functional evaluates to exactly 2, so no violation is
    possible.
    """
    tol = check_tolerance(tol)
    s = _expectations(singles, lambda k: f"singles[{k}]")
    j = _expectations(joints, lambda k: f"joints[{k}]")
    if len(s) != 4 or len(j) != 4:
        raise ValueError("need four singles and four joints")
    cells = tuple(
        tuple(
            abs(j[2 * r + c] - s[r] * s[2 + c]) <= tol for c in range(2)
        )
        for r in range(2)
    )
    all_hold = all(cells[r][c] for r in range(2) for c in range(2))
    return ProductEqualityResult(cells, all_hold, tol)


@dataclass(frozen=True)
class PetFoodScenario:
    """Two pets, two foods, and a watcher who reports what got eaten.

    Pet one normally eats food one and pet two food two. With probability
    ``odd_event_probability`` the day is odd: the report that "pet one is
    eating" coincides with "food two is eaten" only by chance rather than
    perfectly. At zero the correlations are perfect and the functional
    reaches its algebraic maximum of 4.
    """

    odd_event_probability: float

    def __post_init__(self) -> None:
        p = _mixing_probability(self.odd_event_probability)
        object.__setattr__(self, "odd_event_probability", p)


def _mixing_probability(value) -> float:
    """``value`` as a float in [0, 1]: the rule for every mixing probability."""
    p = as_number(value)
    if p is None:
        raise ValueError(f"odd_event_probability must be a number, got {shown(value)}")
    if not 0.0 <= p <= 1.0:  # refuses nan too
        raise ValueError(f"mixing probability must lie in [0, 1], got {shown(p)}")
    return p


_PET_FOOD_ROWS = ("pet one is eating", "one of the pets is eating")
_PET_FOOD_COLS = ("food two is eaten", "one of the foods is eaten")


def pet_food_table(scenario: PetFoodScenario) -> CorrelationTable:
    """Correlation table for the two-pets scenario.

    The coarse contexts ("one of the pets", "one of the foods") are always
    true, so three joints sit at +1 regardless of mixing. The sharp pair
    moves linearly from -1 (perfect anti-alignment) to +1 as the odd-event
    probability goes from 0 to 1.
    """
    p = scenario.odd_event_probability
    return CorrelationTable(
        _PET_FOOD_ROWS,
        _PET_FOOD_COLS,
        ((2.0 * p - 1.0, 1.0), (1.0, 1.0)),
        singles_a=(1.0, 1.0),
        singles_b=(1.0, 1.0),
    )


@dataclass(frozen=True)
class SweepPoint:
    odd_event_probability: float
    bell_value: float
    violated: bool


def sweep_mixing(grid: Sequence[float]) -> list[SweepPoint]:
    """Evaluate the pet-food functional over a grid of mixing probabilities.

    Each point is checked as ``PetFoodScenario`` checks its probability, and
    evaluated with the same float operations, in the same order, as
    ``bell_value(pet_food_table(...))``, so every value is bit-identical to
    that route. The first bad point is named by its index.
    """
    points = []
    for i, value in enumerate(grid):
        try:
            p = _mixing_probability(value)
        except ValueError as exc:
            raise ValueError(f"grid point {i}: {exc}") from None
        v = abs((2.0 * p - 1.0) - 1.0) + abs(1.0 + 1.0)
        points.append(SweepPoint(p, v, is_violated(v)))
    return points


#: The keys of a table scenario past ``joint``, then every key a scenario may have.
_TABLE_KEYS = ("row_contexts", "col_contexts", "singles_a", "singles_b")
_SCENARIO_KEYS = ("description", "odd_event_probability", "joint", *_TABLE_KEYS)


def load_scenario(path: str | Path) -> CorrelationTable:
    """Read a correlation table, or a pet-food mixing probability, from JSON.

    Exactly one of ``odd_event_probability`` and ``joint`` must be present.
    With ``joint``, optional keys ``row_contexts``, ``col_contexts``,
    ``singles_a`` and ``singles_b`` fill in the rest of the table; beside
    ``odd_event_probability`` they are refused. A free-text
    ``description`` may go with either, and any other key is refused.
    """
    return _inputs.parse(path, _parse_scenario)


def _parse_scenario(text: str) -> CorrelationTable:
    """The scenario of ``load_scenario`` from the JSON text of its file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at top level")

    unknown = [key for key in data if key not in _SCENARIO_KEYS]
    if unknown:
        raise ValueError(
            f"unknown keys {listing(unknown)}; a scenario takes {listing(_SCENARIO_KEYS)}"
        )
    has_p = "odd_event_probability" in data
    has_joint = "joint" in data
    if has_p == has_joint:
        raise ValueError("give exactly one of 'odd_event_probability' and 'joint'")
    beside = [key for key in _TABLE_KEYS if key in data]
    if has_p and beside:
        raise ValueError(
            f"table keys {listing(beside)} go with 'joint', not 'odd_event_probability'"
        )
    if has_p:
        return pet_food_table(PetFoodScenario(data["odd_event_probability"]))
    return CorrelationTable(
        data.get("row_contexts", ("row-0", "row-1")),
        data.get("col_contexts", ("col-0", "col-1")),
        data["joint"],
        singles_a=data.get("singles_a"),
        singles_b=data.get("singles_b"),
    )
