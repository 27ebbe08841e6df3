"""Bell-functional evaluation on 2x2 correlation tables.

A correlation table holds the four joint expectations E(row_i, col_j) of
+1/-1 measurements, two settings per side, optionally together with the
four single-side expectations. The primary functional is

    |E(r0,c0) - E(r0,c1)| + |E(r1,c0) + E(r1,c1)|

whose classical ceiling is 2. The full battery takes the maximum of all
eight sign placements (one relative minus, anywhere, times a global flip);
a table is classically explainable exactly when every form stays at or
below 2. A table computes the exact slack 2 - s.E of each form once, and
every answer about its forms reads those eight floats.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._labels import distinct_labels
from ._tolerance import DEFAULT_TOL, RESIDUAL_TOL, check_tolerance

#: All eight sign placements: one minus among the four terms, up to a
#: global flip, i.e. every sign tuple with an odd number of -1 entries.
CHSH_FORMS: tuple[tuple[int, int, int, int], ...] = tuple(
    s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2 == 1
)


def _check_expectation(value: float, where: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not -1.0 <= v <= 1.0:
        raise ValueError(f"expectation out of range at {where}: {value!r}")
    return v


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint expectations for a 2x2 settings grid, plus optional singles.

    ``joint[i][j]`` pairs row context i with column context j; it is stored
    as a tuple of two float pairs. When given, ``singles_a`` follows the row
    contexts and ``singles_b`` the columns.
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
        singles_a = _singles(self.singles_a, rows)
        singles_b = _singles(self.singles_b, cols)
        if (singles_a is None) != (singles_b is None):
            raise ValueError("singles must be given for both sides or neither")
        object.__setattr__(self, "row_contexts", rows)
        object.__setattr__(self, "col_contexts", cols)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "singles_a", singles_a)
        object.__setattr__(self, "singles_b", singles_b)

    @property
    def has_singles(self) -> bool:
        return self.singles_a is not None

    def joints_flat(self) -> tuple[float, float, float, float]:
        """The four joints in row-major order."""
        return (*self.joint[0], *self.joint[1])

    @functools.cached_property
    def _chsh_slacks(self) -> tuple[float, ...]:
        """2 - s.E for each form s of ``CHSH_FORMS``, computed once per table.

        Each slack is a ``math.fsum`` of five floats, so it is correctly
        rounded and its sign is exact.
        """
        (e00, e01), (e10, e11) = self.joint
        return tuple(
            math.fsum((2.0, -s0 * e00, -s1 * e01, -s2 * e10, -s3 * e11))
            for s0, s1, s2, s3 in CHSH_FORMS
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
        raise ValueError(f"joint expectations must be 2x2, got {reprlib.repr(joint)}")
    return tuple(
        tuple(_check_expectation(v, f"({r!r}, {c!r})") for c, v in zip(cols, pair))
        for r, pair in zip(rows, ((e00, e01), (e10, e11)))
    )


def _context_pair(labels, kind: str) -> tuple[str, str]:
    pair = tuple(labels)
    if len(pair) != 2:
        raise ValueError(f"need exactly two {kind} context labels, got {labels!r}")
    if pair[0] == pair[1]:
        raise ValueError(f"{kind} context labels must differ, got {pair[0]!r} twice")
    return distinct_labels(pair, f"{kind} context")


def _singles(values, contexts) -> tuple[float, float] | None:
    if values is None:
        return None
    vals = tuple(values)
    if len(vals) != 2:
        raise ValueError(f"need exactly two single-side expectations, got {values!r}")
    return tuple(_check_expectation(v, f"single ({c!r})") for c, v in zip(contexts, vals))


def bell_value(table: CorrelationTable) -> float:
    """The primary functional: |E00 - E01| + |E10 + E11|."""
    e00, e01, e10, e11 = table.joints_flat()
    return abs(e00 - e01) + abs(e10 + e11)


def bell_value_all_forms(table: CorrelationTable) -> float:
    """Maximum of |s0*E00 + s1*E01 + s2*E10 + s3*E11| over all eight forms.

    The forms are closed under a global sign flip, so the maximum is the
    largest s.E, which is 2 minus the table's smallest exact CHSH slack:
    within one rounding of the exact maximum, and the same float that
    ``polytope.classify`` bands and a bell-form witness reports.
    """
    return 2.0 - min(table._chsh_slacks)


def is_violated(value: float) -> bool:
    """Whether a functional value exceeds the classical ceiling of 2
    by more than ``DEFAULT_TOL``."""
    return float(value) > 2.0 + DEFAULT_TOL


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
    s = tuple(_check_expectation(v, f"singles[{i}]") for i, v in enumerate(singles))
    j = tuple(_check_expectation(v, f"joints[{i}]") for i, v in enumerate(joints))
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
        p = float(self.odd_event_probability)
        if not math.isfinite(p) or not (0.0 <= p <= 1.0):
            raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "odd_event_probability", p)


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

    The whole grid is checked and evaluated as arrays, with the same float
    operations, in the same order, as ``bell_value(pet_food_table(...))``
    on one point, so every value is bit-identical to that route.
    """
    probs = _mixing_grid(grid)
    values = np.abs((2.0 * probs - 1.0) - 1.0) + abs(1.0 + 1.0)
    return [
        SweepPoint(p, v, is_violated(v))
        for p, v in zip(probs.tolist(), values.tolist())
    ]


def _mixing_grid(grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array, every point checked as a mixing probability."""
    try:
        probs = np.asarray(grid, dtype=float)
        if probs.ndim == 1 and np.all((probs >= 0.0) & (probs <= 1.0)):
            return probs
    except (TypeError, ValueError):
        pass
    # Some point is bad or not a number: check one at a time to name the first.
    checked = []
    for i, p in enumerate(grid):
        try:
            checked.append(PetFoodScenario(p).odd_event_probability)
        except ValueError as exc:
            raise ValueError(f"grid point {i}: {exc}") from None
    return np.array(checked, dtype=float)


def load_scenario(path: str | Path) -> CorrelationTable:
    """Read a correlation table, or a pet-food mixing probability, from JSON.

    Exactly one of ``odd_event_probability`` and ``joint`` must be present.
    With ``joint``, optional keys ``row_contexts``, ``col_contexts``,
    ``singles_a`` and ``singles_b`` fill in the rest of the table.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")

    has_p = "odd_event_probability" in data
    has_joint = "joint" in data
    if has_p == has_joint:
        raise ValueError(
            f"{path}: give exactly one of 'odd_event_probability' and 'joint'"
        )
    try:
        if has_p:
            return pet_food_table(PetFoodScenario(data["odd_event_probability"]))
        return CorrelationTable(
            data.get("row_contexts", ("row-0", "row-1")),
            data.get("col_contexts", ("col-0", "col-1")),
            data["joint"],
            singles_a=tuple(data["singles_a"]) if "singles_a" in data else None,
            singles_b=tuple(data["singles_b"]) if "singles_b" in data else None,
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
