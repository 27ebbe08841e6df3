"""Typicality rating tables and the context-dependent states they induce.

The input is a table of non-negative exemplar ratings, one column per
context. Normalizing a column gives the probability that a subject picks
each exemplar as a good example of the concept under that context; taking
square roots of those probabilities gives the concept's state vector for
the context.

Table text format (tab-separated)::

    exemplar<TAB>context label 1<TAB>context label 2
    rabbit<TAB>0.07<TAB>2.52
    cat<TAB>3.96<TAB>4.80

The first header cell is ignored. Blank lines are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _inputs
from ._labels import Labels, distinct_labels, shown
from ._tolerance import DEFAULT_TOL, as_array
from .hilbert import StateVector


@dataclass(frozen=True, eq=False)
class RatingTable:
    """Non-negative ratings, exemplars along rows and contexts along columns."""

    exemplars: tuple[str, ...]
    contexts: tuple[str, ...]
    ratings: np.ndarray

    def __post_init__(self) -> None:
        exemplars = distinct_labels(self.exemplars, "exemplar")
        contexts = distinct_labels(self.contexts, "context")
        labels = {"exemplar": exemplars, "context": contexts}
        ratings = as_array(self.ratings, "real", "rating", labels)
        if not np.all(np.isfinite(ratings)):
            raise ValueError("ratings must be finite numbers")
        bad = np.argwhere(ratings < 0)
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"negative rating at ({shown(exemplars[i])}, {shown(contexts[j])}): "
                f"{shown(ratings[i, j])}"
            )
        # The column maximum, not the sum: finite ratings can sum past the
        # float range, and max > 0 is the same test for non-negative values.
        dead = np.flatnonzero(ratings.max(axis=0) <= 0)
        if dead.size:
            raise ValueError(f"context column has no mass: {shown(contexts[dead[0]])}")
        ratings.flags.writeable = False
        object.__setattr__(self, "exemplars", exemplars)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "ratings", ratings)

    def context_index(self, context: str) -> int:
        return self.contexts.index_of(context, "context")

    def exemplar_index(self, exemplar: str) -> int:
        return self.exemplars.index_of(exemplar, "exemplar")

    def rating(self, exemplar: str, context: str) -> float:
        return float(
            self.ratings[self.exemplar_index(exemplar), self.context_index(context)]
        )

    def column(self, context: str) -> np.ndarray:
        return self.ratings[:, self.context_index(context)].copy()


@dataclass(frozen=True, eq=False)
class ContextDistribution:
    """Probability of choosing each exemplar, for one fixed context.

    Probabilities are kept in insertion order, sum to one within
    ``DEFAULT_TOL``, and are clamped into [0, 1] after an equally tight range
    check, so that floating-point dust from upstream arithmetic never leaks
    out. They are kept as a float list and a read-only float array in
    exemplar order; the ``probabilities`` dict is built from those on first
    read and kept.
    """

    context: str
    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        if not isinstance(self.context, str) or not self.context:
            raise ValueError("context label must be a non-empty string")
        given = dict(self.probabilities)
        if not given:
            raise ValueError("distribution needs at least one exemplar")
        labels = distinct_labels(given, "exemplar")
        probs = as_array(list(given.values()), "real", "probability", {"exemplar": labels})
        self._set(labels, probs)
        object.__delattr__(self, "probabilities")  # rebuilt from the checked list

    @classmethod
    def _from_arrays(cls, context: str, labels: Labels, p: np.ndarray) -> ContextDistribution:
        """A distribution from a context label, checked labels and a fresh
        float array of their probabilities, which is clamped in place."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "context", context)
        dist._set(labels, p)
        return dist

    def _set(self, labels: Labels, p: np.ndarray) -> None:
        # NaN fails both comparisons, so it is reported as out of range.
        bad = np.flatnonzero(~((p >= -DEFAULT_TOL) & (p <= 1.0 + DEFAULT_TOL)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"probability for {shown(labels[i])} out of range: {shown(p[i])}")
        probs = np.clip(p, 0.0, 1.0, out=p).tolist()
        total = sum(probs)
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities sum to {shown(total)}, expected 1")
        p.flags.writeable = False
        object.__setattr__(self, "_exemplars", labels)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_p", p)

    def __getattr__(self, name: str):
        # Reached only for a name the instance does not hold yet.
        if name != "probabilities":
            raise AttributeError(
                f"'{type(self).__name__}' object has no attribute '{name}'", name=name, obj=self
            )
        probabilities = dict(zip(self._exemplars, self._probs))
        object.__setattr__(self, "probabilities", probabilities)
        return probabilities

    @property
    def exemplars(self) -> Labels:
        return self._exemplars

    def probability(self, exemplar: str) -> float:
        return self._probs[self._exemplars.index_of(exemplar, "exemplar")]


def parse_ratings(text: str) -> RatingTable:
    """Parse tab-separated rating-table text. Errors cite 1-based line numbers."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        rows.append((lineno, raw.split("\t")))
    if len(rows) < 2:
        raise ValueError("rating table needs a header line and at least one exemplar row")

    header_line, header = rows[0]
    contexts = [c.strip() for c in header[1:]]
    if not contexts or any(not c for c in contexts):
        raise ValueError(
            f"line {header_line}: header must list at least one non-empty context label"
        )

    exemplars: list[str] = []
    values: list[list[float]] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise ValueError(
                f"line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        exemplar = cells[0].strip()
        row: list[float] = []
        for j, cell in enumerate(cells[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: rating at ({shown(exemplar)}, {shown(contexts[j])}) "
                    f"is not a number: {shown(cell.strip())}"
                ) from None
            if v < 0:
                raise ValueError(
                    f"line {lineno}: negative rating at ({shown(exemplar)}, "
                    f"{shown(contexts[j])}): {shown(v)}"
                )
            if not math.isfinite(v):
                raise ValueError(
                    f"line {lineno}: rating at ({shown(exemplar)}, {shown(contexts[j])}) "
                    f"is not finite: {shown(cell.strip())}"
                )
            row.append(v)
        exemplars.append(exemplar)
        values.append(row)

    return RatingTable(tuple(exemplars), tuple(contexts), np.array(values))


def load_ratings(path: str | Path) -> RatingTable:
    return _inputs.parse(path, parse_ratings)


def context_distribution(table: RatingTable, context: str) -> ContextDistribution:
    """Normalize one rating column into choice probabilities."""
    col = table.column(context)
    with np.errstate(over="ignore"):
        total = col.sum()
    if not np.isfinite(total):
        # Finite ratings whose sum overflows: scaled by the largest, the
        # column keeps its proportions and sums to at most its length.
        col /= col.max()
        total = col.sum()
    return ContextDistribution._from_arrays(context, table.exemplars, col / total)


def context_state(table: RatingTable, context: str) -> StateVector:
    """The concept's state under a context: amplitudes are square roots
    of the choice probabilities, in exemplar order."""
    return StateVector(table.exemplars, np.sqrt(context_distribution(table, context)._p))


def typicality(table: RatingTable, context: str, exemplar: str) -> float:
    """Choice probability of one exemplar under a context."""
    return context_distribution(table, context).probability(exemplar)


def rank_exemplars(table: RatingTable, context: str) -> list[str]:
    """Exemplars from most to least typical; ties break alphabetically."""
    dist = context_distribution(table, context)
    return sorted(table.exemplars, key=lambda x: (-dist.probability(x), x))
