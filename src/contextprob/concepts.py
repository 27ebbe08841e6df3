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
from typing import Mapping, Sequence

import numpy as np

from . import _inputs
from ._labels import Labels, distinct_labels, freeze, shown
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
        # The first cell that parse_ratings would refuse, as it refuses it.
        bad = np.argwhere((ratings < 0) | ~np.isfinite(ratings))
        if bad.size:
            i, j = bad[0]
            cell, value = f"({shown(exemplars[i])}, {shown(contexts[j])})", ratings[i, j]
            if value < 0:
                raise ValueError(f"negative rating at {cell}: {shown(value)}")
            raise ValueError(f"rating at {cell} is not finite: {shown(value)}")
        # The column maximum, not the sum: finite ratings can sum past the
        # float range, and max > 0 is the same test for non-negative values.
        dead = np.flatnonzero(ratings.max(axis=0) <= 0)
        if dead.size:
            raise ValueError(f"context column has no mass: {shown(contexts[dead[0]])}")
        freeze(self, exemplars=exemplars, contexts=contexts, ratings=ratings)

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
    out. They are kept as one read-only float array in exemplar order; the
    ``probabilities`` dict is built from it on first read and kept.
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
        object.__delattr__(self, "probabilities")  # rebuilt from the checked array

    @classmethod
    def _from_arrays(cls, context: str, labels: Labels, p: np.ndarray) -> ContextDistribution:
        """A distribution from a context label, checked labels and a fresh
        float array of their probabilities, which is clamped in place."""
        dist = object.__new__(cls)
        freeze(dist, context=context)
        dist._set(labels, p)
        return dist

    def _set(self, labels: Labels, p: np.ndarray) -> None:
        # The sum check reads Python's float sum, not numpy's pairwise one.
        total = sum(_clamped(labels, p).tolist())
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities sum to {shown(total)}, expected 1")
        freeze(self, _exemplars=labels, _p=p)

    def __getattr__(self, name: str):
        # Reached only for a name the instance does not hold yet.
        if name != "probabilities":
            raise AttributeError(
                f"'{type(self).__name__}' object has no attribute '{name}'", name=name, obj=self
            )
        probabilities = dict(zip(self._exemplars, self._p.tolist()))
        freeze(self, probabilities=probabilities)
        return probabilities

    @property
    def exemplars(self) -> Labels:
        return self._exemplars

    def probability(self, exemplar: str) -> float:
        return float(self._p[self._exemplars.index_of(exemplar, "exemplar")])


def _clamped(labels: Sequence[str], p: np.ndarray) -> np.ndarray:
    """``p``, the probabilities of ``labels``, clamped into [0, 1] in place
    once each is within ``DEFAULT_TOL`` of that range."""
    # NaN fails both comparisons, so it is reported as out of range.
    bad = np.flatnonzero(~((p >= -DEFAULT_TOL) & (p <= 1.0 + DEFAULT_TOL)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"probability for {shown(labels[i])} out of range: {shown(p[i])}")
    return np.clip(p, 0.0, 1.0, out=p)


def parse_ratings(text: str) -> RatingTable:
    """Parse tab-separated rating-table text. Errors cite 1-based line numbers;
    a repeated context is refused on the header's line, an empty or repeated
    exemplar on its own line, and a repeated exemplar names the line it was
    first on too."""
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
    try:
        contexts = distinct_labels(contexts, "context")
    except ValueError as err:  # a repeated label
        raise ValueError(f"line {header_line}: {err}") from None

    first: dict[str, int] = {}  # each exemplar and its line, in order
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
        if not exemplar:
            raise ValueError(f"line {lineno}: exemplar labels must be non-empty strings, got ''")
        at = first.setdefault(exemplar, lineno)
        if at != lineno:
            raise ValueError(
                f"line {lineno}: duplicate exemplar label: {shown(exemplar)}, first on line {at}"
            )
        values.append(row)

    return RatingTable(tuple(first), contexts, np.array(values))


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
    return _ranking(context_distribution(table, context))


def _ranking(dist: ContextDistribution) -> list[str]:
    """A distribution's exemplars from most to least probable; ties break
    alphabetically."""
    return [x for _, x in sorted(zip((-dist._p).tolist(), dist.exemplars))]
