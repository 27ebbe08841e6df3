"""Entangled combinations of two concepts.

Two concepts, each carrying a choice distribution for its own context, are
combined over a declared compatibility relation: a set of (left exemplar,
right exemplar) pairs that make sense together. The combined state puts
amplitude proportional to sqrt(pA(x) * pB(y)) on each compatible pair and
zero elsewhere, then renormalizes.

This rule is a deliberate modeling choice, not a derived consequence: it
concentrates all joint probability on the compatible pairs, which is what
produces perfect correlations between the two sides, and it reproduces the
input marginals only when the relation is the full Cartesian product. The
narrower the relation, the more the marginals can shift; see guppy_gap.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _inputs
from ._labels import Labels, distinct_labels, freeze, label_pair, listing, same_labels, shown
from ._tolerance import DEFAULT_TOL, as_number
from .concepts import ContextDistribution, _clamped
from .hilbert import Observable


@dataclass(frozen=True)
class CompatibilityRelation:
    """Ordered, duplicate-free pairs of (left, right) exemplar labels."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple(map(label_pair, self.pairs))
        if len(set(pairs)) != len(pairs):
            seen: set[tuple[str, str]] = set()
            dup = next(p for p in pairs if p in seen or seen.add(p))
            raise ValueError(f"duplicate pair in relation: {shown(dup)}")
        self._set(pairs)

    @classmethod
    def _from_pairs(cls, pairs: tuple[tuple[str, str], ...]) -> CompatibilityRelation:
        """A relation from pairs checked already, as ``parse_relation`` and
        ``full_relation`` make them: a tuple of pairwise distinct 2-tuples of
        non-empty strings. Only the empty relation is refused."""
        relation = object.__new__(cls)
        relation._set(pairs)
        return relation

    def _set(self, pairs: tuple[tuple[str, str], ...]) -> None:
        if not pairs:
            raise ValueError("compatibility relation needs at least one pair")
        freeze(self, pairs=pairs, _last=None)

    def _positions(self, basis_a: Labels, basis_b: Labels) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's position in ``basis_a`` and in ``basis_b``, as two
        read-only arrays.

        The arrays for the last two bases asked for are kept as one entry,
        found again by the identity of those bases, since ``Labels`` never
        change. An unknown label is a ValueError naming the first one, pair
        by pair.
        """
        last = self._last
        if last is not None and last[0] is basis_a and last[1] is basis_b:
            return last[2], last[3]
        pos_a, pos_b, n = basis_a.positions, basis_b.positions, len(self.pairs)
        rows = np.fromiter((pos_a.get(x, -1) for x, _ in self.pairs), np.intp, n)
        cols = np.fromiter((pos_b.get(y, -1) for _, y in self.pairs), np.intp, n)
        if -1 in rows or -1 in cols:
            for x, y in self.pairs:
                basis_a.index_of(x, "exemplar")
                basis_b.index_of(y, "exemplar")
        rows.flags.writeable = cols.flags.writeable = False  # freeze sees only the tuple
        freeze(self, _last=(basis_a, basis_b, rows, cols))
        return rows, cols


def full_relation(left: tuple[str, ...], right: tuple[str, ...]) -> CompatibilityRelation:
    """The Cartesian product relation: every pair is compatible."""
    left, right = distinct_labels(left, "left"), distinct_labels(right, "right")
    # Two checked Labels: every pair is two labels, and no two pairs are equal.
    return CompatibilityRelation._from_pairs(tuple(itertools.product(left, right)))


def parse_relation(text: str) -> CompatibilityRelation:
    """Parse one tab-separated (left, right) pair per line, in one pass.

    Blank lines and lines starting with '#' are skipped. Every other line
    is exactly two tab-separated labels, each stripped and non-empty. Each
    distinct label is kept as one string that every pair holding it shares.
    A pair given twice is a ValueError naming both of its lines.
    """
    first: dict[tuple[str, str], int] = {}  # each pair and its line, in order
    label = {}.setdefault  # each distinct label, kept once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("\t")
        if len(fields) == 2:
            x, y = fields[0].strip(), fields[1].strip()
            if x and y:
                if x[0] == "#":  # the line's first character that is not whitespace
                    continue
                pair = (label(x, x), label(y, y))
                at = first.setdefault(pair, lineno)
                if at != lineno:
                    raise ValueError(
                        f"line {lineno}: duplicate pair {shown(pair)}, first on line {at}"
                    )
                continue
        line = raw.strip()
        if line and not line.startswith("#"):
            raise ValueError(
                f"line {lineno}: expected two tab-separated labels, got {shown(line)}"
            )
    if not first:
        raise ValueError("relation file contains no pairs")
    return CompatibilityRelation._from_pairs(tuple(first))


def load_relation(path: str | Path) -> CompatibilityRelation:
    return _inputs.parse(path, parse_relation)


@dataclass(frozen=True, eq=False)
class EntangledState:
    """Unit-norm joint amplitudes over pairs drawn from two label bases.

    Only the support is stored, as three aligned arrays in the order the
    pairs were given: each pair's position in ``basis_a``, its position in
    ``basis_b``, and its nonzero complex amplitude. ``amplitudes`` is a
    read-only mapping view of those arrays keyed by (x, y) label pair.
    """

    basis_a: tuple[str, ...]
    basis_b: tuple[str, ...]
    amplitudes: Mapping[tuple[str, str], complex]

    def __post_init__(self) -> None:
        basis_a = distinct_labels(self.basis_a, "side A basis")
        basis_b = distinct_labels(self.basis_b, "side B basis")
        rows: list[int] = []
        cols: list[int] = []
        amps: list[complex] = []
        for pair, given in dict(self.amplitudes).items():
            x, y = label_pair(pair)
            i = basis_a.index_of(x, "side A label")
            j = basis_b.index_of(y, "side B label")
            a = as_number(given, "complex")
            if a is None:
                raise ValueError(f"amplitude at {shown(pair)} is not a number: {shown(given)}")
            if a != 0:
                rows.append(i)
                cols.append(j)
                amps.append(a)
        self._set(
            basis_a,
            basis_b,
            np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp),
            np.array(amps, dtype=complex),
        )

    @classmethod
    def _from_arrays(cls, basis_a, basis_b, rows, cols, amps, probs=None) -> EntangledState:
        """A state from checked bases and support arrays with no zero
        amplitude; ``probs``, when given, holds the squared moduli."""
        state = object.__new__(cls)
        state._set(basis_a, basis_b, rows, cols, amps, probs)
        return state

    def _set(self, basis_a, basis_b, rows, cols, amps, probs=None) -> None:
        if probs is None:
            probs = np.abs(amps) ** 2
        norm_sq = float(np.sum(probs))
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:  # also refuses NaN
            raise ValueError(f"joint state is not normalized: squared norm {shown(norm_sq)}")
        freeze(
            self, basis_a=basis_a, basis_b=basis_b, _rows=rows, _cols=cols, _amps=amps,
            _probs=probs, amplitudes=_PairAmplitudes(basis_a, basis_b, rows, cols, amps),
        )

    @property
    def dim(self) -> int:
        """The number of pairs, in the support or not: len(basis_a) * len(basis_b)."""
        return len(self.basis_a) * len(self.basis_b)

    @property
    def support(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.amplitudes)

    def amplitude(self, x: str, y: str) -> complex:
        return self.amplitudes.get((x, y), 0j)

    def probability(self, x: str, y: str) -> float:
        return abs(self.amplitude(x, y)) ** 2


class _PairAmplitudes(Mapping):
    """Read-only (x, y) -> amplitude view of a state's support arrays.

    The view holds the arrays, not the state: a reference back would make a
    cycle, and states would then wait for the cyclic garbage collector.
    """

    __slots__ = ("_basis_a", "_basis_b", "_rows", "_cols", "_amps", "_slots")

    def __init__(self, basis_a, basis_b, rows, cols, amps) -> None:
        self._basis_a, self._basis_b = basis_a, basis_b
        self._rows, self._cols, self._amps = rows, cols, amps
        self._slots: dict[int, complex] | None = None

    def __len__(self) -> int:
        return len(self._amps)

    def __iter__(self):
        a, b = self._basis_a, self._basis_b
        return ((a[i], b[j]) for i, j in zip(self._rows.tolist(), self._cols.tolist()))

    def __getitem__(self, pair: tuple[str, str]) -> complex:
        n_b = len(self._basis_b)
        if self._slots is None:  # keyed by row * n_b + col, built on first use
            keys = (self._rows * n_b + self._cols).tolist()
            self._slots = dict(zip(keys, self._amps.tolist()))
        try:
            x, y = pair if isinstance(pair, tuple) else ()
            return self._slots[self._basis_a.positions[x] * n_b + self._basis_b.positions[y]]
        except (KeyError, TypeError, ValueError):  # unknown, unhashable, or no pair
            raise KeyError(pair) from None

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def combine(
    dist_a: ContextDistribution,
    dist_b: ContextDistribution,
    relation: CompatibilityRelation,
) -> EntangledState:
    """Entangle two distributions along a compatibility relation.

    Weight pA(x) * pB(y) goes on each compatible pair; the amplitudes are
    the square roots of those weights after renormalization. Fails when no
    compatible pair carries positive probability on both sides.
    """
    basis_a, basis_b = dist_a.exemplars, dist_b.exemplars
    rows, cols = relation._positions(basis_a, basis_b)
    weights = dist_a._p[rows] * dist_b._p[cols]
    kept = np.flatnonzero(weights > 0)
    if not kept.size:
        raise ValueError(
            "concepts cannot be combined: no compatible pair has positive "
            "probability on both sides"
        )
    weights = weights[kept]
    moduli = np.sqrt(weights / weights.sum())
    # |m + 0j| is m exactly, so m * m are the bits of np.abs(amps) ** 2.
    return EntangledState._from_arrays(
        basis_a, basis_b, rows[kept], cols[kept], moduli.astype(complex), moduli * moduli
    )


def joint_expectation(state: EntangledState, obs_a: Observable, obs_b: Observable) -> float:
    """Mean of the product of two one-sided +1/-1 observables."""
    same_labels(obs_a.basis, state.basis_a, "side A basis mismatch, observable vs state")
    same_labels(obs_b.basis, state.basis_b, "side B basis mismatch, observable vs state")
    signs = obs_a._signs[state._rows] * obs_b._signs[state._cols]
    total = float(np.dot(signs, state._probs))
    return min(max(total, -1.0), 1.0)


def _side(state: EntangledState, side: str) -> tuple[Labels, np.ndarray]:
    """One side's basis and the support's index into it."""
    if side == "A":
        return state.basis_a, state._rows
    if side == "B":
        return state.basis_b, state._cols
    raise ValueError(f"side must be 'A' or 'B', got {shown(side)}")


def marginal(state: EntangledState, side: str) -> ContextDistribution:
    """One side's exemplar distribution, summing the joint over the other."""
    basis, idx = _side(state, side)
    probs = np.bincount(idx, weights=state._probs, minlength=len(basis))
    return ContextDistribution._from_arrays(f"marginal of side {side}", basis, probs)


def conditional_collapse(state: EntangledState, side: str, exemplar: str) -> EntangledState:
    """Condition the joint state on one side's exemplar being observed."""
    basis, idx = _side(state, side)
    kept = np.flatnonzero(idx == basis.index_of(exemplar, "exemplar"))
    mass = float(np.sum(state._probs[kept]))
    if mass <= DEFAULT_TOL:
        raise ValueError(
            f"cannot collapse side {side} to {shown(exemplar)}: its marginal probability is zero"
        )
    return EntangledState._from_arrays(
        state.basis_a,
        state.basis_b,
        state._rows[kept],
        state._cols[kept],
        state._amps[kept] / math.sqrt(mass),
    )


def guppy_gap(
    state: EntangledState,
    dist_a: ContextDistribution,
    dist_b: ContextDistribution,
    exemplar: str,
) -> float:
    """How much the combination boosts one exemplar beyond both inputs.

    Returns marginal_A(exemplar) - max(pA(exemplar), pB(exemplar)). A
    strictly positive gap means the combined concept rates the exemplar
    higher than either concept alone ever did.
    """
    a, b = state.basis_a, state.basis_b
    if not isinstance(exemplar, str) or exemplar not in a.positions or exemplar not in b.positions:
        raise ValueError(
            f"exemplar {listing((exemplar,))} must appear in both bases; "
            f"side A has [{listing(a)}], side B has [{listing(b)}]"
        )
    # The exemplar's entry of marginal(state, "A"): its support probabilities
    # summed in support order, as bincount sums them, and clamped as every
    # distribution's entries are.
    in_bin = state._probs[state._rows == a.positions[exemplar]]
    joint_p = float(_clamped((exemplar,), np.cumsum(in_bin)[-1:])[0]) if in_bin.size else 0.0
    return joint_p - max(dist_a.probability(exemplar), dist_b.probability(exemplar))
