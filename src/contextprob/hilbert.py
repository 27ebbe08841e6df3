"""Finite-dimensional complex state spaces over labeled bases.

A state is a unit-norm vector of complex amplitudes indexed by an ordered
sequence of string labels: a tuple, or for a tensor product a lazy sequence
of pair labels. Observables are diagonal in that basis with
eigenvalues +1/-1, and projectors are diagonal 0/1 matrices identified by
the set of labels they keep. Everything here is immutable and every
operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._labels import distinct_labels
from ._tolerance import DEFAULT_TOL

# Separator used for tensor-product labels. Joining flat strings keeps
# three-factor products associative at the label level as well.
TENSOR_SEP = "⊗"


class _ProductBasis(Sequence[str]):
    """The pair labels of a tensor product, built only when one is read.

    Holds the two factor bases, each a checked basis (a tuple from
    ``distinct_labels`` or another product basis). The pair label of (a, b)
    is ``a + TENSOR_SEP + b``, left label major. The sequence is equal to,
    and hashes like, the tuple of those labels.
    """

    __slots__ = ("_left", "_right", "_labels")

    def __init__(self, left: Sequence[str], right: Sequence[str]) -> None:
        self._left = left
        self._right = right
        self._labels: tuple[str, ...] | None = None
        # Distinct factor labels give distinct pairs, and two pair labels can
        # only coincide when a label on each side contains the separator.
        if _has_sep(left) and _has_sep(right):
            distinct_labels(self, "basis")

    def _tuple(self) -> tuple[str, ...]:
        if self._labels is None:
            heads = [a + TENSOR_SEP for a in self._left]
            self._labels = tuple(p + b for p in heads for b in self._right)
        return self._labels

    def __len__(self) -> int:
        return len(self._left) * len(self._right)

    def __getitem__(self, i):
        return self._tuple()[i]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ProductBasis):
            other = other._tuple()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._left!r}, {self._right!r})"


def _has_sep(basis: Sequence[str]) -> bool:
    return isinstance(basis, _ProductBasis) or TENSOR_SEP in "".join(basis)


def _same_basis(a, b, op: str) -> None:
    if a.basis != b.basis:
        raise ValueError(
            f"basis mismatch in {op}: {list(a.basis)} vs {list(b.basis)}"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over an ordered label basis."""

    basis: Sequence[str]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        basis = self.basis
        if not isinstance(basis, _ProductBasis):  # checked when it was built
            basis = distinct_labels(basis, "basis")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != len(basis):
            raise ValueError(
                f"{amps.shape[0]} amplitudes for {len(basis)} basis labels"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:  # also refuses NaN
            raise ValueError(f"state is not normalized: squared norm {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _pos(self) -> dict[str, int]:
        # Built on first use: tensor() makes large states that are never indexed.
        return {x: i for i, x in enumerate(self.basis)}

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(
                f"unknown basis label {label!r}; basis is {list(self.basis)}"
            ) from None

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.index(label)])


@dataclass(frozen=True)
class Projector:
    """Diagonal 0/1 projector keeping the amplitudes in ``support``.

    An empty support is the zero projector; it is allowed but cannot be
    used to collapse a state.
    """

    basis: tuple[str, ...]
    support: frozenset[str]

    def __post_init__(self) -> None:
        basis = distinct_labels(self.basis, "basis")
        support = frozenset(self.support)
        stray = support - set(basis)
        if stray:
            raise ValueError(
                f"projector support not in basis: {sorted(stray)!r}"
            )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "support", support)


def identity_projector(basis: Sequence[str]) -> Projector:
    b = distinct_labels(basis, "basis")
    return Projector(b, frozenset(b))


@dataclass(frozen=True, eq=False)
class Observable:
    """Diagonal two-valued observable: each basis label gets +1 or -1."""

    basis: tuple[str, ...]
    signs: Mapping[str, int]

    def __post_init__(self) -> None:
        basis = distinct_labels(self.basis, "basis")
        signs = dict(self.signs)
        if set(signs) != set(basis):
            missing = sorted(set(basis) - set(signs))
            stray = sorted(set(signs) - set(basis))
            raise ValueError(
                f"observable signs must cover the basis exactly; "
                f"missing {missing!r}, stray {stray!r}"
            )
        for label, s in signs.items():
            if s not in (1, -1):
                raise ValueError(f"sign for {label!r} must be +1 or -1, got {s!r}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "signs", signs)

    def sign(self, label: str) -> int:
        if label not in self.signs:
            raise ValueError(
                f"unknown basis label {label!r}; basis is {list(self.basis)}"
            )
        return self.signs[label]


def sign_projectors(obs: Observable) -> tuple[Projector, Projector]:
    """The (+1, -1) eigenspace projectors of a diagonal observable."""
    plus = frozenset(x for x in obs.basis if obs.signs[x] == 1)
    minus = frozenset(x for x in obs.basis if obs.signs[x] == -1)
    return Projector(obs.basis, plus), Projector(obs.basis, minus)


def basis_state(basis: Sequence[str], label: str) -> StateVector:
    """The state with all amplitude on one label."""
    b = distinct_labels(basis, "basis")
    if label not in b:
        raise ValueError(f"unknown basis label {label!r}; basis is {list(b)}")
    amps = np.zeros(len(b), dtype=complex)
    amps[b.index(label)] = 1.0
    return StateVector(b, amps)


def normalize(basis: Sequence[str], amplitudes: Sequence[complex]) -> StateVector:
    """Scale a raw amplitude vector to unit norm.

    Vectors whose norm is at or below ``DEFAULT_TOL`` are treated as zero
    and rejected, since no direction can be recovered from them. A NaN or
    infinite amplitude is rejected too; a finite vector whose norm overflows
    is scaled by its largest modulus first.
    """
    b = basis if isinstance(basis, _ProductBasis) else tuple(basis)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape[0] != len(b):
        raise ValueError(f"{amps.shape[0]} amplitudes for {len(b)} basis labels")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if norm == math.inf:  # overflowed squares, or an infinite amplitude
        top = float(np.max(np.abs(amps)))
        if top < math.inf:
            amps = amps / top
            norm = float(np.linalg.norm(amps))
    if not DEFAULT_TOL < norm < math.inf:
        distinct_labels(b, "basis")  # a bad label is reported before a bad vector
        if norm <= DEFAULT_TOL:
            raise ValueError("cannot normalize an all-zero amplitude vector")
        raise ValueError(f"cannot normalize an amplitude vector whose norm is {norm!r}")
    return StateVector(b, amps / norm)


def inner(u: StateVector, v: StateVector) -> complex:
    """Hermitian inner product <u|v>, conjugating the first argument."""
    _same_basis(u, v, "inner product")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Joint state over pair labels, amplitude = product of amplitudes.

    The pair label of (a, b) is ``a + TENSOR_SEP + b``, left factor first,
    so the result is sensitive to argument order. The basis is a lazy
    sequence of the pair labels: it is equal to, and hashes like, their
    tuple (it is not a ``tuple`` instance), and it builds the labels only
    when one is read. A product therefore costs one ``np.outer`` and a norm.
    """
    amps = np.outer(u.amplitudes, v.amplitudes).reshape(-1)
    # Each factor is unit norm only within tolerance, so the product can
    # drift past the constructor gate; renormalize the (near-unit) result.
    return normalize(_ProductBasis(u.basis, v.basis), amps)


def born_prob(proj: Projector, state: StateVector) -> float:
    """Probability of the outcome ``proj`` keeps, for a given state."""
    _same_basis(proj, state, "born_prob")
    mask = np.fromiter(
        (x in proj.support for x in state.basis), dtype=bool, count=state.dim
    )
    p = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    return min(max(p, 0.0), 1.0)


def collapse(proj: Projector, state: StateVector) -> StateVector:
    """Project a state onto ``proj``'s support and renormalize."""
    _same_basis(proj, state, "collapse")
    mask = np.fromiter(
        (x in proj.support for x in state.basis), dtype=bool, count=state.dim
    )
    kept = np.where(mask, state.amplitudes, 0.0)
    if float(np.sum(np.abs(kept) ** 2)) <= DEFAULT_TOL:
        raise ValueError(
            "cannot collapse: state has no amplitude on "
            f"{sorted(proj.support)!r}"
        )
    return normalize(state.basis, kept)


def expectation(obs: Observable, state: StateVector) -> float:
    """Mean outcome of a +1/-1 observable.

    Computed as the difference of the two Born probabilities, so it agrees
    with them exactly, term for term.
    """
    if obs.basis != state.basis:
        raise ValueError(
            f"basis mismatch in expectation: {list(obs.basis)} vs {list(state.basis)}"
        )
    plus, minus = sign_projectors(obs)
    return born_prob(plus, state) - born_prob(minus, state)
