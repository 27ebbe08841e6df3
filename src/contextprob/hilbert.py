"""Finite-dimensional complex state spaces over labeled bases.

A state is a unit-norm vector of complex amplitudes indexed by an ordered
tuple of checked string labels (``_labels.Labels``, a tuple that knows each
label's position). Observables are diagonal in that basis with eigenvalues
+1/-1, and projectors are diagonal 0/1 matrices identified by the set of
labels they keep. The product of two states is a joint state over pairs,
``entangle.EntangledState``. Everything here is immutable and every
operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ._labels import distinct_labels, label_items, listing, same_labels, shown
from ._tolerance import DEFAULT_TOL, as_array, as_number

if TYPE_CHECKING:
    from .entangle import EntangledState


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over an ordered label basis: one concept's
    state. A joint state of two concepts is an ``entangle.EntangledState``."""

    basis: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        basis = distinct_labels(self.basis, "basis")
        amps = as_array(self.amplitudes, "complex", "amplitude").reshape(-1)
        if amps.shape[0] != len(basis):
            raise ValueError(f"{amps.shape[0]} amplitudes for {len(basis)} basis labels")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:  # also refuses NaN
            raise ValueError(f"state is not normalized: squared norm {shown(norm_sq)}")
        amps.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label: str) -> int:
        return self.basis.index_of(label, "basis label")

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
        support = frozenset(label_items(self.support, "support"))
        stray = sorted(support.difference(basis.positions), key=repr)
        if stray:
            raise ValueError(f"projector support not in basis: [{listing(stray)}]")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "support", support)


def identity_projector(basis: Sequence[str]) -> Projector:
    b = distinct_labels(basis, "basis")
    return Projector(b, frozenset(b))


@dataclass(frozen=True, eq=False)
class Observable:
    """Diagonal two-valued observable: each basis label gets +1 or -1.

    The signs are also kept as a read-only float array in basis order.
    """

    basis: tuple[str, ...]
    signs: Mapping[str, int]

    def __post_init__(self) -> None:
        basis = distinct_labels(self.basis, "basis")
        signs = dict(self.signs)
        if set(signs) != set(basis):
            missing = sorted(set(basis) - set(signs))
            stray = sorted(set(signs) - set(basis), key=repr)
            raise ValueError(
                f"observable signs must cover the basis exactly; "
                f"missing [{listing(missing)}], stray [{listing(stray)}]"
            )
        for label, s in signs.items():
            signs[label] = as_number(s, "sign")  # the Python int 1 or -1
            if signs[label] is None:
                raise ValueError(f"sign for {shown(label)} must be +1 or -1, got {shown(s)}")
        in_order = np.array([signs[x] for x in basis], dtype=float)
        in_order.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "_signs", in_order)

    def sign(self, label: str) -> int:
        self.basis.index_of(label, "basis label")  # names an unknown label
        return self.signs[label]


def sign_projectors(obs: Observable) -> tuple[Projector, Projector]:
    """The (+1, -1) eigenspace projectors of a diagonal observable."""
    plus = frozenset(x for x in obs.basis if obs.signs[x] == 1)
    minus = frozenset(x for x in obs.basis if obs.signs[x] == -1)
    return Projector(obs.basis, plus), Projector(obs.basis, minus)


def basis_state(basis: Sequence[str], label: str) -> StateVector:
    """The state with all amplitude on one label."""
    b = distinct_labels(basis, "basis")
    amps = np.zeros(len(b), dtype=complex)
    amps[b.index_of(label, "basis label")] = 1.0
    return StateVector(b, amps)


def normalize(basis: Sequence[str], amplitudes: Sequence[complex]) -> StateVector:
    """Scale a raw amplitude vector to unit norm.

    Vectors whose norm is at or below ``DEFAULT_TOL`` are treated as zero
    and rejected, since no direction can be recovered from them. A NaN or
    infinite amplitude is rejected too; a finite vector whose norm overflows
    is scaled by its largest modulus first.
    """
    b = distinct_labels(basis, "basis")
    amps = as_array(amplitudes, "complex", "amplitude").reshape(-1)  # StateVector checks the length
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if norm == math.inf:  # overflowed squares, or an infinite amplitude
        top = float(np.max(np.abs(amps)))
        if top < math.inf:
            amps = amps / top
            norm = float(np.linalg.norm(amps))
    if not DEFAULT_TOL < norm < math.inf:
        if norm <= DEFAULT_TOL:
            raise ValueError("cannot normalize an all-zero amplitude vector")
        raise ValueError(f"cannot normalize an amplitude vector whose norm is {shown(norm)}")
    return StateVector(b, amps / norm)


def inner(u: StateVector, v: StateVector) -> complex:
    """Hermitian inner product <u|v>, conjugating the first argument."""
    same_labels(u.basis, v.basis, "basis mismatch in inner product")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def tensor(u: StateVector, v: StateVector) -> EntangledState:
    """The product state of two states: a joint state over (u, v) label pairs.

    The amplitude of (x, y) is ``u.amplitude(x) * v.amplitude(y)``,
    renormalized, and the support is ordered left label major, so the result
    is sensitive to argument order. Pairs whose product is zero are left out
    of the support, as in every ``EntangledState``; ``dim`` still counts them.
    """
    from .entangle import EntangledState  # entangle imports this module

    amps = np.outer(u.amplitudes, v.amplitudes).reshape(-1)
    # Each factor is unit norm only within tolerance, so the product can
    # drift past the constructor gate; renormalize the (near-unit) result.
    amps /= np.linalg.norm(amps)
    kept = amps != 0  # a zero factor entry, or a product that underflowed
    rows = np.repeat(np.arange(u.dim), v.dim)[kept]
    cols = np.tile(np.arange(v.dim), u.dim)[kept]
    return EntangledState._from_arrays(u.basis, v.basis, rows, cols, amps[kept])


def born_prob(proj: Projector, state: StateVector) -> float:
    """Probability of the outcome ``proj`` keeps, for a given state."""
    same_labels(proj.basis, state.basis, "basis mismatch in born_prob")
    mask = np.fromiter(
        (x in proj.support for x in state.basis), dtype=bool, count=state.dim
    )
    p = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    return min(max(p, 0.0), 1.0)


def collapse(proj: Projector, state: StateVector) -> StateVector:
    """Project a state onto ``proj``'s support and renormalize."""
    same_labels(proj.basis, state.basis, "basis mismatch in collapse")
    mask = np.fromiter(
        (x in proj.support for x in state.basis), dtype=bool, count=state.dim
    )
    kept = np.where(mask, state.amplitudes, 0.0)
    if float(np.sum(np.abs(kept) ** 2)) <= DEFAULT_TOL:
        raise ValueError(
            f"cannot collapse: state has no amplitude on [{listing(sorted(proj.support))}]"
        )
    return normalize(state.basis, kept)


def expectation(obs: Observable, state: StateVector) -> float:
    """Mean outcome of a +1/-1 observable.

    Computed as the difference of the two Born probabilities, so it agrees
    with them exactly, term for term.
    """
    same_labels(obs.basis, state.basis, "basis mismatch in expectation")
    plus, minus = sign_projectors(obs)
    return born_prob(plus, state) - born_prob(minus, state)
