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
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ._labels import distinct_labels, freeze, label_items, listing, same_labels, shown
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
        freeze(self, basis=basis, amplitudes=amps)

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
    used to collapse a state. The support is also kept as a read-only bool
    mask in basis order.
    """

    basis: tuple[str, ...]
    support: frozenset[str]

    def __post_init__(self) -> None:
        basis = distinct_labels(self.basis, "basis")
        support = label_items(self.support, "support")
        # An entry that is no basis label, an unhashable one too, is a stray;
        # each is shown once, in the order of its repr.
        stray = [x for x in support if not (isinstance(x, str) and x in basis.positions)]
        if stray:
            once = dict(zip(map(repr, stray), stray))
            stray = [once[k] for k in sorted(once)]
            raise ValueError(f"projector support not in basis: [{listing(stray)}]")
        support = frozenset(support)
        mask = np.fromiter((x in support for x in basis), dtype=bool, count=len(basis))
        freeze(self, basis=basis, support=support, _mask=mask)


def identity_projector(basis: Sequence[str]) -> Projector:
    b = distinct_labels(basis, "basis")
    return Projector(b, frozenset(b))


@dataclass(frozen=True, eq=False)
class Observable:
    """Diagonal two-valued observable: each basis label gets +1 or -1.

    ``signs`` is a read-only mapping, and the signs are also kept as a
    read-only float array in basis order.
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
        freeze(self, basis=basis, signs=MappingProxyType(signs), _signs=in_order)

    def sign(self, label: str) -> int:
        self.basis.index_of(label, "basis label")  # names an unknown label
        return self.signs[label]

    def __reduce__(self):
        return Observable, (self.basis, dict(self.signs))  # a mapping proxy does not pickle


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
    # Scaling the real and imaginary parts by the reciprocal, in one real
    # multiply, gives what numpy's complex division by a real gives, bit for
    # bit apart from the sign of a zero part.
    amps.view(np.float64)[...] *= 1.0 / np.linalg.norm(amps)
    kept = np.flatnonzero(amps != 0)  # a zero factor entry, or a product that underflowed
    rows = kept // v.dim
    cols = kept - rows * v.dim
    return EntangledState._from_arrays(u.basis, v.basis, rows, cols, amps[kept])


def _mass(mask: np.ndarray, state: StateVector) -> float:
    """The squared moduli of the amplitudes where ``mask`` holds, summed in
    basis order and capped at 1. A sum of squared moduli of finite numbers
    is never below +0.0, so it needs no floor."""
    return min(float(np.sum(np.abs(state.amplitudes[mask]) ** 2)), 1.0)


def born_prob(proj: Projector, state: StateVector) -> float:
    """Probability of the outcome ``proj`` keeps, for a given state."""
    same_labels(proj.basis, state.basis, "basis mismatch in born_prob")
    return _mass(proj._mask, state)


def collapse(proj: Projector, state: StateVector) -> StateVector:
    """Project a state onto ``proj``'s support and renormalize."""
    same_labels(proj.basis, state.basis, "basis mismatch in collapse")
    kept = np.where(proj._mask, state.amplitudes, 0.0)
    if float(np.sum(np.abs(kept) ** 2)) <= DEFAULT_TOL:
        raise ValueError(
            f"cannot collapse: state has no amplitude on [{listing(sorted(proj.support))}]"
        )
    return normalize(state.basis, kept)


def expectation(obs: Observable, state: StateVector) -> float:
    """Mean outcome of a +1/-1 observable.

    Computed as the difference of the Born probabilities of the +1 and the
    -1 labels, so it agrees with ``born_prob`` on ``sign_projectors(obs)``
    exactly, term for term.
    """
    same_labels(obs.basis, state.basis, "basis mismatch in expectation")
    return _mass(obs._signs > 0, state) - _mass(obs._signs < 0, state)
