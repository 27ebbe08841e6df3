"""Checked label sequences: the one label check, and where each label sits.

``distinct_labels`` checks labels once and returns them as ``Labels``, a
tuple that knows each label's position. A tensor product's basis is a
``_ProductBasis``, which builds its pair labels only when one is read. Both
are returned unchanged by a later check, and every label lookup in the
package reads their ``positions``.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

# Separator used for tensor-product labels. Joining flat strings keeps
# three-factor products associative at the label level as well.
TENSOR_SEP = "⊗"


class Labels(tuple):
    """A tuple of non-empty, pairwise distinct strings, as checked.

    Equal to, hashing like and printing like the plain tuple; only
    ``distinct_labels`` builds one from unchecked input.
    """

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Each label's index, built on first use and kept.

        Read-only, since every object holding these labels reads it.
        """
        return MappingProxyType({x: i for i, x in enumerate(self)})

    def __reduce__(self):
        return Labels, (tuple(self),)  # a copy rebuilds its map on first use


class _ProductBasis(Sequence[str]):
    """The pair labels of a tensor product, built only when one is read.

    Holds the two factor bases, each a checked basis (``Labels`` or another
    product basis). The pair label of (a, b) is ``a + TENSOR_SEP + b``, left
    label major. The sequence is equal to, and hashes like, the tuple of
    those labels.
    """

    __slots__ = ("_left", "_right", "_labels")

    def __init__(self, left: Sequence[str], right: Sequence[str]) -> None:
        self._left = left
        self._right = right
        self._labels: Labels | None = None
        # Two pair labels can only coincide when a label on each side holds
        # the separator; then the plain pair tuple is checked in full.
        if _has_sep(left) and _has_sep(right):
            self._labels = distinct_labels(self._pairs(), "basis")

    def _pairs(self) -> tuple[str, ...]:
        heads = [a + TENSOR_SEP for a in self._left]
        return tuple(p + b for p in heads for b in self._right)

    def _tuple(self) -> Labels:
        if self._labels is None:
            self._labels = Labels(self._pairs())
        return self._labels

    @property
    def positions(self) -> Mapping[str, int]:
        return self._tuple().positions

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


def distinct_labels(labels: Iterable[str], kind: str) -> Labels | _ProductBasis:
    """The labels as a checked sequence of non-empty, pairwise distinct strings.

    An already checked sequence (``Labels`` or ``_ProductBasis``) is returned
    as it is; any other input is checked and returned as ``Labels``. ``kind``
    names the labels in the error messages ("exemplar", "side A basis", ...).
    The first offending label, in order, is the one reported. The fast path
    is a join, which fails on any non-string, and one set.
    """
    if type(labels) in (Labels, _ProductBasis):  # no ABC isinstance on the hot path
        return labels
    out = tuple(labels)
    if not out:
        raise ValueError(f"need at least one {kind} label")
    try:
        "".join(out)
        seen = set(out)
        ok = "" not in seen
    except TypeError:
        ok = False
    if not ok:
        bad = next(x for x in out if not isinstance(x, str) or not x)
        raise ValueError(f"{kind} labels must be non-empty strings, got {bad!r}")
    if len(seen) != len(out):
        seen = set()
        dup = next(x for x in out if x in seen or seen.add(x))
        raise ValueError(f"duplicate {kind} label: {dup!r}")
    return Labels(out)
