"""Checked label sequences: the one label check, every label lookup, the
errors both give, and the one way a message shows what it was given.

``distinct_labels`` checks labels once and returns them as ``Labels``, a
tuple that knows each label's position. ``Labels`` are returned unchanged by
a later check. Every lookup that reports an unknown label is
``Labels.index_of``; a membership test or a bulk lookup reads
``Labels.positions`` directly. Every error that names known labels lists
them by ``listing``: at most 20, then how many more, so a message stays
short at any basis size. Every label or given value that an error or
warning of the package shows (a file line, a flag, a JSON field, a number)
is shown by ``shown``: its repr, cut in the middle past 60 characters, so a
message stays short at any input size too. A numpy scalar is shown as the
Python value it holds, so a message reads the same under numpy 1 and 2.
No other module formats a message by repr.
``same_labels`` is the one check that two objects share a basis, and
``label_pair`` the one check of a (left, right) pair. A string given for a
collection of labels is refused everywhere, by ``label_items``, rather than
read as its characters.
"""

from __future__ import annotations

import sys
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

#: Most labels an error message names; 20 lists every shipped fixture whole.
_LISTED = 20


def shown(value) -> str:
    """The value's repr; one longer than 60 characters keeps its first 28 and
    last 29, joined by "...". A numpy scalar is shown by its ``item()``.
    """
    np = sys.modules.get("numpy")  # no numpy scalar exists before it loads
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:28]}...{text[-29:]}"


def listing(labels: Sequence) -> str:
    """The reprs of at most ``_LISTED`` labels, each by ``shown``,
    comma-separated, then how many are left out."""
    text = ", ".join(map(shown, labels[:_LISTED]))
    more = len(labels) - _LISTED
    return f"{text}, and {more} more" if more > 0 else text


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

    def index_of(self, label: str, kind: str) -> int:
        """The label's position. A missing or unhashable label is a
        ``ValueError`` naming it, ``kind`` ("exemplar", "term", ...) and the
        known labels by ``listing``."""
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown {kind} {shown(label)}; available {kind}s: {listing(self)}"
            ) from None

    def __reduce__(self):
        return Labels, (tuple(self),)  # a copy rebuilds its map on first use


def same_labels(a: Labels, b: Labels, what: str) -> None:
    """Refuse two bases that differ, with ``what`` and both by ``listing``."""
    if a != b:
        raise ValueError(f"{what}: [{listing(a)}] vs [{listing(b)}]")


def label_pair(pair) -> tuple[str, str]:
    """A (left, right) pair as a tuple: a tuple or list of two labels, each a
    non-empty string as in ``distinct_labels``. Anything else, a string such
    as ``"ab"`` too, is a ``ValueError`` naming it."""
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        x, y = pair
        if isinstance(x, str) and x and isinstance(y, str) and y:
            return tuple(pair)  # a tuple itself, not a copy
    raise ValueError(f"a pair must be two non-empty string labels, got {shown(pair)}")


def label_items(labels: Iterable[str], kind: str) -> tuple:
    """The labels as a tuple; a string, which would read as one label per
    character, is a ``ValueError`` naming ``kind`` and showing it."""
    if isinstance(labels, str):
        raise ValueError(
            f"{kind} labels must be a collection of labels, got a string: {shown(labels)}"
        )
    return tuple(labels)


def distinct_labels(labels: Iterable[str], kind: str) -> Labels:
    """The labels as a checked tuple of non-empty, pairwise distinct strings.

    ``Labels`` are returned as they are; any other input is checked and
    returned as ``Labels``. ``kind`` names the labels in the error messages
    ("exemplar", "side A basis", ...). A string is refused by ``label_items``.
    The first offending label, in order, is the one reported. The fast path
    is a join, which fails on any non-string, and one set.
    """
    if type(labels) is Labels:
        return labels
    out = label_items(labels, kind)
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
        raise ValueError(f"{kind} labels must be non-empty strings, got {shown(bad)}")
    if len(seen) != len(out):
        seen = set()
        dup = next(x for x in out if x in seen or seen.add(x))
        raise ValueError(f"duplicate {kind} label: {shown(dup)}")
    return Labels(out)
