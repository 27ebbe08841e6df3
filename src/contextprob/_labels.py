"""Checked label sequences: the one label check, and where each label sits.

``distinct_labels`` checks labels once and returns them as ``Labels``, a
tuple that knows each label's position. ``Labels`` are returned unchanged by
a later check, and every label lookup in the package reads their
``positions``.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping


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


def distinct_labels(labels: Iterable[str], kind: str) -> Labels:
    """The labels as a checked tuple of non-empty, pairwise distinct strings.

    ``Labels`` are returned as they are; any other input is checked and
    returned as ``Labels``. ``kind`` names the labels in the error messages
    ("exemplar", "side A basis", ...).
    The first offending label, in order, is the one reported. The fast path
    is a join, which fails on any non-string, and one set.
    """
    if type(labels) is Labels:
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
