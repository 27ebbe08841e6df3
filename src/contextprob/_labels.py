"""The one label check shared by every labelled object in the package."""

from __future__ import annotations

from typing import Iterable


def distinct_labels(labels: Iterable[str], kind: str) -> tuple[str, ...]:
    """The labels as a tuple of non-empty, pairwise distinct strings.

    ``kind`` names the labels in the error messages ("exemplar", "side A
    basis", ...). The first offending label, in order, is the one reported.
    The fast path is a join, which fails on any non-string, and one set.
    """
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
    return out
