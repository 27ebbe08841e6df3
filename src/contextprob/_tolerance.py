"""The one tolerance policy and the one number rule.

Every float tolerance in the package is named here once, and each module
reads its tolerances from here rather than spelling a literal. Only
``RESIDUAL_TOL`` can be overridden, and only where it changes a verdict: by
``product_equality_check(tol)`` and ``bell --tolerance``, which both check
the value through ``check_tolerance``. Everything else is fixed,
``realizable``'s bound on the residual of its closed-form weights too.
Exact decisions (the CHSH and positivity facets) take no tolerance at all.

``as_number`` decides what a number is, for every value the package is
given: a float, a complex amplitude, an integral count or rank, or a +1/-1
sign. ``as_array`` applies it to each entry of an array. A bool (Python's
or numpy's) is no number, nor is text, even "0.5", nor a list or an array.
No other module tests a value for a bool or casts a given value to a
number; only text read from a file or a flag is parsed, by ``float``.
"""

import math

from ._labels import shown

#: Rounding slack of a float sum of a few terms near 1 or 2: unit norms,
#: probability ranges and sums, zero-mass and zero-norm cut-offs, and the
#: classical (2) and Tsirelson (2*sqrt(2)) ceilings of float functional values.
DEFAULT_TOL = 1e-12

#: Largest sup-norm mismatch accepted between a table and what is meant to
#: reproduce it: mixture weights, or a product of singles.
RESIDUAL_TOL = 1e-9

#: How far past its stop a sweep grid point may fall and still be kept, so
#: that rounding in start + k * step does not drop the last point.
GRID_SLACK = 1e-9

#: Mixture weights at or below this count as unused strategies and are left
#: out of the kolmo report.
WEIGHT_CUTOFF = 1e-15

#: Per kind of ``as_array``: the dtype it stores, and the dtype kinds
#: (numpy's one-letter codes) it copies with no pass per entry.
_KINDS = {"real": ("float64", "fiu"), "integer": ("int64", "iu"), "complex": ("complex128", "fiuc")}

#: The range of int64, where every "integer" entry of ``as_array`` must lie.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def as_number(value, kind: str = "real"):
    """``value`` as a number of ``kind``, or None when it is none: the
    package's one rule for a number given as a value.

    ``kind`` is "real" (a float), "complex" (a complex), "integer" (an int,
    for an integral value) or "sign" (the int 1 or -1). A bool, Python's or
    numpy's, is no number, nor is a value with a length: text, even "0.5",
    a list or an array. A complex value is no real number. A numpy scalar
    is told by its ``dtype``, so numpy is never loaded for the check.
    """
    if type(value) is float and kind == "real":  # the common case, first
        return value
    code = getattr(getattr(value, "dtype", None), "kind", "")  # a numpy scalar's
    if isinstance(value, bool) or code == "b" or hasattr(value, "__len__"):
        return None
    if code == "c" and kind != "complex":  # float() would drop the imaginary part
        return None
    try:
        number = (complex if kind == "complex" else float)(value)
    except (TypeError, ValueError):
        return None
    except OverflowError:  # an int past the float range
        number = math.inf
    if kind in ("integer", "sign"):
        number = int(value) if number.is_integer() else None  # exact past 2**53 too
    return number if kind != "sign" or number in (1, -1) else None


def as_array(values, kind: str, what: str, labels: dict | None = None):
    """``values`` as a fresh numpy array of ``kind`` ("real", "complex" or
    "integer"): float64, complex128 or int64.

    ``labels`` maps what the labels of each axis are ("exemplar", ...) to
    those labels; values of another shape are then a ValueError, and an
    entry is named by its labels. Without, any shape is taken and an entry
    is named by its index. A numpy array whose dtype is of ``kind`` already
    (an integer or float array for "real") is copied with no pass per
    entry, except a uint64 array for "integer", which may hold more than
    int64 does. Anything else, a Python sequence too, is read as an object
    array, so that no entry is promoted, and each entry must pass
    ``as_number``, and for "integer" lie within int64; the first that does
    not is a ValueError naming ``what`` at the entry and showing the entry
    by ``shown``.
    """
    import numpy as np  # only callers that hold arrays ask

    dtype, ready = _KINDS[kind]
    given = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if labels and given.shape != tuple(map(len, labels.values())):
        axes = " x ".join(f"{len(axis)} {name}s" for name, axis in labels.items())
        raise ValueError(f"{what} shape {given.shape} does not match {axes}")
    if given.dtype.kind in ready and not (kind == "integer" and given.dtype == np.uint64):
        return given.astype(dtype)
    numbers = [as_number(v, kind) for v in given.flat]
    if kind == "integer":
        numbers = [n if n is None or _INT64_MIN <= n <= _INT64_MAX else None for n in numbers]
    if None in numbers:
        k = numbers.index(None)
        at = tuple(map(int, np.unravel_index(k, given.shape)))
        at = tuple(axis[i] for axis, i in zip(labels.values(), at)) if labels else at
        at = shown(at[0] if len(at) == 1 else at)
        noun = "an integer" if kind == "integer" else "a number"
        raise ValueError(f"{what} at {at} is not {noun}: {shown(given.flat[k])}")
    return np.array(numbers, dtype=dtype).reshape(given.shape)


def check_tolerance(tol: float) -> float:
    """``tol`` as a float; a ValueError unless it is a finite non-negative number."""
    value = as_number(tol)
    if value is None or not value >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {shown(tol)}")
    if value == math.inf:
        raise ValueError(f"tolerance must be finite, got {shown(value)}")
    return value
