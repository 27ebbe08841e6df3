"""The one tolerance policy: every float tolerance in the package, named once.

Each module reads its tolerances from here rather than spelling a literal.
Only ``RESIDUAL_TOL`` can be overridden, and only where it changes a
verdict: by ``product_equality_check(tol)`` and ``bell --tolerance``, which
both check the value through ``check_tolerance``. Everything else is fixed,
``realizable``'s bound on the residual of its closed-form weights too.
Exact decisions (the CHSH and positivity facets) take no tolerance at all.
``as_number`` is the one rule for what counts as a number, for a tolerance
and wherever else a number is given as a value.
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


def as_number(value) -> float | None:
    """``value`` as a float, or None when it is no number: the package's one
    rule for a number given as a value.

    A bool is no number, nor is a value with a length: neither text, even
    "0.5", nor an array, as for a joint cell.
    """
    if isinstance(value, bool) or hasattr(value, "__len__"):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None
    except OverflowError:  # an int past the float range
        return math.inf


def check_tolerance(tol: float) -> float:
    """``tol`` as a float; a ValueError unless it is a finite non-negative number."""
    value = as_number(tol)
    if value is None or not value >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {shown(tol)}")
    if value == math.inf:
        raise ValueError(f"tolerance must be finite, got {shown(value)}")
    return value
