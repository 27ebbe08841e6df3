"""The one tolerance policy: every float tolerance in the package, named once.

Each module reads its tolerances from here rather than spelling a literal.
Only ``RESIDUAL_TOL`` can be overridden, by ``realizable(tol)``,
``product_equality_check(tol)`` and the CLI's two ``--tolerance`` flags;
the others are fixed. Exact decisions (the CHSH and positivity facets)
take no tolerance at all.
"""

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
