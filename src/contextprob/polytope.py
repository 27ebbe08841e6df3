"""Classical realizability of 2x2 correlation tables.

A table of joint expectations is classically explainable when some convex
mixture of the 16 deterministic outcome assignments reproduces it. For two
settings and two outcomes per side that polytope is known facet by facet:
joints alone are classical exactly when the eight CHSH forms stay at or
below 2 (Fine 1982, PRL 48 291); with singles, the 16 outcome-probability
positivity facets join them (Froissart 1981; Collins & Gisin 2004). Every
facet slack is a sum of at most five floats times +1/-1, so ``math.fsum``
returns it correctly rounded and its sign, hence the decision, is exact.
The eight CHSH slacks are the table's own, computed once by
``CorrelationTable``; ``classify``, ``primary_violated`` and ``realizable``
all read them. The positivity slacks are computed here, for ``realizable``.

Mixture weights for a classical table come in closed form from Fine's
chordal construction; the test suite holds the decision against an
independent linear program over the strategy weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._tolerance import DEFAULT_TOL, RESIDUAL_TOL, check_tolerance
from .bell import CorrelationTable, CHSH_FORMS

#: Largest functional value reachable by tensor-product measurements on a
#: shared quantum state.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

CLASSICAL = "classical"
QUANTUM_ACHIEVABLE = "quantum-achievable"
SUPRA_QUANTUM = "supra-quantum"


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed +1/-1 outcomes for both row contexts and both column contexts."""

    row_outcomes: tuple[int, int]
    col_outcomes: tuple[int, int]

    def __post_init__(self) -> None:
        for v in (*self.row_outcomes, *self.col_outcomes):
            if v not in (1, -1):
                raise ValueError(f"strategy outcomes must be +1 or -1, got {v!r}")

    def joint_products(self) -> tuple[int, int, int, int]:
        """Products row_i * col_j in row-major order."""
        r, c = self.row_outcomes, self.col_outcomes
        return (r[0] * c[0], r[0] * c[1], r[1] * c[0], r[1] * c[1])

    def outcome_vector(self) -> tuple[int, int, int, int]:
        return (*self.row_outcomes, *self.col_outcomes)


_STRATEGIES: tuple[DeterministicStrategy, ...] = tuple(
    DeterministicStrategy((a0, a1), (b0, b1))
    for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
)

# One column per strategy: its four joint products, then its four outcomes.
_MOMENT_MATRIX = np.array(
    [(*s.joint_products(), *s.outcome_vector()) for s in _STRATEGIES], dtype=float
).T


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 16 deterministic strategies, in a fixed order."""
    return _STRATEGIES


@dataclass(frozen=True)
class Witness:
    """A single violated constraint certifying non-realizability.

    ``kind`` is "bell-form" when a sign placement of the joints exceeds the
    classical ceiling of 2, or "outcome-probability" when (with singles
    present) some implied outcome probability goes negative.
    """

    kind: str
    value: float
    bound: float
    description: str
    signs: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class RealizabilityResult:
    """Decision with its evidence.

    Feasible results carry mixture weights over ``enumerate_strategies()``
    and ``max_residual``, the sup-norm distance between the table and the
    mixture. Infeasible results carry a violated facet as ``witness`` and
    its violation, the facet's negated slack, as ``max_residual``.
    """

    feasible: bool
    weights: tuple[float, ...] | None
    witness: Witness | None
    max_residual: float


def realizable(table: CorrelationTable, tol: float = RESIDUAL_TOL) -> RealizabilityResult:
    """Decide membership in the classical correlation polytope.

    The decision is exact and takes no tolerance. ``tol`` bounds the
    sup-norm residual of the returned weights; a ValueError reports a
    feasible table whose weights miss it by more.
    """
    check_tolerance(tol)
    found = _witness(table)
    if found is not None:
        witness, slack = found
        return RealizabilityResult(False, None, witness, -slack)

    joints = table.joints_flat()
    singles_a = table.singles_a or (0.0, 0.0)
    singles_b = table.singles_b or (0.0, 0.0)
    weights = _fine_weights(joints, singles_a, singles_b)
    errors = _MOMENT_MATRIX @ weights - (*joints, *singles_a, *singles_b)
    residual = float(np.max(np.abs(errors if table.has_singles else errors[:4])))
    if residual > tol:
        raise ValueError(
            f"mixture weights reproduce the table only to {residual!r}, "
            f"above the tolerance {tol!r}"
        )
    return RealizabilityResult(True, tuple(weights), None, residual)


#: (row, col, row outcome, col outcome) of each positivity facet.
_OUTCOMES = tuple(itertools.product(range(2), range(2), (1, -1), (1, -1)))


def _positivity_slacks(table: CorrelationTable) -> list[float]:
    """Each outcome probability implied by the singles and one joint."""
    a, b, joints = table.singles_a, table.singles_b, table.joints_flat()
    return [
        math.fsum((1.0, sa * a[i], sb * b[j], sa * sb * joints[2 * i + j])) / 4.0
        for i, j, sa, sb in _OUTCOMES
    ]


def _witness(table: CorrelationTable) -> tuple[Witness, float] | None:
    """The most violated facet and its slack, or None if no slack is negative.

    A violated CHSH form is reported before any positivity facet, with the
    value 2 - slack, the float ``bell_value_all_forms`` gives. The
    positivity slacks are computed only when no CHSH form is violated.
    """
    chsh = table._chsh_slacks
    slack = min(chsh)
    if slack < 0.0:
        signs = CHSH_FORMS[chsh.index(slack)]
        value = 2.0 - slack
        terms = " ".join(
            f"{'+' if s > 0 else '-'}E{i // 2}{i % 2}" for i, s in enumerate(signs)
        )
        witness = Witness(
            kind="bell-form",
            value=value,
            bound=2.0,
            description=f"{terms} = {value!r} > 2 (by {-slack!r})",
            signs=signs,
        )
        return witness, slack
    positivity = _positivity_slacks(table) if table.has_singles else []
    if positivity and min(positivity) < 0.0:
        q = min(positivity)
        i, j, sa, sb = _OUTCOMES[positivity.index(q)]
        witness = Witness(
            kind="outcome-probability",
            value=q,
            bound=0.0,
            description=(
                f"p(row={sa:+d}, col={sb:+d} | {table.row_contexts[i]!r}, "
                f"{table.col_contexts[j]!r}) = {q!r} < 0"
            ),
        )
        return witness, q
    return None


#: Outcomes (a0, a1, b) of the triangle (A0, A1, Bk).
_ATOMS = tuple(itertools.product((1, -1), repeat=3))
_CHORD = tuple(a0 * a1 for a0, a1, _ in _ATOMS)
_TRIPLE = tuple(a0 * a1 * b for a0, a1, b in _ATOMS)
#: Per value of b, the two atoms with a0 = a1, and the two with a0 != a1.
_SAME = tuple(
    tuple(i for i, (a0, a1, bi) in enumerate(_ATOMS) if a0 == a1 and bi == b)
    for b in (1, -1)
)
_CROSS = tuple(
    tuple(i for i, (a0, a1, bi) in enumerate(_ATOMS) if a0 != a1 and bi == b)
    for b in (1, -1)
)


def _fine_weights(joints, singles_a, singles_b) -> list[float]:
    """Weights over the strategies of a classical table, in closed form.

    The chord x = E[A0 A1] splits the cycle A0-B0-A1-B1 into the triangles
    (A0, A1, Bk), k = 0, 1, whose outcome probabilities are

        8 p_k(a0, a1, b) = c_k(a0, a1, b) + a0 a1 x + a0 a1 b t_k

    with c_k fixed by the table and t_k = E[A0 A1 Bk]. Eliminating t_k
    bounds x by pairwise sums of c_k: from below by atoms with a0 = a1, from
    above by atoms with a0 != a1. x sits at the middle of both triangles'
    common interval, then each t_k at the middle of its own. Fine's theorem
    makes both intervals non-empty for a classical table. Gluing
    p_0 p_1 / p(a0, a1) makes B0 and B1 independent given A0, A1 and matches
    both triangles. Joints-only tables take zero singles, which flipping
    every outcome of any mixture shows to be realizable too.
    """
    free = [
        [
            1.0
            + a0 * singles_a[0]
            + a1 * singles_a[1]
            + b * (singles_b[k] + a0 * joints[k] + a1 * joints[2 + k])
            for a0, a1, b in _ATOMS
        ]
        for k in range(2)
    ]

    def floor(c, groups):
        return sum(min(c[i] for i in group) for group in groups)

    x = (min(floor(c, _CROSS) for c in free) - min(floor(c, _SAME) for c in free)) / 4.0
    p = []
    for c in free:
        g = [v + s * x for v, s in zip(c, _CHORD)]
        t_lo = -min(v for v, s in zip(g, _TRIPLE) if s > 0)
        t_hi = min(v for v, s in zip(g, _TRIPLE) if s < 0)
        t = (t_lo + t_hi) / 2.0
        p.append([max(0.0, (v + s * t) / 8.0) for v, s in zip(g, _TRIPLE)])

    # Atoms 2m and 2m + 1 share the m-th (a0, a1) and have b = +1, -1.
    weights = []
    for m in range(0, 8, 2):
        q0, q1 = p[0][m : m + 2], p[1][m : m + 2]
        pair = (sum(q0) + sum(q1)) / 2.0
        weights.extend(u * v / pair if pair > 0.0 else 0.0 for u in q0 for v in q1)
    total = math.fsum(weights)
    return [w / total for w in weights]


def is_kolmogorovian(table: CorrelationTable) -> bool:
    """Joints-only shortcut: classical iff every CHSH slack is >= 0."""
    if table.has_singles:
        raise ValueError(
            "is_kolmogorovian applies to joints-only tables; "
            "use realizable() when singles are present"
        )
    return classify(table) == CLASSICAL


#: Positions in ``CHSH_FORMS`` of the forms a(E00 - E01) + b(E10 + E11).
_PRIMARY_FORMS = tuple(
    k for k, (s0, s1, s2, s3) in enumerate(CHSH_FORMS) if s1 == -s0 and s2 == s3
)


def primary_violated(table: CorrelationTable) -> bool:
    """Whether |E00 - E01| + |E10 + E11| exceeds 2, decided exactly.

    That functional is the largest of the four CHSH forms a(E00 - E01) +
    b(E10 + E11), the sign tuples (a, -a, b, b); it is violated when one of
    their exact slacks is negative, so a table just past the facet reads
    violated even where the float sum of the functional gives 2.
    """
    return any(table._chsh_slacks[k] < 0.0 for k in _PRIMARY_FORMS)


def classify(table: CorrelationTable) -> str:
    """Band of the joints: classical, quantum-achievable, supra-quantum.

    "Classical" is decided from the exact CHSH slacks, as in realizable(),
    so the two agree at the facet; singles play no part. Above it, the
    largest form value, 2 minus the smallest slack (the forms are closed
    under a global sign flip), splits the bands at 2*sqrt(2), within
    ``DEFAULT_TOL``.
    """
    slack = min(table._chsh_slacks)
    if slack >= 0.0:
        return CLASSICAL
    if 2.0 - slack <= TSIRELSON_BOUND + DEFAULT_TOL:
        return QUANTUM_ACHIEVABLE
    return SUPRA_QUANTUM
