"""Classical realizability of 2x2 correlation tables.

A table of joint expectations is classically explainable when some convex
mixture of the 16 deterministic outcome assignments reproduces it. For two
settings and two outcomes per side that polytope is known facet by facet:
joints alone are classical exactly when the eight CHSH forms stay at or
below 2 (Fine 1982, PRL 48 291); with singles, the 16 outcome-probability
positivity facets join them (Froissart 1981; Collins & Gisin 2004). Every
facet is decided on one ``math.fsum`` of at most five table entries or
their negations, signs written out: the CHSH slack 2 - s.E, or four times
an outcome probability, 1 +- A_i +- B_j +- E_ij. The sum is correctly
rounded and nothing scales it before its sign is tested, so the sign, hence
the decision, is exact. The eight CHSH slacks are the table's own,
computed when ``CorrelationTable`` builds it; ``classify``,
``primary_violated`` and ``realizable`` all read them. The positivity sums
are computed here, and only when ``realizable`` finds no CHSH form violated.
A violated positivity facet is reported as a probability, its sum / 4; a
sum of -2**-1074 or -2**-1073 gives -0.0 there, and the witness's
description then shows the sum and the division instead.

Mixture weights for a classical table come in closed form from Fine's
chordal construction, as straight-line float code. The test suite keeps
the generic construction over sign tables and holds the weights, the
residual, the witness and the band to it bit for bit, and holds the
decision against an independent linear program over the strategy weights.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from ._labels import freeze, shown
from ._tolerance import DEFAULT_TOL, RESIDUAL_TOL, as_number
from .bell import CorrelationTable, CHSH_FORMS, _sized, bell_value_all_forms

#: Largest functional value reachable by tensor-product measurements on a
#: shared quantum state.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

CLASSICAL = "classical"
QUANTUM_ACHIEVABLE = "quantum-achievable"
SUPRA_QUANTUM = "supra-quantum"


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed +1/-1 outcomes for both row contexts and both column contexts.

    Each side takes exactly two outcomes, in any sized collection other
    than a string.
    """

    row_outcomes: tuple[int, int]
    col_outcomes: tuple[int, int]

    def __post_init__(self) -> None:
        for field in ("row_outcomes", "col_outcomes"):
            given = getattr(self, field)
            if not (_sized(given) and len(given) == 2):
                raise ValueError(f"{field} must be two outcomes, +1 or -1, got {shown(given)}")
            given = tuple(given)
            outcomes = tuple(as_number(v, "sign") for v in given)  # the ints 1 and -1
            if None in outcomes:
                bad = given[outcomes.index(None)]
                raise ValueError(f"strategy outcomes must be +1 or -1, got {shown(bad)}")
            freeze(self, **{field: outcomes})

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

# Per moment (the four joint products, then the four outcomes), getters of
# the weights of the strategies where it is +1 and of those where it is -1.
_MOMENT_SIGNS = tuple(
    tuple(
        operator.itemgetter(*(k for k, v in enumerate(moment) if v == sign))
        for sign in (1, -1)
    )
    for moment in zip(*((*s.joint_products(), *s.outcome_vector()) for s in _STRATEGIES))
)


def enumerate_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 16 deterministic strategies, in a fixed order."""
    return _STRATEGIES


@dataclass(frozen=True)
class Witness:
    """A single violated constraint certifying non-realizability.

    ``kind`` is "bell-form" when a sign placement of the joints exceeds the
    classical ceiling of 2, or "outcome-probability" when (with singles
    present) some implied outcome probability goes negative. The value of
    an outcome-probability witness is that probability, its exact sum / 4,
    rounded; where that rounds to -0.0 the description reads, for instance,
    ``p(row=-1, col=-1 | 'row-1', 'col-0') = -5e-324 / 4 < 0``.
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
    its violation, the negated ``witness.value`` for an outcome probability
    and the negated slack 2 - s.E for a CHSH form, as ``max_residual``. A
    probability below the smallest subnormal has the value -0.0 and the
    violation 0.0, though the table is not classical.
    """

    feasible: bool
    weights: tuple[float, ...] | None
    witness: Witness | None
    max_residual: float


def realizable(table: CorrelationTable) -> RealizabilityResult:
    """Decide membership in the classical correlation polytope.

    The decision is exact and takes no tolerance: every facet's sign is
    read from its correctly rounded sum, before any division, so a table
    whose only violation is below the smallest subnormal still reads
    infeasible (its ``max_residual`` is then 0.0). The returned weights are
    checked against the table: a sup-norm residual above ``RESIDUAL_TOL``
    is a ValueError. The closed-form weights stay below 1e-15 (the test
    suite holds them to that), so the check never fires on a correct build.
    """
    found = _witness(table)
    if found is not None:
        witness, slack = found
        return RealizabilityResult(False, None, witness, -slack)

    joints = table.joints_flat()
    singles_a = table.singles_a or (0.0, 0.0)
    singles_b = table.singles_b or (0.0, 0.0)
    weights = _fine_weights(joints, singles_a, singles_b)
    # Moments without a target (the singles of a joints-only table) are
    # left out, as zip stops at the last target.
    targets = (*joints, *singles_a, *singles_b) if table.has_singles else joints
    residual = max(
        abs(math.fsum(plus(weights)) - math.fsum(minus(weights)) - target)
        for (plus, minus), target in zip(_MOMENT_SIGNS, targets)
    )
    if residual > RESIDUAL_TOL:
        raise ValueError(
            f"mixture weights reproduce the table only to {shown(residual)}, "
            f"above the tolerance {shown(RESIDUAL_TOL)}"
        )
    return RealizabilityResult(True, tuple(weights), None, residual)


#: (row, col, row outcome, col outcome) of each positivity facet.
_OUTCOMES = tuple(itertools.product(range(2), range(2), (1, -1), (1, -1)))


def _positivity_sums(table: CorrelationTable) -> list[float]:
    """Four times each outcome probability implied by the singles and one
    joint, 1 +- A_i +- B_j +- E_ij, in the order of ``_OUTCOMES``, with the
    signs written out."""
    a, b, joints = table.singles_a, table.singles_b, table.joints_flat()
    fsum = math.fsum
    sums = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ai, bj, e = a[i], b[j], joints[2 * i + j]
        sums += (
            fsum((1.0, ai, bj, e)),
            fsum((1.0, ai, -bj, -e)),
            fsum((1.0, -ai, bj, -e)),
            fsum((1.0, -ai, -bj, e)),
        )
    return sums


def _witness(table: CorrelationTable) -> tuple[Witness, float] | None:
    """The most violated facet and its slack, or None if no slack is negative.

    A violated CHSH form is reported before any positivity facet, with the
    float ``bell_value_all_forms`` gives. The positivity sums are computed
    only when no CHSH form is violated, and only the smallest is divided by
    4, after its sign is tested, to report it as a probability.
    """
    slack = min(table._chsh_slacks)
    if slack < 0.0:
        value, signs = table._top_form
        terms = " ".join(
            f"{'+' if s > 0 else '-'}E{i // 2}{i % 2}" for i, s in enumerate(signs)
        )
        witness = Witness(
            kind="bell-form",
            value=value,
            bound=2.0,
            description=f"{terms} = {shown(value)} > 2 (by {shown(-slack)})",
            signs=signs,
        )
        return witness, slack
    sums = _positivity_sums(table) if table.has_singles else []
    low = min(sums, default=0.0)
    if low < 0.0:
        i, j, sa, sb = _OUTCOMES[sums.index(low)]
        q = low / 4.0
        # A quotient below the smallest subnormal is -0.0: show the sum / 4.
        shown_q = shown(q) if q else f"{shown(low)} / 4"
        witness = Witness(
            kind="outcome-probability",
            value=q,
            bound=0.0,
            description=(
                f"p(row={sa:+d}, col={sb:+d} | {shown(table.row_contexts[i])}, "
                f"{shown(table.col_contexts[j])}) = {shown_q} < 0"
            ),
        )
        return witness, q
    return None


def _fine_weights(joints, singles_a, singles_b) -> list[float]:
    """Weights over the strategies of a classical table, in closed form.

    The chord x = E[A0 A1] splits the cycle A0-B0-A1-B1 into the triangles
    (A0, A1, Bk), k = 0, 1. Their atoms (a0, a1, b) run +++, ++-, +-+, +--,
    -++, -+-, --+, --- and have the outcome probabilities

        8 p_k(a0, a1, b) = c_k(a0, a1, b) + a0 a1 x + a0 a1 b t_k

    with c_k = 1 + a0 A0 + a1 A1 + b (Bk + a0 E0k + a1 E1k) fixed by the
    table and t_k = E[A0 A1 Bk]. Eliminating t_k bounds x from below by the
    atoms with a0 = a1, x >= -(min(c(+++), c(--+)) + min(c(++-), c(---))) / 2,
    and from above by those with a0 != a1, x <= (min(c(+-+), c(-++)) +
    min(c(+--), c(-+-))) / 2; x sits at the middle of both triangles' common
    interval. With g = c + a0 a1 x, t_k sits at the middle of its own: at
    least -min g over +++, +--, -+-, --+ (where a0 a1 b = +1), at most min g
    over ++-, +-+, -++, --- (where it is -1). Fine's theorem makes both
    intervals non-empty for a classical table. Gluing p_0 p_1 / p(a0, a1)
    makes B0 and B1 independent given A0, A1 and matches both triangles.
    Joints-only tables take zero singles, which flipping every outcome of
    any mixture shows to be realizable too.

    The signs are written out, yet every weight is that of the generic
    construction over sign tables, bit for bit; the test suite keeps that
    construction and compares the weights. There each sum of two minima
    starts from 0.0, as ``sum`` does; here none needs to. Under
    round-to-nearest a float sum or difference is -0.0 only when its left
    operand is -0.0, and every u starts from 1.0, every c from a u and
    every such sum from a minimum of c's, so none of them is -0.0 and
    0.0 + s would be s. Each clamp is max(0.0, v), so a signed zero rounds
    as it did there.

    Two scalings look removable but are not: the halving of each pair's
    mass and the / 8 of each atom. Either factor cancels in the final
    w / total unless a weight is subnormal: there a quotient keeps fewer
    bits, so where the factor is applied moves its rounding. The test
    suite holds both examples. Without the halving, weight 9 of the table
    with joints (0.75, 1.0, 5e-322, 0.0) and singles (-0.75, -0.25),
    (-0.75, -0.75) moves from 0x0.000000000000dp-1022 to ...0ep-1022.
    Without the / 8, weight 14 of the one with joints (-0.75, -1.0,
    7.4e-323, 0.0) and singles (-0.75, 0.25), (0.75, 0.75) moves from
    0x0.0000000000003p-1022 to ...2p-1022.
    """
    sa0, sa1 = singles_a
    # 1 + a0 A0 + a1 A1, for (a0, a1) = ++, +-, -+, --.
    u_pp, u_pm, u_mp, u_mm = 1.0 + sa0 + sa1, 1.0 + sa0 - sa1, 1.0 - sa0 + sa1, 1.0 - sa0 - sa1
    free, cross, same = [], [], []
    for k in range(2):
        sb, e0, e1 = singles_b[k], joints[k], joints[2 + k]
        v_pp, v_pm, v_mp, v_mm = sb + e0 + e1, sb + e0 - e1, sb - e0 + e1, sb - e0 - e1
        c = (
            u_pp + v_pp, u_pp - v_pp, u_pm + v_pm, u_pm - v_pm,
            u_mp + v_mp, u_mp - v_mp, u_mm + v_mm, u_mm - v_mm,
        )
        free.append(c)
        cross.append(min(c[2], c[4]) + min(c[3], c[5]))
        same.append(min(c[0], c[6]) + min(c[1], c[7]))
    x = (min(cross) - min(same)) / 4.0

    p = []
    for c0, c1, c2, c3, c4, c5, c6, c7 in free:
        g0, g1, g2, g3 = c0 + x, c1 + x, c2 - x, c3 - x
        g4, g5, g6, g7 = c4 - x, c5 - x, c6 + x, c7 + x
        t = (-min(g0, g3, g5, g6) + min(g1, g2, g4, g7)) / 2.0
        q = (
            (g0 + t) / 8.0, (g1 - t) / 8.0, (g2 - t) / 8.0, (g3 + t) / 8.0,
            (g4 - t) / 8.0, (g5 + t) / 8.0, (g6 + t) / 8.0, (g7 - t) / 8.0,
        )
        p.append([v if v > 0.0 else 0.0 for v in q])  # max(0.0, v), written out

    # Atoms 2m and 2m + 1 share the m-th (a0, a1) and have b = +1, -1. A
    # clamped probability is never -0.0, so its sums need no 0.0 start.
    weights = []
    p0, p1 = p
    for m in range(0, 8, 2):
        u0, u1, v0, v1 = p0[m], p0[m + 1], p1[m], p1[m + 1]
        pair = (u0 + u1 + (v0 + v1)) / 2.0
        if pair > 0.0:
            weights += (u0 * v0 / pair, u0 * v1 / pair, u1 * v0 / pair, u1 * v1 / pair)
        else:
            weights += (0.0, 0.0, 0.0, 0.0)
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
    largest form value, ``bell_value_all_forms``, splits the bands at
    2*sqrt(2), within ``DEFAULT_TOL``.
    """
    if min(table._chsh_slacks) >= 0.0:
        return CLASSICAL
    if bell_value_all_forms(table) <= TSIRELSON_BOUND + DEFAULT_TOL:
        return QUANTUM_ACHIEVABLE
    return SUPRA_QUANTUM
