"""Facet oracle for 2x2 correlation tables, independent of contextprob.

For two settings and two outcomes per side the classical (local) polytope
is known in closed form. Joints alone are classical exactly when all eight
CHSH forms stay at or below 2 (Fine 1982). With singles, the 16 outcome
positivity facets join them (Froissart 1981; Collins & Gisin 2004).

Every facet value is a sum of at most five floats times +1/-1, so
``math.fsum`` returns it correctly rounded: its sign is exact and the oracle
needs no tolerance.
"""

from __future__ import annotations

import itertools
import math

TSIRELSON = 2.0 * math.sqrt(2.0)

#: Sign tuples with an odd number of -1 entries: the eight CHSH forms.
FORMS = tuple(s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2)

#: Deterministic strategies as (row outcomes, column outcomes).
STRATEGIES = tuple(
    ((a0, a1), (b0, b1)) for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
)


def form_value(signs, joints) -> float:
    """s0*E00 + s1*E01 + s2*E10 + s3*E11, correctly rounded."""
    return math.fsum(s * e for s, e in zip(signs, joints))


def all_forms_value(joints) -> float:
    return max(abs(form_value(s, joints)) for s in FORMS)


def positivity(joints, singles_a, singles_b):
    """The 16 outcome probabilities times 4: 1 + sa*A_i + sb*B_j + sa*sb*E_ij."""
    for i, j, sa, sb in itertools.product(range(2), range(2), (1, -1), (1, -1)):
        yield math.fsum((1.0, sa * singles_a[i], sb * singles_b[j], sa * sb * joints[2 * i + j]))


def facet_slacks(joints, singles_a=None, singles_b=None) -> list[float]:
    """Slack of every facet; the table is classical iff none is negative."""
    slacks = [math.fsum((2.0, *(-s * e for s, e in zip(signs, joints)))) for signs in FORMS]
    if singles_a is not None:
        slacks.extend(q / 4.0 for q in positivity(joints, singles_a, singles_b))
    return slacks


def decide(joints, singles_a=None, singles_b=None) -> dict:
    """Expected answers: realizability, the classify band and the nearest facet."""
    slacks = facet_slacks(joints, singles_a, singles_b)
    value = all_forms_value(joints)
    if value <= 2.0:
        band = "classical"
    elif value <= TSIRELSON:
        band = "quantum-achievable"
    else:
        band = "supra-quantum"
    return {"classical": min(slacks) >= 0.0, "band": band, "min_abs_slack": min(map(abs, slacks))}


def strategy_image(weights, strategies=STRATEGIES):
    """Joints and singles reproduced by a mixture of deterministic strategies."""
    joints = [0.0] * 4
    singles = [0.0] * 4
    for w, (rows, cols) in zip(weights, strategies):
        for i, j in itertools.product(range(2), range(2)):
            joints[2 * i + j] += w * rows[i] * cols[j]
        for k, v in enumerate((*rows, *cols)):
            singles[k] += w * v
    return joints, singles
