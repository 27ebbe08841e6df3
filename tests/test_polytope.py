import functools
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from contextprob import bell, polytope
from contextprob._tolerance import DEFAULT_TOL
from contextprob.bell import CHSH_FORMS, CorrelationTable, bell_value_all_forms
from contextprob.cli import main
from contextprob.polytope import (
    CLASSICAL,
    DeterministicStrategy,
    QUANTUM_ACHIEVABLE,
    SUPRA_QUANTUM,
    TSIRELSON_BOUND,
    classify,
    enumerate_strategies,
    is_kolmogorovian,
    primary_violated,
    realizable,
)

ROWS = ("r0", "r1")
COLS = ("c0", "c1")


def table(joint, **kw):
    return CorrelationTable(ROWS, COLS, np.array(joint, dtype=float), **kw)


def reconstruct(weights):
    """Mix the deterministic strategies with the given weights, by hand."""
    strategies = enumerate_strategies()
    joints = np.zeros(4)
    singles = np.zeros(4)
    for w, s in zip(weights, strategies):
        joints += w * np.asarray(s.joint_products())
        singles += w * np.asarray(s.outcome_vector())
    return joints, singles


def lp_residual(t):
    """Best sup-norm residual of any strategy mixture, by linear program.

    minimize r  subject to  |M w - target| <= r,  sum(w) = 1,  w >= 0,
    over the 16 strategy weights w. An oracle independent of the facet
    decision; HiGHS works to about 1e-7, so only tables well away from
    every facet are decided by it.
    """
    strategies = enumerate_strategies()
    columns = [s.joint_products() for s in strategies]
    target = list(t.joints_flat())
    if t.has_singles:
        columns = [c + s.outcome_vector() for c, s in zip(columns, strategies)]
        target += [*t.singles_a, *t.singles_b]
    m = np.array(columns, dtype=float).T
    b = np.array(target)
    n_cons, n_w = m.shape
    ones = np.ones((n_cons, 1))
    res = linprog(
        np.r_[np.zeros(n_w), 1.0],
        A_ub=np.block([[m, -ones], [-m, -ones]]),
        b_ub=np.r_[b, -b],
        A_eq=np.r_[np.ones(n_w), 0.0].reshape(1, -1),
        b_eq=[1.0],
        bounds=[(0.0, None)] * (n_w + 1),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


PERFECT = table(
    [[-1.0, 1.0], [1.0, 1.0]], singles_a=(1.0, 1.0), singles_b=(1.0, 1.0)
)


# ----------------------------------------------------------------- strategies


def test_sixteen_distinct_strategies():
    strategies = enumerate_strategies()
    assert len(strategies) == 16
    assert len({(s.row_outcomes, s.col_outcomes) for s in strategies}) == 16


def test_strategy_products_are_signs():
    for s in enumerate_strategies():
        assert set(s.joint_products()) <= {1, -1}
        assert s.joint_products() == (
            s.row_outcomes[0] * s.col_outcomes[0],
            s.row_outcomes[0] * s.col_outcomes[1],
            s.row_outcomes[1] * s.col_outcomes[0],
            s.row_outcomes[1] * s.col_outcomes[1],
        )


def test_a_strategy_refuses_a_bool_outcome():
    # True == 1, but a bool is no number (``_tolerance.as_number``'s rule).
    with pytest.raises(ValueError, match=r"^strategy outcomes must be \+1 or -1, got True$"):
        DeterministicStrategy((True, 1), (1, -1))


@pytest.mark.parametrize(
    "row, shown",
    [
        ((1, 1, 1), "(1, 1, 1)"),
        ((1,), "(1,)"),
        ((), "()"),
        (5, "5"),
        (None, "None"),
        ("11", "'11'"),
        (np.array(1), "array(1)"),
    ],
    ids=repr,
)
def test_a_strategy_takes_exactly_two_outcomes_a_side(row, shown):
    # (1, 1, 1) built and failed in joint_products; 5 was a TypeError.
    with pytest.raises(ValueError) as err:
        DeterministicStrategy(row, (1, -1))
    assert str(err.value) == f"row_outcomes must be two outcomes, +1 or -1, got {shown}"
    with pytest.raises(ValueError) as err:
        DeterministicStrategy((1, -1), row)
    assert str(err.value) == f"col_outcomes must be two outcomes, +1 or -1, got {shown}"


def test_a_strategy_takes_its_outcomes_from_any_pair():
    s = DeterministicStrategy([1, -1], np.array([-1, 1]))
    assert s == DeterministicStrategy((1, -1), (-1, 1))


def test_a_strategy_keeps_its_outcomes_as_python_ints():
    s = DeterministicStrategy((1.0, -1), (np.int64(1), 1))
    assert s == DeterministicStrategy((1, -1), (1, 1))
    assert all(type(v) is int for v in s.outcome_vector())


def test_all_plus_strategy_is_present():
    assert any(
        s.row_outcomes == (1, 1) and s.col_outcomes == (1, 1)
        for s in enumerate_strategies()
    )


# ---------------------------------------------------------------- realizable


def test_all_ones_table_is_realizable():
    result = realizable(table([[1, 1], [1, 1]]))
    assert result.feasible
    assert result.witness is None
    assert result.max_residual <= 1e-9
    joints, _ = reconstruct(result.weights)
    assert np.allclose(joints, [1, 1, 1, 1], atol=1e-9)


def test_zero_table_is_realizable():
    result = realizable(table([[0, 0], [0, 0]]))
    assert result.feasible
    joints, _ = reconstruct(result.weights)
    assert np.allclose(joints, 0.0, atol=1e-9)


def test_weights_form_a_distribution():
    rng = np.random.default_rng(5)
    mixture = rng.dirichlet(np.ones(16))
    joints, singles = reconstruct(mixture)
    t = table(
        joints.reshape(2, 2),
        singles_a=tuple(singles[:2]),
        singles_b=tuple(singles[2:]),
    )
    result = realizable(t)
    assert result.feasible
    w = np.asarray(result.weights)
    assert np.all(w >= 0)
    assert math.isclose(w.sum(), 1.0, abs_tol=1e-9)
    got_joints, got_singles = reconstruct(w)
    assert np.allclose(got_joints, joints, atol=1e-8)
    assert np.allclose(got_singles, singles, atol=1e-8)


def test_perfect_correlation_table_is_not_realizable():
    result = realizable(PERFECT)
    assert not result.feasible
    assert result.weights is None
    witness = result.witness
    assert witness.kind == "bell-form"
    assert witness.bound == 2.0
    assert witness.value == pytest.approx(4.0, abs=1e-9)
    # Re-evaluate the reported sign form against the table directly.
    recomputed = sum(s * e for s, e in zip(witness.signs, PERFECT.joints_flat()))
    assert abs(recomputed) == pytest.approx(witness.value, abs=1e-12)


def test_quantum_pattern_is_not_realizable():
    s = 1.0 / math.sqrt(2.0)
    result = realizable(table([[s, -s], [s, s]]))
    assert not result.feasible
    assert result.witness.kind == "bell-form"
    assert result.witness.value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)


def test_singles_can_break_realizability_without_any_bell_violation():
    # Zero joints with deterministic all-plus singles: every sign form sits
    # at 0, yet outcome probabilities would have to go negative.
    t = table(
        [[0, 0], [0, 0]], singles_a=(1.0, 1.0), singles_b=(1.0, 1.0)
    )
    result = realizable(t)
    assert not result.feasible
    witness = result.witness
    assert witness.kind == "outcome-probability"
    assert witness.bound == 0.0
    assert witness.value == pytest.approx(-0.25, abs=1e-9)


@pytest.mark.parametrize("k, shown", [(1, "-5e-324 / 4"), (2, "-1e-323 / 4"), (3, "-5e-324")])
def test_a_probability_below_the_smallest_subnormal_is_a_witness(k, shown):
    # p(row=-1, col=-1 | row-1, col-0) = (1 - 0.5 - 0.5 - k * 2**-1074) / 4
    # exactly. For k = 1, 2 the quotient rounds to -0.0: the sum is tested
    # before the division, and the description shows the division.
    tiny = k * 2.0**-1074
    t = CorrelationTable(
        ("row-0", "row-1"),
        ("col-0", "col-1"),
        [[tiny, -1.0], [-tiny, 0.5]],
        singles_a=(0.0, 0.5),
        singles_b=(0.5, 0.0),
    )
    result = realizable(t)
    assert not result.feasible and result.weights is None
    witness = result.witness
    assert (witness.kind, witness.bound, witness.signs) == ("outcome-probability", 0.0, None)
    assert witness.value.hex() == (-tiny / 4).hex() == ("-0x0.0p+0" if k < 3 else "-0x0.0000000000001p-1022")
    assert result.max_residual.hex() == (tiny / 4).hex()
    assert witness.description == f"p(row=-1, col=-1 | 'row-1', 'col-0') = {shown} < 0"


# ------------------------------------------------------------ is_kolmogorovian


def test_is_kolmogorovian_matches_realizable_on_plain_tables():
    assert is_kolmogorovian(table([[1, 1], [1, 1]]))
    assert not is_kolmogorovian(table([[-1, 1], [1, 1]]))


def test_is_kolmogorovian_rejects_tables_with_singles():
    with pytest.raises(ValueError, match="joints-only"):
        is_kolmogorovian(PERFECT)


def test_oracle_agreement_on_random_tables():
    # The routes are independent: a membership program over the sixteen
    # deterministic strategies, the facet decision, and the maximum over the
    # eight sign forms. They must agree on every joints-only table.
    rng = np.random.default_rng(20260818)
    for _ in range(2000):
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        feasible = realizable(t).feasible
        assert feasible == (lp_residual(t) <= 1e-9)
        assert feasible == (bell_value_all_forms(t) <= 2.0 + 1e-9)


def test_lp_oracle_agreement_on_random_tables_with_singles():
    # Half the tables are strategy mixtures, half have uniform singles, so
    # both outcomes and both kinds of witness occur.
    rng = np.random.default_rng(20261017)
    kinds = set()
    for n in range(600):
        if n % 2:
            joints, singles = reconstruct(rng.dirichlet(np.full(16, 0.5)))
            joints, singles = np.clip(joints, -1, 1), np.clip(singles, -1, 1)
        else:
            joints, singles = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        t = table(
            joints.reshape(2, 2),
            singles_a=tuple(singles[:2]),
            singles_b=tuple(singles[2:]),
        )
        result = realizable(t)
        assert result.feasible == (lp_residual(t) <= 1e-9)
        kinds.add(result.witness.kind if result.witness else "feasible")
    assert kinds == {"feasible", "bell-form", "outcome-probability"}


def test_realizable_set_is_convex():
    rng = np.random.default_rng(43)
    found = 0
    while found < 50:
        a = rng.uniform(-1, 1, size=(2, 2))
        b = rng.uniform(-1, 1, size=(2, 2))
        if not (realizable(table(a)).feasible and realizable(table(b)).feasible):
            continue
        found += 1
        assert realizable(table((a + b) / 2.0)).feasible


def test_infeasible_tables_carry_a_violating_witness():
    rng = np.random.default_rng(47)
    seen = 0
    while seen < 50:
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        result = realizable(t)
        if result.feasible:
            continue
        seen += 1
        assert result.witness.kind == "bell-form"
        assert result.witness.value > 2.0


def test_form_just_above_two_is_caught_with_its_witness():
    # E00 + E01 + E10 - E11 = 2 + 2**-54 exactly, but a plain float sum
    # rounds it to 2.0; the decision and its witness use the exact slack.
    t = table([[1.0, 0.75], [0.25 + 2.0**-54, 0.0]])
    assert bell_value_all_forms(t) == 2.0
    result = realizable(t)
    assert not result.feasible
    assert result.witness.kind == "bell-form"
    assert result.witness.signs == (1, 1, 1, -1)
    assert result.max_residual == 2.0**-54


def test_tolerance_bounds_the_weight_residual(monkeypatch):
    # Weights skewed by 1e-6 miss the table far above RESIDUAL_TOL, so the
    # self-check refuses them instead of reporting them.
    mixture = np.random.default_rng(11).dirichlet(np.ones(16))
    joints, _ = reconstruct(mixture)
    t = table(joints.reshape(2, 2))
    result = realizable(t)
    assert 0.0 < result.max_residual <= 1e-12
    skew = 1e-6 * np.random.default_rng(17).standard_normal(16)
    fine_weights = polytope._fine_weights
    monkeypatch.setattr(
        polytope, "_fine_weights", lambda *args: [w + d for w, d in zip(fine_weights(*args), skew)]
    )
    with pytest.raises(ValueError) as err:
        realizable(t)
    message = re.fullmatch(
        r"mixture weights reproduce the table only to (\S+), above the tolerance 1e-09",
        str(err.value),
    )
    assert message and 1e-9 < float(message[1]) < 1e-4


def moment_matrix_residual(t, weights):
    """Sup-norm residual of ``weights`` by one float product with the moment
    matrix: the reference for the grouped ``math.fsum`` of ``realizable``."""
    strategies = enumerate_strategies()
    m = np.array([(*s.joint_products(), *s.outcome_vector()) for s in strategies]).T
    singles = (*t.singles_a, *t.singles_b) if t.has_singles else (0.0,) * 4
    errors = m @ np.asarray(weights) - (*t.joints_flat(), *singles)
    return float(np.max(np.abs(errors if t.has_singles else errors[:4])))


@pytest.mark.parametrize("with_singles", (True, False))
@pytest.mark.parametrize("skew", (0.0, 1e-6))
def test_residual_matches_the_moment_matrix_product(monkeypatch, with_singles, skew):
    # A skew added to the closed-form weights gives every moment an error
    # far above rounding, so the comparison sees each moment and its sign;
    # the residual bound is lifted so that the skewed weights are reported.
    rng = np.random.default_rng(17)
    fine_weights = polytope._fine_weights
    monkeypatch.setattr(polytope, "RESIDUAL_TOL", 1.0)
    monkeypatch.setattr(
        polytope,
        "_fine_weights",
        lambda *args: [w + skew * d for w, d in zip(fine_weights(*args), rng.standard_normal(16))],
    )
    for _ in range(600):
        joints, singles = reconstruct(rng.dirichlet(np.full(16, 0.5)))
        kw = {"singles_a": singles[:2], "singles_b": singles[2:]} if with_singles else {}
        t = table(joints.reshape(2, 2), **kw)
        result = realizable(t)
        assert result.feasible and result.witness is None
        assert abs(result.max_residual - moment_matrix_residual(t, result.weights)) <= 1e-15


# ------------------------------------------------------------ facet boundary

DELTAS = (1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def facet_table(rng, saturates, push, with_singles):
    """A random mixture of the strategies on a facet, pushed off it.

    ``push`` is added to the joints (row-major) and singles (row 0, row 1,
    col 0, col 1) of the mixture.
    """
    on = np.array([saturates(s) for s in enumerate_strategies()], dtype=float)
    mixture = on * rng.dirichlet(np.ones(16))
    joints, singles = reconstruct(mixture / mixture.sum())
    joints, singles = joints + push[:4], singles + push[4:]
    if not with_singles:
        return table(joints.reshape(2, 2))
    return table(
        joints.reshape(2, 2),
        singles_a=tuple(singles[:2]),
        singles_b=tuple(singles[2:]),
    )


def check_boundary(t, slack, kind):
    result = realizable(t)
    assert result.feasible == (slack >= 0.0)
    if result.feasible:
        w = np.asarray(result.weights)
        assert np.all(w >= 0) and math.isclose(w.sum(), 1.0, abs_tol=1e-12)
        joints, singles = reconstruct(w)
        assert np.max(np.abs(joints - t.joints_flat())) <= 1e-9
        if t.has_singles:
            target = (*t.singles_a, *t.singles_b)
            assert np.max(np.abs(singles - target)) <= 1e-9
        assert result.max_residual <= 1e-9
    else:
        assert result.witness.kind == kind
        assert result.max_residual == -slack


@pytest.mark.parametrize("side", (1, -1))
@pytest.mark.parametrize("delta", DELTAS)
def test_chsh_facet_boundary(delta, side):
    # Facet E00 + E01 + E10 - E11 <= 2, joints only; side +1 crosses it.
    signs = (1, 1, 1, -1)
    push = np.r_[np.array(signs) * side * delta / 4.0, np.zeros(4)]
    rng = np.random.default_rng([1, round(-math.log10(delta)), side + 1])
    for _ in range(10):
        t = facet_table(
            rng, lambda s: np.dot(signs, s.joint_products()) == 2, push, False
        )
        e00, e01, e10, e11 = t.joints_flat()
        slack = math.fsum((2.0, -e00, -e01, -e10, e11))
        assert (slack < 0) == (side > 0)
        check_boundary(t, slack, "bell-form")


@pytest.mark.parametrize("side", (1, -1))
@pytest.mark.parametrize("delta", DELTAS)
def test_positivity_facet_boundary(delta, side):
    # Facet p(row=+1, col=+1 | r0, c0) = (1 + A0 + B0 + E00) / 4 >= 0, with
    # singles; side +1 crosses it.
    push = np.zeros(8)
    push[[0, 4, 6]] = -side * delta * 4.0 / 3.0
    rng = np.random.default_rng([2, round(-math.log10(delta)), side + 1])
    for _ in range(10):
        t = facet_table(
            rng,
            lambda s: not (s.row_outcomes[0] == s.col_outcomes[0] == 1),
            push,
            True,
        )
        q = math.fsum((1.0, t.singles_a[0], t.singles_b[0], t.joints_flat()[0])) / 4.0
        assert (q < 0) == (side > 0)
        check_boundary(t, q, "outcome-probability")


def test_closed_form_weights_reproduce_every_table_to_rounding():
    # Why realizable's residual bound is fixed: over 10,000 and more seeded
    # classical tables the weights miss by at most 1e-15, six orders below
    # RESIDUAL_TOL, so no bound at or above that could change a report.
    # Mixtures of 1, 2, 3 or 16 strategies, with and without singles, then
    # tables 1e-11 to 1e-6 inside a CHSH facet (joints only) and a positivity
    # facet (with singles).
    rng = np.random.default_rng(29)
    strategies = enumerate_strategies()
    moments = np.array([(*s.joint_products(), *s.outcome_vector()) for s in strategies]).T
    mixtures = []
    for n in range(9000):
        used = rng.choice(16, size=(1, 2, 3, 16)[n % 4], replace=False)
        mixture = np.zeros(16)
        mixture[used] = rng.dirichlet(np.ones(used.size))
        m = np.clip(moments @ mixture, -1.0, 1.0)  # a sum of weights may round past 1
        kw = {"singles_a": m[4:6], "singles_b": m[6:]} if n % 8 < 4 else {}
        mixtures.append(table(m[:4].reshape(2, 2), **kw))
    chsh = (1, 1, 1, -1)
    inside = []
    for delta in DELTAS:
        chsh_push = np.r_[np.array(chsh) * -delta / 4.0, np.zeros(4)]
        positivity_push = np.zeros(8)
        positivity_push[[0, 4, 6]] = delta * 4.0 / 3.0
        for _ in range(200):
            inside.append(
                facet_table(rng, lambda s: np.dot(chsh, s.joint_products()) == 2, chsh_push, False)
            )
            inside.append(
                facet_table(
                    rng,
                    lambda s: not (s.row_outcomes[0] == s.col_outcomes[0] == 1),
                    positivity_push,
                    True,
                )
            )
    # A mixture of few strategies lies on facets, and the float moments of
    # some fall just outside: those are not classical and are left out.
    results = [r for r in map(realizable, mixtures) if r.feasible]
    assert len(results) > 8000
    results += map(realizable, inside)
    assert all(r.feasible for r in results) and len(results) >= 10_000
    assert max(r.max_residual for r in results) <= 1e-15


# ------------------------------------------------- brute-force counterevidence


def test_no_strategy_mixture_reaches_the_perfect_correlation_table():
    # Logical route: any strategy matching the three +1 joints forces the
    # fourth product to +1 as well, never -1.
    for s in enumerate_strategies():
        products = s.joint_products()
        if products[1] == products[2] == products[3] == 1:
            assert products[0] == 1


def test_random_mixtures_stay_far_from_the_perfect_correlation_table():
    target = np.asarray(PERFECT.joints_flat())
    rng = np.random.default_rng(20000)
    worst = np.inf
    for _ in range(20000):
        joints, _ = reconstruct(rng.dirichlet(np.ones(16)))
        worst = min(worst, np.max(np.abs(joints - target)))
    assert worst >= 0.5 - 1e-9


# ------------------------------------------------------------------- classify


def test_classify_zero_table_as_classical():
    assert classify(table([[0, 0], [0, 0]])) == CLASSICAL


def test_classify_quantum_pattern():
    s = 1.0 / math.sqrt(2.0)
    assert classify(table([[s, -s], [s, s]])) == QUANTUM_ACHIEVABLE


def test_classify_perfect_correlation_as_supra_quantum():
    assert classify(PERFECT) == SUPRA_QUANTUM


def test_classify_intermediate_patterns():
    assert classify(table([[0.7, -0.7], [0.7, 0.7]])) == QUANTUM_ACHIEVABLE
    assert classify(table([[0.8, -0.8], [0.8, 0.8]])) == SUPRA_QUANTUM


def test_classify_keeps_the_band_edge_in_the_quantum_band():
    # Every form value is a sum of four terms of magnitude a; at this a the
    # largest is the band edge itself, and one ulp more leaves the band.
    edge = TSIRELSON_BOUND + DEFAULT_TOL
    a = edge / 4
    at_edge = table([[a, a], [a, -a]])
    assert bell_value_all_forms(at_edge) == edge
    assert classify(at_edge) == QUANTUM_ACHIEVABLE
    b = math.nextafter(a, 1.0)
    assert classify(table([[b, b], [b, -b]])) == SUPRA_QUANTUM


def test_classify_uses_the_exact_slack_at_the_facet():
    # The plain float sum of E00 + E01 + E10 - E11 rounds 2 + 2**-54 to 2.0;
    # the exact slack is negative, so the table is not classical.
    t = table([[1.0, 0.75], [0.25 + 2.0**-54, 0.0]])
    assert bell_value_all_forms(t) == 2.0
    assert classify(t) == QUANTUM_ACHIEVABLE
    assert not is_kolmogorovian(t)
    assert not realizable(t).feasible


@pytest.mark.parametrize("side", (1, -1))
@pytest.mark.parametrize("delta", (1e-14, 1e-13, *DELTAS))
def test_classify_agrees_with_realizable_at_the_chsh_facet(delta, side):
    signs = (1, 1, 1, -1)
    push = np.r_[np.array(signs) * side * delta / 4.0, np.zeros(4)]
    rng = np.random.default_rng([3, round(-math.log10(delta)), side + 1])
    for _ in range(10):
        t = facet_table(
            rng, lambda s: np.dot(signs, s.joint_products()) == 2, push, False
        )
        feasible = realizable(t).feasible
        assert feasible == (side < 0)
        assert (classify(t) == CLASSICAL) == feasible
        assert is_kolmogorovian(t) == feasible


@pytest.fixture
def kolmo(capsys, tmp_path):
    """The results of a kolmo report on a joints-only table."""

    def report(t):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"joint": [list(row) for row in t.joint]}))
        assert main(["kolmo", "--scenario", str(path)]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    return report


def assert_one_answer(t, kolmo=None):
    """classify, realizable, is_kolmogorovian, bell_value_all_forms and the
    kolmo report give one answer on a joints-only table."""
    value = bell_value_all_forms(t)
    result = realizable(t)
    band = classify(t)
    assert (band == CLASSICAL) == result.feasible == is_kolmogorovian(t)
    if result.feasible:
        assert value <= 2.0
    else:
        above = value > TSIRELSON_BOUND + DEFAULT_TOL
        assert band == (SUPRA_QUANTUM if above else QUANTUM_ACHIEVABLE)
        assert result.witness.value == value
    if kolmo is not None:
        report = kolmo(t)
        assert (report["classification"], report["all_forms_value"]) == (band, value)
        if report["witness"] is not None:
            assert report["witness"]["value"] == report["all_forms_value"]


@pytest.mark.parametrize("side", (1, -1))
@pytest.mark.parametrize("delta", (1e-14, 1e-13, *DELTAS))
def test_one_answer_per_table_at_the_chsh_facet(kolmo, delta, side):
    signs = (1, 1, 1, -1)
    push = np.r_[np.array(signs) * side * delta / 4.0, np.zeros(4)]
    rng = np.random.default_rng([4, round(-math.log10(delta)), side + 1])
    for _ in range(5):
        t = facet_table(
            rng, lambda s: np.dot(signs, s.joint_products()) == 2, push, False
        )
        assert_one_answer(t, kolmo)


@pytest.mark.parametrize("side", (1, -1))
@pytest.mark.parametrize("e01", (0.75, -0.75))
def test_one_answer_per_table_one_ulp_from_the_facet(kolmo, e01, side):
    # One CHSH form is 2 + side * 2**-54 exactly; its plain float sum is 2.
    assert_one_answer(table([[1.0, e01], [0.25 + side * 2.0**-54, 0.0]]), kolmo)


def test_one_answer_per_random_non_classical_table(kolmo):
    rng = np.random.default_rng(61)
    seen = 0
    for _ in range(3000):
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        if realizable(t).feasible:
            continue
        seen += 1
        assert_one_answer(t, kolmo if seen <= 200 else None)
    assert seen > 900


def test_primary_violated_matches_exact_rational_arithmetic():
    # The oracle evaluates |E00 - E01| + |E10 + E11| > 2 in Fractions.
    rng = np.random.default_rng(59)
    tiny = (0.0, 2.0**-54, -(2.0**-54), 2.0**-53, -(2.0**-53))
    cases = [[[1.0, -0.75], [0.25 + d, 0.0]] for d in tiny]
    cases += [[[1.0, 0.75], [0.25 + d, 0.0]] for d in tiny]
    for _ in range(200):
        joint = rng.uniform(-1, 1, size=(2, 2))
        joint[1, 1] = 2.0 - abs(joint[0, 0] - joint[0, 1]) - joint[1, 0]
        joint[1, 1] = min(max(joint[1, 1] + rng.choice(tiny), -1.0), 1.0)
        cases.append(joint.tolist())
    cases += rng.uniform(-1, 1, size=(200, 2, 2)).tolist()
    for joint in cases:
        (e00, e01), (e10, e11) = (map(Fraction, row) for row in joint)
        exact = abs(e00 - e01) + abs(e10 + e11) > 2
        assert primary_violated(table(joint)) is exact, joint


def test_tsirelson_bound_constant():
    assert TSIRELSON_BOUND == 2.0 * math.sqrt(2.0)


def test_classification_bands_partition_random_tables():
    rng = np.random.default_rng(53)
    for _ in range(200):
        t = table(rng.uniform(-1, 1, size=(2, 2)))
        label = classify(t)
        value = bell_value_all_forms(t)
        if label == CLASSICAL:
            assert value <= 2.0 + 1e-12
        elif label == QUANTUM_ACHIEVABLE:
            assert 2.0 - 1e-12 < value <= TSIRELSON_BOUND + 1e-12
        else:
            assert value > TSIRELSON_BOUND - 1e-12


# ------------------------------------------------- bit-identical kernels
#
# The generic construction the straight-line kernels replaced, kept as the
# reference: the same float operations over sign tables, with int x float
# sign products. Every float the kernels report must keep its bits.

_ATOMS = tuple(itertools.product((1, -1), repeat=3))
_CHORD = tuple(a0 * a1 for a0, a1, _ in _ATOMS)
_TRIPLE = tuple(a0 * a1 * b for a0, a1, b in _ATOMS)
_SAME = tuple(
    tuple(i for i, (a0, a1, bi) in enumerate(_ATOMS) if a0 == a1 and bi == b)
    for b in (1, -1)
)
_CROSS = tuple(
    tuple(i for i, (a0, a1, bi) in enumerate(_ATOMS) if a0 != a1 and bi == b)
    for b in (1, -1)
)


def reference_fine_weights(joints, singles_a, singles_b):
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
    weights = []
    for m in range(0, 8, 2):
        q0, q1 = p[0][m : m + 2], p[1][m : m + 2]
        pair = (sum(q0) + sum(q1)) / 2.0
        weights.extend(u * v / pair if pair > 0.0 else 0.0 for u in q0 for v in q1)
    total = math.fsum(weights)
    return [w / total for w in weights]


def reference_positivity_sums(t):
    a, b, joints = t.singles_a, t.singles_b, t.joints_flat()
    return [
        math.fsum((1.0, sa * a[i], sb * b[j], sa * sb * joints[2 * i + j]))
        for i, j, sa, sb in itertools.product(range(2), range(2), (1, -1), (1, -1))
    ]


def reference_chsh_slacks(joint):
    (e00, e01), (e10, e11) = joint
    return tuple(
        math.fsum((2.0, -s0 * e00, -s1 * e01, -s2 * e10, -s3 * e11))
        for s0, s1, s2, s3 in CHSH_FORMS
    )


def fingerprint(t):
    """Every float the decision reports on ``t``, as ``float.hex``."""
    result = realizable(t)
    witness = result.witness
    positivity = polytope._positivity_sums(t) if t.has_singles else []
    return (
        result.feasible,
        None if result.weights is None else [w.hex() for w in result.weights],
        result.max_residual.hex(),
        witness and (witness.kind, witness.value.hex(), witness.description, witness.signs),
        bell_value_all_forms(t).hex(),
        classify(t),
        [v.hex() for v in t._chsh_slacks],
        [v.hex() for v in positivity],
    )


MOMENTS = np.array(
    [(*s.joint_products(), *s.outcome_vector()) for s in enumerate_strategies()], dtype=float
)


def bit_identity_cases(rng):
    """(joints, singles or None) of the tables the bit-identity test reads."""
    for n in range(4000):  # Dirichlet mixtures
        m = np.clip(rng.dirichlet(np.full(16, (0.1, 0.5, 1.0, 5.0)[n % 4])) @ MOMENTS, -1, 1)
        yield m[:4].tolist(), m[4:].tolist() if n % 2 else None
    for n in range(4000):  # sparse mixtures: vertices, edges and faces
        w = np.zeros(16)
        support = rng.choice(16, size=1 + n % 4, replace=False)
        w[support] = rng.dirichlet(np.ones(support.size))
        m = np.clip(w @ MOMENTS, -1, 1)
        # Some entries at a signed zero.
        m[rng.random(8) < 0.1] = rng.choice((0.0, -0.0))
        yield m[:4].tolist(), m[4:].tolist() if n % 2 else None
    strategies = enumerate_strategies()
    chsh = [k for k, s in enumerate(strategies) if np.dot((1, 1, 1, -1), s.joint_products()) == 2]
    positive = [k for k, s in enumerate(strategies) if s.outcome_vector()[::2] != (1, 1)]
    for delta in DELTAS:  # facet-adjacent tables, either side of the facet
        for side in (1, -1):
            for n in range(100):
                face = chsh if n % 2 else positive
                w = np.zeros(16)
                w[face] = rng.dirichlet(np.ones(len(face)))
                m = w @ MOMENTS
                if n % 2:
                    m[:4] += np.array((1, 1, 1, -1)) * side * delta / 4.0
                else:
                    m[[0, 4, 6]] -= side * delta * 4.0 / 3.0
                m = np.clip(m, -1, 1)
                yield m[:4].tolist(), m[4:].tolist() if n % 4 < 3 else None
    for n in range(1600):  # uniform tables, mostly infeasible
        m = rng.uniform(-1, 1, 8)
        yield m[:4].tolist(), m[4:].tolist() if n % 2 else None
    yield from subnormal_cases(rng)


#: Subnormal entries: odd multiples of the smallest one, and the largest.
TINY = tuple(k * 2.0**-1074 for k in (1, 7, 15, 33, 101, 1001, 6073)) + (2.0**-1022,)
QUARTERS = tuple(k / 4 for k in range(-4, 5))
#: (B1, E01, E11) with |E01| + |E11| = 1, on the quarter grid.
QUARTER_FACE = tuple(
    (b, e0, e1) for b in QUARTERS for e0 in QUARTERS for e1 in QUARTERS if abs(e0) + abs(e1) == 1
)
#: The entries, of (E00, E01, E10, E11, A0, A1, B0, B1), that change sign
#: when the outcomes of A0, A1, B0 or B1 are flipped.
FLIPS = ((0, 1, 4), (2, 3, 5), (0, 2, 6), (1, 3, 7))


def subnormal_cases(rng):
    """Tables whose weights can be subnormal, where a factor that cancels in
    w / total still moves a last bit.

    Every atom probability is a sum of table entries, so a subnormal entry
    survives into one only where the normal entries cancel exactly: here
    A0 + A1 = -1 and B0 + E00 = 0, with E10 subnormal. Each table then has
    the outcomes of some variables flipped and its rows or columns swapped,
    which keeps it classical or not.
    """
    # Without the halving of a pair's mass, weight 9 moves by one ulp.
    yield [0.75, 1.0, 5e-322, 0.0], [-0.75, -0.25, -0.75, -0.75]
    # Without the / 8 of each atom, weight 14 moves by one ulp.
    yield [-0.75, -1.0, 7.4e-323, 0.0], [-0.75, 0.25, 0.75, 0.75]
    # Not classical: 1 + A0 + B1 + E01 = -5e-324, which / 4 rounds to -0.0.
    yield [-1.0, -5e-324, 3e-320, -0.5], [-1.0, 3e-320, 1.0, 0.0]
    for a0, tiny, (b1, e01, e11) in itertools.product((-0.75, -0.5, -0.25), TINY, QUARTER_FACE):
        m = np.array((-a0, e01, tiny, e11, a0, -1.0 - a0, a0, b1))
        for flip in np.flatnonzero(rng.random(4) < 0.5):
            m[list(FLIPS[flip])] *= -1
        if rng.random() < 0.5:
            m = m[[2, 3, 0, 1, 5, 4, 6, 7]]
        if rng.random() < 0.5:
            m = m[[1, 0, 3, 2, 4, 5, 7, 6]]
        yield m[:4].tolist(), m[4:].tolist()


def case_table(joints, singles):
    kw = {} if singles is None else {"singles_a": singles[:2], "singles_b": singles[2:]}
    return CorrelationTable(ROWS, COLS, (joints[:2], joints[2:]), **kw)


def test_kernels_match_the_generic_construction_bit_for_bit(monkeypatch):
    cases = list(bit_identity_cases(np.random.default_rng(20261019)))
    assert len(cases) >= 10_000
    got = [fingerprint(case_table(*case)) for case in cases]
    monkeypatch.setattr(polytope, "_fine_weights", reference_fine_weights)
    monkeypatch.setattr(polytope, "_positivity_sums", reference_positivity_sums)
    monkeypatch.setattr(bell, "_chsh_slacks", reference_chsh_slacks)
    outcomes = set()
    for case, mine in zip(cases, got):
        assert mine == fingerprint(case_table(*case)), case
        outcomes.add(mine[3][0] if mine[3] else "feasible")
    assert outcomes == {"feasible", "bell-form", "outcome-probability"}
    assert sum(w == "0x0.0p+0" for mine in got if mine[1] for w in mine[1]) > 10_000
    # Tables with a subnormal weight, which only the subnormal slice gives.
    subnormal = sum(
        any(w.startswith("0x0.") and w != "0x0.0p+0" for w in mine[1]) for mine in got if mine[1]
    )
    assert subnormal >= 50


# ------------------------------------------------------------ relabelings
#
# The scenario's 128 relabelings (Rosset, Bancal & Gisin 2014, J. Phys. A 47,
# 424022), as signed permutations of the moments m = (E00, E01, E10, E11, A0,
# A1, B0, B1): (perm, sign) maps m to m' with m'[k] = sign[k] * m[perm[k]].
# Each maps the classical polytope and its 24 facets onto themselves, and a
# facet's value on the image is one correctly rounded sum of the same terms,
# so every decision keeps its bits, down to the sign of a zero.

IDENTITY = tuple(range(8))


def flip(entries):
    return IDENTITY, tuple(-1 if k in entries else 1 for k in IDENTITY)


GENERATORS = (
    *map(flip, FLIPS),  # the outcome of A0, A1, B0 or B1
    ((2, 3, 0, 1, 5, 4, 6, 7), (1,) * 8),  # swap the two row settings
    ((1, 0, 3, 2, 4, 5, 7, 6), (1,) * 8),  # swap the two column settings
    ((0, 2, 1, 3, 6, 7, 4, 5), (1,) * 8),  # swap the parties
)


def compose(g, h):
    """The relabeling g, then h."""
    (p, s), (q, t) = g, h
    return tuple(p[k] for k in q), tuple(t[k] * s[q[k]] for k in IDENTITY)


def group(generators):
    found = {(IDENTITY, (1,) * 8)}
    edge = list(found)
    while edge:
        edge = [compose(g, h) for g in edge for h in generators]
        edge = [g for g in edge if g not in found]
        found.update(edge)
    return sorted(found)


RELABELINGS = group(GENERATORS)


def relabel(g, case):
    """The image of a (joints, singles or None) case under g."""
    joints, singles = case
    perm, sign = g
    m = (*joints, *(singles or (0.0,) * 4))
    image = [sign[k] * m[perm[k]] for k in IDENTITY]
    return image[:4], None if singles is None else image[4:]


#: (row, col, row outcome, col outcome) of each outcome facet, in the order
#: of ``polytope._positivity_sums``.
OUTCOMES = tuple(itertools.product(range(2), range(2), (1, -1), (1, -1)))


def outcome_facet(i, j, sa, sb):
    c = [0] * 8
    c[2 * i + j], c[4 + i], c[6 + j] = sa * sb, sa, sb
    return 1, tuple(c)


#: Each facet, as (constant, coefficients on m), to where the library keeps
#: its value: the index of its CHSH slack or of its outcome sum.
FACETS = {
    **{(2, (*(-s for s in signs), 0, 0, 0, 0)): ("chsh", k) for k, signs in enumerate(CHSH_FORMS)},
    **{outcome_facet(*outcome): ("outcome", k) for k, outcome in enumerate(OUTCOMES)},
}


def image_facet(g, facet):
    """The facet whose value on the image of a table is ``facet``'s on it."""
    constant, c = facet
    perm, sign = g
    return constant, tuple(c[perm[k]] * sign[k] for k in IDENTITY)


def facet_value(t, facet):
    """The library's own value of ``facet`` on ``t``."""
    kind, k = FACETS[facet]
    return t._chsh_slacks[k] if kind == "chsh" else polytope._positivity_sums(t)[k]


def witness_facet(witness):
    if witness.kind == "bell-form":
        return 2, (*(-s for s in witness.signs), 0, 0, 0, 0)
    sa, sb, row, col = re.match(
        r"p\(row=([+-]1), col=([+-]1) \| '(r[01])', '(c[01])'\)", witness.description
    ).groups()
    return outcome_facet(ROWS.index(row), COLS.index(col), int(sa), int(sb))


def decision(t):
    """The fields a relabeling keeps, as ``float.hex``: feasibility, band,
    smallest CHSH slack, smallest outcome sum, top form value and the
    violation of an infeasible table; then the witness."""
    result = realizable(t)
    sums = polytope._positivity_sums(t) if t.has_singles else ()
    fields = (
        result.feasible,
        classify(t),
        min(t._chsh_slacks).hex(),
        min(sums, default=math.inf).hex(),
        bell_value_all_forms(t).hex(),
        None if result.feasible else result.max_residual.hex(),
    )
    return fields, result.witness


def check_relabelings(case, relabelings):
    t = case_table(*case)
    fields, witness = decision(t)
    facet = witness and witness_facet(witness)
    if facet is not None:  # its value is the violation the result reports
        slack = facet_value(t, facet)
        reported = slack / 4 if FACETS[facet][0] == "outcome" else slack
        assert fields[5] == (-reported).hex()
    for g in relabelings:
        image = case_table(*relabel(g, case))
        assert decision(image)[0] == fields, (case, g)
        if facet is not None:
            assert facet_value(image, image_facet(g, facet)).hex() == slack.hex()


#: How far a facet-adjacent table is pushed across its facet or inside it.
OFFSETS = (2.0**-54, 2.0**-40, 1e-12, *DELTAS)
#: Entries of the dense subnormal slice.
DENSE = (0.0, 0.5, -0.5, 1.0, -1.0, *(s * k * 2.0**-1074 for k in (1, 2, 3, 5) for s in (1, -1)))


def uniform_cases(rng, n):
    for k, m in enumerate(rng.uniform(-1, 1, (n, 8)).tolist()):
        yield m[:4], m[4:] if k % 2 else None


def facet_adjacent_cases(rng, n):
    """Strategy mixtures on a random facet, pushed ``OFFSETS`` across it or
    inside. Outcome facets, and a quarter of the CHSH ones, have singles."""
    facets = list(FACETS)
    for k in range(n):
        constant, c = facets[rng.integers(len(facets))]
        c = np.array(c, dtype=float)
        on = constant + MOMENTS @ c == 0.0  # the strategies on the facet
        w = np.zeros(16)
        w[on] = rng.dirichlet(np.ones(on.sum()))
        push = (-1) ** k * OFFSETS[k % len(OFFSETS)] / np.dot(c, c)
        m = np.clip(w @ MOMENTS - push * c, -1, 1).tolist()
        yield m[:4], m[4:] if constant == 1 or k % 4 == 1 else None


def dense_subnormal_cases(rng, n):
    """Entries drawn from ``DENSE``: every sum of them is exact, and many
    outcome sums are a few multiples of 2**-1074, either side of 0."""
    for k in range(n):
        m = rng.choice(DENSE, 8).tolist()
        yield m[:4], m[4:] if k % 4 else None


SLICES = {
    "uniform": lambda rng: uniform_cases(rng, 10_000),
    "facet-adjacent": lambda rng: facet_adjacent_cases(rng, 10_000),
    "subnormal": lambda rng: itertools.chain(subnormal_cases(rng), dense_subnormal_cases(rng, 6_541)),
}


@functools.cache
def slice_cases(name):
    return list(SLICES[name](np.random.default_rng([20261020, list(SLICES).index(name)])))


def test_the_generators_give_the_128_relabelings():
    assert len(RELABELINGS) == 128
    case = [0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]
    for g in GENERATORS:
        assert compose(g, g) == (IDENTITY, (1,) * 8)
        for h in GENERATORS:
            assert relabel(compose(g, h), case) == relabel(h, relabel(g, case))
    for g in RELABELINGS:
        assert {image_facet(g, f) for f in FACETS} == set(FACETS)


@pytest.mark.parametrize("name", SLICES)
def test_every_decision_survives_each_generator(name):
    # The seven generators suffice: each field is a function of the table.
    cases = slice_cases(name)
    assert len(cases) >= 10_000
    for case in cases:
        check_relabelings(case, GENERATORS)


def test_every_decision_survives_all_128_relabelings():
    for name in SLICES:
        for case in slice_cases(name)[::100]:
            check_relabelings(case, RELABELINGS)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(DENSE) | st.floats(-1.0, 1.0), min_size=8, max_size=8),
    st.booleans(),
    st.sampled_from(RELABELINGS),
)
def test_a_relabeled_table_keeps_its_decision(m, with_singles, g):
    check_relabelings((m[:4], m[4:] if with_singles else None), [g])


# ------------------------------------------------------------ exact oracles
#
# Two routes in exact arithmetic, independent of every float the library
# computes: the 24 facets, and a simplex over the 16 strategy weights.

#: Every float in [-1, 1] is an integer multiple of 2**-1074.
ULPS = 2**1074


def in_ulps(values):
    """Each value as an exact Fraction, times ``ULPS``: an int."""
    return [f.numerator * (ULPS // f.denominator) for f in map(Fraction, values)]


def facets_classical(case):
    """Fine's 8 CHSH facets and, with singles, the 16 outcome facets, exactly,
    on a (joints, singles or None) case."""
    joints, singles = case
    e = in_ulps(joints)
    if any(sum(s * v for s, v in zip(signs, e)) > 2 * ULPS for signs in CHSH_FORMS):
        return False
    if singles is None:
        return True
    a = in_ulps(singles)
    return all(ULPS + sa * a[i] + sb * a[2 + j] + sa * sb * e[2 * i + j] >= 0 for i, j, sa, sb in OUTCOMES)


def vertices_classical(case):
    """Whether strategy weights w >= 0 with sum 1 reproduce the moments of a
    (joints, singles or None) case, by phase 1 of the simplex method in
    Fractions.

    One artificial variable per equality starts the basis; Bland's rule (the
    lowest eligible column enters, the lowest basic variable leaves on a
    tie) cannot cycle. An artificial that leaves never re-enters. The table
    is classical iff the artificials' sum reaches 0.
    """
    strategies = enumerate_strategies()
    columns = [(*s.joint_products(), *s.outcome_vector()) for s in strategies]
    joints, singles = case
    rows = [[Fraction(1)] * 17]  # sum w = 1
    for k, target in enumerate(map(Fraction, (*joints, *(singles or ())))):
        sign = -1 if target < 0 else 1
        rows.append([Fraction(sign * c[k]) for c in columns] + [sign * target])
    basis = [16 + r for r in range(len(rows))]
    # Reduced costs of the phase-1 objective, the artificials' sum; the last
    # entry is minus its value.
    cost = [-sum(column) for column in zip(*rows)]
    while True:
        entering = next((j for j in range(16) if cost[j] < 0), None)
        if entering is None:
            return cost[16] == 0
        _, _, r = min(
            (row[16] / row[entering], basis[r], r) for r, row in enumerate(rows) if row[entering] > 0
        )
        pivot = rows[r] = [v / rows[r][entering] for v in rows[r]]
        for other in (*rows[:r], *rows[r + 1 :], cost):
            f = other[entering]
            if f:
                other[:] = [v - f * p if p else v for v, p in zip(other, pivot)]
        basis[r] = entering


@functools.cache
def slice_results(name):
    return [realizable(case_table(*case)) for case in slice_cases(name)]


@pytest.mark.parametrize("name", SLICES)
def test_realizable_agrees_with_the_exact_facets(name):
    for case, result in zip(slice_cases(name), slice_results(name)):
        assert result.feasible is facets_classical(case), case


def test_realizable_agrees_with_the_exact_facets_on_the_bit_identity_tables():
    for case in bit_identity_cases(np.random.default_rng(20261019)):
        assert realizable(case_table(*case)).feasible is facets_classical(case), case


def test_the_exact_vertex_route_agrees_with_the_facet_route():
    # A sample of each slice, and every table whose only violation is an
    # outcome probability that rounds to -0.0.
    below = 0
    for name in SLICES:
        for k, (case, result) in enumerate(zip(slice_cases(name), slice_results(name))):
            witness = result.witness
            tiny = witness is not None and witness.kind == "outcome-probability" and witness.value == 0.0
            below += tiny
            if tiny or k % 100 == 0:
                assert vertices_classical(case) is facets_classical(case), case
    assert below >= 100
