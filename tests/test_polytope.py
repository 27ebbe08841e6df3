import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from contextprob._tolerance import DEFAULT_TOL
from contextprob.bell import CorrelationTable, bell_value_all_forms
from contextprob.cli import main
from contextprob.polytope import (
    CLASSICAL,
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


def test_tolerance_bounds_the_weight_residual():
    mixture = np.random.default_rng(11).dirichlet(np.ones(16))
    joints, _ = reconstruct(mixture)
    t = table(joints.reshape(2, 2))
    result = realizable(t)
    assert 0.0 < result.max_residual <= 1e-12
    assert realizable(t, tol=result.max_residual) == result
    with pytest.raises(ValueError, match="above the tolerance"):
        realizable(t, tol=result.max_residual / 2)
    for bad in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            realizable(t, tol=bad)


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
