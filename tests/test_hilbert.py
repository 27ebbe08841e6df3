import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contextprob.hilbert import (
    Observable,
    Projector,
    StateVector,
    basis_state,
    born_prob,
    collapse,
    expectation,
    identity_projector,
    inner,
    normalize,
    sign_projectors,
    tensor,
)
from contextprob.concepts import RatingTable, context_distribution, context_state
from contextprob.entangle import EntangledState, combine, full_relation, marginal
from conftest import CONTEXT_BONE, CONTEXT_WEIRD, PET_RATING_ROWS, pet_column

INV_SQRT2 = 1.0 / math.sqrt(2.0)

AB = ("alpha", "beta")


def superposition():
    return normalize(AB, [1.0, 1.0])


# ---------------------------------------------------------------- construction


def test_constructor_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(AB, np.array([1.0, 1.0]))


def test_constructor_rejects_a_nan_amplitude():
    # NaN compares false with everything, so the gate must accept only a
    # norm close to 1, not refuse only a norm far from it.
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(("a",), [math.nan])


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        StateVector(("x", "x"), np.array([1.0, 0.0]))


def test_constructor_rejects_length_mismatch():
    with pytest.raises(ValueError, match="3 amplitudes for 2"):
        StateVector(AB, np.array([1.0, 0.0, 0.0]))


def test_amplitudes_are_immutable():
    v = basis_state(AB, "alpha")
    with pytest.raises(ValueError):
        v.amplitudes[0] = 0.0


def test_amplitude_lookup_by_label():
    v = basis_state(AB, "beta")
    assert v.amplitude("beta") == 1.0 + 0.0j
    with pytest.raises(ValueError, match="unknown basis label"):
        v.amplitude("gamma")


# ---------------------------------------------------------------------- inner


def test_inner_of_unit_vector_with_itself_is_one():
    v = superposition()
    assert inner(v, v) == pytest.approx(1.0 + 0.0j)


def test_inner_of_distinct_basis_states_is_zero():
    assert inner(basis_state(AB, "alpha"), basis_state(AB, "beta")) == 0.0


def test_inner_superposition_with_basis_state():
    assert inner(superposition(), basis_state(AB, "alpha")) == pytest.approx(INV_SQRT2)


def test_inner_conjugates_the_first_argument():
    u = normalize(AB, [1.0, 1.0j])
    # <u|beta> picks out the conjugated second amplitude.
    assert inner(u, basis_state(AB, "beta")) == pytest.approx(-1.0j * INV_SQRT2)
    assert inner(basis_state(AB, "beta"), u) == pytest.approx(1.0j * INV_SQRT2)


def test_inner_basis_mismatch_names_both_bases():
    u = basis_state(AB, "alpha")
    v = basis_state(("gamma", "delta"), "gamma")
    with pytest.raises(ValueError) as err:
        inner(u, v)
    assert "alpha" in str(err.value) and "gamma" in str(err.value)


# ------------------------------------------------------------------ normalize


def test_normalize_scales_to_unit_norm():
    v = normalize(AB, [2.0, 0.0])
    assert np.allclose(v.amplitudes, [1.0, 0.0])


def test_normalize_uniform_pair():
    v = normalize(AB, [1.0, 1.0])
    assert np.allclose(v.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        normalize(AB, [0.0, 0.0])


@pytest.mark.parametrize(
    "amps, norm", [([math.inf, 1.0], "inf"), ([math.nan, 1.0], "nan")]
)
def test_normalize_rejects_a_vector_whose_norm_is_not_finite(amps, norm):
    with pytest.raises(ValueError, match=f"cannot normalize .* norm is {norm}$"):
        normalize(AB, amps)


@pytest.mark.parametrize("amps", [[1e200, 1e200], [1e300, 1e300], [1e308, -1e308j]])
def test_normalize_recovers_a_finite_vector_whose_norm_overflows(amps):
    state = normalize(AB, amps)
    expect = np.array(amps, dtype=complex) / abs(amps[0]) / math.sqrt(2.0)
    assert np.allclose(state.amplitudes, expect, rtol=0.0, atol=1e-15)


def test_normalize_reports_a_bad_label_before_a_non_finite_norm():
    with pytest.raises(ValueError, match="duplicate basis label"):
        normalize(("x", "x"), [math.inf, 1.0])


def test_normalize_reports_a_bad_label_before_a_count_mismatch():
    with pytest.raises(ValueError, match="duplicate basis label: 'x'"):
        normalize(("x", "x"), [1.0, 0.0, 0.0])


def test_normalize_over_a_million_exemplars():
    n = 10**6
    labels = tuple(f"e{i}" for i in range(n))
    raw = np.random.default_rng(3).random(n) + 0.5
    state = normalize(labels, raw)
    assert state.dim == n
    assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) <= 1e-12
    norm = float(np.linalg.norm(raw.astype(complex)))
    for k in (0, n // 2, n - 1):
        assert state.amplitude(f"e{k}") == pytest.approx(raw[k] / norm, rel=1e-12)


# ----------------------------------------------------------------- projectors


def test_projector_support_must_be_in_basis():
    with pytest.raises(ValueError, match="support"):
        Projector(AB, frozenset({"nope"}))


def test_projector_names_stray_labels_of_mixed_types():
    with pytest.raises(ValueError, match=r"support not in basis: \['x', 1\]"):
        Projector(AB, frozenset({1, "x"}))


def test_identity_projector_covers_basis():
    assert identity_projector(AB).support == frozenset(AB)


def test_observable_signs_must_cover_basis():
    with pytest.raises(ValueError, match="cover"):
        Observable(AB, {"alpha": 1})
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        Observable(AB, {"alpha": 1, "beta": 0})
    # True == 1, but a bool is no number (``_tolerance.as_number``'s rule).
    with pytest.raises(ValueError, match=r"^sign for 'alpha' must be \+1 or -1, got True$"):
        Observable(AB, {"alpha": True, "beta": 1})


def test_observable_keeps_its_signs_as_python_ints():
    obs = Observable(AB, {"alpha": np.float64(-1.0), "beta": 1.0})
    assert obs.signs == {"alpha": -1, "beta": 1}
    assert all(type(s) is int for s in obs.signs.values())
    assert type(obs.sign("alpha")) is int


def test_observable_keeps_its_signs_as_a_read_only_array_in_basis_order():
    obs = Observable(("a", "b", "c"), {"c": 1, "a": -1.0, "b": np.int64(1)})
    assert obs._signs.dtype == float and obs._signs.tolist() == [-1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="read-only"):
        obs._signs[0] = 1.0


def test_observable_names_stray_labels_of_mixed_types():
    with pytest.raises(ValueError, match=r"missing \[\], stray \['z', 3\]"):
        Observable(AB, {"alpha": 1, "beta": 1, 3: 1, "z": 1})


# --------------------------------------------------------------------- tensor


def dense(state):
    """A joint state's amplitudes as an (n_a, n_b) array, zeros included."""
    out = np.zeros((len(state.basis_a), len(state.basis_b)), dtype=complex)
    for (x, y), amp in state.amplitudes.items():
        out[state.basis_a.positions[x], state.basis_b.positions[y]] = amp
    return out


def test_tensor_of_basis_states_is_a_pair_basis_state():
    u = basis_state(AB, "alpha")
    v = basis_state(("one", "two"), "two")
    w = tensor(u, v)
    assert type(w) is EntangledState and w.dim == 4
    assert w.amplitude("alpha", "two") == pytest.approx(1.0)
    assert w.support == {("alpha", "two")}


def test_tensor_is_order_sensitive():
    u = basis_state(AB, "alpha")
    v = basis_state(("one", "two"), "two")
    uv, vu = tensor(u, v), tensor(v, u)
    assert (uv.basis_a, uv.basis_b) == (AB, ("one", "two"))
    assert uv.basis_a is u.basis and uv.basis_b is v.basis
    assert (vu.basis_a, vu.basis_b) == (("one", "two"), AB)
    assert uv.support == {("alpha", "two")} and vu.support == {("two", "alpha")}


def test_tensor_amplitudes_are_products():
    u = normalize(AB, [0.6, 0.8])
    v = normalize(("one", "two"), [1.0, 2.0])
    w = tensor(u, v)
    assert np.allclose(dense(w), np.outer(u.amplitudes, v.amplitudes), atol=1e-12)
    assert list(w.amplitudes) == [(a, b) for a in AB for b in ("one", "two")]


def test_tensor_scaling_is_bilinear_before_normalization():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 2.0])
    assert np.array_equal(np.outer(0.5 * a, b), 0.5 * np.outer(a, b))


def labelled_tensor(u, v):
    """The product as one state over explicitly joined pair labels: the
    definition the joint state of ``tensor`` stands in for."""
    labels = tuple(f"{a}⊗{b}" for a in u.basis for b in v.basis)
    return normalize(labels, np.outer(u.amplitudes, v.amplitudes).reshape(-1))


def random_state(prefix, n, seed):
    rng = np.random.default_rng(seed)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return normalize(labels, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_tensor_matches_the_labelled_product_bit_for_bit():
    cases = [
        (normalize(AB, [0.6, 0.8]), normalize(("one", "two"), [1.0, 2.0])),
        (random_state("a", 300, 1), random_state("b", 300, 2)),
        (random_state("x", 7, 3), random_state("yz", 15, 4)),
    ]
    for u, v in cases:
        got, want = tensor(u, v), labelled_tensor(u, v)
        assert got.dim == want.dim and len(got.amplitudes) == got.dim
        assert np.array_equal(dense(got), want.amplitudes.reshape(u.dim, v.dim))


def test_tensor_agrees_with_combine_over_the_full_relation(pet_table):
    zeros = RatingTable(("a", "b", "c"), ("s", "t"), [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    for table, (c1, c2) in ((pet_table, (CONTEXT_BONE, CONTEXT_WEIRD)), (zeros, ("s", "t"))):
        product = tensor(context_state(table, c1), context_state(table, c2))
        d1, d2 = context_distribution(table, c1), context_distribution(table, c2)
        combined = combine(d1, d2, full_relation(d1.exemplars, d2.exemplars))
        assert product.support == combined.support
        assert np.max(np.abs(dense(product) - dense(combined))) <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_each_marginal_of_a_product_is_its_factor(seed):
    u, v = random_state("a", 9, 2 * seed), random_state("b", 4, 2 * seed + 1)
    w = tensor(u, v)
    for side, factor in (("A", u), ("B", v)):
        born = [born_prob(Projector(factor.basis, frozenset({x})), factor) for x in factor.basis]
        got = list(marginal(w, side).probabilities.values())
        assert np.allclose(got, born, atol=1e-15, rtol=0)


def test_a_zero_amplitude_leaves_the_support_but_not_the_dimension():
    u = normalize(("a", "b", "c"), [1.0, 0.0, 1.0])
    v = normalize(("x", "y"), [0.0, 1.0])
    w = tensor(u, v)
    assert w.dim == 6
    assert list(w.amplitudes) == [("a", "y"), ("c", "y")]
    assert w.amplitude("b", "y") == 0j and w.amplitude("a", "x") == 0j
    assert w.amplitude("c", "y") == pytest.approx(INV_SQRT2)
    # A product can also underflow to zero where neither factor is zero.
    tiny = StateVector(("p", "q"), [1.0, 1e-200])
    w = tensor(tiny, tiny)
    assert w.dim == 4 and w.support == {("p", "p"), ("p", "q"), ("q", "p")}


def test_product_basis_lookups_at_300_by_300():
    u, v = random_state("a", 300, 6), random_state("b", 300, 7)
    w = tensor(u, v)
    assert w.dim == 90_000
    want = labelled_tensor(u, v).amplitudes
    for i, j in ((0, 0), (150, 150), (299, 299)):
        assert w.amplitude(f"a{i}", f"b{j}") == want[300 * i + j]
        assert w.amplitudes[f"a{i}", f"b{j}"] == want[300 * i + j]
    assert w.amplitude("a0", "a0") == 0j
    with pytest.raises(KeyError):
        w.amplitudes["a0", "a0"]


def tensor_peak_bytes(u, v):
    tracemalloc.start()
    try:
        tensor(u, v)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_at_300_by_300_builds_no_pair_labels():
    u, v = random_state("a", 300, 8), random_state("b", 300, 9)
    # The amplitudes are 1.4 MB; 90,000 label strings would add ~10 MB more.
    assert tensor_peak_bytes(u, v) < 6_000_000


# ------------------------------------------------------------------ born_prob


def test_born_prob_splits_uniform_superposition():
    p = born_prob(Projector(AB, frozenset({"alpha"})), superposition())
    assert p == pytest.approx(0.5)


def test_born_prob_of_identity_is_one():
    assert born_prob(identity_projector(AB), superposition()) == pytest.approx(1.0)


def test_born_prob_of_zero_projector_is_zero():
    assert born_prob(Projector(AB, frozenset()), superposition()) == 0.0


def test_born_prob_on_pet_rating_column():
    # State built from the bone-chewing column of the shipped pet ratings.
    col = pet_column(0)
    labels = tuple(PET_RATING_ROWS)
    state = normalize(labels, np.sqrt(np.array(col) / sum(col)))
    p = born_prob(Projector(labels, frozenset({"dog"})), state)
    assert p == pytest.approx(6.81 / 15.84, abs=1e-9)


# ------------------------------------------------------------------- collapse


def test_collapse_uniform_onto_first_label():
    v = collapse(Projector(AB, frozenset({"alpha"})), superposition())
    assert np.allclose(v.amplitudes, [1.0, 0.0])


def test_collapse_is_idempotent():
    proj = Projector(AB, frozenset({"beta"}))
    once = collapse(proj, normalize(AB, [0.6, 0.8]))
    twice = collapse(proj, once)
    assert np.array_equal(once.amplitudes, twice.amplitudes)


def test_collapse_renormalizes_partial_amplitude():
    v = collapse(Projector(AB, frozenset({"beta"})), normalize(AB, [0.6, 0.8]))
    assert np.allclose(v.amplitudes, [0.0, 1.0])


def test_collapse_incompatible_context_errors():
    with pytest.raises(ValueError, match="no amplitude"):
        collapse(Projector(AB, frozenset({"beta"})), basis_state(AB, "alpha"))


def test_collapse_never_widens_support():
    rng = np.random.default_rng(7)
    for _ in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        labels = ("a", "b", "c", "d")
        state = normalize(labels, amps)
        keep = frozenset({"b", "d"})
        out = collapse(Projector(labels, keep), state)
        nonzero = {x for x in labels if abs(out.amplitude(x)) > 0}
        assert nonzero <= keep


# ---------------------------------------------------------------- expectation


def test_expectation_all_plus_is_one():
    obs = Observable(AB, {"alpha": 1, "beta": 1})
    assert expectation(obs, superposition()) == pytest.approx(1.0, abs=1e-12)


def test_expectation_balanced_signs_on_uniform_state():
    obs = Observable(AB, {"alpha": 1, "beta": -1})
    assert expectation(obs, superposition()) == 0.0


def test_expectation_weighted_state():
    obs = Observable(AB, {"alpha": 1, "beta": -1})
    v = normalize(AB, [0.6, 0.8])
    assert expectation(obs, v) == pytest.approx(-0.28, abs=1e-12)


def test_expectation_equals_born_difference_exactly():
    rng = np.random.default_rng(11)
    labels = ("a", "b", "c", "d", "e")
    for _ in range(25):
        state = normalize(labels, rng.normal(size=5) + 1j * rng.normal(size=5))
        signs = {x: int(s) for x, s in zip(labels, rng.choice([1, -1], size=5))}
        obs = Observable(labels, signs)
        plus, minus = sign_projectors(obs)
        assert expectation(obs, state) == born_prob(plus, state) - born_prob(minus, state)


# ----------------------------------------------------------------- properties


@given(
    amps=st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=2,
        max_size=6,
    ).filter(lambda xs: sum(re * re + im * im for re, im in xs) > 1e-6),
    split=st.integers(min_value=1, max_value=5),
)
def test_complete_projector_family_sums_to_one(amps, split):
    labels = tuple(f"x{i}" for i in range(len(amps)))
    state = normalize(labels, [complex(re, im) for re, im in amps])
    cut = min(split, len(labels) - 1)
    first = Projector(labels, frozenset(labels[:cut]))
    second = Projector(labels, frozenset(labels[cut:]))
    total = born_prob(first, state) + born_prob(second, state)
    assert abs(total - 1.0) <= 1e-12
