import itertools
import math
import re
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
    TENSOR_SEP,
)
from conftest import PET_RATING_ROWS, pet_column

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


def test_identity_projector_covers_basis():
    assert identity_projector(AB).support == frozenset(AB)


def test_observable_signs_must_cover_basis():
    with pytest.raises(ValueError, match="cover"):
        Observable(AB, {"alpha": 1})
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        Observable(AB, {"alpha": 1, "beta": 0})


# --------------------------------------------------------------------- tensor


def test_tensor_of_basis_states_is_a_pair_basis_state():
    u = basis_state(AB, "alpha")
    v = basis_state(("one", "two"), "two")
    w = tensor(u, v)
    assert w.amplitude("alpha⊗two") == pytest.approx(1.0)
    assert born_prob(identity_projector(w.basis), w) == pytest.approx(1.0)


def test_tensor_is_order_sensitive():
    u = basis_state(AB, "alpha")
    v = basis_state(("one", "two"), "two")
    assert tensor(u, v).basis != tensor(v, u).basis


def test_tensor_amplitudes_are_products():
    u = normalize(AB, [0.6, 0.8])
    v = normalize(("one", "two"), [1.0, 2.0])
    w = tensor(u, v)
    expected = np.outer(u.amplitudes, v.amplitudes).reshape(-1)
    assert np.allclose(w.amplitudes, expected, atol=1e-12)


def test_tensor_scaling_is_bilinear_before_normalization():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 2.0])
    assert np.array_equal(np.outer(0.5 * a, b), 0.5 * np.outer(a, b))


def test_tensor_associativity_of_amplitudes():
    u = normalize(AB, [1.0, 2.0])
    v = normalize(("one", "two"), [3.0, 1.0])
    w = normalize(("x", "y"), [1.0, 1.0])
    left = tensor(tensor(u, v), w)
    right = tensor(u, tensor(v, w))
    assert left.basis == right.basis
    assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-12)


def labelled_tensor(u, v):
    """The product over explicitly joined pair labels: the definition the
    lazy product basis stands in for."""
    labels = tuple(a + TENSOR_SEP + b for a in u.basis for b in v.basis)
    return normalize(labels, np.outer(u.amplitudes, v.amplitudes).reshape(-1))


def random_state(prefix, n, seed):
    rng = np.random.default_rng(seed)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return normalize(labels, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_tensor_matches_the_labelled_product_bit_for_bit():
    cases = [
        (normalize(AB, [0.6, 0.8]), normalize(("one", "two"), [1.0, 2.0])),
        (random_state("a", 300, 1), random_state("b", 300, 2)),
        (random_state("x", 7, 3), tensor(random_state("y", 3, 4), random_state("z", 5, 5))),
    ]
    for u, v in cases:
        got, want = tensor(u, v), labelled_tensor(u, v)
        assert got.basis == want.basis
        assert np.array_equal(got.amplitudes, want.amplitudes)


def test_tensor_still_refuses_pair_labels_that_collide():
    u = StateVector(("a", "a⊗b"), [1.0, 0.0])
    v = StateVector(("b⊗c", "c"), [1.0, 0.0])
    with pytest.raises(ValueError, match=re.escape("duplicate basis label: 'a⊗b⊗c'")):
        tensor(u, v)
    # A separator on one side only cannot make two pair labels equal.
    uv = tensor(u, basis_state(("b", "c"), "b"))
    assert uv.dim == 4
    # Every label of a product basis holds the separator.
    with pytest.raises(ValueError, match=re.escape("duplicate basis label: 'a⊗b⊗b⊗c'")):
        tensor(uv, StateVector(("c", "b⊗c"), [1.0, 0.0]))


def test_product_basis_equals_and_hashes_like_its_tuple():
    u = normalize(AB, [0.6, 0.8])
    v = normalize(("one", "two", "three"), [1.0, 2.0, 2.0])
    basis = tensor(u, v).basis
    labels = ("alpha⊗one", "alpha⊗two", "alpha⊗three", "beta⊗one", "beta⊗two", "beta⊗three")
    assert basis == labels and labels == basis
    assert not basis != labels
    assert hash(basis) == hash(labels)
    assert {labels: "found"}[basis] == "found"
    assert basis == tensor(u, v).basis and hash(basis) == hash(tensor(u, v).basis)
    assert basis != tensor(v, u).basis
    assert basis != list(labels) and basis != labels[:-1]
    # Different factors can still join to the same labels.
    ab_c = tensor(StateVector(("a⊗b",), [1.0]), StateVector(("c",), [1.0])).basis
    a_bc = tensor(StateVector(("a",), [1.0]), StateVector(("b⊗c",), [1.0])).basis
    assert ab_c == a_bc == ("a⊗b⊗c",) and hash(ab_c) == hash(a_bc)
    assert not isinstance(basis, tuple)
    assert len(basis) == 6 and list(basis) == list(labels)
    assert basis[4] == "beta⊗two" and basis[-1] == "beta⊗three"
    assert basis[1:3] == labels[1:3]
    assert "alpha" in repr(basis) and "three" in repr(basis)


def test_product_basis_lookups_at_300_by_300():
    u, v = random_state("a", 300, 6), random_state("b", 300, 7)
    w = tensor(u, v)
    assert w.dim == 90_000
    for i, j in ((0, 0), (150, 150), (299, 299)):
        label = f"a{i}{TENSOR_SEP}b{j}"
        k = 300 * i + j
        assert w.basis[k] == label
        assert w.index(label) == k
        assert w.amplitude(label) == w.amplitudes[k]
    with pytest.raises(ValueError, match="unknown basis label 'a0⊗a0'"):
        w.index("a0⊗a0")


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
    # Nor are the labels of a product factor built.
    assert tensor_peak_bytes(tensor(u, v), basis_state(("c",), "c")) < 6_000_000


def test_a_chain_of_five_products_groups_either_way():
    factors = [random_state(f"f{k}.", 8, 20 + k) for k in range(5)]
    left = factors[0]
    for f in factors[1:]:
        left = tensor(left, f)
    right = factors[-1]
    for f in reversed(factors[:-1]):
        right = tensor(f, right)
    assert left.dim == right.dim == 8**5
    assert left.basis == right.basis
    assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-12, rtol=0)
    rng = np.random.default_rng(25)
    for k in (0, 8**5 - 1, *rng.integers(0, 8**5, size=8)):
        digits = np.unravel_index(k, (8,) * 5)
        label = TENSOR_SEP.join(f.basis[d] for f, d in zip(factors, digits))
        assert left.basis[k] == right.basis[k] == label
        assert left.index(label) == right.index(label) == k
        assert left.amplitude(label) == pytest.approx(right.amplitude(label), abs=1e-12)
    assert list(left.basis) == [
        TENSOR_SEP.join(p) for p in itertools.product(*(f.basis for f in factors))
    ]


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
