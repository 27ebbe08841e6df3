import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextprob.concepts import ContextDistribution, RatingTable, context_distribution
from contextprob.entangle import (
    CompatibilityRelation,
    EntangledState,
    combine,
    conditional_collapse,
    full_relation,
    guppy_gap,
    joint_expectation,
    load_relation,
    marginal,
    parse_relation,
)
from contextprob.fixtures import fixture_path
from contextprob.hilbert import Observable

INV_SQRT2 = 1.0 / math.sqrt(2.0)

PET_FOOD = CompatibilityRelation((("Roller", "Royal Canin"), ("Felix", "Eukanuba")))


def dist(context, **probs):
    return ContextDistribution(context, probs)


def pet_fish_setup():
    pa = ContextDistribution(
        "the pet is a fish", {"guppy": 0.1, "goldfish": 0.15, "cat": 0.4, "dog": 0.35}
    )
    pb = ContextDistribution(
        "the fish is a pet", {"guppy": 0.1, "goldfish": 0.2, "shark": 0.3, "trout": 0.4}
    )
    relation = CompatibilityRelation((("guppy", "guppy"), ("goldfish", "goldfish")))
    return pa, pb, relation


def uniform_pet_food():
    pa = dist("pets", Roller=0.5, Felix=0.5)
    pb = ContextDistribution("foods", {"Royal Canin": 0.5, "Eukanuba": 0.5})
    return combine(pa, pb, PET_FOOD), pa, pb


# ------------------------------------------------------------------- relation


def test_relation_rejects_empty():
    with pytest.raises(ValueError, match="at least one pair"):
        CompatibilityRelation(())


def test_relation_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate pair"):
        CompatibilityRelation((("a", "b"), ("a", "b")))


PAIR_ERROR = "a pair must be two non-empty string labels, got "


def test_relation_refuses_labels_that_are_not_strings():
    # They were turned into strings: (1, None) became ('1', 'None').
    with pytest.raises(ValueError) as err:
        CompatibilityRelation(((1, None),))
    assert str(err.value) == PAIR_ERROR + "(1, None)"
    for pair in (("a", ""), ("a", b"b"), ("a", ["b"])):
        with pytest.raises(ValueError, match="a pair must be two"):
            CompatibilityRelation((("x", "y"), pair))


def test_relation_refuses_a_string_as_a_pair():
    # "ab" was read as the pair ('a', 'b').
    with pytest.raises(ValueError) as err:
        CompatibilityRelation(("ab",))
    assert str(err.value) == PAIR_ERROR + "'ab'"
    for pair in (("a",), ("a", "b", "c"), None):
        with pytest.raises(ValueError, match="a pair must be two"):
            CompatibilityRelation((pair,))
    # A list of two labels is a pair; it is kept as a tuple.
    assert CompatibilityRelation((["a", "b"],)).pairs == (("a", "b"),)


def test_joint_state_refuses_a_string_key():
    # The key "ab" was read as the pair ('a', 'b').
    with pytest.raises(ValueError) as err:
        EntangledState(("a",), ("b",), {"ab": 1.0})
    assert str(err.value) == PAIR_ERROR + "'ab'"


def test_joint_state_refuses_a_key_that_is_no_pair():
    # The key 5 raised TypeError.
    with pytest.raises(ValueError) as err:
        EntangledState(("a",), ("b",), {5: 1.0})
    assert str(err.value) == PAIR_ERROR + "5"
    with pytest.raises(ValueError, match="a pair must be two"):
        EntangledState(("a",), ("b",), {("a", "b", "c"): 1.0})


def test_parse_relation_skips_comments_and_blanks():
    rel = parse_relation("# pairs\n\na\tb\nc\td\n")
    assert rel.pairs == (("a", "b"), ("c", "d"))


def test_parse_relation_rejects_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_relation("a\tb\nmalformed line\n")


def test_load_shipped_pet_food_pairs():
    rel = load_relation(fixture_path("pet_food_pairs.tsv"))
    assert set(rel.pairs) == set(PET_FOOD.pairs)


# -------------------------------------------------------------------- combine


def test_combine_point_masses_gives_certain_pair():
    state = combine(
        dist("a", Roller=1.0, Felix=0.0),
        ContextDistribution("b", {"Royal Canin": 1.0, "Eukanuba": 0.0}),
        PET_FOOD,
    )
    assert state.amplitude("Roller", "Royal Canin") == 1.0
    assert state.support == {("Roller", "Royal Canin")}


def test_combine_uniform_pet_food_is_maximally_correlated():
    state, _, _ = uniform_pet_food()
    assert abs(state.amplitude("Roller", "Royal Canin")) == pytest.approx(INV_SQRT2)
    assert abs(state.amplitude("Felix", "Eukanuba")) == pytest.approx(INV_SQRT2)
    assert state.support == set(PET_FOOD.pairs)


def test_combine_pet_fish_demo_weights():
    pa, pb, relation = pet_fish_setup()
    state = combine(pa, pb, relation)
    assert state.probability("guppy", "guppy") == pytest.approx(0.25, abs=1e-12)
    assert state.probability("goldfish", "goldfish") == pytest.approx(0.75, abs=1e-12)


def test_combine_rejects_empty_effective_support():
    pa = dist("a", x=0.0, y=1.0)
    pb = dist("b", x=1.0)
    with pytest.raises(ValueError, match="cannot be combined"):
        combine(pa, pb, CompatibilityRelation((("x", "x"),)))


def test_combine_rejects_labels_outside_the_distributions():
    pa = dist("a", x=1.0)
    pb = dist("b", x=1.0)
    with pytest.raises(ValueError, match="unknown exemplar 'z'"):
        combine(pa, pb, CompatibilityRelation((("z", "x"),)))


def test_constructor_rejects_a_nan_amplitude():
    with pytest.raises(ValueError, match="not normalized"):
        EntangledState(("a",), ("b",), {("a", "b"): math.nan})


# ----------------------------------------------------------- joint_expectation


def test_joint_expectation_all_plus_is_one():
    state, _, _ = uniform_pet_food()
    obs_a = Observable(state.basis_a, {"Roller": 1, "Felix": 1})
    obs_b = Observable(state.basis_b, {"Royal Canin": 1, "Eukanuba": 1})
    assert joint_expectation(state, obs_a, obs_b) == pytest.approx(1.0, abs=1e-12)


def test_joint_expectation_anticorrelated_signs_compose_to_plus_one():
    state, _, _ = uniform_pet_food()
    obs_a = Observable(state.basis_a, {"Roller": 1, "Felix": -1})
    obs_b = Observable(state.basis_b, {"Royal Canin": 1, "Eukanuba": -1})
    assert joint_expectation(state, obs_a, obs_b) == pytest.approx(1.0, abs=1e-12)


def test_joint_expectation_sign_flip_negates():
    state, _, _ = uniform_pet_food()
    obs_a = Observable(state.basis_a, {"Roller": 1, "Felix": -1})
    obs_b = Observable(state.basis_b, {"Royal Canin": -1, "Eukanuba": 1})
    assert joint_expectation(state, obs_a, obs_b) == pytest.approx(-1.0, abs=1e-12)


def test_joint_expectation_checks_side_bases():
    state, _, _ = uniform_pet_food()
    wrong = Observable(("x", "y"), {"x": 1, "y": 1})
    with pytest.raises(ValueError, match="side A"):
        joint_expectation(state, wrong, wrong)
    obs_a = Observable(state.basis_a, {"Roller": 1, "Felix": 1})
    with pytest.raises(ValueError, match="side B"):
        joint_expectation(state, obs_a, wrong)


# ------------------------------------------------------------------- marginal


def test_marginal_of_point_mass():
    state = EntangledState(("x",), ("y",), {("x", "y"): 1.0})
    assert marginal(state, "A").probability("x") == 1.0
    assert marginal(state, "B").probability("y") == 1.0


def test_marginal_pet_fish_guppy_boosted_on_both_sides():
    pa, pb, relation = pet_fish_setup()
    state = combine(pa, pb, relation)
    assert marginal(state, "A").probability("guppy") == pytest.approx(0.25, abs=1e-12)
    assert marginal(state, "B").probability("guppy") == pytest.approx(0.25, abs=1e-12)


def test_marginal_uniform_two_pair_state():
    state, _, _ = uniform_pet_food()
    m = marginal(state, "A")
    assert m.probability("Roller") == pytest.approx(0.5, abs=1e-12)
    assert m.probability("Felix") == pytest.approx(0.5, abs=1e-12)


def test_marginal_rejects_unknown_side():
    state, _, _ = uniform_pet_food()
    with pytest.raises(ValueError, match="side must be"):
        marginal(state, "C")


# --------------------------------------------------------- conditional_collapse


def test_collapse_side_a_drags_side_b_along():
    state, _, _ = uniform_pet_food()
    collapsed = conditional_collapse(state, "A", "Roller")
    assert collapsed.support == {("Roller", "Royal Canin")}
    assert marginal(collapsed, "B").probability("Royal Canin") == pytest.approx(1.0)


def test_collapse_side_b_drags_side_a_along():
    state, _, _ = uniform_pet_food()
    collapsed = conditional_collapse(state, "B", "Eukanuba")
    assert collapsed.support == {("Felix", "Eukanuba")}


def test_collapse_on_certain_exemplar_is_identity():
    state, _, _ = uniform_pet_food()
    once = conditional_collapse(state, "A", "Felix")
    twice = conditional_collapse(once, "A", "Felix")
    assert once.support == twice.support
    for pair in once.support:
        assert twice.amplitudes[pair] == pytest.approx(once.amplitudes[pair])


def test_collapse_zero_probability_exemplar_errors():
    pa = dist("a", x=1.0, y=0.0)
    pb = dist("b", x=1.0, y=0.0)
    state = combine(pa, pb, CompatibilityRelation((("x", "x"), ("y", "y"))))
    with pytest.raises(ValueError, match="marginal probability is zero"):
        conditional_collapse(state, "A", "y")


def test_collapse_unknown_exemplar_errors():
    state, _, _ = uniform_pet_food()
    with pytest.raises(ValueError, match="unknown exemplar"):
        conditional_collapse(state, "A", "Rex")


# ------------------------------------------------------------------ guppy_gap


def test_guppy_gap_on_the_demo_configuration():
    pa, pb, relation = pet_fish_setup()
    state = combine(pa, pb, relation)
    assert guppy_gap(state, pa, pb, "guppy") == pytest.approx(0.15, abs=1e-12)


def test_guppy_gap_exemplar_outside_relation_support_is_nonpositive():
    pa, pb, _ = pet_fish_setup()
    state = combine(pa, pb, CompatibilityRelation((("goldfish", "goldfish"),)))
    gap = guppy_gap(state, pa, pb, "guppy")
    assert gap == pytest.approx(-0.1, abs=1e-12)
    assert gap <= 0.0


def test_guppy_gap_single_pair_relation_goes_to_certainty():
    pa, pb, _ = pet_fish_setup()
    state = combine(pa, pb, CompatibilityRelation((("guppy", "guppy"),)))
    assert guppy_gap(state, pa, pb, "guppy") == pytest.approx(0.9, abs=1e-12)


def test_guppy_gap_requires_exemplar_in_both_bases():
    pa, pb, relation = pet_fish_setup()
    state = combine(pa, pb, relation)
    with pytest.raises(ValueError, match="both bases"):
        guppy_gap(state, pa, pb, "cat")


# ----------------------------------------------------------------- properties


def test_product_relation_factorizes_joint_expectations():
    rng = np.random.default_rng(3)
    labels_a = ("a1", "a2", "a3")
    labels_b = ("b1", "b2")
    relation = full_relation(labels_a, labels_b)
    for _ in range(200):
        pa = ContextDistribution("ca", dict(zip(labels_a, rng.dirichlet([1] * 3))))
        pb = ContextDistribution("cb", dict(zip(labels_b, rng.dirichlet([1] * 2))))
        state = combine(pa, pb, relation)
        sa = {x: int(s) for x, s in zip(labels_a, rng.choice([1, -1], 3))}
        sb = {y: int(s) for y, s in zip(labels_b, rng.choice([1, -1], 2))}
        joint = joint_expectation(
            state, Observable(labels_a, sa), Observable(labels_b, sb)
        )
        mean_a = sum(sa[x] * pa.probability(x) for x in labels_a)
        mean_b = sum(sb[y] * pb.probability(y) for y in labels_b)
        assert joint == pytest.approx(mean_a * mean_b, abs=1e-12)


def test_joint_expectation_is_bounded():
    rng = np.random.default_rng(5)
    basis_a = ("a1", "a2")
    basis_b = ("b1", "b2")
    pairs = list(itertools.product(basis_a, basis_b))
    for _ in range(300):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = EntangledState(basis_a, basis_b, dict(zip(pairs, amps)))
        sa = {x: int(s) for x, s in zip(basis_a, rng.choice([1, -1], 2))}
        sb = {y: int(s) for y, s in zip(basis_b, rng.choice([1, -1], 2))}
        value = joint_expectation(
            state, Observable(basis_a, sa), Observable(basis_b, sb)
        )
        assert -1.0 <= value <= 1.0


def test_collapsed_marginal_is_a_point_mass():
    rng = np.random.default_rng(9)
    pa = ContextDistribution("ca", {"x": 0.3, "y": 0.7})
    pb = ContextDistribution("cb", {"u": 0.6, "v": 0.4})
    state = combine(pa, pb, full_relation(("x", "y"), ("u", "v")))
    for exemplar in ("x", "y"):
        collapsed = conditional_collapse(state, "A", exemplar)
        assert marginal(collapsed, "A").probability(exemplar) == pytest.approx(
            1.0, abs=1e-12
        )
    del rng


def test_both_marginals_sum_to_one():
    rng = np.random.default_rng(13)
    basis_a = ("a1", "a2", "a3")
    basis_b = ("b1", "b2")
    pairs = list(itertools.product(basis_a, basis_b))
    for _ in range(100):
        amps = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
        amps /= np.linalg.norm(amps)
        state = EntangledState(basis_a, basis_b, dict(zip(pairs, amps)))
        for side in ("A", "B"):
            total = sum(marginal(state, side).probabilities.values())
            assert abs(total - 1.0) <= 1e-12


def test_sampled_states_never_beat_the_tensor_model_ceiling():
    # 10k random two-by-two entangled states, four random sign observables
    # each; the best of the eight sign placements must respect 2*sqrt(2).
    rng = np.random.default_rng(20260818)
    basis_a = ("a1", "a2")
    basis_b = ("b1", "b2")
    pairs = list(itertools.product(basis_a, basis_b))
    forms = [
        signs
        for signs in itertools.product((1, -1), repeat=4)
        if signs.count(-1) % 2 == 1
    ]
    ceiling = 2.0 * math.sqrt(2.0) + 1e-9
    worst = 0.0
    for _ in range(10_000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = EntangledState(basis_a, basis_b, dict(zip(pairs, amps)))
        obs_a = [
            Observable(basis_a, {x: int(s) for x, s in zip(basis_a, rng.choice([1, -1], 2))})
            for _ in range(2)
        ]
        obs_b = [
            Observable(basis_b, {y: int(s) for y, s in zip(basis_b, rng.choice([1, -1], 2))})
            for _ in range(2)
        ]
        joints = [
            joint_expectation(state, a, b) for a in obs_a for b in obs_b
        ]
        best = max(abs(sum(s * e for s, e in zip(signs, joints))) for signs in forms)
        worst = max(worst, best)
        assert best <= ceiling
    assert worst <= ceiling


# ------------------------------------------- reference: the dict-based kernels
#
# The pair-by-pair definitions the array kernels replace, kept as an
# independent check of the support-array representation.


def ref_combine(pa, pb, relation):
    weights = {}
    for x, y in relation.pairs:
        w = pa.probability(x) * pb.probability(y)
        if w > 0:
            weights[(x, y)] = w
    total = sum(weights.values())
    return {pair: math.sqrt(w / total) for pair, w in weights.items()}


def ref_marginal(amps, basis, pick):
    probs = dict.fromkeys(basis, 0.0)
    for pair, a in amps.items():
        probs[pair[pick]] += abs(a) ** 2
    return probs


def ref_joint_expectation(amps, signs_a, signs_b):
    return sum(signs_a[x] * signs_b[y] * abs(a) ** 2 for (x, y), a in amps.items())


def ref_collapse(amps, pick, exemplar):
    kept = {pair: a for pair, a in amps.items() if pair[pick] == exemplar}
    scale = 1.0 / math.sqrt(sum(abs(a) ** 2 for a in kept.values()))
    return {pair: a * scale for pair, a in kept.items()}


def assert_same_amplitudes(state, ref):
    assert list(state.amplitudes) == list(ref)
    got = np.array([state.amplitudes[p] for p in ref])
    assert np.max(np.abs(got - np.array(list(ref.values())))) <= 1e-12


def assert_matches_reference(pa, pb, relation, signs_a, signs_b):
    ref = ref_combine(pa, pb, relation)
    if not ref:
        with pytest.raises(ValueError, match="cannot be combined"):
            combine(pa, pb, relation)
        return
    state = combine(pa, pb, relation)
    assert_same_amplitudes(state, ref)
    for side, pick, basis in (("A", 0, pa.exemplars), ("B", 1, pb.exemplars)):
        want = ref_marginal(ref, basis, pick)
        got = marginal(state, side).probabilities
        assert list(got) == list(want)
        assert max(abs(got[x] - want[x]) for x in want) <= 1e-12
        for exemplar in {pair[pick] for pair in ref}:
            collapsed = conditional_collapse(state, side, exemplar)
            assert_same_amplitudes(collapsed, ref_collapse(ref, pick, exemplar))
    value = joint_expectation(
        state, Observable(pa.exemplars, signs_a), Observable(pb.exemplars, signs_b)
    )
    assert value == pytest.approx(ref_joint_expectation(ref, signs_a, signs_b), abs=1e-12)


@st.composite
def combinations(draw):
    """Two distributions with some zero-probability exemplars, a relation
    between them, and a sign observable on each side."""
    sides = []
    for prefix in ("a", "b"):
        n = draw(st.integers(1, 6))
        labels = tuple(f"{prefix}{i}" for i in range(n))
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        total = sum(weights)
        probs = {x: w / total for x, w in zip(labels, weights)}
        signs = dict(zip(labels, draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
        sides.append((ContextDistribution(f"context {prefix}", probs), signs))
    (pa, signs_a), (pb, signs_b) = sides
    pairs = draw(
        st.lists(
            st.sampled_from(list(itertools.product(pa.exemplars, pb.exemplars))),
            min_size=1,
            unique=True,
        )
    )
    return pa, pb, CompatibilityRelation(tuple(pairs)), signs_a, signs_b


@settings(max_examples=200, deadline=None)
@given(combinations())
def test_array_kernels_match_the_dict_reference(case):
    assert_matches_reference(*case)


def benchmark_shape(rng, n, partners):
    """A rating column per side (uniform in [0.05, 5], 10% zeros), a relation
    with ``partners`` right exemplars per left one (all of them if None)."""
    dists, signs = [], []
    for prefix in ("a", "b"):
        labels = tuple(f"{prefix}{i:04d}" for i in range(n))
        ratings = rng.uniform(0.05, 5.0, n) * (rng.random(n) >= 0.1)
        probs = ratings / ratings.sum()
        dists.append(ContextDistribution(prefix, dict(zip(labels, probs.tolist()))))
        signs.append(dict(zip(labels, rng.choice([1, -1], n).tolist())))
    left, right = dists[0].exemplars, dists[1].exemplars
    if partners is None:
        pairs = tuple(itertools.product(left, right))
    else:
        pairs = tuple(
            (x, right[j]) for x in left for j in rng.choice(n, partners, replace=False)
        )
    return dists[0], dists[1], CompatibilityRelation(pairs), signs[0], signs[1]


@pytest.mark.parametrize("n, partners", [(300, None), (3000, 3)])
def test_array_kernels_match_the_dict_reference_at_benchmark_scale(n, partners):
    pa, pb, relation, signs_a, signs_b = benchmark_shape(
        np.random.default_rng(n), n, partners
    )
    ref = ref_combine(pa, pb, relation)
    state = combine(pa, pb, relation)
    assert_same_amplitudes(state, ref)
    for side, pick, basis in (("A", 0, pa.exemplars), ("B", 1, pb.exemplars)):
        want = ref_marginal(ref, basis, pick)
        got = marginal(state, side).probabilities
        assert max(abs(got[x] - want[x]) for x in want) <= 1e-12
        exemplar = next(iter(ref))[pick]
        collapsed = conditional_collapse(state, side, exemplar)
        assert_same_amplitudes(collapsed, ref_collapse(ref, pick, exemplar))
    value = joint_expectation(
        state, Observable(pa.exemplars, signs_a), Observable(pb.exemplars, signs_b)
    )
    assert value == pytest.approx(ref_joint_expectation(ref, signs_a, signs_b), abs=1e-12)


def test_states_are_freed_without_the_cycle_collector():
    # A reference from the amplitude view back to its state would make a
    # cycle; large states would then live until the cyclic collector runs.
    gc.disable()
    try:
        combined, _, _ = uniform_pet_food()
        collapsed = conditional_collapse(combined, "A", "Roller")
        built = EntangledState(("x",), ("y",), {("x", "y"): 1.0})
        refs = [weakref.ref(s) for s in (combined, collapsed, built)]
        assert all(len(s.amplitudes) for s in (combined, collapsed, built))
        del combined, collapsed, built
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_amplitude_view_holds_the_support_in_relation_order():
    pa = dist("a", x=0.5, y=0.0, z=0.5)
    pb = dist("b", u=0.25, v=0.75)
    relation = CompatibilityRelation(
        (("z", "v"), ("y", "u"), ("x", "v"), ("z", "u"), ("x", "u"))
    )
    state = combine(pa, pb, relation)
    expected = [("z", "v"), ("x", "v"), ("z", "u"), ("x", "u")]  # y has p = 0
    assert len(state.amplitudes) == len(expected)
    assert list(state.amplitudes) == expected
    assert all(isinstance(pair, tuple) for pair in state.amplitudes)
    assert ("y", "u") not in state.amplitudes
    assert state.amplitude("y", "u") == 0j
    assert state.support == set(expected)
    built = EntangledState(("p", "q"), ("r",), {("q", "r"): 0.0, ("p", "r"): -1.0})
    assert len(built.amplitudes) == 1
    assert list(built.amplitudes.items()) == [(("p", "r"), -1.0 + 0j)]


def test_a_pair_lookup_off_the_support_is_a_key_error():
    pa = dist("a", x=0.5, y=0.0, z=0.5)
    pb = dist("b", u=0.25, v=0.75)
    state = combine(pa, pb, full_relation(pa.exemplars, pb.exemplars))
    assert state.amplitudes["z", "v"] == pytest.approx(math.sqrt(0.375))
    # An unknown label, a pair outside the support, and keys that are no pairs.
    unknown, off_support = [("w", "u"), ("x", "w")], [("y", "u"), ("u", "x")]
    no_pairs = ["xu", ("x",), ("x", "u", "v"), ["x", "u"], (["x"], "u")]
    for key in unknown + off_support + no_pairs:
        with pytest.raises(KeyError):
            state.amplitudes[key]
        assert key not in state.amplitudes
        assert state.amplitudes.get(key) is None
    assert state.amplitude("w", "u") == state.amplitude("y", "u") == 0j


# ------------------------------------------- labels looked up once per object


def support_bits(state):
    return state.basis_a, state.basis_b, state._rows.tobytes(), state._cols.tobytes(), state._amps.tobytes()


def test_a_relation_gives_the_same_bits_whichever_bases_it_saw_before():
    rng = np.random.default_rng(7)
    pa, pb, relation, _, _ = benchmark_shape(rng, 40, 3)
    pa_reordered = ContextDistribution("a", dict(reversed(list(pa.probabilities.items()))))
    pb_copy = ContextDistribution("b", dict(pb.probabilities))  # equal labels, another object
    wider = ContextDistribution("b", {**{y: p / 2 for y, p in pb.probabilities.items()}, "extra": 0.5})
    order = [(pa, pb), (pa_reordered, pb), (pa, pb_copy), (pa, wider), (pa, pb), (pa, pb)]
    for left, right in order:
        fresh = CompatibilityRelation(relation.pairs)
        assert support_bits(combine(left, right, relation)) == support_bits(
            combine(left, right, fresh)
        )


def test_the_unknown_label_error_is_the_same_on_a_first_and_a_later_call():
    pa, pb = dist("a", x=0.5, y=0.5), dist("b", u=0.5, v=0.5)
    short = dist("b", u=1.0)
    relation = CompatibilityRelation((("x", "u"), ("y", "v")))
    with pytest.raises(ValueError) as first:
        combine(pa, short, relation)
    combine(pa, pb, relation)  # the relation now keeps pb's positions
    with pytest.raises(ValueError) as later:
        combine(pa, short, relation)
    assert str(later.value) == str(first.value) == "unknown exemplar 'v'; available exemplars: 'u'"
    combine(pa, short, CompatibilityRelation((("x", "u"),)))  # a known pair still combines


@pytest.mark.parametrize("source", ["context_distribution", "marginal", "constructed"])
def test_probabilities_equal_the_dict_built_when_the_distribution_was(source):
    table = RatingTable(("a", "b", "c"), ("k",), np.array([[1.0], [3.0], [0.0]]))
    # The dict each distribution was given when it was built: its labels and
    # its clipped probabilities.
    if source == "context_distribution":
        got = context_distribution(table, "k")
        probs = table.ratings[:, 0] / table.ratings[:, 0].sum()
        eager = dict(zip(table.exemplars, np.clip(probs, 0.0, 1.0).tolist()))
    elif source == "marginal":
        relation = full_relation(table.exemplars, ("u",))
        state = combine(context_distribution(table, "k"), dist("d", u=1.0), relation)
        got = marginal(state, "A")
        probs = np.bincount(state._rows, weights=state._probs, minlength=3)
        eager = dict(zip(state.basis_a, np.clip(probs, 0.0, 1.0).tolist()))
    else:
        got = ContextDistribution("k", {"a": np.float64(0.25), "b": 0.75, "c": 1e-14})
        eager = {"a": 0.25, "b": 0.75, "c": 1e-14}
    probabilities = got.probabilities
    assert type(probabilities) is dict and got.probabilities is probabilities
    assert list(probabilities.items()) == list(eager.items())
    assert all(type(p) is float for p in probabilities.values())
    assert repr(probabilities) == repr(eager)
    assert repr(got) == f"ContextDistribution(context={got.context!r}, probabilities={eager!r})"
    assert not got._p.flags.writeable


def test_joint_expectation_matches_the_sign_lookup_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_a, n_b = rng.integers(1, 8, size=2)
        basis_a = tuple(f"a{i}" for i in range(n_a))
        basis_b = tuple(f"b{j}" for j in range(n_b))
        amps = rng.normal(size=(n_a, n_b)) + 1j * rng.normal(size=(n_a, n_b))
        amps[rng.random((n_a, n_b)) < 0.3] = 0
        if not amps.any():
            amps[0, 0] = 1
        amps /= np.linalg.norm(amps)
        pairs = itertools.product(basis_a, basis_b)
        state = EntangledState(basis_a, basis_b, dict(zip(pairs, amps.reshape(-1))))
        obs_a = Observable(basis_a, dict(zip(basis_a, rng.choice([1, -1], n_a).tolist())))
        obs_b = Observable(basis_b, dict(zip(basis_b, rng.choice([1, -1], n_b).tolist())))
        sa = np.array([obs_a.signs[x] for x in state.basis_a], dtype=float)
        sb = np.array([obs_b.signs[y] for y in state.basis_b], dtype=float)
        want = min(max(float(np.dot(sa[state._rows] * sb[state._cols], state._probs)), -1.0), 1.0)
        assert joint_expectation(state, obs_a, obs_b).hex() == want.hex()
