"""Every checked record sets its fields through ``_labels.freeze``: no field
can be assigned afterwards, and every array the record holds is read-only."""

import dataclasses
import json

import numpy as np
import pytest

from contextprob._labels import freeze
from contextprob.bell import CorrelationTable, PetFoodScenario, load_scenario
from contextprob.concepts import (
    ContextDistribution,
    RatingTable,
    context_distribution,
    context_state,
    load_ratings,
)
from contextprob.entangle import CompatibilityRelation, EntangledState, combine, load_relation
from contextprob.fixtures import fixture_path
from contextprob.hilbert import Observable, Projector, StateVector, identity_projector, tensor
from contextprob.polytope import DeterministicStrategy, enumerate_strategies
from contextprob.semspace import (
    SemanticSpace,
    TermDocMatrix,
    build_matrix,
    load_corpus,
    svd_truncate,
)


def records():
    """(name, record) for every record kind, each from the shipped fixtures,
    through each of its constructors."""
    pets = load_ratings(fixture_path("pet_context_ratings.tsv"))
    pet = load_ratings(fixture_path("petfish_pet_ratings.tsv"))
    fish = load_ratings(fixture_path("petfish_fish_ratings.tsv"))
    dist_a = context_distribution(pet, pet.contexts[0])
    dist_b = context_distribution(fish, fish.contexts[0])
    relation = load_relation(fixture_path("pet_fish_pairs.tsv"))
    combined = combine(dist_a, dist_b, relation)  # fills the relation's position cache
    read = ContextDistribution("c", {"a": 0.25, "b": 0.75})
    read.probabilities  # built on first read
    state = context_state(pets, pets.contexts[0])
    odd = json.loads(fixture_path("pet_food_scenario.json").read_text())["odd_event_probability"]
    joint = EntangledState(("a",), ("x", "y"), {("a", "x"): 0.6, ("a", "y"): 0.8j})
    matrix = build_matrix(load_corpus(fixture_path("toy_corpus.txt")))
    return [
        ("CorrelationTable", load_scenario(fixture_path("tsirelson_pattern.json"))),
        ("PetFoodScenario", PetFoodScenario(odd)),
        ("DeterministicStrategy", enumerate_strategies()[5]),
        ("DeterministicStrategy-init", DeterministicStrategy((1, -1), [-1, 1])),
        ("RatingTable", pets),
        ("ContextDistribution-arrays", dist_a),
        ("ContextDistribution-init", ContextDistribution("c", {"a": 0.5, "b": 0.5})),
        ("ContextDistribution-read", read),
        ("CompatibilityRelation-file", relation),
        ("CompatibilityRelation-init", CompatibilityRelation([("a", "x"), ("b", "y")])),
        ("EntangledState-combine", combined),
        ("EntangledState-tensor", tensor(state, context_state(fish, fish.contexts[0]))),
        ("EntangledState-init", joint),
        ("StateVector", state),
        ("Projector", identity_projector(pets.exemplars)),
        ("Observable", Observable(pets.exemplars, dict.fromkeys(pets.exemplars, -1))),
        ("TermDocMatrix-corpus", matrix),
        ("TermDocMatrix-init", TermDocMatrix(("t",), ("d1", "d2"), [[1, 2]])),
        ("SemanticSpace", svd_truncate(matrix, 2)),
    ]


RECORDS = records()


def arrays_in(values):
    """Every ndarray among ``values``, and among the items of a tuple there."""
    for value in values:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from arrays_in(value)


@pytest.mark.parametrize("name, record", RECORDS, ids=[name for name, _ in RECORDS])
def test_a_record_refuses_every_field_assignment(name, record):
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))


@pytest.mark.parametrize("name, record", RECORDS, ids=[name for name, _ in RECORDS])
def test_every_array_a_record_holds_is_read_only(name, record):
    for array in arrays_in(vars(record).values()):
        assert not array.flags.writeable, name


def test_every_record_kind_is_covered():
    kinds = {type(record) for _, record in RECORDS}
    assert kinds == {
        CorrelationTable, PetFoodScenario, DeterministicStrategy, RatingTable,
        ContextDistribution, CompatibilityRelation, EntangledState, StateVector,
        Projector, Observable, TermDocMatrix, SemanticSpace,
    }
    held = {name for name, record in RECORDS if list(arrays_in(vars(record).values()))}
    free = {"CorrelationTable", "PetFoodScenario", "CompatibilityRelation-init"}
    free |= {"DeterministicStrategy", "DeterministicStrategy-init"}
    # The file's relation holds its position cache, filled by combine.
    assert held == {name for name, _ in RECORDS} - free


def test_freeze_sets_the_fields_and_makes_every_array_read_only():
    class Record:
        pass

    class Sub(np.ndarray):
        pass

    record, plain, sub = Record(), np.zeros(2), np.zeros(2).view(Sub)
    freeze(record, plain=plain, sub=sub, label="a")
    assert vars(record) == {"plain": plain, "sub": sub, "label": "a"}
    assert not plain.flags.writeable and not sub.flags.writeable
