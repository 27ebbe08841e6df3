"""Every labelled class checks its labels through ``_labels.distinct_labels``,
and every label lookup reads the ``positions`` of the checked labels."""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import contextprob
from contextprob._labels import Labels, distinct_labels
from contextprob.bell import load_scenario
from contextprob.concepts import RatingTable, context_distribution, context_state
from contextprob.entangle import combine, full_relation
from contextprob.fixtures import fixture_path
from contextprob.hilbert import Observable, normalize, sign_projectors, tensor
from contextprob.semspace import build_matrix, parse_corpus, svd_truncate

PACKAGE = Path(contextprob.__file__).parent
SCENARIO = fixture_path("tsirelson_pattern.json")

#: Field annotations that hold labels: a label tuple, or a mapping keyed
#: by label.
LABEL_FIELDS = ("tuple[str, ...]", "Mapping[str, ")


def labelled_classes(path):
    """(class name, calls distinct_labels in __post_init__) for each class
    in the module with a label field."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [
            ast.unparse(node.annotation)
            for node in cls.body
            if isinstance(node, ast.AnnAssign)
        ]
        if not any(f.startswith(LABEL_FIELDS) for f in fields):
            continue
        post_init = [
            node
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        ]
        checks = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "distinct_labels"
            for fn in post_init
            for node in ast.walk(fn)
        )
        found.append((cls.name, checks))
    return found


def test_every_labelled_class_checks_its_labels_in_post_init():
    found = [hit for p in sorted(PACKAGE.glob("*.py")) for hit in labelled_classes(p)]
    # The walk does find the labelled classes.
    assert {name for name, _ in found} >= {
        "StateVector",
        "Observable",
        "RatingTable",
        "ContextDistribution",
        "EntangledState",
        "TermDocMatrix",
        "SemanticSpace",
    }
    assert [name for name, checks in found if not checks] == []


# ------------------------------------------------- checked labels, positions


#: Attribute names of label fields.
LABEL_ATTRS = {"basis", "basis_a", "basis_b", "exemplars", "contexts", "terms", "docs"}


def label_scans(source, name):
    """``.index`` calls on a label field, and reads of a per-class position map."""
    return [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and (
            node.attr in ("_pos", "_pos_a", "_pos_b")
            or node.attr == "index"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in LABEL_ATTRS
        )
    ]


def test_label_lookups_read_positions():
    # The scan does find such lookups.
    old = "i = self.terms.index(term)\nj = state._pos_a[x]\nk = self.basis.positions[y]"
    assert label_scans(old, "old") == ["old:1: self.terms.index", "old:2: state._pos_a"]
    sources = sorted(PACKAGE.glob("*.py"))
    assert [h for p in sources for h in label_scans(p.read_text(encoding="utf-8"), p.name)] == []


def labelled_fields():
    """(name, label field) for one instance of each labelled class."""
    table = RatingTable(("cat", "dog", "emu"), ("home", "farm"), np.ones((3, 2)))
    dist = context_distribution(table, "farm")
    state = context_state(table, "home")
    product = tensor(state, normalize(("x", "y"), [1.0, 1.0]))
    joint = combine(dist, dist, full_relation(dist.exemplars, dist.exemplars))
    matrix = build_matrix(parse_corpus("mary hits john\njohn hits mary\nfish swim"))
    space = svd_truncate(matrix, 2)
    obs = Observable(state.basis, {"cat": 1, "dog": -1, "emu": 1})
    return [
        ("RatingTable.exemplars", table.exemplars),
        ("RatingTable.contexts", table.contexts),
        ("ContextDistribution.exemplars", dist.exemplars),
        ("StateVector.basis", state.basis),
        # A product's side A basis is its left factor's, StateVector.basis above.
        ("tensor basis", product.basis_b),
        ("Observable.basis", obs.basis),
        ("Projector.basis", sign_projectors(obs)[0].basis),
        ("EntangledState.basis_a", joint.basis_a),
        ("EntangledState.basis_b", joint.basis_b),
        ("TermDocMatrix.terms", matrix.terms),
        ("TermDocMatrix.docs", matrix.docs),
        ("SemanticSpace.terms", space.terms),
        ("SemanticSpace.docs", space.docs),
        ("CorrelationTable.row_contexts", load_scenario(SCENARIO).row_contexts),
    ]


FIELDS = labelled_fields()
FIELD_IDS = [name for name, _ in FIELDS]


@pytest.mark.parametrize("name, labels", FIELDS, ids=FIELD_IDS)
def test_positions_are_the_enumeration_of_the_labels(name, labels):
    assert labels.positions == {x: i for i, x in enumerate(labels)}


@pytest.mark.parametrize("name, labels", FIELDS, ids=FIELD_IDS)
def test_a_checked_sequence_is_returned_unchanged(name, labels):
    assert distinct_labels(labels, "basis") is labels


@pytest.mark.parametrize("name, labels", FIELDS, ids=FIELD_IDS)
def test_label_fields_equal_hash_and_print_like_their_tuple(name, labels):
    plain = tuple(labels)
    assert labels == plain and plain == labels
    assert hash(labels) == hash(plain)
    if isinstance(labels, Labels):
        assert isinstance(labels, tuple) and type(labels) is not tuple
        assert repr(labels) == repr(plain) and str(labels) == str(plain)


def test_unchecked_input_is_checked_into_labels():
    labels = distinct_labels(["b", "a"], "exemplar")
    assert type(labels) is Labels and labels == ("b", "a")
    assert labels.positions == {"b": 0, "a": 1}
    plain = ("b", "a")
    assert distinct_labels(plain, "exemplar") is not plain
    with pytest.raises(ValueError, match="duplicate exemplar label: 'a'"):
        distinct_labels(("a", "b", "a"), "exemplar")


def test_positions_are_read_only():
    labels = distinct_labels(("b", "a"), "exemplar")
    state = tensor(normalize(labels, [1.0, 0.0]), normalize(("x",), [1.0]))
    for positions in (labels.positions, state.basis_a.positions, state.basis_b.positions):
        with pytest.raises(TypeError):
            positions["b"] = 5
    assert labels.positions == {"b": 0, "a": 1}


@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copy_keeps_labels_and_lookups(clone):
    table = RatingTable(("cat", "dog"), ("home", "farm"), [[1.0, 2.0], [3.0, 4.0]])
    table.exemplars.positions  # copied after its map is built
    twin = clone(table)
    assert type(twin.exemplars) is Labels and twin.exemplars == table.exemplars
    assert twin.rating("dog", "farm") == 4.0 and twin.context_index("farm") == 1
    with pytest.raises(ValueError, match="unknown exemplar 'emu'"):
        twin.exemplar_index("emu")

    state = tensor(normalize(("a", "b"), [3.0, 4.0]), normalize(("x", "y"), [1.0, 0.0]))
    twin = clone(state)
    assert type(twin.basis_a) is type(twin.basis_b) is Labels
    assert (twin.basis_a, twin.basis_b) == (state.basis_a, state.basis_b) and twin.dim == 4
    assert twin.amplitude("b", "x") == state.amplitude("b", "x") == pytest.approx(0.8)
    assert twin.basis_b.positions["y"] == 1 and ("a", "y") not in twin.amplitudes
