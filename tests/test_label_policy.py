"""Every labelled class checks its labels through ``_labels.distinct_labels``,
every label lookup reads the ``positions`` of the checked labels, and every
lookup or basis check fails with one short ``ValueError`` from ``_labels``."""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import contextprob
from contextprob import cli
from contextprob._labels import Labels, distinct_labels, label_pair, listing, shown
from contextprob._tolerance import check_tolerance
from contextprob.bell import CorrelationTable, load_scenario
from contextprob.concepts import RatingTable, context_distribution, context_state, typicality
from contextprob.entangle import (
    CompatibilityRelation,
    EntangledState,
    combine,
    conditional_collapse,
    full_relation,
    guppy_gap,
    joint_expectation,
)
from contextprob.fixtures import fixture_path
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
from contextprob.semspace import (
    SemanticSpace,
    TermDocMatrix,
    bow_vector,
    build_matrix,
    parse_corpus,
    similarity,
    svd_truncate,
)

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


# ------------------------------------------------ lookups and their errors


def test_a_listing_names_at_most_20_labels():
    labels = tuple(f"e{i}" for i in range(25))
    assert listing(labels[:20]) == ", ".join(repr(x) for x in labels[:20])
    assert listing(labels[:21]) == listing(labels[:20]) + ", and 1 more"
    assert listing(labels) == listing(labels[:20]) + ", and 5 more"
    assert listing(()) == ""
    # A repr of up to 60 characters is shown whole; a longer one keeps its ends.
    assert listing(("x" * 58,)) == repr("x" * 58)
    assert listing(("x" * 58 + "y",)) == f"'{'x' * 27}...{'x' * 27}y'"


def uniform(labels):
    return normalize(labels, np.ones(len(labels)))


def one_context(labels):
    """A one-context table over ``labels`` and its distribution."""
    table = RatingTable(labels, ("c",), np.ones((len(labels), 1)))
    return table, context_distribution(table, "c")


def diagonal(labels):
    """A joint state over the pairs (x, x) of ``labels``, and its two inputs."""
    _, dist = one_context(labels)
    return combine(dist, dist, CompatibilityRelation(tuple(zip(labels, labels)))), dist, dist


def space(labels):
    return SemanticSpace(1, labels, ("d",), np.ones((len(labels), 1)), [1.0], [[1.0]])


def other(labels, label):
    """``labels`` with the last one replaced by ``label``."""
    return labels[:-1] + (label,)


def side_a_mismatch(labels, label):
    state = diagonal(labels)[0]
    obs_a = Observable(other(labels, label), dict.fromkeys(other(labels, label), 1))
    return joint_expectation(state, obs_a, Observable(labels, dict.fromkeys(labels, 1)))


def side_b_mismatch(labels, label):
    state = diagonal(labels)[0]
    obs_b = Observable(other(labels, label), dict.fromkeys(other(labels, label), 1))
    return joint_expectation(state, Observable(labels, dict.fromkeys(labels, 1)), obs_b)


#: Every label lookup and basis check, and the collapse that finds no mass on
#: a support: the start of its error message, with ``{}`` for the label's
#: repr, and ``call(labels, label)``, which looks ``label`` up in an object
#: over ``labels``, or meets such an object with one over ``labels`` with its
#: last label replaced by ``label``.
ENTRY_POINTS = {
    "RatingTable.context_index": (
        "unknown context {}",
        lambda ls, x: RatingTable(("e",), ls, np.ones((1, len(ls)))).context_index(x),
    ),
    "RatingTable.exemplar_index": (
        "unknown exemplar {}",
        lambda ls, x: one_context(ls)[0].exemplar_index(x),
    ),
    "ContextDistribution.probability": (
        "unknown exemplar {}",
        lambda ls, x: one_context(ls)[1].probability(x),
    ),
    "typicality": ("unknown exemplar {}", lambda ls, x: typicality(one_context(ls)[0], "c", x)),
    "cli._pick_context": (
        "unknown context {}",
        lambda ls, x: cli._pick_context(
            RatingTable(("e",), ls, np.ones((1, len(ls)))), x, "--context"
        ),
    ),
    "StateVector.index": ("unknown basis label {}", lambda ls, x: uniform(ls).index(x)),
    "StateVector.amplitude": ("unknown basis label {}", lambda ls, x: uniform(ls).amplitude(x)),
    "Observable.sign": (
        "unknown basis label {}",
        lambda ls, x: Observable(ls, dict.fromkeys(ls, 1)).sign(x),
    ),
    "basis_state": ("unknown basis label {}", lambda ls, x: basis_state(ls, x)),
    "TermDocMatrix.term_index": (
        "unknown term {}",
        lambda ls, x: TermDocMatrix(ls, ("d",), np.ones((len(ls), 1))).term_index(x),
    ),
    "SemanticSpace.word_vector": ("unknown term {}", lambda ls, x: space(ls).word_vector(x)),
    "similarity": ("unknown term {}", lambda ls, x: similarity(space(ls), ls[0], x)),
    "combine": (
        "unknown exemplar {}",
        lambda ls, x: combine(*diagonal(ls)[1:], CompatibilityRelation(((ls[0], x),))),
    ),
    "conditional_collapse": (
        "unknown exemplar {}",
        lambda ls, x: conditional_collapse(diagonal(ls)[0], "B", x),
    ),
    "EntangledState side A": (
        "unknown side A label {}",
        lambda ls, x: EntangledState(ls, ("y",), {(x, "y"): 1.0}),
    ),
    "EntangledState side B": (
        "unknown side B label {}",
        lambda ls, x: EntangledState(("y",), ls, {("y", x): 1.0}),
    ),
    "guppy_gap": (
        "exemplar {} must appear in both bases; side A has [",
        lambda ls, x: guppy_gap(*diagonal(ls), x),
    ),
    "inner": (
        "basis mismatch in inner product: [",
        lambda ls, x: inner(uniform(ls), uniform(other(ls, x))),
    ),
    "born_prob": (
        "basis mismatch in born_prob: [",
        lambda ls, x: born_prob(identity_projector(ls), uniform(other(ls, x))),
    ),
    "collapse": (
        "basis mismatch in collapse: [",
        lambda ls, x: collapse(identity_projector(ls), uniform(other(ls, x))),
    ),
    "expectation": (
        "basis mismatch in expectation: [",
        lambda ls, x: expectation(Observable(ls, dict.fromkeys(ls, 1)), uniform(other(ls, x))),
    ),
    "collapse onto no mass": (
        "cannot collapse: state has no amplitude on [",
        lambda ls, x: collapse(
            Projector(other(ls, x), frozenset(ls[:-1])), basis_state(other(ls, x), x)
        ),
    ),
    "joint_expectation side A": ("side A basis mismatch, observable vs state: [", side_a_mismatch),
    "joint_expectation side B": ("side B basis mismatch, observable vs state: [", side_b_mismatch),
}

#: Where no unhashable label can arrive: a pair key of a joint state is
#: hashable, a CLI context is a string, and a basis check meets two checked
#: bases (those messages name no single label).
NO_UNHASHABLE_CASE = {"EntangledState side A", "EntangledState side B", "cli._pick_context"}
NO_UNHASHABLE_CASE |= {name for name, (start, _) in ENTRY_POINTS.items() if "{}" not in start}

SMALL = ("a", "b", "c")
BIG = tuple(f"e{i:04d}" for i in range(3000))
LONG = "q" * 100_000
#: How a message shows ``LONG``: the first 28 and last 29 characters of its repr.
LONG_SHOWN = f"'{'q' * 27}...{'q' * 28}'"


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_lookup_fails_with_one_short_value_error(name):
    prefix, call = ENTRY_POINTS[name]
    # An unknown label is named, and so are the known ones.
    with pytest.raises(ValueError) as err:
        call(SMALL, "zz")
    assert str(err.value).startswith(prefix.format("'zz'"))
    assert "'a'" in str(err.value)
    # An unhashable label is a ValueError too, not a TypeError.
    if name not in NO_UNHASHABLE_CASE:
        with pytest.raises(ValueError):
            call(SMALL, ["zz"])
    # The message stays short on a basis of 3,000 labels.
    with pytest.raises(ValueError) as err:
        call(BIG, "zz")
    assert str(err.value).startswith(prefix.format("'zz'"))
    assert "'e0000'" in str(err.value) and len(str(err.value)) < 1024
    # So does a message naming a label of 100,000 characters.
    with pytest.raises(ValueError) as err:
        call(SMALL, LONG)
    assert str(err.value).startswith(prefix.format(LONG_SHOWN))
    assert len(str(err.value)) < 1024


@pytest.mark.parametrize(
    "call",
    [
        lambda: distinct_labels((LONG, LONG), "exemplar"),
        lambda: distinct_labels(("a", [LONG]), "exemplar"),
        lambda: label_pair((LONG, "")),
    ],
    ids=["duplicate", "not a string", "pair"],
)
def test_a_refused_label_is_shown_short(call):
    with pytest.raises(ValueError) as err:
        call()
    message = str(err.value)
    assert "q...q" in message and "q" * 30 not in message and len(message) < 1024


#: An exception type that a ``KeyError`` matches.
CATCHES_KEY_ERROR = {"KeyError", "LookupError", "Exception", "BaseException"}

#: A ``KeyError`` that is part of a ``Mapping`` contract, not a lookup's error.
MAPPING_CONTRACT = {"entangle.py:_PairAmplitudes.__getitem__"}


def positions_key_error_catches(source, name):
    """The functions, as ``file:Class.function``, with a ``try`` whose body
    reads ``positions`` and whose handlers catch ``KeyError``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Try):
                caught = {
                    n.id
                    for h in child.handlers
                    for n in ast.walk(h.type or ast.Name("BaseException"))
                    if isinstance(n, ast.Name)
                }
                reads = any(
                    isinstance(n, ast.Attribute) and n.attr == "positions"
                    for stmt in child.body
                    for n in ast.walk(stmt)
                )
                if reads and caught & CATCHES_KEY_ERROR:
                    found.append(f"{name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_labels_turns_a_missed_lookup_into_an_error():
    # The scan does find the per-module copies this rule replaced.
    old = (
        "class T:\n"
        "    def term_index(self, term):\n"
        "        try:\n"
        "            return self.terms.positions[term]\n"
        "        except KeyError:\n"
        "            raise ValueError(term) from None\n"
        "def f(x):\n"
        "    try:\n"
        "        i = basis.positions[x]\n"
        "    except:\n"
        "        pass\n"
    )
    assert positions_key_error_catches(old, "old") == ["old:T.term_index", "old:f"]
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_labels.py")
    assert len(sources) >= 10
    hits = [h for p in sources for h in positions_key_error_catches(p.read_text("utf-8"), p.name)]
    assert set(hits) == MAPPING_CONTRACT
    assert positions_key_error_catches((PACKAGE / "_labels.py").read_text("utf-8"), "_labels.py")


# ------------------------------------------------ one way to show an input


#: Output sites that print a value by its repr on purpose, not in a message:
#: the TSV number columns, a mapping's own repr and Python's attribute error.
REPR_OUTPUTS = {
    "cli._tsv_rows",
    "entangle._PairAmplitudes.__repr__",
    "__init__.__getattr__",
}


def formats_by_repr(node):
    """Whether ``node`` is an ``!r`` conversion, a ``repr(...)`` call, or a
    use or import of ``reprlib``."""
    if isinstance(node, ast.FormattedValue):
        return node.conversion == ord("r")
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "repr"
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "reprlib" in {getattr(node, "module", None), *(a.name for a in node.names)}
    return isinstance(node, ast.Name) and node.id == "reprlib"


def repr_sites(source, name):
    """The scopes, as ``module.Class.function``, that format by repr."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if formats_by_repr(child):
                found.add(".".join([name, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_labels_shows_an_input_by_its_repr():
    # The scan does find each way of formatting by repr that this rule replaced.
    old = (
        "import reprlib\n"
        "def f(x):\n"
        "    raise ValueError(f'got {x!r}')\n"
        "class T:\n"
        "    def g(self, x):\n"
        "        return 'got ' + repr(x)\n"
        "    def h(self, x):\n"
        "        return reprlib.repr(x)\n"
    )
    assert repr_sites(old, "old") == {"old", "old.f", "old.T.g", "old.T.h"}
    assert repr_sites("from reprlib import repr as r\n", "old") == {"old"}
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_labels.py")
    sources.append(PACKAGE / "fixtures" / "__init__.py")
    assert len(sources) >= 11
    hits = set()
    for path in sources:
        name = "fixtures" if path.parent.name == "fixtures" else path.stem
        hits |= repr_sites(path.read_text("utf-8"), name)
    assert hits == REPR_OUTPUTS
    planted = (PACKAGE / "bell.py").read_text("utf-8").replace("{shown(value)}", "{value!r}", 1)
    assert repr_sites(planted, "bell") == {"bell._expectations"}
    assert repr_sites((PACKAGE / "_labels.py").read_text("utf-8"), "_labels") == {"_labels.shown"}


@pytest.mark.parametrize(
    "value, text",
    [(np.float64("nan"), "nan"), (np.int64(2), "2"), (np.float64(2.0), "2.0"), (np.str_("a"), "'a'")],
    ids=repr,
)
def test_a_numpy_scalar_is_shown_as_the_python_value_it_holds(value, text):
    # Not numpy 2's np.float64(nan): a message reads the same under numpy 1 and 2.
    assert shown(value) == text


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: check_tolerance(np.float64("nan")),
            "tolerance must be a non-negative number, got nan",
        ),
        (
            lambda: Observable(("a",), {"a": np.int64(2)}),
            "sign for 'a' must be +1 or -1, got 2",
        ),
        (
            lambda: CorrelationTable(("r0", "r1"), ("c0", "c1"), [[np.float64(2.0), 0], [0, 0]]),
            "expectation out of range at ('r0', 'c0'): 2.0",
        ),
    ],
    ids=["tolerance", "observable-sign", "joint-cell"],
)
def test_a_message_shows_a_numpy_scalar_as_a_python_value(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: StateVector("ab", [0.6, 0.8]), "basis"),
        (lambda: normalize("ab", [1.0, 1.0]), "basis"),
        (lambda: RatingTable("ab", ("c",), [[1.0], [1.0]]), "exemplar"),
        (lambda: RatingTable(("a",), "ab", [[1.0, 1.0]]), "context"),
        (lambda: TermDocMatrix("ab", ("d",), [[1], [1]]), "term"),
        (lambda: bow_vector(["a"], "ab"), "vocabulary"),
        (lambda: bow_vector("ab", ("a", "b")), "token"),
        (lambda: identity_projector("ab"), "basis"),
        (lambda: Projector(("a", "b", "ab"), "ab"), "support"),
        (lambda: full_relation("ab", ("x",)), "left"),
        (lambda: full_relation(("x",), "ab"), "right"),
    ],
    ids=[
        "state-vector", "normalize", "rating-exemplars", "rating-contexts", "term-doc-matrix",
        "bow-vocabulary", "bow-tokens", "identity-projector", "projector-support",
        "full-relation-left", "full-relation-right",
    ],
)
def test_a_string_is_no_collection_of_labels(call, kind):
    # The parent read "ab" as the labels 'a' and 'b' at each of these.
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"{kind} labels must be a collection of labels, got a string: 'ab'"


def test_a_refused_string_of_labels_is_shown_short():
    with pytest.raises(ValueError) as err:
        full_relation("q" * 100_000, ("x",))
    assert len(str(err.value)) < 150


def test_a_projector_support_may_still_be_empty_or_repeat_a_label():
    basis = ("a", "b")
    assert Projector(basis, ()).support == frozenset()
    assert Projector(basis, ["a", "a"]).support == {"a"}
