"""Every labelled class checks its labels through ``_labels.distinct_labels``."""

import ast
from pathlib import Path

import contextprob

PACKAGE = Path(contextprob.__file__).parent

#: Field annotations that hold labels: a label tuple or sequence, or a
#: mapping keyed by label.
LABEL_FIELDS = ("tuple[str, ...]", "Sequence[str]", "Mapping[str, ")


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
