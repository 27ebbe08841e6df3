"""The package namespace: every export resolves, lazily, to its submodule's object."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import contextprob

SUBMODULES = ("_tolerance", "hilbert", "concepts", "entangle", "bell", "polytope", "semspace", "fixtures")


def test_every_export_is_its_submodules_object():
    modules = [importlib.import_module(f"contextprob.{m}") for m in SUBMODULES]
    for name in contextprob.__all__:
        if name == "__version__":
            continue
        value = getattr(contextprob, name)
        owners = [m for m in modules if name in vars(m)]
        assert owners, name
        assert all(vars(m)[name] is value for m in owners), name


def test_all_names_each_export_once():
    assert contextprob.__all__[0] == "__version__"
    assert len(set(contextprob.__all__)) == len(contextprob.__all__) == 67


def test_dir_lists_every_export():
    assert set(contextprob.__all__) <= set(dir(contextprob))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from contextprob import *", namespace)
    for name in contextprob.__all__:
        assert namespace[name] is getattr(contextprob, name)


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'contextprob' has no attribute 'nonesuch'"):
        contextprob.nonesuch


def fresh(code):
    """stdout of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    code = "import sys, contextprob; print(sorted(m for m in sys.modules if m.startswith('contextprob.')))"
    assert fresh(code) == "[]\n"


def test_a_submodule_loads_on_first_use():
    code = "import contextprob; print(repr(contextprob.semspace.GRAM_RELATIVE_FLOOR))"
    from contextprob.semspace import GRAM_RELATIVE_FLOOR

    assert fresh(code) == repr(GRAM_RELATIVE_FLOOR) + "\n"


def test_every_fixture_is_a_file_beside_the_fixtures_module():
    from contextprob import fixtures

    folder = Path(fixtures.__file__).parent
    shipped = {p.name for p in folder.iterdir() if p.is_file() and p.suffix != ".py"}
    assert set(fixtures.fixture_names()) == shipped
    for name in fixtures.fixture_names():
        assert fixtures.fixture_path(name) == folder / name


def test_an_unknown_fixture_name_lists_the_shipped_ones():
    from contextprob.fixtures import fixture_names, fixture_path

    with pytest.raises(ValueError) as err:
        fixture_path("zzz.tsv")
    shipped = ", ".join(map(repr, fixture_names()))
    assert str(err.value) == f"unknown fixture 'zzz.tsv'; shipped fixtures: {shipped}"
