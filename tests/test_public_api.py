"""Every exported name resolves, so a deletion cannot leave a dangling
export behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["convspectra", "convspectra.cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from convspectra import *", namespace)
    import convspectra

    assert set(convspectra.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["HadamardTriple", "from_triples"])
def test_removed_names_are_gone(name):
    import convspectra

    assert not hasattr(convspectra, name) and name not in convspectra.__all__
