"""Every exported name resolves, in each module and in the package."""

import importlib

import pytest

import lacunary

MODULES = ("cli", "corpus", "engine", "jsonio", "linalg", "operators", "sequences")


@pytest.mark.parametrize("name", ("lacunary",) + tuple(f"lacunary.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from lacunary import *", namespace)
    assert set(lacunary.__all__) <= set(namespace)
