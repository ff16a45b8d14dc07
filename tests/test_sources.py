"""Every module of the package compiles with warnings raised as errors,
and every name it exports in __all__ exists."""

import importlib
import pathlib
import warnings

import pytest

import oscgauss

SOURCES = sorted(pathlib.Path(oscgauss.__file__).parent.glob("*.py"))
MODULES = ["oscgauss"] + [f"oscgauss.{p.stem}" for p in SOURCES if p.stem != "__init__"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
