"""Every module of the package compiles with warnings raised as errors."""

import pathlib
import warnings

import pytest

import oscgauss

SOURCES = sorted(pathlib.Path(oscgauss.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
