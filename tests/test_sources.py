"""Every module of the package compiles with warnings raised as errors,
every name it exports in __all__ exists, and every library name the
benchmark tracer rebinds exists."""

import importlib
import importlib.util
import pathlib
import warnings

import pytest

import oscgauss

SOURCES = sorted(pathlib.Path(oscgauss.__file__).parent.glob("*.py"))
MODULES = ["oscgauss"] + [f"oscgauss.{p.stem}" for p in SOURCES if p.stem != "__init__"]
TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_traced_imported_bindings_resolve():
    # The tracer rebinds these names in the importing module; a rename or
    # deletion in the library would otherwise break only the traced benchmark.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{short}.{name}" for short, names in tracing.IMPORTED_BINDINGS.items()
               for name in names
               if not hasattr(importlib.import_module(f"oscgauss.{short}"), name)]
    assert missing == []
