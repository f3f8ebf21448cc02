"""Every su_einstein name that the benchmark's tracer wraps still exists.

``perfbench/layers.py`` replaces the functions and methods it lists by name
for a traced pass, so renaming or removing one of them breaks the traced
benchmark.  The file is run by path, not imported, so nothing is written
under ``perfbench/``.
"""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"))


@pytest.mark.parametrize("module,attr", [(module, attr)
                                         for module, attrs in LAYERS["SPANNED"].items()
                                         for attr in attrs])
def test_spanned_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"su_einstein.{module}"), attr, None))


@pytest.mark.parametrize("module,cls,attr", [*LAYERS["SPANNED_METHODS"], *LAYERS["COUNTED_METHODS"]])
def test_wrapped_method_exists(module, cls, attr):
    owner = getattr(importlib.import_module(f"su_einstein.{module}"), cls)
    assert callable(getattr(owner, attr, None))
