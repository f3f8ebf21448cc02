"""Every su_einstein name that the benchmark wraps or calls still exists.

``perfbench/layers.py`` replaces the functions and methods it lists by name
for a traced pass, and the probes, workloads and runner call su_einstein's
modules as ``module.attr(...)``, so renaming or removing one of them breaks
the benchmark.  The cache probe, which calls ``cache.*`` outside any
workload, runs here too.  The files are run or read by path, not imported, so
nothing is written under ``perfbench/``.
"""

import importlib
import re
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = runpy.run_path(str(PERFBENCH / "layers.py"))
PROBES = runpy.run_path(str(PERFBENCH / "probes.py"))


def _called_names() -> list[tuple[str, str]]:
    """(module, dotted attribute) of each ``module.attr(`` call in the probes,
    workloads and runner, where the module is one imported from su_einstein."""
    found = set()
    for name in ("probes.py", "workloads.py", "run.py"):
        text = (PERFBENCH / name).read_text()
        modules = {m for line in re.findall(r"from su_einstein import ([\w, ]+)", text)
                   for m in re.split(r",\s*", line.strip())}
        found |= set(re.findall(rf"\b({'|'.join(sorted(modules))})\.([\w.]+)\(", text))
    return sorted(found)


CALLED = _called_names()


def test_the_calls_are_found():
    assert len(CALLED) >= 16
    assert ("liealg", "build_scheme1_basis") in CALLED
    assert ("curvature", "MetricSpec.from_x") in CALLED
    assert ("curvature", "ricci_fast") in CALLED
    assert ("solver", "scheme2_system") in CALLED


@pytest.mark.parametrize("module,attr", CALLED)
def test_called_name_exists(module, attr):
    owner = importlib.import_module(f"su_einstein.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner)


@pytest.mark.parametrize("module,attr", [(module, attr)
                                         for module, attrs in LAYERS["SPANNED"].items()
                                         for attr in attrs])
def test_spanned_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"su_einstein.{module}"), attr, None))


@pytest.mark.parametrize("module,cls,attr", [*LAYERS["SPANNED_METHODS"], *LAYERS["COUNTED_METHODS"]])
def test_wrapped_method_exists(module, cls, attr):
    owner = getattr(importlib.import_module(f"su_einstein.{module}"), cls)
    assert callable(getattr(owner, attr, None))


def test_cache_probe_measures_a_save_and_a_load(tmp_path):
    # the traced run calls the probe outside any workload, so a cache change
    # that breaks it fails no workload's oracle
    metrics = PROBES["cache_probe"](tmp_path)
    assert sorted(metrics) == ["cache.file_bytes", "cache.load.s", "cache.save.s"]
    assert all(value > 0 for value, _ in metrics.values())
    assert list(tmp_path.iterdir()) == []
