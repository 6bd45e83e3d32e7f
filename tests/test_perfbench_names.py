"""The names perfbench's tracer wraps must exist in rotrepr.

`perfbench/tracer.py` wraps kernels by name, and paper-table brackets
the `SUITE_FUNCTIONS` entry points to compute its `op2_ms`. A refactor
that renames or drops one of them breaks the benchmark without any
error, so every name is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer", sorted(tracer.LAYER_FUNCTIONS))
def test_layer_functions_resolve(layer):
    home = importlib.import_module(f"rotrepr.{layer}")
    for name in tracer.LAYER_FUNCTIONS[layer]:
        if "." in name:
            cls_name, method = name.split(".")
            # the tracer rebinds the method found in the class __dict__
            assert method in vars(getattr(home, cls_name)), name
        else:
            assert callable(getattr(home, name, None)), name


def test_suite_functions_resolve():
    bench = importlib.import_module("rotrepr.bench")
    for suite, names in tracer.SUITE_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(bench, name, None)), (suite, name)


def test_importing_modules_exist():
    for name in tracer.IMPORTING_MODULES:
        importlib.import_module(f"rotrepr.{name}")
