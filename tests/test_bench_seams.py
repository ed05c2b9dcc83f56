"""The benchmark's tracing shims replace functions at the module attributes
their callers look up (perfbench/shims.py, TARGETS).  Every untraced
benchmark op checks those attributes, so a refactor that drops one fails
here rather than in every op of a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SHIMS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "shims.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_shims", SHIMS_PATH)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    return sorted({pair for pairs in shims.TARGETS.values() for pair in pairs})


@pytest.mark.parametrize("module, attr", _targets())
def test_benchmark_shim_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
