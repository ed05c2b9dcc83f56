"""The benchmark's tracing shims replace functions at the module attributes
their callers look up (perfbench/shims.py, TARGETS).  Every untraced
benchmark op checks those attributes, so a refactor that drops one fails
here rather than in every op of a benchmark run."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from fbh import bergman, verify
from fbh.domain import DomainParams, Point, sample_interior_arrays

SHIMS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "shims.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_shims", SHIMS_PATH)
    shims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shims)
    return sorted({pair for pairs in shims.TARGETS.values() for pair in pairs})


@pytest.mark.parametrize("module, attr", _targets())
def test_benchmark_shim_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _spy(calls, name, fn):
    def spy(*args, **kwargs):
        calls.append((name, args))
        return fn(*args, **kwargs)

    return spy


def test_kernel_entry_points_call_polylog_deriv_once_on_all_of_t(monkeypatch):
    # the traced polylog_deriv.points and horner_flops count the t it is given
    calls = []
    monkeypatch.setattr(bergman, "polylog_deriv", _spy(calls, "F", bergman.polylog_deriv))
    params = DomainParams(3, 2, 1.0)
    Z, Zeta = sample_interior_arrays(params, 0, 40)
    _, t = bergman.kernel_batch(params, Point(Z[0], Zeta[0]), Z, Zeta)
    assert len(calls) == 1 and np.array_equal(calls[0][1][2], t) and t.shape == (40,)
    calls.clear()
    kv = bergman.kernel(params, Point(Z[:30], Zeta[:30]), Point(Z[10:], Zeta[10:]))
    assert len(calls) == 1 and np.array_equal(calls[0][1][2], kv.t_arg) and kv.t_arg.shape == (30,)


def test_mc_looks_up_its_helpers_at_verify_attributes(monkeypatch):
    calls = []
    names = ("sample_interior_arrays", "kernel_batch", "sample_density_arrays")
    for name in names:
        monkeypatch.setattr(verify, name, _spy(calls, name, getattr(verify, name)))
    verify.mc_reproduce_constant(DomainParams(1, 1, 1.0), 0, samples=100_000)
    assert [name for name, _ in calls] == list(names) * math.ceil(100_000 / verify._MC_BLOCK)


def test_mc_streams_blocks_through_verify_attributes(monkeypatch):
    # full blocks of _MC_BLOCK rows and a last block of 1 row, one generator stream
    calls, results = [], []
    names = ("sample_interior_arrays", "kernel_batch", "sample_density_arrays")
    for name in names:
        def spy(*args, _name=name, _fn=getattr(verify, name)):
            calls.append((_name, args))
            results.append(_fn(*args))
            return results[-1]

        monkeypatch.setattr(verify, name, spy)
    params = DomainParams(1, 1, 1.0)
    full = 100_000 // verify._MC_BLOCK + 1
    samples = full * verify._MC_BLOCK + 1
    blocks = [verify._MC_BLOCK] * full + [1]
    report = verify.mc_reproduce_constant(params, 3, samples=samples)
    assert [name for name, _ in calls] == list(names) * len(blocks)
    assert [args[2] for _, args in calls[0::3]] == blocks
    assert [len(args[-1]) for _, args in calls[1::3] + calls[2::3]] == blocks * 2
    rng = np.random.default_rng(3)
    for Z, Zeta in results[0::3]:
        expected = sample_interior_arrays(params, rng, len(Z))
        assert np.array_equal(Z, expected[0]) and np.array_equal(Zeta, expected[1])
    weights = np.concatenate(
        [values.real / density for (values, _), density in zip(results[1::3], results[2::3])]
    )
    assert report.samples == samples and report.details["estimate"] == float(weights.mean())
    assert report.details["stderr"] == float(weights.std(ddof=1) / np.sqrt(samples))


def test_metric_law_and_cartan_call_metric_at_its_verify_attribute(monkeypatch):
    # the bergman.metric shim and the metric mutants patch fbh.verify.metric:
    # only metric-law calls it, at the images and at the pairs
    calls = []
    monkeypatch.setattr(verify, "metric", _spy(calls, "metric", verify.metric))
    reports = verify.run_suite(DomainParams(3, 2, 1.0), 0, ("metric-law", "cartan"))
    assert len(calls) == 2 and all(r.passed for r in reports)
