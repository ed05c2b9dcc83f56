"""The evaluators work in place only on arrays they allocate: read-only
inputs go through untouched, results never share memory with them, and the
scalar path still returns a Python complex."""

import numpy as np
import pytest

from fbh.bergman import _log_kernel, inner, kernel, kernel_batch
from fbh.domain import DomainParams, Point, sample_density_arrays, sample_interior_arrays
from fbh.polylog import ROW_BLOCK, _exp, a_poly, log_derivatives, polylog_deriv

P32 = DomainParams(3, 2, 0.7)

EVALUATORS = {
    "PolyExact.eval": lambda t: (a_poly(3, 2).eval(t),),
    "PolyExact.jet": lambda t: a_poly(3, 2).jet(t, 2),
    "polylog_deriv": lambda t: (polylog_deriv(3, 2, t),),
    "log_derivatives": lambda t: log_derivatives(3, 2, t),
    "_exp": lambda t: (_exp(t, P32.mu),),
    "_log_kernel": lambda t: (_log_kernel(P32, 0.5j, t),),
}


def _read_only(a) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_evaluators_never_write_to_t(name, kind):
    rng = np.random.default_rng(0)
    t = 0.9 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    if kind == "real":
        t = t.real
    frozen = _read_only(t)
    results = EVALUATORS[name](frozen)
    assert np.array_equal(frozen, t)
    for got, expected in zip(results, EVALUATORS[name](t.copy())):
        assert not np.shares_memory(got, frozen)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("nm", [(1, 1), (64, 8)])
def test_jet_never_writes_to_a_strided_read_only_t(nm):
    # the blocked jet flattens t and slices it by rows; a strided or
    # transposed read-only t must come through untouched
    rng = np.random.default_rng(1)
    shape = (2, 2 * ROW_BLOCK + 3)
    base = _read_only(0.9 * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape)))
    A = a_poly(*nm)
    for t in (base[0, ::2], base[:, 1::3].T, base[::-1, ::5]):
        kept = t.copy()
        results = A.jet(t, 2)
        assert np.array_equal(t, kept)
        for got, expected in zip(results, A.jet(kept, 2)):
            assert not np.shares_memory(got, base)
            assert np.array_equal(got, expected)


def test_polylog_deriv_scalar_path_returns_complex():
    value = polylog_deriv(3, 2, 0.5)
    assert type(value) is complex
    assert value == polylog_deriv(3, 2, np.array([0.5]))[0]


def test_kernel_batch_never_writes_to_rows_or_t():
    Z, Zeta = sample_interior_arrays(P32, 3, 50)
    p = Point(Z[0], Zeta[0])
    Z_frozen, Zeta_frozen = _read_only(Z), _read_only(Zeta)
    values, t = kernel_batch(P32, p, Z_frozen, Zeta_frozen)
    assert np.array_equal(Z_frozen, Z) and np.array_equal(Zeta_frozen, Zeta)
    # t is the kernel argument itself, not a buffer the evaluation reused
    assert np.array_equal(t, _exp(inner(p.z, Z), P32.mu) * inner(p.zeta, Zeta))
    assert np.array_equal(values, kernel(P32, p, Point(Z, Zeta)).value)


def test_sample_density_never_writes_to_z():
    Z, _ = sample_interior_arrays(P32, 4, 20)
    frozen = _read_only(Z)
    density = sample_density_arrays(P32, frozen)
    assert np.array_equal(frozen, Z)
    assert np.array_equal(density, sample_density_arrays(P32, Z.copy()))
