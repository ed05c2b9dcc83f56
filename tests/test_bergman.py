"""Tests for kernel evaluation, derivatives, metric and the representative map."""

import math
import sys
import warnings

import numpy as np
import pytest

from fbh.autgroup import Automorphism, identity, random_automorphism
from fbh.bergman import (
    _kernel_args,
    _log_kernel,
    inner,
    inv_sqrt_pd,
    kernel,
    kernel_batch,
    l_matrix,
    log_kernel_grad_wbar,
    metric,
    representative_map,
    sqrt_pd,
)
from fbh.domain import DomainParams, Point, defect, sample_interior, sample_interior_arrays
from fbh.errors import (
    DimensionMismatch,
    DoesNotFixOrigin,
    KernelZero,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    OutsideDomain,
    PoleProximity,
)
from fbh import polylog
from fbh.polylog import PolyExact, _exp, a_poly

from oracles import (
    assert_rows_match,
    fd_grad_wbar_log_kernel,
    fd_metric,
    grad_wbar_by_metric_diagonal,
    kernel_formula,
    log_kernel_reference,
    metric_block,
    representative_map_by_gradient,
    singles,
    stack,
)

P11 = DomainParams(1, 1, 1.0)
CONFIGS = [P11, DomainParams(2, 1, 1.0), DomainParams(1, 2, 0.5), DomainParams(2, 2, 2.0)]


# --------------------------------- inner -----------------------------------

def test_inner_convention():
    assert inner([1.0], [1.0]) == 1.0
    assert inner([1j], [1.0]) == 1j          # linear in the first slot
    assert inner([1.0], [1j]) == -1j         # conjugate-linear in the second


def test_inner_hermitian_symmetry():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert inner(u, w) == pytest.approx(np.conj(inner(w, u)))
    norm_sq = inner(u, u)
    # fused multiply-adds leave a sub-epsilon imaginary residue
    assert abs(norm_sq.imag) <= 1e-14 * norm_sq.real
    assert norm_sq.real >= 0.0
    # leading axes broadcast: rows against a column of rows give all pairs
    rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    pairs = inner(rows[:, None], rows)
    assert pairs.shape == (3, 3)
    assert_rows_match(pairs, [[inner(x, y) for y in rows] for x in rows])


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner([1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        inner(np.zeros((3, 2)), np.zeros((2, 2)))


# -------------------------------- kernel -----------------------------------

def test_kernel_at_origin_value():
    kv = kernel(P11, Point.origin(P11), Point.origin(P11))
    assert kv.value == pytest.approx(1.0 / math.pi**2)
    assert kv.t_arg == 0.0


@pytest.mark.parametrize("params", CONFIGS)
def test_kernel_against_origin_is_constant(params):
    # with the second argument at 0, t = 0 and the z-exponent vanishes, so
    # the value equals mu^n A(0) / pi^(n+m) independently of the first point
    expected = (
        params.mu**params.n
        * a_poly(params.n, params.m).coeffs[0]
        / math.pi**params.dim
    )
    origin = Point.origin(params)
    for p in singles(sample_interior(params, 3, 20)):
        kv = kernel(params, p, origin)
        assert kv.value == pytest.approx(expected, rel=1e-14)
    assert kernel(params, origin, origin).value.real > 0.0


@pytest.mark.parametrize("params", CONFIGS)
def test_kernel_hermitian_symmetry(params):
    pts = singles(sample_interior(params, 5, 20))
    for p, q in zip(pts[::2], pts[1::2]):
        forward = kernel(params, p, q).value
        backward = kernel(params, q, p).value
        assert abs(forward - np.conj(backward)) <= 1e-12 * abs(forward)


@pytest.mark.parametrize("params", CONFIGS)
def test_kernel_diagonal_real_positive(params):
    for p in singles(sample_interior(params, 8, 25)):
        kv = kernel(params, p, p)
        # the sub-epsilon imaginary residue on t is amplified by the
        # logarithmic derivative of (1-t)^-(n+m+1) as t nears the pole
        amplification = (params.dim + 1) / abs(1.0 - kv.t_arg)
        assert abs(kv.value.imag) <= 1e-13 * kv.value.real * max(amplification, 1.0)
        assert kv.value.real > 0.0
        assert 0.0 <= kv.t_arg.real < 1.0
        assert abs(kv.t_arg.imag) <= 1e-14


def test_log_kernel_equals_the_reference_bit_for_bit():
    # the Gram check's two formula lines, moved into bergman, on the pairwise s, t
    # of 40 interior points; some K pass 1e308, where only the log form is finite
    past_float_range = False
    for params in (P11, DomainParams(3, 2, 0.7), DomainParams(32, 4, 1.0), DomainParams(64, 8, 1.0),
                   DomainParams(64, 64, 1.0)):
        X = sample_interior(params, 0, 40)
        z, zeta = X.z[:, None, :], X.zeta[:, None, :]
        s, t, _ = _kernel_args(params, Point(z, zeta), z.swapaxes(0, 1), zeta.swapaxes(0, 1))
        got, ref = _log_kernel(params, s, t), log_kernel_reference(params, s, t)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (40, 40)
        assert got.tobytes() == ref.tobytes()
        past_float_range |= np.max(got.real) + math.log(params.kernel_constant) > math.log(sys.float_info.max)
    assert past_float_range
    with pytest.raises(PoleProximity):
        _log_kernel(P11, np.zeros(2), np.array([0.5, 1.0 - 1e-13]))


def test_kernel_pole_guard_propagates():
    # a boundary-diagonal pair has t -> 1; force it with an exact boundary
    # point through kernel_batch, which leaves membership unchecked
    p = Point([0.0], [1.0])
    with pytest.raises(PoleProximity):
        kernel_batch(P11, p, p.z[None], p.zeta[None])


NOT_STRICTLY_INSIDE = [
    ([0.0], [1.0], OutsideDomain),  # on the boundary
    ([0.0], [5.0], OutsideDomain),
    ([5.0], [1e-3], OutsideDomain),  # exp(-25) < 1e-6
    ([np.nan], [0.0], NotFinite),
    ([0.0], [np.inf], NotFinite),
]


@pytest.mark.parametrize("z, zeta, error", NOT_STRICTLY_INSIDE)
def test_kernel_rejects_points_not_strictly_inside(z, zeta, error):
    X = stack([Point.origin(P11), Point(z, zeta)])
    for p, q in ((X, Point.origin(P11)), (Point.origin(P11), X)):
        with pytest.raises(error):
            kernel(P11, p, q)


@pytest.mark.parametrize("z, zeta, error", NOT_STRICTLY_INSIDE)
def test_metric_path_rejects_points_not_strictly_inside(z, zeta, error):
    # metric((0; 5), (0; 5)) used to return a diagonal entry of -1.16, the
    # representative map [0, 10], and z = NaN only RuntimeWarnings
    X, o = stack([Point.origin(P11), Point(z, zeta)]), Point.origin(P11)
    for fn in (metric, log_kernel_grad_wbar):
        for p, q in ((X, o), (o, X), (X, X)):
            with pytest.raises(error):
                fn(P11, p, q)
    with pytest.raises(error):
        representative_map(P11, X)


@pytest.mark.parametrize("params", [DomainParams(1, 1, 1.0), DomainParams(3, 2, 1.0)])
def test_interior_rule_is_typed_and_warning_free_where_the_norm_overflows(params):
    # ||z||^2 = 1e400 is no float.  At zeta = 0 the point lies in the domain, so
    # the error is NotFinite, never OutsideDomain; with zeta != 0 it lies outside.
    # These raised "overflow encountered in square" first.
    z = np.zeros(params.n)
    z[0] = 1e200
    on_slice, off_slice, o = Point(z, np.zeros(params.m)), Point(z, np.full(params.m, 0.1)), Point.origin(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, error in ((on_slice, NotFinite), (off_slice, OutsideDomain)):
            for fn in (kernel, metric, log_kernel_grad_wbar):
                for args in ((p, o), (o, p)):
                    with pytest.raises(error):
                        fn(params, *args)
            with pytest.raises(error):
                representative_map(params, p)
        assert defect(params, on_slice) == 0.0 and defect(params, off_slice) < 0.0


def test_interior_rule_sees_a_zeta_whose_square_underflows():
    # ||zeta||^2 = 1e-400 underflows to 0, yet it exceeds exp(-1000) = 5e-435:
    # log(0) = -inf passed every bound, and kernel returned 0.101
    o = Point.origin(P11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideDomain):
            kernel(P11, Point([math.sqrt(1000.0)], [1e-200]), o)
        assert kernel(P11, Point([0.0], [1e-200]), o).value == pytest.approx(1.0 / math.pi**2)


def test_kernel_accepts_the_zeta_zero_slice_where_the_radius_underflows():
    # exp(-mu ||z||^2) = exp(-20621) is 0 in floating point, yet zeta = 0 is inside
    p = Point([-143.6], [0.0])
    assert kernel(P11, p, Point.origin(P11)).value == pytest.approx(1.0 / math.pi**2)


def test_kernel_batch_matches_scalar():
    params = DomainParams(2, 2, 1.3)
    X = sample_interior(params, 21, 8)
    pts = singles(X)
    p = pts[0]
    values, t_args = kernel_batch(params, p, X.z, X.zeta)
    for i, q in enumerate(pts):
        kv = kernel(params, p, q)
        # batch computes K(p, q_i): scalar kernel with p first matches after
        # Hermitian symmetry of the arguments
        assert values[i] == pytest.approx(kv.value)
        assert t_args[i] == pytest.approx(kv.t_arg)


@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (32, 4), (64, 8), (8, 64), (2, 64), (64, 64)])
def test_kernel_matches_the_formula_oracle(nm):
    # exp(m mu s) and (1-t)^(n+m+1) by squaring against numpy's exp and **,
    # on interior rows with Re t >= 0, |t| <= 0.9 and a finite, nonzero value
    params = DomainParams(*nm, 1.0)
    Z, Zeta = sample_interior_arrays(params, 7, 2000)
    p = Point(Z[0], Zeta[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want, t = kernel_formula(params, p, Z, Zeta)
    keep = (t.real >= 0) & (np.abs(t) <= 0.9) & np.isfinite(want) & (np.abs(want) > 1e-300)
    assert keep.sum() >= 500
    Z, Zeta, want = Z[keep], Zeta[keep], want[keep]
    batch = kernel_batch(params, p, Z, Zeta)[0]
    stacked = kernel(params, Point(np.broadcast_to(p.z, Z.shape), np.broadcast_to(p.zeta, Zeta.shape)),
                     Point(Z, Zeta)).value
    for got in (batch, stacked):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    for z, zeta in zip(Z[:3], Zeta[:3]):  # one point: 0-d powers, and s from a dot product
        got, one = kernel(params, p, Point(z, zeta)).value, kernel_formula(params, p, z, zeta)[0]
        assert np.ndim(got) == 0 and abs(got - one) <= 1e-12 * abs(one)


def test_kernel_takes_one_exponential_per_row(monkeypatch):
    sizes, exp = [], np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    params = DomainParams(3, 2, 1.0)
    Z, Zeta = sample_interior_arrays(params, 5, 40)
    monkeypatch.setattr(np, "exp", counted)
    kernel_batch(params, Point(Z[0], Zeta[0]), Z, Zeta)
    assert sizes == [40]


def test_kernel_batch_t_keeps_its_operand_order_on_large_batches():
    # t = exp(mu s) times the zeta product, in that order, bit for bit: past
    # numpy's 256 KiB temporary-elision size an operator form may swap them
    params = DomainParams(3, 2, 1.0)
    Z, Zeta = sample_interior_arrays(params, 5, 2**15)
    p = Point(Z[0], Zeta[0])
    want = _exp(inner(p.z, Z), params.mu)
    want *= inner(p.zeta, Zeta)
    assert np.array_equal(kernel_batch(params, p, Z, Zeta)[1], want)


STACK_CONFIGS = [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)]


@pytest.mark.parametrize("params", STACK_CONFIGS)
def test_kernel_functions_broadcast_over_stacks(params):
    pts = singles(sample_interior(params, 19, 20))
    ps, qs = pts[:10], pts[10:]
    P, Q = stack(ps), stack(qs)
    kv = kernel(params, P, Q)
    one_by_one = [kernel(params, p, q) for p, q in zip(ps, qs)]
    assert_rows_match(kv.value, [k.value for k in one_by_one])
    assert_rows_match(kv.t_arg, [k.t_arg for k in one_by_one])
    assert_rows_match(kernel(params, ps[0], Q).value, [kernel(params, ps[0], q).value for q in qs])
    for fn in (log_kernel_grad_wbar, metric):
        assert_rows_match(fn(params, P, Q), [fn(params, p, q) for p, q in zip(ps, qs)])
        assert_rows_match(fn(params, P, qs[0]), [fn(params, p, qs[0]) for p in ps])
    assert_rows_match(representative_map(params, P), [representative_map(params, p) for p in ps])


@pytest.mark.parametrize("params", STACK_CONFIGS)
def test_one_call_gram_matches_kernel_batch_rows(params):
    X = sample_interior(params, 29, 10)
    pts = singles(X)
    gram = kernel(params, Point(X.z[:, None], X.zeta[:, None]), X).value
    assert_rows_match(gram, [[kernel(params, p, q).value for q in pts] for p in pts])
    # kernel_batch sums <z, z'> in one BLAS matrix-vector product, the stacked
    # call row by row; near the pole F_m amplifies that last-bit difference by
    # (n+m+1)/|1-t|, to 2e-12 relative on the (32, 4) diagonal here
    rows = [kernel_batch(params, p, X.z, X.zeta)[0] for p in pts]
    assert_rows_match(gram, rows, rtol=1e-11)


def test_metric_is_finite_where_the_exponential_factor_underflows():
    # at z = (40, 0), z' = (-40, 0) the factor exp(m mu <z, z'>) = exp(-1600)
    # underflows, so K reads 0 in the last pair of the stack; it is not a
    # zero of F_m, and the metric and gradient never form K
    params = DomainParams(2, 1, 1.0)
    pts = singles(sample_interior(params, 3, 6))
    P = stack(pts[:3] + [Point([40.0, 0.0], [0.0])])
    Q = stack(pts[3:] + [Point([-40.0, 0.0], [0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(params, P, Q).value[-1] == 0.0
        for fn in (log_kernel_grad_wbar, metric):
            assert np.all(np.isfinite(fn(params, P, Q)))
        assert metric(params, P, Q).tobytes() == metric_block(params, P, Q).tobytes()


@pytest.mark.parametrize("nm, z", [((64, 1), 26.5), ((1, 1), 19.0)])
def test_grad_is_finite_on_the_zeta_zero_slice_where_e_g_overflows(nm, z):
    # at p = q = (z e_1, 0), E = exp(z^2) is finite, but E G = e^702 2^65 at
    # (64,1) and E^2 = e^722 at (1,1) overflow; the gradient multiplies E by
    # zeta = 0 first and never forms E^2, so it reads [m z e_1, 0] and warns not
    params = DomainParams(*nm, 1.0)
    p = Point([z] + [0.0] * (params.n - 1), [0.0] * params.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = log_kernel_grad_wbar(params, p, p)
    assert np.array_equal(g, np.eye(params.dim)[0] * params.m * z)


def test_metric_raises_kernel_zero_where_f_m_vanishes(monkeypatch):
    # A = 1 + 4t vanishes at t = -1/4, exactly the t of (0; 1/2), (0; -1/2)
    monkeypatch.setattr(polylog, "a_poly", lambda n, m: PolyExact((1, 4)))
    for fn in (log_kernel_grad_wbar, metric):
        with pytest.raises(KernelZero):
            fn(P11, Point([0.0], [0.5]), Point([0.0], [-0.5]))


@pytest.mark.parametrize("fn", [metric, log_kernel_grad_wbar])
def test_metric_path_takes_one_exponential_per_row(monkeypatch, fn):
    params = DomainParams(3, 2, 1.0)
    X = sample_interior(params, 5, 40)
    sizes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    fn(params, Point(X.z[:20], X.zeta[:20]), Point(X.z[20:], X.zeta[20:]))
    assert sizes == [20]


# ------------------------------- gradient ----------------------------------

def test_grad_zero_at_origin():
    g = log_kernel_grad_wbar(P11, Point.origin(P11), Point.origin(P11))
    assert np.all(g == 0.0)


@pytest.mark.parametrize("params", CONFIGS)
def test_grad_z_components_at_origin_second_argument(params):
    p = singles(sample_interior(params, 13, 1))[0]
    g = log_kernel_grad_wbar(params, p, Point.origin(params))
    assert np.allclose(g[: params.n], params.m * params.mu * p.z, rtol=1e-14)


@pytest.mark.parametrize("params", CONFIGS)
def test_grad_matches_finite_differences(params):
    pts = singles(sample_interior(params, 17, 50))
    for p, q in zip(pts[::2], pts[1::2]):
        analytic = log_kernel_grad_wbar(params, p, q)
        numeric = fd_grad_wbar_log_kernel(params, p, q)
        scale = max(np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (32, 4), (2, 64), (64, 8)])
def test_grad_equals_the_metric_diagonal_oracle(nm):
    # mu z (m + t G) and E zeta G against [alpha z, beta zeta] from
    # _metric_parts, entry by entry, on single points, stacks, a stack broadcast
    # against one point and origins; a zero entry must be exactly zero
    params = DomainParams(*nm, 1.0)
    X = sample_interior(params, 19, 40)
    P = Point(X.z[:20].reshape(4, 5, -1), X.zeta[:20].reshape(4, 5, -1))
    Q = Point(X.z[20:].reshape(4, 5, -1), X.zeta[20:].reshape(4, 5, -1))
    p, o = singles(X)[0], Point.origin(params)
    for a, b in [(p, singles(X)[1]), (P, Q), (p, Q), (P, p), (o, o), (P, o), (o, p), (p, o)]:
        g, ref = log_kernel_grad_wbar(params, a, b), grad_wbar_by_metric_diagonal(params, a, b)
        assert g.shape == ref.shape
        assert np.all(np.abs(g - ref) <= 1e-15 * np.abs(ref))


# --------------------------------- metric ----------------------------------

def test_metric_origin_one_one():
    T = metric(P11, Point.origin(P11), Point.origin(P11))
    assert np.allclose(T, np.diag([1.0, 4.0]), atol=1e-14)


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_origin_block_structure(params):
    o = Point.origin(params)
    T = metric(params, o, o)
    ratio = a_poly(params.n, params.m + 1).coeffs[0] / a_poly(params.n, params.m).coeffs[0]
    expected = np.diag(
        [params.m * params.mu] * params.n + [ratio] * params.m
    ).astype(complex)
    assert np.max(np.abs(T - expected)) <= 1e-10
    assert np.linalg.eigvalsh((T + T.conj().T) / 2).min() > 0.0


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_against_origin_is_constant(params):
    o = Point.origin(params)
    base = metric(params, o, o)
    for p in singles(sample_interior(params, 23, 50)):
        assert np.max(np.abs(metric(params, p, o) - base)) <= 1e-10


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_hermitian_on_diagonal(params):
    for p in singles(sample_interior(params, 29, 10)):
        T = metric(params, p, p)
        assert np.max(np.abs(T - T.conj().T)) <= 1e-12 * max(np.max(np.abs(T)), 1.0)


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_matches_finite_differences(params):
    pts = singles(sample_interior(params, 31, 20))
    for p, q in zip(pts[::2], pts[1::2]):
        analytic = metric(params, p, q)
        numeric = fd_metric(params, p, q)
        scale = max(np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


# ------------------------- matrix square roots -----------------------------

@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (32, 4), (2, 64)])
def test_metric_equals_the_block_oracle_bit_for_bit(nm):
    # single points, stacks, stacks broadcast against one point, a (5, 1)
    # stack against a (5,) one, and origins, where the signs of zeros must
    # agree as well
    params = DomainParams(*nm, 1.0)
    X = sample_interior(params, 11, 40)
    P = Point(X.z[:20].reshape(4, 5, -1), X.zeta[:20].reshape(4, 5, -1))
    Q = Point(X.z[20:].reshape(4, 5, -1), X.zeta[20:].reshape(4, 5, -1))
    p, o = singles(X)[0], Point.origin(params)
    column, row = Point(Q.z[0, :, None], Q.zeta[0, :, None]), Point(P.z[0], P.zeta[0])
    for a, b in [(p, singles(X)[1]), (P, Q), (p, Q), (P, p), (column, row), (o, o), (P, o), (o, p)]:
        T, expected = metric(params, a, b), metric_block(params, a, b)
        assert T.shape == expected.shape and T.tobytes() == expected.tobytes()


def test_sqrt_pd_identity_and_diagonal():
    assert np.allclose(sqrt_pd(np.eye(3)), np.eye(3))
    assert np.allclose(sqrt_pd(np.diag([1.0, 4.0])), np.diag([1.0, 2.0]))
    assert np.allclose(inv_sqrt_pd(np.diag([1.0, 4.0])), np.diag([1.0, 0.5]))


def test_sqrt_pd_reconstruction_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = B @ B.conj().T + 0.5 * np.eye(4)
        R = sqrt_pd(M)
        assert np.max(np.abs(R @ R - M)) <= 1e-10
        S = inv_sqrt_pd(M)
        assert np.max(np.abs(S @ M @ S - np.eye(4))) <= 1e-10


def test_sqrt_pd_rejects_bad_input():
    with pytest.raises(NotHermitian):
        sqrt_pd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPositiveDefinite):
        sqrt_pd(np.diag([1.0, -2.0]))
    with pytest.raises(NotPositiveDefinite):
        sqrt_pd(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("root", [sqrt_pd, inv_sqrt_pd])
def test_matrix_roots_reject_nan(root):
    M = np.eye(2)
    M[1, 1] = np.nan
    with pytest.raises(NotHermitian):
        root(M)


def test_matrix_roots_reject_nan_eigenvalues(monkeypatch):
    # no finite Hermitian input is known to give NaN eigenvalues, so eigh is
    # replaced to reach the floor check behind the Hermitian one
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (np.array([1.0, np.nan]), np.eye(2)))
    with pytest.raises(NotPositiveDefinite):
        sqrt_pd(np.eye(2))


# --------------------------- representative map ----------------------------

def test_representative_map_origin_and_example():
    assert np.all(representative_map(P11, Point.origin(P11)) == 0.0)
    sigma = representative_map(P11, Point([0.5], [0.1]))
    assert np.allclose(sigma, [0.5, 0.2], atol=1e-12)


@pytest.mark.parametrize("n, m, mu", [(1, 1, 1.0), (3, 2, 0.7), (2, 4, 0.7), (32, 4, 1.0), (64, 8, 1.0),
                                       (64, 64, 1.0), (8, 64, 2.0)])
def test_representative_map_matches_the_gradient_oracle(n, m, mu):
    params = DomainParams(n, m, mu)
    P = sample_interior(params, 53, 200)
    closed, oracle = representative_map(params, P), representative_map_by_gradient(params, P)
    assert np.all(np.abs(closed - oracle) <= 1e-15 * np.abs(oracle))


def test_representative_map_rejects_swapped_block_sizes():
    # z of length m and zeta of length n: the right total length n + m
    with pytest.raises(DimensionMismatch):
        representative_map(DomainParams(3, 2, 1.0), Point([0.1, 0.2], [0.1, 0.0, 0.0]))


@pytest.mark.parametrize("params", CONFIGS)
def test_representative_map_is_linear(params):
    o = Point.origin(params)
    half = sqrt_pd(metric(params, o, o))
    for p in singles(sample_interior(params, 37, 100)):
        sigma = representative_map(params, p)
        expected = half @ p.coords()
        assert np.max(np.abs(sigma - expected)) <= 1e-8 * max(np.max(np.abs(expected)), 1.0)


# -------------------------------- l_matrix ---------------------------------

def test_l_matrix_identity():
    assert np.allclose(l_matrix(P11, identity(P11)), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("params", CONFIGS + [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_l_matrix_unitary_and_commutes(params):
    rot = random_automorphism(params, 41)
    fixing = Automorphism(rot.U, rot.Uprime, np.zeros(params.n))
    L = l_matrix(params, fixing)
    assert np.max(np.abs(L.conj().T @ L - np.eye(params.dim))) <= 1e-10
    block = np.zeros((params.dim, params.dim), dtype=complex)
    block[: params.n, : params.n], block[params.n :, params.n :] = rot.U, rot.Uprime
    assert np.max(np.abs(L - block)) <= 1e-15  # the linear map U + U' itself
    from fbh.autgroup import apply

    for p in singles(sample_interior(params, 43, 20)):
        lhs = representative_map(params, apply(params, fixing, p))
        rhs = L @ representative_map(params, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * max(np.max(np.abs(lhs)), 1.0)


def test_l_matrix_requires_origin_fixing():
    a = random_automorphism(P11, 47)
    assert np.linalg.norm(a.v) > 1e-6
    with pytest.raises(DoesNotFixOrigin):
        l_matrix(P11, a)


def test_l_matrix_rejects_a_nan_translation():
    with pytest.raises(DoesNotFixOrigin):
        l_matrix(P11, Automorphism(np.eye(1), np.eye(1), np.array([np.nan])))


def test_l_matrix_broadcasts_over_automorphism_stacks():
    params = DomainParams(3, 2, 1.0)
    rots = [random_automorphism(params, 50 + i) for i in range(3)]
    U, Up = np.stack([r.U for r in rots]), np.stack([r.Uprime for r in rots])
    stacked = l_matrix(params, Automorphism(U, Up, np.zeros((3, params.n))))
    one_by_one = [l_matrix(params, Automorphism(r.U, r.Uprime, np.zeros(params.n))) for r in rots]
    assert_rows_match(stacked, one_by_one)
    v = np.zeros((3, params.n))
    v[2, 0] = 1e-3  # one member that moves the origin fails the whole stack
    with pytest.raises(DoesNotFixOrigin):
        l_matrix(params, Automorphism(U, Up, v))
