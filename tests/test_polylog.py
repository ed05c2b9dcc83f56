"""Tests for the exact polylogarithm machinery."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fbh.errors import KernelZero, NotFinite, PoleProximity
from fbh.polylog import (
    EPS_POLE,
    MAX_ORDER,
    ROW_BLOCK,
    PolyExact,
    _exp,
    _power,
    a_poly,
    log_derivatives,
    polylog_deriv,
    stirling2,
)

from oracles import (
    a_poly_stirling,
    eulerian_numerator,
    exact_polylog_deriv,
    exact_taylor,
    horner_jet,
    series_polylog_deriv,
    stirling2_recursive,
)


# ------------------------------- stirling2 ---------------------------------

def test_stirling2_anchor_values():
    assert stirling2(1, 1) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25


def test_stirling2_total_outside_range():
    assert stirling2(3, 5) == 0
    assert stirling2(3, -1) == 0
    assert stirling2(-2, 0) == 0
    assert stirling2(0, 0) == 1


@pytest.mark.parametrize("n", range(0, 12))
def test_stirling2_matches_recursive_oracle(n):
    for k in range(0, n + 1):
        assert stirling2(n, k) == stirling2_recursive(n, k)


# ------------------------------- PolyExact ---------------------------------

def test_polyexact_strips_trailing_zeros():
    p = PolyExact((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert PolyExact(()).degree == -1


def test_polyexact_arithmetic():
    # the jet of 5 + 2t^2 is [5 + 2t^2, 4t, 2], exact at these dyadic t
    t = np.array([0.5 + 0.25j, -1.5, 0.0])
    for x in (t, t[0]):
        jet = PolyExact((5, 0, 2)).jet(x, 2)
        assert len(jet) == 3
        assert all(np.array_equal(got, want) for got, want in zip(jet, [5 + 2 * x * x, 4 * x, 2 + 0 * x]))


@pytest.mark.parametrize("k", [-1, 1.0, True])
def test_polyexact_jet_rejects_bad_order(k):
    with pytest.raises(ValueError, match="jet order"):
        PolyExact((1, 2)).jet(0.5, k)


def test_polyexact_eval_is_horner_on_complex():
    p = PolyExact((1, 2, 3))
    t = 0.5 + 0.25j
    assert p.eval(t) == pytest.approx(1 + 2 * t + 3 * t * t)


@pytest.mark.parametrize("nm", [(3, 2), (32, 4), (64, 8), (1, 1), (2, 1), (64, 64)])
@pytest.mark.parametrize("t", [0.25, -0.5, 0.3 + 0.4j, -0.99, 0.999, 0.999j, 0.9987 * cmath.exp(2j)])
def test_polyexact_jet_within_horner_bound_of_exact(nm, t):
    # exact Taylor coefficients sum_i C(i, j) a_i t^(i-j) at the binary value
    # of t, against Higham's bound gamma_2d sum_i C(i, j) |a_i| |t|^(i-j)
    A, x = a_poly(*nm), (Fraction(t.real), Fraction(t.imag))
    a, d, u = A.coeffs, A.degree, np.finfo(float).eps / 2
    gamma = 2 * d * u / (1 - 2 * d * u)
    jet = A.jet(t, 3)
    for j in range(4):
        re, im = Fraction(0), Fraction(0)
        for i in range(d, j - 1, -1):  # Horner on the j-th Taylor coefficient
            re, im = re * x[0] - im * x[1] + math.comb(i, j) * a[i], re * x[1] + im * x[0]
        err = abs(complex(float(Fraction(jet[j].real) - re), float(Fraction(jet[j].imag) - im)))
        bound = gamma * sum(math.comb(i, j) * abs(a[i]) * abs(t) ** (i - j) for i in range(j, d + 1))
        assert err <= bound, (j, err, bound)


def _disk(seed, shape, radius=1 - 1e-3):
    """Seeded points uniform in the disk |t| <= radius."""
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))


def _horner_bound(A, t, j):
    """Higham's gamma_2d sum_i C(i, j) |a_i| |t|^(i-j) for the j-th Taylor coefficient, per row."""
    d, u = A.degree, np.finfo(float).eps / 2
    c = [float(math.comb(i, j) * abs(a)) for i, a in enumerate(A.coeffs)][j:] or [0.0]
    return 2 * d * u / (1 - 2 * d * u) * np.polynomial.polynomial.polyval(np.abs(t), c)


@pytest.mark.parametrize("nm", [(1, 1), (64, 8)])
@pytest.mark.parametrize("size", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_polyexact_jet_sizes_around_the_row_block(nm, size):
    # the blocked jet against the Horner loop it replaced: both lie within
    # gamma_2d of the exact value, so within twice that of each other
    A, t = a_poly(*nm), _disk(size, size)
    jet = A.jet(t, 2)
    for j, (got, want) in enumerate(zip(jet, horner_jet(A.coeffs, t, 2))):
        assert got.shape == (size,) and got.dtype == complex
        assert np.all(np.abs(got - want) <= 2 * _horner_bound(A, t, j)), j


@pytest.mark.parametrize("nm", [(1, 1), (64, 8)])
@pytest.mark.parametrize("shape", [(3, ROW_BLOCK + 1), (2, 0, 5), (ROW_BLOCK + 1, 1), (5, 2, 3)])
def test_polyexact_jet_stacked_shapes_match_the_flat_rows(nm, shape):
    A, t = a_poly(*nm), _disk(7, shape)
    for stacked in (t, t.T):
        for got, ref in zip(A.jet(stacked, 2), A.jet(stacked.reshape(-1), 2)):
            assert got.shape == stacked.shape
            assert np.array_equal(got.reshape(-1), ref)


@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (64, 8)])
@pytest.mark.parametrize("t", [0.5, np.float64(-0.25), 0.3 + 0.4j, np.complex128(0.9j), np.array(0.7)])
def test_polyexact_jet_of_a_0d_t_is_a_numpy_complex_scalar(nm, t):
    A = a_poly(*nm)
    jet = A.jet(t, 2)
    assert all(type(v) is np.complex128 for v in jet)
    assert [complex(v) for v in jet] == [complex(v[0]) for v in A.jet(np.array([t]), 2)]
    assert type(A.eval(t)) is np.complex128


@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (64, 8), (64, 64)])
def test_polyexact_jet_nan_and_inf_rows_stay_in_their_rows(nm):
    A = a_poly(*nm)
    t = _disk(3, ROW_BLOCK + 5)
    bad = [0, 7, ROW_BLOCK - 1, ROW_BLOCK + 2]
    clean = t.copy()
    t[bad] = [np.nan, np.inf, complex(-np.inf, 1.0), complex(0.5, np.nan)]
    with np.errstate(invalid="ignore", over="ignore"):  # the bad rows warn, as numpy does
        jet = A.jet(t, 3)
    for got, ref in zip(jet, A.jet(clean, 3)):
        assert not np.any(np.isfinite(got[bad]))
        keep = np.ones(t.size, dtype=bool)
        keep[bad] = False
        assert np.array_equal(got[keep], ref[keep])


@pytest.mark.parametrize("coeffs", [(), (0,), (0, 0, 0)])
def test_zero_polynomial_jet_is_t_times_zero(coeffs):
    t = np.array([0.5 + 0.25j, np.nan, np.inf, -2.0])
    with np.errstate(invalid="ignore"):  # inf * 0.0
        for x in (t, t[0]):
            jet = PolyExact(coeffs).jet(x, 2)
            assert len(jet) == 3
            assert all(np.array_equal(v, x * 0.0, equal_nan=True) for v in jet)
    assert type(PolyExact(coeffs).eval(0.5)) is np.complex128


@pytest.mark.parametrize("nm", [(32, 4), (64, 8)])
def test_polyexact_jet_well_conditioned_rows_within_1e_10_of_exact(nm):
    # seeded t in the disk; rows whose exact Horner condition number
    # sum_i C(i, j) |a_i| |t|^(i-j) / |A_j(t)| is below 1e6 keep 1e-10
    A, t = a_poly(*nm), _disk(20261020, 300)
    jet = A.jet(t, 2)
    checked = 0
    for j in range(3):
        scale = [math.comb(i, j) * a for i, a in enumerate(A.coeffs)][j:]
        for x, got in zip(t, jet[j]):
            re, im = exact_taylor(A.coeffs, complex(x), j)
            value = abs(complex(float(re), float(im)))
            if float(np.polynomial.polynomial.polyval(abs(x), [float(v) for v in scale])) >= 1e6 * value:
                continue
            checked += 1
            err = abs(complex(float(Fraction(got.real) - re), float(Fraction(got.imag) - im)))
            assert err <= 1e-10 * value, (j, x, err / value)
    assert checked >= 600  # of 900 rows; the rest lie near t = -1


# -------------------------- PolyExact coefficients ---------------------------

@pytest.mark.parametrize("coeffs", [(1.5, 2), (True, 1), (1, np.float64(2.0)), ("3",), (1, np.bool_(False)), (None,)])
def test_polyexact_rejects_coefficients_that_are_not_integers(coeffs):
    # a float used to be truncated (1.5 -> 1) and True read as 1
    with pytest.raises(ValueError, match="polynomial coefficient must be an integer"):
        PolyExact(coeffs)


def test_polyexact_takes_numpy_integers_as_int():
    p = PolyExact((np.int64(3), np.int32(-1), np.uint8(0)))
    assert p.coeffs == (3, -1) and all(type(c) is int for c in p.coeffs)


@pytest.mark.parametrize("coeffs", [(10**400,), (1, -(10**400)), (2**1024 - 2**970,)])
def test_polyexact_coefficient_past_float_range_raises_not_finite(coeffs):
    # float(10**400) used to raise a bare OverflowError
    p = PolyExact(coeffs)
    assert p._blocks[-1] == 0  # no order of the block table is in float range
    with pytest.raises(NotFinite, match="past the float range"):
        p.eval(0.5)


def test_polyexact_jet_table_past_float_range_raises_not_finite():
    # C(40, j) 1e300 is in float range up to j = 8 and past it from j = 9
    p, t = PolyExact((0,) * 40 + (10**300,)), np.array([0.5, -0.25j])
    assert all(np.all(np.isfinite(v)) for v in p.jet(t, 8))
    for k in (9, 40, 41):
        with pytest.raises(NotFinite, match="order j = 9"):
            p.jet(t, k)


@pytest.mark.parametrize("nm", [(64, 0), (64, 64), (1, 64), (MAX_ORDER, 8)])
def test_a_poly_jet_table_is_in_float_range_at_every_order(nm):
    A = a_poly(*nm)
    assert all(np.isfinite(v) for v in A.jet(0.5, A.degree))


# -------------------------------- a_poly -----------------------------------

def test_a_poly_first_order_is_t():
    assert a_poly(1, 0).coeffs == (0, 1)


def test_a_poly_n5_printed_coefficients():
    assert a_poly(5, 0).coeffs == (0, 1, 26, 66, 26, 1)


def test_a_poly_first_derivative_numerator():
    # d/dt of t/(1-t)^2 is (1+t)/(1-t)^3
    assert a_poly(1, 1).coeffs == (1, 1)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(0, 5))
def test_a_poly_derivative_consistency_exact(n, m):
    # d/dt [A/(1-t)^p] = [A'(1-t) + pA]/(1-t)^(p+1) with p = n+m+1, so
    # neighbouring numerators must satisfy this identity exactly.
    a = a_poly(n, m).coeffs
    da = tuple(i * a[i] for i in range(1, len(a))) + (0,)
    rhs = [da[i] - (da[i - 1] if i else 0) + (n + m + 1) * a[i] for i in range(n + 1)]
    assert a_poly(n, m + 1).coeffs == tuple(rhs)


@pytest.mark.parametrize("m", [0, 1, 8, MAX_ORDER])
def test_a_poly_matches_stirling_oracle_over_n(m):
    for n in range(1, MAX_ORDER + 1):
        assert a_poly(n, m).coeffs == a_poly_stirling(n, m), (n, m)


@pytest.mark.parametrize("n", [1, 7, MAX_ORDER])
def test_a_poly_matches_stirling_oracle_over_m(n):
    for m in range(0, MAX_ORDER + 1):
        assert a_poly(n, m).coeffs == a_poly_stirling(n, m), (n, m)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_poly_coefficient_positivity(n):
    for m in range(1, 9):
        coeffs = a_poly(n, m).coeffs
        assert len(coeffs) == n + 1
        assert all(c > 0 for c in coeffs)
    # m = 0: zero constant term, strictly positive above it
    base = a_poly(n, 0).coeffs
    assert len(base) == n + 1
    assert base[0] == 0
    assert all(c > 0 for c in base[1:])


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", range(1, 5))
def test_a_poly_positive_at_zero(n, m):
    assert a_poly(n, m).coeffs[0] > 0


def test_a_poly_order_guard():
    with pytest.raises(ValueError):
        a_poly(0, 1)
    with pytest.raises(ValueError):
        a_poly(65, 0)
    with pytest.raises(ValueError):
        a_poly(2, 65)
    with pytest.raises(ValueError):
        a_poly(2, -1)


def test_a_poly_is_memoized():
    assert a_poly(7, 3) is a_poly(7, 3)
    assert a_poly(7, 3)._blocks is a_poly(7, 3)._blocks


@pytest.mark.parametrize("orders", [(3.0, 1), (2.5, 1), (3, 1.0), (3, 0.5), ("3", 1), (np.float64(3), 1)])
@pytest.mark.parametrize(
    "call",
    [a_poly, lambda n, m: polylog_deriv(n, m, 0.1), lambda n, m: log_derivatives(n, m, 0.1)],
    ids=["a_poly", "polylog_deriv", "log_derivatives"],
)
def test_non_integral_orders_raise_the_order_error(call, orders):
    # a float order used to pass the range check and crash in range()
    with pytest.raises(ValueError, match="must be an integer"):
        call(*orders)


@pytest.mark.parametrize("nm", [(3, 1), (32, 4), (MAX_ORDER, MAX_ORDER)])
def test_numpy_int_orders_give_the_int_results(nm):
    n, m = nm
    assert a_poly(np.int64(n), np.int64(m)) is a_poly(n, m)  # one memo entry per order
    t = np.array([0.1, -0.5 + 0.3j])
    assert np.array_equal(polylog_deriv(np.int64(n), np.int64(m), t), polylog_deriv(n, m, t))
    for got, want in zip(log_derivatives(np.int64(n), np.int64(m), t), log_derivatives(n, m, t)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("orders", [(True, 1), (3, True), (3, False), (np.bool_(True), 1)])
@pytest.mark.parametrize(
    "call",
    [a_poly, lambda n, m: polylog_deriv(n, m, 0.1), lambda n, m: log_derivatives(n, m, 0.1)],
    ids=["a_poly", "polylog_deriv", "log_derivatives"],
)
def test_bool_orders_raise_the_order_error(call, orders):
    # bool is an Integral, but True is no order
    with pytest.raises(ValueError, match="must be an integer"):
        call(*orders)


@pytest.mark.parametrize("orders", [(2, 65), (0, 1)])
def test_a_poly_bad_order_raises_on_every_call(orders):
    # a raised error is never memoized
    for _ in range(2):
        with pytest.raises(ValueError):
            a_poly(*orders)


@pytest.mark.parametrize("nm", [(64, 0), (64, 8), (1, 64), (64, 64)])
def test_a_poly_matches_eulerian_oracle_at_max_order(nm):
    n, m = nm
    poly = a_poly(n, m)
    assert poly.coeffs == eulerian_numerator(n, m)
    # A(1) = (n+m)! and no coefficient is negative, so each is at most
    # (n+m)! <= 128! ~ 3.9e215 and the float coefficients stay finite
    assert sum(poly.coeffs) == math.factorial(n + m)
    assert all(math.isfinite(float(c)) for c in poly.coeffs)


# ------------------------- Li_{-n} printed forms ---------------------------

def test_li_neg_rational_printed_forms():
    # Li_{-n}(t) = A_{n,0}(t) / (1-t)^(n+1): printed numerators and pole orders
    expected = {
        1: (0, 1),
        2: (0, 1, 1),
        3: (0, 1, 4, 1),
        4: (0, 1, 11, 11, 1),
        5: (0, 1, 26, 66, 26, 1),
    }
    for n, coeffs in expected.items():
        A, t = a_poly(n, 0), 0.5
        assert A.coeffs == coeffs
        assert (1 - t) ** (n + 1) * series_polylog_deriv(n, 0, t) == pytest.approx(A.eval(t), rel=1e-12)


# ------------------------------ polylog_deriv ------------------------------

def test_polylog_deriv_hand_values():
    # t/(1-t)^2 at t = 0.5 is 0.5/0.25
    assert polylog_deriv(1, 0, 0.5) == pytest.approx(2.0)
    assert polylog_deriv(1, 1, 0.0) == pytest.approx(1.0)


def test_polylog_deriv_against_truncated_series():
    value = polylog_deriv(2, 0, 0.3)
    oracle = sum(k * k * 0.3**k for k in range(1, 201))
    assert abs(value - oracle) <= 1e-12 * abs(oracle)


GRID_T = (0.1, 0.3, 0.5, 0.7, -0.4, 0.2 + 0.3j)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(0, 5))
def test_polylog_deriv_series_grid(n, m):
    for t in GRID_T:
        value = polylog_deriv(n, m, t)
        oracle = series_polylog_deriv(n, m, t)
        assert abs(value - oracle) <= 1e-10 * abs(oracle)


def test_polylog_deriv_accepts_arrays():
    ts = np.array([0.1, 0.2 + 0.3j, -0.4])
    vals = polylog_deriv(3, 2, ts)
    assert vals.shape == (3,)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(polylog_deriv(3, 2, complex(t)))


def test_polylog_deriv_pole_guard():
    with pytest.raises(PoleProximity):
        polylog_deriv(2, 1, 1.0 - EPS_POLE / 2)
    with pytest.raises(PoleProximity):
        polylog_deriv(2, 1, np.array([0.5, 1.0 + 1e-14j]))
    # just outside the guard evaluates
    polylog_deriv(2, 1, 1.0 - 2 * EPS_POLE)


# ------------------------------- _power ------------------------------------

def _unit_annulus(rng, size):
    """Random complex numbers with 0.5 <= |x| <= 2."""
    return np.exp(rng.uniform(np.log(0.5), np.log(2.0), size) + 1j * rng.uniform(-np.pi, np.pi, size))


@pytest.mark.parametrize("k", range(1, 130))
def test_power_matches_numpy_power(k):
    rng = np.random.default_rng(k)
    x = _unit_annulus(rng, 64)
    tol = 4 * k * np.finfo(float).eps
    want = x**k
    got = _power(x.copy(), k)
    assert got.shape == x.shape and np.all(np.abs(got - want) <= tol * np.abs(want))
    for one in (np.array(x[5]), x[7]):  # a 0-d array and a numpy scalar
        got = _power(one.copy(), k)
        assert type(got) is np.complex128 and abs(got - one**k) <= tol * abs(one**k)


def test_power_overwrites_its_argument():
    x = _unit_annulus(np.random.default_rng(0), 8)
    assert _power(x, 1) is x
    y = x.copy()
    assert _power(y, 8) is y and np.allclose(y, x**8, rtol=1e-14)


# -------------------------------- _exp -------------------------------------

@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_exp_within_4_eps_normwise_of_libm(scale):
    # |Im| from 1e-300 to 1e9, and multiples of pi and pi/2, where tan(Im/2) is 0 or huge
    rng = np.random.default_rng(11)
    re = rng.uniform(-700.0, 700.0, 4000)
    im = np.concatenate([10.0 ** rng.uniform(-300.0, 9.0, 3000), np.arange(-500, 500) * np.pi / 2])
    im[::2] *= -1.0
    w = (re + 1j * im) / scale
    got = _exp(w, scale)
    for e, x, y in zip(got, scale * w.real, scale * w.imag):
        f = math.exp(x)
        assert abs(e - complex(f * math.cos(y), f * math.sin(y))) <= 4 * np.finfo(float).eps * f


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_exp_is_exactly_one_at_signed_zeros(scale):
    w = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
    got = _exp(w, scale)
    assert np.all(got == 1.0) and got.tobytes() == np.exp(w).tobytes()


def test_exp_nan_and_inf_stay_in_their_rows():
    w = np.array([0.3 + 2.0j, np.nan, complex(1.0, np.nan), complex(1.0, np.inf), -5.0 - 1e5j])
    with np.errstate(invalid="ignore"):
        got = _exp(w, 0.7)
    assert not np.any(np.isfinite(got[1:4]))
    assert got[[0, 4]].tobytes() == _exp(w[[0, 4]], 0.7).tobytes()


def test_exp_of_a_0d_w_is_a_numpy_complex_scalar():
    for w in (np.array(0.5 - 2.0j), 0.5 - 2.0j):
        got = _exp(w, 0.7)
        assert type(got) is np.complex128 and got == _exp(np.array([w]), 0.7)[0]


@pytest.mark.parametrize("n", [1, 2, 7, MAX_ORDER])
def test_log_derivatives_raise_kernel_zero_where_a_vanishes(n):
    # A_{n,0} has constant term 0, so F_0(0) = 0: G = A'/A has no value there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelZero):
            log_derivatives(n, 0, 0.0)
        with pytest.raises(KernelZero):
            log_derivatives(n, 0, np.array([0.5, 0.0]))


# near t = 1 at high pole order: (1-t)^(n+m+1) is formed by squaring at the
# exponents 73, 73 and 129.  F_{64} of order -64 overflows for |1-t| <= 0.1
# (A(1) = 128!), so |1-t| = 0.5 joins the distances to give (64, 64) finite values.
@pytest.mark.parametrize("nm", [(64, 8), (8, 64), (64, 64)])
def test_polylog_deriv_near_the_pole_matches_exact_arithmetic(nm):
    n, m = nm
    angles = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    t = (1 - np.array([0.5, 1e-1, 1e-2])[:, None] * np.exp(1j * angles)).ravel()
    exact = [exact_polylog_deriv(n, m, x) for x in t]
    finite = np.array([e is not None for e in exact])
    assert finite.sum() >= 8
    want = np.array([e for e in exact if e is not None])
    got = polylog_deriv(n, m, t[finite])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    one = polylog_deriv(n, m, t[finite][-1])
    assert type(one) is complex and abs(one - want[-1]) <= 1e-12 * abs(want[-1])
