"""Tests for the verification harness itself."""

import math

import numpy as np
import pytest

from fbh import autgroup, polylog, verify
from fbh.autgroup import Automorphism, identity, random_automorphism
from fbh.domain import DomainParams, Point, sample_boundary, sample_interior
from fbh.verify import (
    SUITE_NAMES,
    CheckReport,
    _merge,
    check_boundary_invariance,
    check_cartan,
    check_gram_psd,
    check_kernel_law,
    check_metric_law,
    mc_reproduce_constant,
    run_suite,
    sample_pairs,
)

P11 = DomainParams(1, 1, 1.0)
CONFIGS = [P11, DomainParams(2, 1, 1.0), DomainParams(1, 2, 0.5), DomainParams(2, 2, 2.0)]


def origin_fixing(params, seed):
    rot = random_automorphism(params, seed)
    return Automorphism(rot.U, rot.Uprime, np.zeros(params.n))


def test_report_invariant_passed_iff_within_tolerance():
    pairs = sample_pairs(P11, 0, 5)
    report = check_kernel_law(P11, random_automorphism(P11, 1), pairs, seed=0)
    assert report.passed == (report.max_residual <= report.tolerance)
    forced = check_kernel_law(P11, random_automorphism(P11, 1), pairs, tolerance=-1.0)
    assert not forced.passed


def test_sample_pairs_respects_pole_guard():
    from fbh.bergman import kernel

    for p, q in sample_pairs(DomainParams(2, 2, 1.0), 3, 20):
        assert abs(1.0 - kernel(DomainParams(2, 2, 1.0), p, q).t_arg) > 1e-6


# ------------------------------ kernel law ---------------------------------

def test_kernel_law_identity_residual_zero():
    report = check_kernel_law(P11, identity(P11), sample_pairs(P11, 5, 10))
    assert report.max_residual <= 1e-15


def test_kernel_law_translation_at_origin():
    # both sides reduce to K(0,0) because |det J|^2 cancels the z-exponent
    o = Point.origin(P11)
    a = Automorphism(np.eye(1), np.eye(1), np.array([0.8 - 0.3j]))
    report = check_kernel_law(P11, a, [(o, o)])
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("params", CONFIGS)
def test_kernel_law_random(params):
    report = check_kernel_law(
        params, random_automorphism(params, 7), sample_pairs(params, 11, 25), seed=11
    )
    assert report.passed
    assert report.max_residual <= 1e-8


# ------------------------------ metric law ---------------------------------

def test_metric_law_identity_residual_zero():
    report = check_metric_law(P11, identity(P11), sample_pairs(P11, 13, 10))
    assert report.max_residual <= 1e-15


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_law_random(params):
    report = check_metric_law(
        params, random_automorphism(params, 17), sample_pairs(params, 19, 15), seed=19
    )
    assert report.passed
    assert report.max_residual <= 1e-7
    assert report.details["skipped"] == 0


def test_metric_law_skips_and_counts_vanishing_kernels():
    # at (1, 1) K = exp(<z, z'>) / pi^2 at zeta = 0, below KERNEL_FLOOR once Re <z, z'> < -688:
    # at (p, q) for the first pair, only at (a p, a q) for the second
    vanishing = [
        (Point([25.0], [0.0]), Point([-30.0], [0.0])),
        (Point([-143.6], [0.0]), Point.origin(P11)),
    ]
    a = Automorphism(np.eye(1), np.eye(1), np.array([5.0]))
    report = check_metric_law(P11, a, vanishing)
    assert report.details["skipped"] == 2 and report.max_residual == 0.0
    report = check_metric_law(P11, identity(P11), sample_pairs(P11, 3, 4) + vanishing[:1])
    assert report.details["skipped"] == 1 and report.passed


def test_metric_diagonal_pairs_hermitian():
    from fbh.bergman import metric

    for p in sample_interior(DomainParams(2, 2, 1.0), 23, 10):
        T = metric(DomainParams(2, 2, 1.0), p, p)
        assert np.max(np.abs(T - T.conj().T)) <= 1e-10 * max(np.max(np.abs(T)), 1.0)


# -------------------------------- cartan -----------------------------------

def test_cartan_identity():
    report = check_cartan(P11, identity(P11), sample_interior(P11, 29, 10))
    assert report.max_residual <= 1e-12
    assert report.details["block_residual"] <= 1e-12


@pytest.mark.parametrize("params", CONFIGS)
def test_cartan_random_rotation(params):
    a = origin_fixing(params, 31)
    report = check_cartan(params, a, sample_interior(params, 37, 100), seed=37)
    assert report.passed
    assert report.max_residual <= 1e-7
    assert report.details["block_residual"] <= 1e-8


# --------------------------------- gram ------------------------------------

def test_gram_single_point_positive():
    report = check_gram_psd(P11, sample_interior(P11, 41, 1))
    assert report.passed
    assert report.details["min_eigenvalue_raw"] > 0.0


def test_gram_forty_points():
    report = check_gram_psd(P11, sample_interior(P11, 43, 40))
    assert report.passed
    assert report.details["min_eigenvalue_normalized"] >= -1e-10


def test_gram_duplicated_rows_still_psd():
    pts = sample_interior(P11, 47, 10)
    report = check_gram_psd(P11, pts + pts[:3])
    assert report.passed


# ---------------------------------- mc -------------------------------------

def test_mc_requires_one_one_and_enough_samples():
    with pytest.raises(ValueError):
        mc_reproduce_constant(DomainParams(2, 1, 1.0), 0)
    with pytest.raises(ValueError):
        mc_reproduce_constant(P11, 0, samples=10)


def test_mc_estimate_near_one():
    report = mc_reproduce_constant(P11, 53, samples=100_000)
    assert report.passed
    assert abs(report.details["estimate"] - 1.0) <= 0.02
    assert report.details["stderr"] >= 0.0


def test_mc_deterministic():
    a = mc_reproduce_constant(P11, 59, samples=100_000)
    b = mc_reproduce_constant(P11, 59, samples=100_000)
    assert a.details["estimate"] == b.details["estimate"]
    assert a.details["stderr"] == b.details["stderr"]


def test_mc_stderr_scaling():
    # the importance weight is analytically constant for this check, so both
    # standard errors sit at float-noise level; the 1/sqrt(2) law is asserted
    # with an absolute floor that covers the degenerate case
    small = mc_reproduce_constant(P11, 61, samples=100_000)
    large = mc_reproduce_constant(P11, 61, samples=200_000)
    s1, s2 = small.details["stderr"], large.details["stderr"]
    assert s2 <= s1 / np.sqrt(2) * 1.2 + 1e-12


# ------------------------------- boundary ----------------------------------

def test_boundary_identity_zero():
    report = check_boundary_invariance(P11, identity(P11), sample_boundary(P11, 67, 20))
    assert report.max_residual <= 1e-15


def test_boundary_pure_zeta_rotation():
    params = DomainParams(1, 2, 1.0)
    rot = random_automorphism(params, 71)
    a = Automorphism(np.eye(1), rot.Uprime, np.zeros(1))
    report = check_boundary_invariance(params, a, sample_boundary(params, 73, 50))
    # zeta-norm is preserved and z untouched; only rounding remains
    assert report.max_residual <= 1e-13


def test_boundary_radius_underflow_fails_closed():
    # exp(-mu ||z||^2) underflows to 0 once the image sits at ||z|| = 40,
    # so no relative residual exists in floating point there
    a = Automorphism(np.eye(1), np.eye(1), np.array([40.0]))
    report = check_boundary_invariance(P11, a, sample_boundary(P11, 0, 3))
    assert report.max_residual == math.inf
    assert not report.passed


@pytest.mark.parametrize("params", CONFIGS)
def test_boundary_random(params):
    report = check_boundary_invariance(
        params, random_automorphism(params, 79), sample_boundary(params, 83, 200), seed=83
    )
    assert report.passed
    assert report.max_residual <= 1e-12


# ------------------------------- run_suite ---------------------------------

def test_run_suite_all_on_one_one():
    reports = run_suite(P11, 7, suites=("all",), samples=100_000)
    names = [r.name for r in reports]
    assert names == list(SUITE_NAMES)
    assert all(r.passed for r in reports)


def test_run_suite_excludes_mc_when_undefined():
    reports = run_suite(DomainParams(2, 2, 1.0), 7, suites=("all",))
    assert "mc" not in [r.name for r in reports]
    assert all(r.passed for r in reports)


def test_run_suite_deterministic():
    a = run_suite(P11, 3, suites=("gram", "boundary"))
    b = run_suite(P11, 3, suites=("gram", "boundary"))
    for ra, rb in zip(a, b):
        assert ra.to_dict() == rb.to_dict()


def test_run_suite_tolerance_override_forces_failure():
    reports = run_suite(P11, 3, suites=("gram",), tolerances={"gram": -1.0})
    assert not reports[0].passed


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(P11, 0, suites=("nonsense",))


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_run_suite_full_grid(nm, mu):
    params = DomainParams(nm[0], nm[1], mu)
    reports = run_suite(
        params, 5, suites=("kernel-law", "metric-law", "cartan", "gram", "boundary")
    )
    assert [r.name for r in reports] == [
        "kernel-law",
        "metric-law",
        "cartan",
        "gram",
        "boundary",
    ]
    failing = [r.name for r in reports if not r.passed]
    assert not failing, f"suites failed at {params}: {failing}"


@pytest.mark.parametrize("nm", [(2, 64), (1, 64)])
def test_run_suite_metric_law_and_cartan_at_max_order(nm):
    # the metric's log-derivatives come from the order-m numerator alone, so
    # m = MAX_ORDER needs no numerator of order m + 1 or m + 2
    reports = run_suite(DomainParams(nm[0], nm[1], 1.0), 0, suites=("metric-law", "cartan"))
    assert [r.name for r in reports] == ["metric-law", "cartan"]
    assert all(r.passed for r in reports)


# ------------------------- NaN fails closed --------------------------------

def _plain_report(residual):
    return CheckReport("x", residual, 1.0, 1, residual <= 1.0, 0)


@pytest.mark.parametrize("order", [(0.0, math.nan), (math.nan, 0.0)])
def test_merge_propagates_nan(order):
    merged = _merge([_plain_report(r) for r in order])
    assert math.isnan(merged.max_residual)
    assert not merged.passed


def test_check_fed_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(verify, "defect", lambda params, p: np.array([0.0, math.nan, 0.0]))
    report = check_boundary_invariance(P11, identity(P11), sample_boundary(P11, 67, 3))
    assert math.isnan(report.max_residual)
    assert not report.passed


# ------------------------------ mutations -----------------------------------
# Each deliberately broken formula, patched in at the module attribute its
# callers look up, must turn the suites that depend on it red.

MUTATION_CONFIGS = [P11, DomainParams(3, 2, 1.0)]


def _failed_suites(params, suites):
    return {r.name for r in run_suite(params, 0, suites=suites) if not r.passed}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_jacobian_lower_left_sign(params, monkeypatch):
    real = verify.jacobian

    def flipped(params, a, p):
        J = real(params, a, p)
        J[..., params.n :, : params.n] *= -1.0
        return J

    monkeypatch.setattr(verify, "jacobian", flipped)
    assert _failed_suites(params, ("metric-law",)) == {"metric-law"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_jacobian_det_without_scale_power(params, monkeypatch):
    def no_scale_power(params, a, p):
        return np.linalg.det(a.U) * np.linalg.det(a.Uprime) * np.ones(p.z.shape[:-1])

    monkeypatch.setattr(verify, "jacobian_det", no_scale_power)
    assert _failed_suites(params, ("kernel-law",)) == {"kernel-law"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_scale_factor_without_norm_term(params, monkeypatch):
    def no_norm_term(params, a, z):
        return np.exp(-params.mu * (z @ (a.v.conj() @ a.U)))

    monkeypatch.setattr(autgroup, "scale_factor", no_norm_term)
    suites = ("kernel-law", "metric-law", "boundary")
    assert _failed_suites(params, suites) == set(suites)


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_metric_z_block_scaled(params, monkeypatch):
    real = verify.metric

    def scaled(params, p, q):
        T = real(params, p, q)
        T[..., : params.n, : params.n] *= 1.0 + 1e-4
        return T

    monkeypatch.setattr(verify, "metric", scaled)
    assert _failed_suites(params, ("metric-law",)) == {"metric-law"}


def test_mutation_scale_factor_perturbed_at_large_order(monkeypatch):
    # the boundary defect shrinks like exp(-mu ||z||^2); only a relative
    # residual sees a 1e-9 error in the zeta multiplier at (32, 4)
    real = autgroup.scale_factor
    monkeypatch.setattr(
        autgroup, "scale_factor", lambda params, a, z: real(params, a, z) * (1.0 + 1e-9)
    )
    assert _failed_suites(DomainParams(32, 4, 1.0), ("boundary",)) == {"boundary"}


def test_mutation_a_poly_constant_term_after_warm_caches(monkeypatch):
    run_suite(P11, 0, suites=("all",), samples=100_000)
    real = polylog.a_poly

    def shifted(n, m):
        c = real(n, m).coeffs
        return polylog.PolyExact((c[0] + 1,) + c[1:])

    monkeypatch.setattr(polylog, "a_poly", shifted)
    reports = run_suite(P11, 0, suites=("mc",), samples=100_000)
    assert not reports[0].passed


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_unmutated_suites_pass(params):
    assert not _failed_suites(params, ("kernel-law", "metric-law", "boundary"))
