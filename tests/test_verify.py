"""Tests for the verification harness itself."""

import copy
import inspect
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from fbh import autgroup, bergman, polylog, verify
from fbh.autgroup import (
    Automorphism,
    _log_jacobian_det,
    _log_scale,
    identity,
    jacobian,
    jacobian_det,
    random_automorphism,
)
from fbh.bergman import kernel, kernel_batch, log_kernel_grad_wbar, metric
from fbh.cli import main
from fbh.domain import (
    DomainParams,
    Point,
    defect,
    sample_boundary,
    sample_density_arrays,
    sample_interior,
    sample_interior_arrays,
)
from fbh.errors import DimensionMismatch, NotFinite, NotUnitary, OutsideDomain, PoleProximity
from fbh.verify import (
    SUITE_NAMES,
    check_boundary_invariance,
    check_cartan,
    check_gram_psd,
    check_kernel_law,
    check_metric_law,
    mc_reproduce_constant,
    run_suite,
    sample_pairs,
)

from oracles import (
    haar_one_stream,
    mc_blockwise,
    probed_pairs,
    run_suite_per_part,
    sample_pairs_per_pair,
    singles,
    stack,
)

P11 = DomainParams(1, 1, 1.0)
CONFIGS = [P11, DomainParams(2, 1, 1.0), DomainParams(1, 2, 0.5), DomainParams(2, 2, 2.0)]


def origin_fixing(params, seed):
    rot = random_automorphism(params, seed)
    return Automorphism(rot.U, rot.Uprime, np.zeros(params.n))


def test_report_invariant_passed_iff_within_tolerance():
    pairs = sample_pairs(P11, 0, 5)
    report = check_kernel_law(P11, random_automorphism(P11, 1), pairs)
    assert report.passed == (report.max_residual <= report.tolerance)
    forced = check_kernel_law(P11, random_automorphism(P11, 1), pairs, tolerance=-1.0)
    assert not forced.passed


def test_sample_pairs_respects_pole_guard():
    params = DomainParams(2, 2, 1.0)
    P, Q = sample_pairs(params, 3, 20)
    assert P.z.shape == Q.z.shape == P.zeta.shape == Q.zeta.shape == (20, 2)
    assert np.all(np.abs(1.0 - kernel(params, P, Q).t_arg) > 1e-6)


def test_sample_pairs_computes_t_alone(monkeypatch):
    from fbh import bergman

    calls = []
    for module, name in ((verify, "kernel"), (bergman, "polylog_deriv")):
        def spy(*args, _name=name, _fn=getattr(module, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(module, name, spy)
    sample_pairs(DomainParams(32, 4, 1.0), 7, 10)
    assert calls == []


@pytest.mark.parametrize("params", [P11, DomainParams(32, 4, 1.0)])
def test_sample_pairs_draws_the_pairs_of_the_per_pair_loop(params):
    P, Q = sample_pairs(params, 7, 10)
    pairs = sample_pairs_per_pair(params, 7, 10)
    for X, ref in ((P, [p for p, _ in pairs]), (Q, [q for _, q in pairs])):
        assert X.z.tobytes() == stack(ref).z.tobytes()
        assert X.zeta.tobytes() == stack(ref).zeta.tobytes()


STACK_PARAMS = [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0), DomainParams(2, 64, 1.0)]

DRAWS = {
    "random_automorphism": lambda params, seed, shape: astuple(random_automorphism(params, seed, shape)),
    "haar_unitary": lambda params, seed, shape: (autgroup.haar_unitary(params.n, seed, shape),),
    "sample_interior": lambda params, seed, shape: astuple(sample_interior(params, seed, shape)),
    "sample_interior_arrays": lambda params, seed, shape: sample_interior_arrays(params, seed, shape),
    "sample_boundary": lambda params, seed, shape: astuple(sample_boundary(params, seed, shape)),
    "sample_pairs": lambda params, seed, shape: [
        x for p in sample_pairs(params, seed, shape) for x in astuple(p)
    ],
}


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_draw_shape_is_the_flat_draw_reshaped(params, draw):
    flat = DRAWS[draw](params, 7, 12)
    for shape in ((3, 4), (12, 1), (2, 3, 2), (np.int64(3), np.uint8(4))):
        for seed in (7, np.random.default_rng(7)):
            for got, ref in zip(DRAWS[draw](params, seed, shape), flat, strict=True):
                assert got.shape == shape + ref.shape[1:] and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("draw", DRAWS)
def test_every_draw_rejects_an_empty_shape(draw):
    for shape in (0, (0,), (2, 0), -1):
        with pytest.raises(ValueError, match=r"^draw shape axis must be >= 1, got -?\d+$"):
            DRAWS[draw](P11, 3, shape)
    # a float, bool or string axis used to crash inside numpy with a TypeError
    for shape in (2.0, (2, 3.0), True, (True,), np.bool_(True), "2"):
        with pytest.raises(ValueError, match="^draw shape axis must be an integer, got "):
            DRAWS[draw](P11, 3, shape)


@pytest.mark.parametrize("params", STACK_PARAMS)
def test_rotation_is_the_rotation_part_of_the_random_automorphism(params):
    # it shares the validated stack's read-only blocks, not copies of them
    a = random_automorphism(params, 901, (3, 1))
    rot = verify._rotation(a)
    assert rot.U is a.U and rot.Uprime is a.Uprime
    assert rot.v.shape == a.v.shape == (3, 1, params.n) and not np.any(rot.v)
    assert not rot.v.flags.writeable and rot.v.dtype == complex


@pytest.mark.parametrize("params", [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_rotation_starts_with_no_cached_state(params):
    # the stack's cached row v* U and ||v||^2 filled first, as metric-law fills
    # it before cartan in a full run: the rotation part forms its own
    a = random_automorphism(params, 902, (10, 1))
    P = sample_interior(params, 903, (10, 10))
    assert np.all(_log_scale(params, a, P.z) != 0.0)
    rot = verify._rotation(a)
    assert np.all(_log_scale(params, rot, P.z) == 0.0)
    assert check_cartan(params, rot, P).passed


@pytest.mark.parametrize("params", [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_mutation_rotation_keeping_the_stacks_cached_row(params, monkeypatch):
    # a rotation part copied from the stack inherits its cached row, so it
    # scales zeta as the stack does; cartan, run after metric-law has filled
    # the cache, sees it
    real = verify._rotation

    def copied(a):
        rot = copy.copy(a)
        object.__setattr__(rot, "v", real(a).v)
        return rot

    monkeypatch.setattr(verify, "_rotation", copied)
    reports = run_suite(params, 0, ("metric-law", "cartan"))
    assert [r.passed for r in reports] == [True, False]


@pytest.mark.parametrize("params", STACK_PARAMS)
def test_int_seed_automorphism_keeps_the_one_stream_draw_order(params):
    a = random_automorphism(params, 11)
    for got, ref in zip((a.U, a.Uprime, a.v), haar_one_stream(params, 11)):
        assert got.tobytes() == ref.tobytes()


class _ZeroMember(np.random.Generator):
    """A Generator whose stacked normal draws are all zero for member 1."""

    def standard_normal(self, size=None):
        out = super().standard_normal(size)
        out[1] = 0.0
        return out


def test_random_automorphism_checks_the_stack_as_a_whole():
    # all-zero draws for member 1 give R a zero diagonal, so d/|d| is NaN
    # there and only a NaN-safe unitarity check of the stack can catch it
    with np.errstate(invalid="ignore"), pytest.raises(NotUnitary):
        random_automorphism(DomainParams(3, 2, 1.0), _ZeroMember(np.random.PCG64(4)), 3)


@pytest.mark.parametrize("params", [P11, DomainParams(1, 2, 0.5)])
def test_stacked_sample_pairs_continue_short_seeds_like_the_per_pair_oracle(params, monkeypatch):
    # at this guard distance the first draw of 208 pairs keeps fewer than the
    # 200 asked for, so the same stream is drawn from again
    monkeypatch.setattr(verify, "PAIR_POLE_DISTANCE", 0.95)
    chunks = []
    draw = verify.sample_interior_arrays
    monkeypatch.setattr(verify, "sample_interior_arrays", lambda *a: chunks.append(a[1]) or draw(*a))
    P, Q = sample_pairs(params, 40, (10, 20))
    assert len(chunks) > 1 and all(c is chunks[0] for c in chunks)
    pairs = sample_pairs_per_pair(params, 40, 200)
    for X, ref in ((P, [p for p, _ in pairs]), (Q, [q for _, q in pairs])):
        assert X.z.shape == (10, 20, params.n)
        assert X.z.tobytes() == stack(ref).z.tobytes()
        assert X.zeta.tobytes() == stack(ref).zeta.tobytes()


def test_sample_pairs_raises_on_a_nan_t_instead_of_continuing(monkeypatch):
    def nan_rows(params, seed, count):
        nan = np.full((count, 1), np.nan)
        return nan * np.ones(params.n), nan * np.ones(params.m)

    monkeypatch.setattr(verify, "sample_interior_arrays", nan_rows)
    for count in (5, (2, 5)):
        with pytest.raises(NotFinite):
            sample_pairs(P11, 3, count)


# ------------------------------ kernel law ---------------------------------

def test_kernel_law_identity_residual_zero():
    report = check_kernel_law(P11, identity(P11), sample_pairs(P11, 5, 10))
    assert report.max_residual <= 1e-15


def test_kernel_law_translation_at_origin():
    # both sides reduce to K(0,0) because |det J|^2 cancels the z-exponent
    o = Point.origin(P11)
    a = Automorphism(np.eye(1), np.eye(1), np.array([0.8 - 0.3j]))
    report = check_kernel_law(P11, a, (o, o))
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("params", CONFIGS)
def test_kernel_law_random(params):
    report = check_kernel_law(
        params, random_automorphism(params, 7), sample_pairs(params, 11, 25)
    )
    assert report.passed
    assert report.max_residual <= 1e-8


# ------------------------------ metric law ---------------------------------

def probed(params, P, Q, seed=0):
    """(P, Q, X): given pairs with verify.METRIC_PROBES complex Gaussian probe columns each."""
    rng = np.random.default_rng(seed)
    shape = np.broadcast_shapes(P.z.shape[:-1], Q.z.shape[:-1]) + (params.dim, verify.METRIC_PROBES)
    return P, Q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (32, 4), (64, 8)])
def test_structured_operators_equal_the_dense_products(nm):
    # metric-law applies T and J to probes and never forms them: they must act
    # as metric() and jacobian() do, with (10, 1) automorphisms broadcast
    # against (10, 5) pairs, single points and one automorphism against a
    # stack, and the read-only probes left untouched.  On the zeta = 0 slice
    # at z = 19 e_1, where E^2 = e^722 overflows, both read finite and warn not
    params = DomainParams(*nm, 1.0)
    a = random_automorphism(params, 3, (10, 1))
    P, Q, X = probed_pairs(params, 4, (10, 5))
    X.setflags(write=False)
    p, q = Point(P.z[2, 1], P.zeta[2, 1]), Point(Q.z[2, 1], Q.zeta[2, 1])
    far = Point(19.0 * np.eye(params.n)[0], np.zeros(params.m))
    one = Automorphism(a.U[2, 0], a.Uprime[2, 0], a.v[2, 0])
    for aut, x, y, probes in [(a, P, Q, X), (one, p, q, X[2, 1]), (one, P, Q, X), (one, far, far, X[2, 1])]:
        dense_T, J_x, J_y = metric(params, x, y), jacobian(params, aut, x), jacobian(params, aut, y)
        pairs = [
            (bergman._metric_times(params, x, y, probes), dense_T @ probes),
            (autgroup._jacobian_times(params, aut, x, probes), J_x @ probes),
            (autgroup._jacobian_h_times(params, aut, y, probes), J_y.conj().swapaxes(-1, -2) @ probes),
        ]
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_metric_law_identity_residual_zero():
    report = check_metric_law(P11, identity(P11), probed_pairs(P11, 13, 10))
    assert report.max_residual <= 1e-15


@pytest.mark.parametrize("params", CONFIGS)
def test_metric_law_random(params):
    report = check_metric_law(
        params, random_automorphism(params, 17), probed_pairs(params, 19, 15)
    )
    assert report.passed
    assert report.max_residual <= 1e-7


def test_metric_law_checks_pairs_whose_kernel_underflows():
    # at (1, 1) K = exp(<z, z'>) / pi^2 at zeta = 0: exp(-750) underflows to 0
    # at (p, q) of the first pair, and K is 1e-302 only at (a p, a q) of the
    # second; the metric never forms K, so both pairs are checked
    ps = [Point([25.0], [0.0]), Point([-143.6], [0.0])]
    qs = [Point([-30.0], [0.0]), Point.origin(P11)]
    a = Automorphism(np.eye(1), np.eye(1), np.array([5.0]))
    report = check_metric_law(P11, a, probed(P11, stack(ps), stack(qs)))
    assert report.samples == 2 and 0.0 < report.max_residual <= 1e-15 and report.details == {}
    P, Q = sample_pairs(P11, 3, 4)
    P, Q = (stack(singles(x) + [y]) for x, y in ((P, ps[0]), (Q, qs[0])))
    report = check_metric_law(P11, identity(P11), probed(P11, P, Q))
    assert report.passed and report.samples == 5


def test_metric_law_underflowing_pairs_keep_their_rows():
    # two automorphisms stacked (2, 1) against two rows of three pairs: the
    # second row's K is 1e-302 only at (b p, b q) and is checked against b, the
    # first row against a, its own automorphism
    a = random_automorphism(P11, 3)
    b = Automorphism(np.eye(1), np.eye(1), np.array([5.0]))
    ab = Automorphism(*(np.stack([x, y])[:, None] for x, y in zip(astuple(a), astuple(b))))
    P, Q = sample_pairs(P11, 5, 3)
    far = Point(np.full((3, 1), -143.6), np.zeros((3, 1)))
    o = Point(np.zeros((3, 1)), np.zeros((3, 1)))
    X = probed(P11, stack([P, far]), stack([Q, o]))[2]  # each row keeps its probes alone
    report = check_metric_law(P11, ab, (stack([P, far]), stack([Q, o]), X))
    alone = check_metric_law(P11, a, (P, Q, X[0]))
    assert report.samples == 6
    assert report.max_residual == alone.max_residual > check_metric_law(P11, b, (far, o, X[1])).max_residual > 0.0


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0)])
def test_law_checks_broadcast_a_longer_automorphism_stack_against_the_pairs(params):
    # kernel-law acts on P and Q stacked on a new first axis; with (2, 1)
    # automorphisms against 5 pairs that axis must not meet the automorphisms'
    # first axis, which would check P against a[0] and Q against a[1] alone
    a = random_automorphism(params, 3, (2, 1))
    P, Q, X = probed_pairs(params, 4, 5)
    wide = [Point(*(np.broadcast_to(x, (2,) + x.shape) for x in (p.z, p.zeta))) for p in (P, Q)]
    for check, pairs, wide_pairs in [(check_kernel_law, (P, Q), tuple(wide)),
                                     (check_metric_law, (P, Q, X), (*wide, X))]:
        report = check(params, a, pairs)
        assert report.to_dict() == check(params, a, wide_pairs).to_dict()
        assert report.samples == 10 and report.passed


def test_metric_law_fails_with_inf_where_an_image_leaves_the_domain(monkeypatch):
    # a doubled zeta multiplier sends some images out of the domain; the metric
    # there raises OutsideDomain, which the check turns into a failed report
    real = autgroup._log_scale
    monkeypatch.setattr(autgroup, "_log_scale", lambda params, a, z: real(params, a, z) + math.log(2.0))
    report = check_metric_law(P11, random_automorphism(P11, 1, (2, 1)), probed_pairs(P11, 3, (2, 5)))
    assert report.max_residual == math.inf and report.samples == 10 and not report.passed


def test_metric_law_peak_memory_at_large_order():
    # 50 pairs at (32, 4) with two probes each: the check applies T and J to
    # (50, 36, 2) blocks of 58 kB and peaks near 0.45 MB; when it formed the
    # (50, 36, 36) stacks of 1.04 MB each, its peak was 3.3 MB
    params = DomainParams(32, 4, 1.0)
    a = random_automorphism(params, 501, (10, 1))
    pairs = probed_pairs(params, 701, (10, 5))
    check_metric_law(params, a, pairs)
    tracemalloc.start()
    try:
        report = check_metric_law(params, a, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.samples == 50
    assert peak <= 1e6, peak


def test_metric_diagonal_pairs_hermitian():
    from fbh.bergman import metric

    for p in singles(sample_interior(DomainParams(2, 2, 1.0), 23, 10)):
        T = metric(DomainParams(2, 2, 1.0), p, p)
        assert np.max(np.abs(T - T.conj().T)) <= 1e-10 * max(np.max(np.abs(T)), 1.0)


# -------------------------------- cartan -----------------------------------

def test_cartan_identity():
    report = check_cartan(P11, identity(P11), sample_interior(P11, 29, 10))
    assert report.max_residual <= 1e-12
    assert set(report.details) == {"linearity_residual", "block_residual"}
    assert report.details["block_residual"] == 0.0


@pytest.mark.parametrize("params", CONFIGS)
def test_cartan_random_rotation(params):
    a = origin_fixing(params, 31)
    report = check_cartan(params, a, sample_interior(params, 37, 100))
    assert report.passed
    assert report.max_residual <= 1e-7
    assert report.details["block_residual"] == 0.0


def test_cartan_takes_no_matrix_root_and_no_origin_metric(monkeypatch):
    # l_matrix(a) is the linear map itself, so T(0, 0) and its roots never
    # enter, and no residual goes through the representative map or a kernel
    calls = []
    for module, name in ((verify, "metric"), (verify, "sqrt_pd"), (verify, "inv_sqrt_pd"),
                         (verify, "representative_map"), (bergman, "log_kernel_grad_wbar"),
                         (bergman, "log_derivatives")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    [report] = run_suite(DomainParams(3, 2, 1.0), 0, ("cartan",))
    assert calls == [] and report.passed


# --------------------------------- gram ------------------------------------

def test_gram_single_point_positive():
    report = check_gram_psd(P11, sample_interior(P11, 41, 1))
    assert report.passed
    assert abs(report.details["min_eigenvalue_normalized"] - 1.0) <= 1e-15  # the 1 x 1 Gram [1]


def test_gram_forty_points():
    report = check_gram_psd(P11, sample_interior(P11, 43, 40))
    assert report.passed
    assert report.details["min_eigenvalue_normalized"] >= -1e-10


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_gram_matches_the_normalized_kernel_gram_where_finite(params):
    X = sample_interior(params, 1301, 40)
    G = kernel(params, Point(X.z[:, None], X.zeta[:, None]), X).value
    G = (G + G.conj().T) / 2.0
    d = np.sqrt(np.diagonal(G).real)
    expected = np.linalg.eigvalsh(G / np.outer(d, d)).min()
    report = check_gram_psd(params, X)
    assert abs(report.details["min_eigenvalue_normalized"] - expected) <= 1e-13
    assert abs(report.details["log10_max_kernel"] - np.log10(np.max(np.abs(G)))) <= 1e-12


def test_gram_reports_raw_overflow_and_stays_finite():
    # (32, 16): kernel values pass 1e308, the normalized Gram does not
    params = DomainParams(32, 16, 1.0)
    report = check_gram_psd(params, sample_interior(params, 0, 40))
    assert report.passed and report.details["log10_max_kernel"] > math.log10(sys.float_info.max)
    assert all(math.isfinite(v) for v in report.details.values())


def test_gram_rejects_a_single_point():
    # a Gram matrix is taken over a points axis, which one point lacks
    with pytest.raises(DimensionMismatch):
        check_gram_psd(P11, Point([0.1], [0.1]))


GRAM_BAD_POINTS = [
    ([0.0], [1.0], OutsideDomain),  # on the boundary
    ([math.nan], [0.0], NotFinite),
    ([0.0], [math.sqrt(1 - 1e-13)], PoleProximity),  # inside, but t = |zeta|^2 is near 1
]


@pytest.mark.parametrize("z, zeta, error", GRAM_BAD_POINTS)
def test_gram_keeps_the_kernel_checks(z, zeta, error):
    X = sample_interior(P11, 5, 4)
    points = Point(np.concatenate([X.z, [z]]), np.concatenate([X.zeta, [zeta]]))
    with pytest.raises(error):
        check_gram_psd(P11, points)


def test_gram_duplicated_rows_still_psd():
    rows = [*range(10), 0, 1, 2]
    X = sample_interior(P11, 47, 10)
    report = check_gram_psd(P11, Point(X.z[rows], X.zeta[rows]))
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


def _distorted_density(params, Z):
    # weights 1 / (1 + cos(Re z) / 2) vary by a factor of 3, so a dropped or
    # misweighted term in the merge of block moments moves the result
    return sample_density_arrays(params, Z) * (1.0 + 0.5 * np.cos(Z[:, 0].real))


@pytest.mark.parametrize("distorted", [False, True])
@pytest.mark.parametrize("samples", [100_000, 131_072, 200_003])
def test_mc_streamed_moments_match_blockwise_two_pass_oracle(monkeypatch, samples, distorted):
    if distorted:
        monkeypatch.setattr(verify, "sample_density_arrays", _distorted_density)
    estimate, stderr = mc_blockwise(P11, 67, samples)
    report = mc_reproduce_constant(P11, 67, samples)
    assert report.details["estimate"] == pytest.approx(estimate, rel=1e-15, abs=0.0)
    assert report.details["stderr"] == pytest.approx(stderr, rel=0.0, abs=1e-15)
    assert distorted == (stderr > 1e-4)


@pytest.mark.parametrize("samples", [1e6, 100_000.0, True, "100000"])
def test_mc_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        mc_reproduce_constant(P11, 0, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        run_suite(P11, 0, ("mc",), samples=samples)


def test_mc_takes_numpy_integer_samples():
    report = mc_reproduce_constant(P11, 5, samples=np.int64(100_000))
    assert report.samples == 100_000 and type(report.samples) is int
    assert report.to_dict() == mc_reproduce_constant(P11, 5, samples=100_000).to_dict()


def _mc_peak(samples):
    tracemalloc.start()
    try:
        report = mc_reproduce_constant(P11, 71, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and abs(report.details["estimate"] - 1.0) <= 1e-15
    return peak


def test_mc_memory_is_bounded_by_blocks():
    # streamed moments keep no samples-long array, so the peak is one block's
    mc_reproduce_constant(P11, 71, 100_000)
    small, large = _mc_peak(100_000), _mc_peak(1_000_000)
    assert large <= 1.6e6
    assert large <= 1.1 * small


def test_kernel_batch_memory_is_bounded_per_row():
    # 2^16 rows at (64, 8) peak at 6.63 MiB, 106 B a row: one more full-size
    # complex temporary live at the peak adds 1 MiB.  Row 0 is p itself, and
    # K(p, p) overflows at these orders
    params = DomainParams(64, 8, 1.0)
    Z, Zeta = sample_interior_arrays(params, 0, 2**16)
    p = Point(Z[0], Zeta[0])
    kernel_batch(params, p, Z[1:100], Zeta[1:100])
    tracemalloc.start()
    try:
        with np.errstate(over="ignore"):
            values, t = kernel_batch(params, p, Z, Zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == t.shape == (2**16,)
    assert peak <= 6.63 * 2**20, peak


def test_run_suite_mc_zero_samples_rejected():
    with pytest.raises(ValueError):
        run_suite(P11, 0, ("mc",), samples=0)


@pytest.mark.parametrize("samples", [5, 2.0])
def test_run_suite_checks_samples_before_any_suite(monkeypatch, samples):
    calls = []
    monkeypatch.setattr(verify, "check_kernel_law", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="samples"):
        run_suite(P11, 0, ("all",), samples=samples)
    assert calls == []


@pytest.mark.parametrize("suites", ["small", "gram", None, [1, "x"], b"gram", (), set()])
def test_run_suite_rejects_suites_that_are_not_a_collection_of_names(monkeypatch, suites):
    # "all" in "small" is a substring test, "gram" iterates as letters, b"gram"
    # as ints, [1, "x"] failed in sorted() with a bare TypeError, and an empty
    # collection checked nothing and read as passed
    calls = []
    for name in ("check_kernel_law", "check_gram_psd"):
        monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="suites must be a collection"):
        run_suite(P11, 0, suites)
    assert calls == []


@pytest.mark.parametrize(
    "params, suites",
    [(P11, ("gram", "boundary")), (DomainParams(3, 2, 1.0), ("all",)), (P11, ("kernel-law",))],
)
def test_run_suite_rejects_samples_without_mc(params, suites):
    with pytest.raises(ValueError, match="Monte-Carlo"):
        run_suite(params, 0, suites, samples=100_000)


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
        params, random_automorphism(params, 79), sample_boundary(params, 83, 200)
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


def test_run_suite_takes_numpy_int_orders():
    # they are stored as int; a float order is refused by DomainParams
    params = DomainParams(np.int64(3), np.int64(2), 1.0)
    got = run_suite(params, 0, ("kernel-law",))
    assert got[0].passed
    assert [r.to_dict() for r in got] == [r.to_dict() for r in run_suite(DomainParams(3, 2, 1.0), 0, ("kernel-law",))]


def test_run_suite_tolerance_override_forces_failure():
    # run_suite rejects a negative override; 0 fails a residual of rounding size
    assert run_suite(P11, 3, suites=("kernel-law",))[0].passed
    [report] = run_suite(P11, 3, suites=("kernel-law",), tolerances={"kernel-law": 0.0})
    assert report.tolerance == 0.0 and 0.0 < report.max_residual and not report.passed


ORACLE_PARAMS = [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0), DomainParams(2, 64, 1.0)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_run_suite_matches_the_per_part_oracle(params, seed):
    # kernel-law overflows at (2, 64) (ROADMAP open item 2): the comparison
    # wants the inf and NaN it produces, not a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        reports = run_suite(params, seed, ("all",))
        expected = run_suite_per_part(params, seed, [r.name for r in reports])
    assert [r.name for r in reports] == [r.name for r in expected]
    for got, ref in zip(reports, expected):
        same = ("name", "samples", "tolerance", "passed", "seed", "residual_kind")
        assert [getattr(got, k) for k in same] == [getattr(ref, k) for k in same]
        assert got.details.keys() == ref.details.keys()
        pairs = [(got.max_residual, ref.max_residual)]
        pairs += [(got.details[k], ref.details[k]) for k in ref.details]
        for x, y in pairs:
            if math.isfinite(y):
                assert abs(x - y) <= 2e-13, (got.name, x, y)
            else:  # NaN or inf exactly where the oracle has them
                assert x == y or math.isnan(x) and math.isnan(y), (got.name, x, y)
    mc = [r for r in reports if r.name == "mc"]
    assert [r.to_dict() for r in mc] == [r.to_dict() for r in expected if r.name == "mc"]


def test_run_suite_makes_one_check_call_per_suite(monkeypatch):
    # the call budget of one (32, 4) op: a per-part loop would call each check
    # 10 times, draw an automorphism 40 times and the samplers 41 times; one
    # automorphism stack and one pair stack serve every suite, each suite
    # reading its own slice of the pairs
    calls, outs, streams = {}, {}, []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            outs.setdefault(name, []).append(fn(*args, **kwargs))
            return outs[name][-1]

        return wrapped

    def default_rng(seed=None):
        streams.append(seed)
        return real_default_rng(seed)

    real_default_rng = np.random.default_rng
    checks = [n for n in dir(verify) if n.startswith("check_")]
    samplers = ["sample_pairs", "sample_interior", "sample_interior_arrays", "sample_boundary"]
    for name in checks + samplers + ["random_automorphism", "_rotation"]:
        monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
    monkeypatch.setattr(Automorphism, "__post_init__", spy("validate", Automorphism.__post_init__))
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    params = DomainParams(32, 4, 1.0)
    run_suite(params, 5, ("all",))
    assert {name: len(calls.get(name, ())) for name in checks} == dict.fromkeys(checks, 1)
    assert len(calls["validate"]) == 1  # the stack; its rotation part for cartan shares its blocks
    # the automorphism and pair stacks are built with the first suite that
    # takes them, and metric-law's probe stream with metric-law; every draw
    # continues its stream
    fresh = [s for s in streams if not isinstance(s, np.random.Generator)]
    assert fresh == [[5, verify.AUT_KEY], [5, verify.PAIR_KEY], [5, verify._SUITE_TABLE["metric-law"][-1]]]
    assert [args[2] for args in calls["random_automorphism"]] == [(10, 1)]
    [[stack]] = calls["_rotation"]
    for check in ("check_kernel_law", "check_metric_law", "check_boundary_invariance"):
        assert calls[check][0][1] is stack
    assert calls["check_cartan"][0][1] is not stack and not np.any(calls["check_cartan"][0][1].v)
    # one pair draw, one interior draw under it, and no other sampler call
    assert {name: len(calls.get(name, ())) for name in samplers} == dict(zip(samplers, [1, 0, 1, 0]))
    assert [args[2] for args in calls["sample_pairs"]] == [(10, 10)]
    assert calls["sample_pairs"][0][1] is not calls["random_automorphism"][0][1]
    [(P, Q)] = outs["sample_pairs"]
    # each suite's slice: kernel-law every pair, metric-law the first 5 of each
    # part with probes from its own stream, cartan the P points, gram the first
    # 40 P points as one Gram, boundary P and Q joined and projected
    assert calls["check_kernel_law"][0][2] == (P, Q)
    mP, mQ, X = calls["check_metric_law"][0][2]
    for got, ref in ((mP, P), (mQ, Q)):
        for x, y in zip(astuple(got), astuple(ref)):
            assert x.tobytes() == y[:, :5].tobytes()
    rng = real_default_rng([5, verify._SUITE_TABLE["metric-law"][-1]])
    shape = (10, 5, params.dim, verify.METRIC_PROBES)
    assert X.tobytes() == ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)).tobytes()
    assert calls["check_cartan"][0][2] is P
    gram = calls["check_gram_psd"][0][1]
    for x, y in zip(astuple(gram), astuple(P)):
        assert x.tobytes() == y[:4].reshape(1, 40, -1).tobytes()
    boundary = calls["check_boundary_invariance"][0][2]
    assert boundary.z.tobytes() == np.concatenate([P.z, Q.z], axis=1).tobytes()
    zeta = np.concatenate([P.zeta, Q.zeta], axis=1)
    direction = boundary.zeta / np.linalg.norm(boundary.zeta, axis=-1, keepdims=True)
    assert boundary.zeta.shape == (10, 20, params.m)
    assert np.max(np.abs(direction - zeta / np.linalg.norm(zeta, axis=-1, keepdims=True))) <= 1e-15


REPLAY_PARAMS = [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("params", REPLAY_PARAMS)
def test_each_suite_alone_replays_its_report_in_the_full_run(params, seed):
    # the automorphism stack comes from a stream of its own, drawn when the
    # first suite that takes it runs: neither the suites run before a suite
    # nor their order changes its report
    mc = {"samples": 100_000} if params == P11 else {}
    full = run_suite(params, seed, ("all",), **mc)
    names = [r.name for r in full]
    assert names == list(SUITE_NAMES if mc else [s for s in SUITE_NAMES if s != "mc"])
    for report in full:
        alone = run_suite(params, seed, (report.name,), **(mc if report.name == "mc" else {}))
        assert [r.to_dict() for r in alone] == [report.to_dict()]
    backwards = run_suite(params, seed, names[::-1], **mc)
    assert [r.to_dict() for r in backwards] == [r.to_dict() for r in full[::-1]]


@pytest.mark.parametrize("suite", ["gram", "mc"])
def test_a_run_without_automorphism_suites_draws_no_automorphism(suite, monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"a {suite} run drew an automorphism")

    for name in ("random_automorphism", "_rotation"):
        monkeypatch.setattr(verify, name, forbidden)
    monkeypatch.setattr(Automorphism, "__post_init__", forbidden)
    [report] = run_suite(P11, 0, (suite,), **({"samples": 100_000} if suite == "mc" else {}))
    assert report.name == suite and report.passed


def test_an_mc_run_draws_neither_stack(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an mc run drew a shared stack")

    for name in ("random_automorphism", "_rotation", "sample_pairs"):
        monkeypatch.setattr(verify, name, forbidden)
    monkeypatch.setattr(Automorphism, "__post_init__", forbidden)
    [report] = run_suite(P11, 0, ("mc",), samples=100_000)
    assert report.name == "mc" and report.passed


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 0.7), DomainParams(32, 4, 1.0), DomainParams(64, 64, 1.0)])
def test_boundary_inputs_lie_on_the_boundary_in_unit_directions(params):
    # boundary's points are the pair stack's, projected along their zeta
    # directions: on the boundary to rounding, |zeta| the fibre radius
    P, Q = sample_pairs(params, 3, (10, 10))
    B = verify._boundary_inputs(params, P, Q, None)
    radius2 = np.exp(-params.mu * np.sum(np.abs(B.z) ** 2, axis=-1))
    assert B.z.shape == (10, 20, params.n) and B.zeta.shape == (10, 20, params.m)
    assert np.max(np.abs(defect(params, B)) / radius2) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(B.zeta, axis=-1) / np.sqrt(radius2) - 1.0)) <= 1e-12


def _drawn_rows(monkeypatch, params, seed):
    """Every nonzero row (along the last axis) of every draw that
    run_suite(params, seed, ("all",)) makes, as bytes."""
    rows = set()

    def record(out):
        if isinstance(out, (Automorphism, Point)):
            out = astuple(out)
        if isinstance(out, tuple):
            return [record(x) for x in out]
        rows.update(r.tobytes() for r in out.reshape(-1, out.shape[-1]) if r.any())

    def spy(fn):
        def wrapped(*args):
            out = fn(*args)
            record(out)
            return out

        return wrapped

    with monkeypatch.context() as m:
        for name in ("random_automorphism", "_rotation", "sample_pairs", "sample_interior",
                     "sample_interior_arrays", "sample_boundary"):
            m.setattr(verify, name, spy(getattr(verify, name)))
        run_suite(params, seed, ("all",), samples=100_000 if params == P11 else None)
    return rows


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0)])
def test_run_suite_at_neighbouring_seeds_shares_no_draw(params, monkeypatch):
    # sub-seeds seed + offset + j made run_suite(s) and run_suite(s + 1) share
    # 9 of the 10 draws of every multi-part suite
    rows = _drawn_rows(monkeypatch, params, 41)
    shared = rows & _drawn_rows(monkeypatch, params, 42)
    assert rows and not shared, f"{len(shared)} of {len(rows)} rows shared"


# Seeds that run_suite and a direct mc call reject with the same ValueError
NEGATIVE_SEEDS = [-1, -102]
NON_INTEGER_SEEDS = [True, np.bool_(True), 2.0, "3", 1.5, "abc"]


@pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
def test_run_suite_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}"):
        run_suite(P11, seed, ("gram",))


@pytest.mark.parametrize("seed", NON_INTEGER_SEEDS)
def test_run_suite_rejects_a_non_integer_seed(seed):
    # True used to run as seed 1
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        run_suite(P11, seed, ("gram",))


@pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
def test_mc_rejects_a_negative_seed(seed):
    # numpy's own "expected non-negative integer" used to come out of the first draw
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}"):
        mc_reproduce_constant(P11, seed, samples=100_000)


@pytest.mark.parametrize("seed", NON_INTEGER_SEEDS)
def test_mc_rejects_a_non_integer_seed(seed):
    # True used to draw as seed 1, and the others raised numpy's bare TypeError
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        mc_reproduce_constant(P11, seed, samples=100_000)


def test_report_seeds_are_written_as_json():
    # an np.int64 seed used to be stored as given, and a Generator as itself
    reports = run_suite(P11, np.int64(5), ("gram",)) + [
        mc_reproduce_constant(P11, np.int64(3), samples=100_000),
        mc_reproduce_constant(P11, np.random.default_rng(3), samples=100_000),
    ]
    assert [json.loads(json.dumps(r.to_dict()))["seed"] for r in reports] == [5, 3, None]
    assert [type(r.seed) for r in reports] == [int, int, type(None)]


@pytest.mark.parametrize("seed", [True, np.bool_(True)])
def test_report_stores_no_seed_for_a_bool(seed):
    # True used to be stored as seed 1, while np.bool_(True) gave None.  mc is
    # the one check that keeps its seed, and it rejects a bool as run_suite does
    assert verify._report("mc", 0.0, 0.02, 1, "absolute", seed).seed is None
    if seed is True:
        with pytest.raises(ValueError, match="^seed must be an integer, got True"):
            mc_reproduce_constant(P11, seed, samples=100_000)


def test_checks_take_no_seed_and_report_none():
    # the seed only labelled a report, and run_suite overwrote that label
    checks = (check_kernel_law, check_metric_law, check_cartan, check_gram_psd, check_boundary_invariance)
    assert not [c.__name__ for c in checks if "seed" in inspect.signature(c).parameters]
    a, (P, Q, X) = random_automorphism(P11, 1), probed_pairs(P11, 0, 5)
    reports = [
        check_kernel_law(P11, a, (P, Q)),
        check_metric_law(P11, a, (P, Q, X)),
        check_cartan(P11, origin_fixing(P11, 2), sample_interior(P11, 3, 5)),
        check_gram_psd(P11, sample_interior(P11, 4, 5)),
        check_boundary_invariance(P11, a, sample_boundary(P11, 5, 5)),
    ]
    assert [r.seed for r in reports] == [None] * 5
    assert {r.seed for r in run_suite(DomainParams(3, 2, 1.0), 7, ("all",))} == {7}


# One table of tolerance overrides that must be rejected before any suite runs:
# (run_suite value, --tol text).  The CLI turns a text into a float and no more,
# so run_suite rejects what float() reads (nan, inf, -inf, -1).
BAD_TOLERANCES = [
    (math.nan, "nan"),
    (math.inf, "inf"),  # a check that cannot fail
    (10**400, "1e400"),  # no float
    (-math.inf, "-inf"),
    (-1, "-1"),
    (True, "True"),  # used to run as 1.0
    ("1e-3", "'1e-3'"),
    ([1e-3], "[1e-3]"),  # used to raise a bare TypeError
]


def _no_suite_runs(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "check_boundary_invariance", boom)


@pytest.mark.parametrize("value, text", BAD_TOLERANCES)
def test_run_suite_rejects_a_bad_tolerance_before_any_suite_runs(value, text, monkeypatch):
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError, match="^tolerance for boundary must be a finite real number >= 0"):
        run_suite(P11, 0, ("boundary",), tolerances={"boundary": value})


@pytest.mark.parametrize("value, text", BAD_TOLERANCES)
def test_verify_tol_rejects_a_bad_tolerance_before_any_suite_runs(value, text, monkeypatch, capsys):
    _no_suite_runs(monkeypatch)
    assert main(["verify", "--suite", "boundary", "--params", "1,1,1.0", "--tol", f"boundary={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("tolerances", [["gram"], 5, "gram", [("boundary", 1e-3)]])
def test_run_suite_rejects_tolerances_that_are_no_mapping(tolerances, monkeypatch):
    # ["gram"] used to raise a bare AttributeError, 5 a TypeError, and "gram"
    # an unknown-suites error naming its letters
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError, match="^tolerances must be a mapping of suite names to overrides"):
        run_suite(P11, 0, ("boundary",), tolerances=tolerances)


@pytest.mark.parametrize("value", [0, 1e-9, np.float64(1e-3), np.float32(1e-3)])
def test_run_suite_passes_a_good_tolerance_through(value):
    [report] = run_suite(P11, 0, ("boundary",), tolerances={"boundary": value})
    assert report.tolerance == value and type(report.tolerance) is float


@pytest.mark.parametrize("seed", [1684, 31923, 44643, 47860])
def test_run_suite_passes_where_the_gram_overflowed(seed):
    # at these seeds the (32, 4) Gram has kernel values past 1e308: the first
    # four such seeds since the Gram reads the shared pair stack
    reports = run_suite(DomainParams(32, 4, 1.0), seed, ("all",))
    assert all(r.passed for r in reports), [r.to_dict() for r in reports if not r.passed]
    [gram] = [r for r in reports if r.name == "gram"]
    assert gram.details["log10_max_kernel"] > math.log10(sys.float_info.max)


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(P11, 0, suites=("nonsense",))


@pytest.mark.parametrize("name", ["boundry", "mc", "gram"])
def test_run_suite_rejects_a_tolerance_it_would_drop(name):
    # a misspelt suite, mc, which derives its own tolerance, or a suite the run leaves out
    with pytest.raises(ValueError, match=name):
        run_suite(P11, 0, ("boundary",), tolerances={name: 0.0})


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


DECLARED_GRID = [(n, m) for n in (1, 8, 32, 64) for m in (1, 8, 32, 64)]


# K and s(z)^m leave the float range at the large orders; kernel-law compares
# the law's two sides in logs, so it forms neither
@pytest.mark.parametrize("nm", DECLARED_GRID)
def test_run_suite_over_the_declared_range(nm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(3):
            reports = run_suite(DomainParams(nm[0], nm[1], 1.0), seed, ("all",))
            assert all(r.passed for r in reports), [r.to_dict() for r in reports if not r.passed]


@pytest.mark.parametrize("nm", DECLARED_GRID)
def test_log_jacobian_det_is_finite_on_every_grid_stack(nm):
    params = DomainParams(nm[0], nm[1], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(3):
            a = random_automorphism(params, np.random.default_rng([seed, verify.AUT_KEY]), (10, 1))
            pairs = sample_pairs(params, np.random.default_rng([seed, verify.PAIR_KEY]), (10, 10))
            for p in pairs:
                assert np.all(np.isfinite(_log_jacobian_det(params, a, p)))


def test_jacobian_det_raises_where_it_leaves_the_float_range():
    # s(z)^m underflows at every shared P point of seed 0 at (64, 64); det J
    # is never 0, so it raises there, and its log stays finite
    params = DomainParams(64, 64, 1.0)
    a = random_automorphism(params, np.random.default_rng([0, verify.AUT_KEY]), (10, 1))
    P, _ = sample_pairs(params, np.random.default_rng([0, verify.PAIR_KEY]), (10, 10))
    assert np.all(np.isfinite(_log_jacobian_det(params, a, P)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite, match="at 100 of 100 points"):
            jacobian_det(params, a, P)


# v is drawn with variance 1/mu per coordinate, so mu ||v||^2 and the reach of
# s(z) do not grow with mu and the images stay on the domain's length scale
@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("nm", [(1, 1), (3, 2), (32, 4)])
def test_run_suite_passes_at_small_and_large_mu(nm, mu):
    params = DomainParams(nm[0], nm[1], mu)
    suites = [s for s in SUITE_NAMES if s != "mc"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(10):
            reports = run_suite(params, seed, suites)
            assert all(r.passed for r in reports), [r.to_dict() for r in reports if not r.passed]


@pytest.mark.parametrize("nm", [(2, 64), (1, 64)])
def test_run_suite_metric_law_and_cartan_at_max_order(nm):
    # the metric's log-derivatives come from the order-m numerator alone, so
    # m = MAX_ORDER needs no numerator of order m + 1 or m + 2
    reports = run_suite(DomainParams(nm[0], nm[1], 1.0), 0, suites=("metric-law", "cartan"))
    assert [r.name for r in reports] == ["metric-law", "cartan"]
    assert all(r.passed for r in reports)


# exp(m mu <z, z'>) over- or underflows on some of these pairs at (32, 64) and
# (64, 64); the metric path never forms it, so no KernelZero and no warning
@pytest.mark.parametrize("nm", DECLARED_GRID)
def test_metric_and_gradient_are_finite_over_the_declared_range(nm):
    params = DomainParams(nm[0], nm[1], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(3):
            P, Q = sample_pairs(params, seed, 20)
            for fn in (metric, log_kernel_grad_wbar):
                assert np.all(np.isfinite(fn(params, P, Q)))


@pytest.mark.parametrize("nm", DECLARED_GRID)
def test_metric_law_and_cartan_pass_over_the_declared_range(nm):
    params = DomainParams(nm[0], nm[1], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(3):
            reports = run_suite(params, seed, ("metric-law", "cartan"))
            assert all(r.passed for r in reports), [r.to_dict() for r in reports]


# ------------------------- NaN fails closed --------------------------------

@pytest.mark.parametrize("part", [0, 3, 9])
def test_nan_in_one_part_fails_the_whole_suite(part, monkeypatch):
    # boundary runs 10 parts of 20 points in one call: one NaN defect, in the
    # first, a middle or the last part, makes the suite's report NaN
    real = verify.defect

    def one_nan(params, p):
        d = real(params, p).copy()
        d[part, 7] = math.nan
        return d

    monkeypatch.setattr(verify, "defect", one_nan)
    [report] = run_suite(P11, 0, suites=("boundary",))
    assert math.isnan(report.max_residual) and report.samples == 200
    assert not report.passed


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
    # J x with the sign of its rank-1 term -mu s(z) (U' zeta) (v* U x_z) flipped
    real = verify._jacobian_times

    def flipped(params, a, p, X):
        X_z = X.copy()
        X_z[..., params.n :, :] = 0.0
        rank1 = real(params, a, p, X_z)
        rank1[..., : params.n, :] = 0.0
        return real(params, a, p, X) - 2.0 * rank1

    monkeypatch.setattr(verify, "_jacobian_times", flipped)
    assert _failed_suites(params, ("metric-law",)) == {"metric-law"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_jacobian_det_without_scale_power(params, monkeypatch):
    # log det J without its m log s(z) term
    def no_scale_power(params, a, p):
        (sign_U, log_U), (sign_Up, log_Up) = np.linalg.slogdet(a.U), np.linalg.slogdet(a.Uprime)
        return (log_U + log_Up + 1j * np.angle(sign_U * sign_Up)) * np.ones(p.z.shape[:-1])

    monkeypatch.setattr(verify, "_log_jacobian_det", no_scale_power)
    assert _failed_suites(params, ("kernel-law",)) == {"kernel-law"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_scale_factor_without_norm_term(params, monkeypatch):
    def no_norm_term(params, a, z):
        return -params.mu * np.einsum("...i,...ij,...j->...", a.v.conj(), a.U, z)

    monkeypatch.setattr(autgroup, "_log_scale", no_norm_term)
    suites = ("kernel-law", "metric-law", "boundary")
    assert _failed_suites(params, suites) == set(suites)


def _scaled_metric_parts(alpha_factor, C_factors):
    """bergman._metric_parts with alpha and the entries of C scaled."""
    real = bergman._metric_parts

    def scaled(params, p, q):
        alpha, G, E, C = real(params, p, q)
        return alpha * alpha_factor, G, E, C * np.asarray(C_factors)

    return scaled


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_metric_z_block_scaled(params, monkeypatch):
    # the z block alpha I_n + mu^2 t W z zbar' times 1 + 1e-4.  alpha alone
    # scaled stays green: it depends on t only, which every automorphism
    # keeps, and J(a,q)^H diag(I_n, 0) J(a,p) = diag(I_n, 0)
    f = 1.0 + 1e-4
    monkeypatch.setattr(bergman, "_metric_parts", _scaled_metric_parts(f, [[f, 1.0], [1.0, 1.0]]))
    assert _failed_suites(params, ("metric-law",)) == {"metric-law"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_mutation_metric_off_diagonal_scaled(params, monkeypatch):
    # the off-diagonal blocks' coefficient mu E W times 1 + 1e-4
    f = 1.0 + 1e-4
    monkeypatch.setattr(bergman, "_metric_parts", _scaled_metric_parts(1.0, [[1.0, f], [f, 1.0]]))
    assert _failed_suites(params, ("metric-law",)) == {"metric-law"}


def test_mutation_scale_factor_perturbed_at_large_order(monkeypatch):
    # the boundary defect shrinks like exp(-mu ||z||^2); only a relative
    # residual sees a 1e-9 error in the zeta multiplier at (32, 4)
    real = autgroup._log_scale
    monkeypatch.setattr(autgroup, "_log_scale", lambda params, a, z: real(params, a, z) + math.log1p(1e-9))
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


@pytest.mark.parametrize("params", [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_mutation_action_by_the_transposed_z_rotation(params, monkeypatch):
    # apply and the Jacobian behind l_matrix both act with U^T: a consistent
    # but wrong action, which the linearity residual passes and only the
    # block residual sees (at n = 1, U^T = U, so (1, 1) cannot show it)
    def transposed(fn):
        return lambda params, a, p: fn(params, Automorphism(a.U.swapaxes(-1, -2), a.Uprime, a.v), p)

    monkeypatch.setattr(verify, "apply", transposed(verify.apply))
    monkeypatch.setattr(bergman, "jacobian", transposed(bergman.jacobian))
    [report] = run_suite(params, 0, suites=("cartan",))
    assert not report.passed and report.max_residual == report.details["block_residual"] > 0.1
    assert report.details["linearity_residual"] <= 1e-7


@pytest.mark.parametrize("params", [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_mutation_action_zeta_part_scaled(params, monkeypatch):
    # at (32, 4) zeta is about e^-16 beside z, so only a linearity residual
    # taken block by block sees this
    real = verify.apply

    def scaled(params, a, p):
        image = real(params, a, p)
        return Point(image.z, image.zeta * (1.0 + 1e-6))

    monkeypatch.setattr(verify, "apply", scaled)
    assert _failed_suites(params, ("cartan",)) == {"cartan"}


@pytest.mark.parametrize("params", MUTATION_CONFIGS)
def test_unmutated_suites_pass(params):
    assert not _failed_suites(params, ("kernel-law", "metric-law", "boundary"))
