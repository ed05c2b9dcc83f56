"""Tests for domain parameters, membership, projection and sampling."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fbh.bergman import kernel
from fbh.domain import (
    DomainParams,
    Point,
    check_point,
    defect,
    from_pairs,
    project_to_boundary,
    sample_boundary,
    sample_density,
    sample_density_arrays,
    sample_interior,
    sample_interior_arrays,
)
from fbh.errors import DimensionMismatch, NotFinite, NotUnit

from oracles import assert_rows_match, density_reference, sample_interior_reference, singles, stack

P11 = DomainParams(1, 1, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        DomainParams(0, 1, 1.0)
    with pytest.raises(ValueError):
        DomainParams(1, 0, 1.0)
    with pytest.raises(ValueError):
        DomainParams(1, 1, 0.0)
    # mu must be finite, and so must 1/mu and mu**n
    for n, mu in [(1, math.inf), (1, math.nan), (1, 1e-320), (2, 1e308), (4, 1e100)]:
        with pytest.raises(ValueError, match="mu"):
            DomainParams(n, 1, mu)
    # the kernel prefactor mu**n / pi**(n+m) must not underflow: at (8, 1, 1e-40)
    # every kernel value was 0.0, which the laws read as agreement
    for n, mu in [(8, 1e-40), (64, 1e-6)]:
        with pytest.raises(ValueError, match="mu"):
            DomainParams(n, 1, mu)
    assert DomainParams(2, 3, 0.5).dim == 5
    assert DomainParams(64, 64, 1.0).mu == 1.0 and DomainParams(1, 1, 1e-300).mu == 1e-300


@pytest.mark.parametrize("n, m", [(2.5, 1), (2, 1.0), (2, True), (True, 1), (np.float64(2), 1), ("2", 1)])
def test_params_orders_must_be_integers(n, m):
    # a float or bool order used to pass and crash in the samplers and suites
    with pytest.raises(ValueError, match=r"^[nm] must be an integer, got "):
        DomainParams(n, m, 1.0)


@pytest.mark.parametrize("mu", ["1.0", np.array(1.0), 1 + 0j, None, True, np.bool_(True)])
def test_params_mu_must_be_a_real_number(mu):
    # a string or 0-d array used to be stored and crash later in kernel or in
    # hash(); a complex number or None raised a bare TypeError from float()
    with pytest.raises(ValueError, match=r"^mu must be a real number, got "):
        DomainParams(1, 1, mu)


@pytest.mark.parametrize("mu", [Fraction(1, 2), np.float32(0.5), np.int64(2), 2])
def test_params_store_mu_as_float(mu):
    # a Fraction used to be stored as given and crash the kernel
    params = DomainParams(1, 1, mu)
    assert type(params.mu) is float and params == DomainParams(1, 1, float(mu))
    origin = Point.origin(params)
    assert kernel(params, origin, origin).value == pytest.approx(params.mu / math.pi**2)


def test_params_store_numpy_int_orders_as_int():
    params = DomainParams(np.int64(3), np.uint8(2), 1.0)
    assert type(params.n) is int and type(params.m) is int
    assert params == DomainParams(3, 2, 1.0) and hash(params) == hash(DomainParams(3, 2, 1.0))
    X = sample_interior(params, 0, 5)
    assert X.z.shape == (5, 3) and X.zeta.shape == (5, 2)


def test_point_arrays_are_readonly():
    p = Point([1.0], [0.5j])
    with pytest.raises(ValueError):
        p.z[0] = 2.0
    assert p.coords().tolist() == [1.0, 0.5j]


def test_defect_values():
    assert defect(P11, Point([0.0], [0.0])) == pytest.approx(1.0)
    assert defect(P11, Point([0.0], [1.0])) == pytest.approx(0.0)
    # any zeta = 0 slice point is interior, and defect says so while
    # exp(-mu ||z||^2) is a nonzero float (mu ||z||^2 below about 745)
    for z in (0.0, 3.0, 10.0, 7.0 + 5.0j):
        assert defect(P11, Point([z], [0.0])) > 0.0
    # past that defect reads 0.0, yet the interior check, which compares in
    # logs, accepts the point
    p = Point([math.sqrt(746.0)], [0.0])
    assert defect(P11, p) == 0.0
    assert kernel(P11, p, Point.origin(P11)).value > 0.0


def test_defect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        defect(P11, Point([1.0, 2.0], [0.0]))


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_defect_and_density_broadcast_over_stacks(params):
    X = sample_interior(params, 3, 10)
    pts = singles(X)
    check_point(params, X)
    assert_rows_match(defect(params, X), [defect(params, p) for p in pts])
    assert_rows_match(sample_density(params, X), [sample_density(params, p) for p in pts])
    with pytest.raises(DimensionMismatch):
        check_point(DomainParams(params.n + 1, params.m, 1.0), X)


def test_point_stack_leading_shapes_must_match():
    with pytest.raises(DimensionMismatch):
        Point(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        Point(np.zeros((3, 2)), np.zeros(1))
    assert Point(np.zeros((4, 3, 2)), np.zeros((4, 3, 1))).coords().shape == (4, 3, 3)


def test_defect_decreasing_in_zeta_norm():
    z = np.array([0.4 + 0.2j])
    values = [defect(P11, Point(z, [r])) for r in (0.0, 0.2, 0.5, 0.8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_project_to_boundary_at_origin():
    p = project_to_boundary(P11, np.array([0.0]), np.array([1.0]))
    assert p.zeta[0] == pytest.approx(1.0)
    assert abs(defect(P11, p)) <= 1e-14


def test_project_to_boundary_radius():
    p = project_to_boundary(P11, np.array([1.0]), np.array([1.0]))
    assert p.zeta[0] == pytest.approx(math.exp(-0.5))
    assert abs(defect(P11, p)) <= 1e-14


def test_project_to_boundary_rejects_non_unit():
    with pytest.raises(NotUnit):
        project_to_boundary(P11, np.array([0.0]), np.array([0.9]))


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_project_to_boundary_broadcasts_over_stacks(params):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((6, params.n)) + 1j * rng.standard_normal((6, params.n))
    d = rng.standard_normal((6, params.m)) + 1j * rng.standard_normal((6, params.m))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    B = project_to_boundary(params, z, d)
    singles = [project_to_boundary(params, z[i], d[i]) for i in range(6)]
    assert_rows_match(B.z, [p.z for p in singles])
    assert_rows_match(B.zeta, [p.zeta for p in singles])


@pytest.mark.parametrize("bad", [0.9, math.nan])
def test_project_to_boundary_rejects_one_bad_row(bad):
    d = np.ones((4, 1), dtype=complex)
    d[2] = bad
    with pytest.raises(NotUnit):
        project_to_boundary(P11, np.zeros((4, 1)), d)


def test_project_to_boundary_leading_shapes_must_match():
    with pytest.raises(DimensionMismatch):
        project_to_boundary(P11, np.zeros((3, 1)), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        project_to_boundary(P11, np.zeros((3, 1)), np.ones(1))
    with pytest.raises(DimensionMismatch):
        project_to_boundary(P11, np.zeros((3, 2)), np.ones((3, 1)))


def test_project_then_shrink_is_interior():
    params = DomainParams(2, 2, 0.7)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    d /= np.linalg.norm(d)
    p = project_to_boundary(params, z, d)
    for s in (0.1, 0.5, 0.99):
        assert defect(params, Point(p.z, s * p.zeta)) > 0.0


@pytest.mark.parametrize("params", [P11, DomainParams(2, 2, 0.5), DomainParams(1, 3, 2.0)])
def test_sample_interior_membership_and_determinism(params):
    pts = singles(sample_interior(params, 42, 200))
    assert len(pts) == 200
    assert all(defect(params, p) > 0.0 for p in pts)
    again = singles(sample_interior(params, 42, 200))
    for p, q in zip(pts, again):
        assert np.array_equal(p.z, q.z) and np.array_equal(p.zeta, q.zeta)


def test_sample_interior_fiber_moment():
    # uniform in the fiber ball means E(||zeta||^2 e^(mu ||z||^2)) = 1/2
    pts = singles(sample_interior(P11, 11, 1000))
    vals = [
        float(np.vdot(p.zeta, p.zeta).real) * math.exp(float(np.vdot(p.z, p.z).real))
        for p in pts
    ]
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_sample_density_matches_closed_form():
    params = DomainParams(2, 1, 1.5)
    p = singles(sample_interior(params, 1, 1))[0]
    z2 = float(np.vdot(p.z, p.z).real)
    expected = (
        (params.mu / math.pi) ** 2
        * math.exp(-params.mu * z2)
        / (math.pi * math.exp(-params.mu * z2))
    )
    assert sample_density(params, p) == pytest.approx(expected)


@pytest.mark.parametrize(
    "params, z2", [(P11, 900.0), (DomainParams(1, 2, 1.0), 400.0), (DomainParams(3, 2, 0.5), 1000.0)]
)
def test_sample_density_is_finite_far_out(params, z2):
    # exp(-mu z2) and exp(-m mu z2) underflow here, so their quotient would be
    # nan or inf; a RuntimeWarning fails the test (pytest filterwarnings)
    Z = np.zeros((2, params.n), complex)
    Z[:, 0] = [math.sqrt(z2), 1j * math.sqrt(z2)]
    log_closed = (
        params.n * math.log(params.mu / math.pi) - params.mu * z2
        + math.log(math.factorial(params.m)) - params.m * math.log(math.pi) + params.m * params.mu * z2
    )
    density = sample_density_arrays(params, Z)
    assert np.all(np.isfinite(density))
    assert np.log(density) == pytest.approx([log_closed] * 2, rel=1e-14)


@pytest.mark.parametrize("n, m, overflowing", [(64, 64, 1000), (32, 32, 962), (8, 64, 293)])
def test_sample_density_raises_not_finite_past_the_float_range(n, m, overflowing):
    # sample_density used to return inf with a RuntimeWarning at these ordinary interior points
    params = DomainParams(n, m, 1.0)
    X = sample_interior(params, 0, 1000)
    with np.errstate(over="ignore"):
        finite = np.isfinite(sample_density_arrays(params, X.z))
    assert np.sum(~finite) == overflowing
    with pytest.raises(NotFinite, match=f"at {overflowing} of 1000 points"):
        sample_density(params, X)
    if finite.any():  # the rows in range still give their values, as the unchecked array path does
        Y = Point(X.z[finite], X.zeta[finite])
        assert np.array_equal(sample_density(params, Y), sample_density_arrays(params, Y.z))


def test_sample_interior_arrays_shapes():
    Z, Zeta = sample_interior_arrays(DomainParams(3, 2, 1.0), 5, 17)
    assert Z.shape == (17, 3) and Zeta.shape == (17, 2)
    with pytest.raises(ValueError):
        sample_interior_arrays(P11, 0, 0)


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 0.7)])
def test_sample_interior_arrays_int_seed_equals_generator(params):
    # a Generator is drawn from as given: an int seed is default_rng(seed)
    for a, b in zip(
        sample_interior_arrays(params, 11, 33),
        sample_interior_arrays(params, np.random.default_rng(11), 33),
        strict=True,
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "params",
    [P11, DomainParams(3, 2, 0.7), DomainParams(2, 4, 0.7), DomainParams(32, 4, 1.0),
     DomainParams(64, 64, 1.0)],
    ids=["1,1", "3,2", "2,4", "32,4", "64,64"],
)
@pytest.mark.parametrize("seed", [19, [19, 7], "generator"], ids=["int", "sequence", "generator"])
@pytest.mark.parametrize("count", [7, (3, 5), 2**13 + 1], ids=["7", "3x5", "8193"])
def test_sampler_and_density_equal_the_reference_bit_for_bit(params, seed, count):
    # pins the draws, their order and the rounding of the in-place fibre scale
    def stream():
        return np.random.default_rng([19, 3]) if seed == "generator" else seed

    rng, ref_rng = stream(), stream()
    Z, Zeta = sample_interior_arrays(params, rng, count)
    Z_ref, Zeta_ref = sample_interior_reference(params, ref_rng, count)
    assert np.array_equal(Z, Z_ref) and np.array_equal(Zeta, Zeta_ref)
    if seed == "generator":  # the stream continues from the same state
        assert rng.random() == ref_rng.random()
    with np.errstate(over="ignore"):  # at (64,64) the density itself passes the float range
        assert np.array_equal(sample_density_arrays(params, Z), density_reference(params, Z))


def test_sample_boundary_points_lie_on_boundary():
    params = DomainParams(2, 2, 2.0)
    for p in singles(sample_boundary(params, 9, 50)):
        assert abs(defect(params, p)) <= 1e-14


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_sample_boundary_shorter_draw_is_prefix(params):
    longer = singles(sample_boundary(params, 5, 20))
    for k in (1, 7):
        shorter = singles(sample_boundary(params, 5, k))
        for p, q in zip(shorter, longer[:k], strict=True):
            assert np.array_equal(p.z, q.z) and np.array_equal(p.zeta, q.zeta)


def test_point_json_round_trip():
    p = Point([0.5 + 0.25j, -1.0], [0.1j])
    encoded = json.dumps(p.to_json())
    q = Point.from_json(json.loads(encoded))
    assert np.array_equal(p.z, q.z)
    assert np.array_equal(p.zeta, q.zeta)


def test_point_json_format_is_re_im_pairs():
    p = Point([complex(-0.0, 1.0), 2.5], [complex(0.5, -0.0)])
    expected = '{"z": [[-0.0, 1.0], [2.5, 0.0]], "zeta": [[0.5, -0.0]]}'
    assert json.dumps(p.to_json()) == expected


def test_stacked_point_json_round_trip_bit_for_bit():
    X = sample_interior(DomainParams(3, 2, 1.0), 2, 4)
    z = np.stack([X.z, -X.z])
    z[1, 0, 0] = complex(-0.0, -0.0)
    X = Point(z, np.stack([X.zeta, X.zeta]))
    Y = Point.from_json(json.loads(json.dumps(X.to_json())))
    assert Y.z.shape == (2, 4, 3) and Y.zeta.shape == (2, 4, 2)
    assert Y.z.tobytes() == X.z.tobytes() and Y.zeta.tobytes() == X.zeta.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        [1.0, 2.0],
        None,
        5,
        "1",
        {"re": 1.0},
        [],
        [[1.0, None]],
        [["1", "2"]],
        [[True, False]],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0, 3.0]],
    ],
)
def test_from_pairs_rejects_anything_but_numeric_pairs(bad):
    with pytest.raises(DimensionMismatch):
        from_pairs(bad)
    with pytest.raises(DimensionMismatch):
        Point.from_json({"z": bad, "zeta": [[0.0, 0.0]]})


@pytest.mark.parametrize("bad", ["[[NaN, 0.0]]", "[[0.0, -Infinity]]", "[[[1.0, 0.0]], [[0.0, NaN]]]"])
def test_from_pairs_rejects_non_finite_entries(bad):
    with pytest.raises(NotFinite):
        from_pairs(json.loads(bad))
