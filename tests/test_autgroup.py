"""Tests for the automorphism group: action, composition, inverse, Jacobian."""

import json
import math

import numpy as np
import pytest

from fbh.autgroup import (
    Automorphism,
    _log_scale,
    apply,
    compose,
    haar_unitary,
    identity,
    inverse,
    jacobian,
    jacobian_det,
    random_automorphism,
)
from fbh.domain import DomainParams, Point, defect, sample_boundary, sample_interior
from fbh.errors import DimensionMismatch, NotUnitary

from oracles import assert_rows_match, fd_jacobian, singles

P11 = DomainParams(1, 1, 1.0)
CONFIGS = [P11, DomainParams(2, 1, 1.0), DomainParams(1, 2, 0.5), DomainParams(2, 2, 2.0)]


def translation(params, v):
    return Automorphism(np.eye(params.n), np.eye(params.m), np.asarray(v, dtype=complex))


# ------------------------------ construction -------------------------------

def test_construction_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        Automorphism(np.array([[1.1]]), np.eye(1), np.zeros(1))


def test_construction_rejects_nan():
    # NaN > tol is False, so the check is written to fail unless dev <= tol
    U = np.eye(2, dtype=complex)
    U[0, 0] = np.nan
    with pytest.raises(NotUnitary):
        Automorphism(U, np.eye(1), np.zeros(2))


def test_construction_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Automorphism(np.eye(2), np.eye(1), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        Automorphism(np.ones((2, 3)), np.eye(1), np.zeros(2))
    for lead in [(0,), (2, 0)]:  # an empty stack, not numpy's bare ValueError
        with pytest.raises(DimensionMismatch, match="empty"):
            Automorphism(np.zeros(lead + (1, 1)), np.zeros(lead + (1, 1)), np.zeros(lead + (1,)))


# --------------------------------- apply -----------------------------------

def test_apply_identity_fixes_points():
    p = Point([0.3 + 0.2j], [0.4])
    q = apply(P11, identity(P11), p)
    assert np.array_equal(q.z, p.z) and np.array_equal(q.zeta, p.zeta)


def test_apply_translation_at_zero():
    # (0, zeta) maps to (v, exp(-mu ||v||^2 / 2) zeta)
    v = np.array([0.7 - 0.1j])
    a = translation(P11, v)
    q = apply(P11, a, Point([0.0], [0.5]))
    assert np.allclose(q.z, v)
    assert q.zeta[0] == pytest.approx(math.exp(-float(np.vdot(v, v).real) / 2) * 0.5)


@pytest.mark.parametrize("params", CONFIGS)
def test_apply_preserves_interior(params):
    a = random_automorphism(params, 3)
    for p in singles(sample_interior(params, 5, 250)):
        assert defect(params, apply(params, a, p)) > 0.0


@pytest.mark.parametrize("params", CONFIGS)
def test_invariant_slice_stays_exactly_flat(params):
    # zeta = 0 must map to zeta = 0 with no rounding residue at all
    a = random_automorphism(params, 7)
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        image = apply(params, a, Point(z, np.zeros(params.m)))
        assert np.all(image.zeta == 0.0)


@pytest.mark.parametrize("params", CONFIGS)
def test_boundary_maps_to_boundary(params):
    a = random_automorphism(params, 13)
    for p in singles(sample_boundary(params, 17, 50)):
        assert abs(defect(params, apply(params, a, p))) <= 1e-12


def test_origin_fixing_action_is_linear():
    # with v = 0 the scalar factor is exactly 1, so the action is the plain
    # block matrix product, bit for bit
    for params in CONFIGS:
        rot = random_automorphism(params, 19)
        a = Automorphism(rot.U, rot.Uprime, np.zeros(params.n))
        for p in singles(sample_interior(params, 23, 10)):
            image = apply(params, a, p)
            assert np.array_equal(image.z, a.U @ p.z)
            assert np.array_equal(image.zeta, a.Uprime @ p.zeta)


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_action_broadcasts_over_stacks(params):
    a = random_automorphism(params, 5)
    X = sample_interior(params, 7, 10)
    pts = singles(X)
    assert_rows_match(_log_scale(params, a, X.z), [_log_scale(params, a, p.z) for p in pts])
    assert_rows_match(apply(params, a, X).coords(), [apply(params, a, p).coords() for p in pts])
    assert_rows_match(jacobian(params, a, X), [jacobian(params, a, p) for p in pts])


def stack_auts(auts) -> Automorphism:
    """The listed automorphisms as one stack, list index first."""
    blocks = zip(*((a.U, a.Uprime, a.v) for a in auts))
    return Automorphism(*(np.stack(b) for b in blocks))


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0)])
def test_automorphism_stacks_broadcast_against_point_stacks(params):
    # 3 automorphisms stacked (3, 1) against points stacked (3, 4): row i of
    # every result is automorphism i at the points of row i
    auts = [random_automorphism(params, 40 + i) for i in range(3)]
    A = stack_auts(auts)
    A = Automorphism(A.U[:, None], A.Uprime[:, None], A.v[:, None])
    X = sample_interior(params, 8, 12)
    X = Point(X.z.reshape(3, 4, -1), X.zeta.reshape(3, 4, -1))
    rows = [Point(X.z[i], X.zeta[i]) for i in range(3)]
    ar = list(zip(auts, rows))
    assert_rows_match(apply(params, A, X).coords(), [apply(params, a, r).coords() for a, r in ar])
    for fn in (jacobian, jacobian_det):
        assert_rows_match(fn(params, A, X), [fn(params, a, r) for a, r in ar])
    assert_rows_match(_log_scale(params, A, X.z), [_log_scale(params, a, r.z) for a, r in ar])
    # one point against the whole stack, and the stack against one automorphism
    p = rows[0]
    assert apply(params, A, Point(p.z[0], p.zeta[0])).z.shape == (3, 1, params.n)
    assert jacobian_det(params, auts[0], X).shape == (3, 4)


def test_automorphism_stack_group_operations_match_one_by_one():
    params = DomainParams(3, 2, 0.7)
    auts = [random_automorphism(params, 60 + i) for i in range(4)]
    others = [random_automorphism(params, 70 + i) for i in range(4)]
    A, B = stack_auts(auts), stack_auts(others)
    for got, expected in (
        (compose(params, A, B), [compose(params, a, b) for a, b in zip(auts, others)]),
        (compose(params, A, others[0]), [compose(params, a, others[0]) for a in auts]),
        (inverse(params, A), [inverse(params, a) for a in auts]),
    ):
        for name in ("U", "Uprime", "v"):
            assert_rows_match(getattr(got, name), [getattr(e, name) for e in expected])
    # a stack round-trips through the JSON codec with its leading axis
    back = Automorphism.from_json(json.loads(json.dumps(A.to_json())))
    assert back.U.shape == (4, 3, 3) and back.U.tobytes() == A.U.tobytes()


def test_automorphism_stack_validation():
    a = random_automorphism(P11, 1)
    A = stack_auts([a, a])
    with pytest.raises(NotUnitary):  # one bad member fails the whole stack
        Automorphism(np.stack([a.U, 1.1 * a.U]), A.Uprime, A.v)
    with pytest.raises(DimensionMismatch):  # leading shapes (2,), (2,), (3,)
        Automorphism(A.U, A.Uprime, np.zeros((3, 1)))
    X = sample_interior(P11, 2, 3)
    for call in (
        lambda: apply(P11, A, X),
        lambda: jacobian(P11, A, X),
        lambda: jacobian_det(P11, A, X),
        lambda: compose(P11, A, stack_auts([a, a, a])),
    ):
        with pytest.raises(DimensionMismatch):
            call()


# -------------------------------- compose ----------------------------------

def test_compose_identity_neutral():
    a = random_automorphism(P11, 29)
    left = compose(P11, identity(P11), a)
    right = compose(P11, a, identity(P11))
    for c in (left, right):
        assert np.allclose(c.U, a.U) and np.allclose(c.Uprime, a.Uprime)
        assert np.allclose(c.v, a.v)


def test_compose_translation_phase():
    # translating by 1 after translating by i picks up the phase e^(-i)
    a = translation(P11, [1.0])
    b = translation(P11, [1.0j])
    c = compose(P11, a, b)
    assert np.allclose(c.v, [1.0 + 1.0j])
    assert c.Uprime[0, 0] == pytest.approx(np.exp(-1.0j))


def test_compose_rotation_translation_swap():
    # U (z + v) = U z + U v, so rotating after translating equals
    # translating by U v after rotating; the canonical triples coincide
    params = DomainParams(2, 1, 1.0)
    rng = np.random.default_rng(31)
    U = haar_unitary(2, rng)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rot = Automorphism(U, np.eye(1), np.zeros(2))
    trans = translation(params, v)
    left = compose(params, rot, trans)
    right = compose(params, Automorphism(np.eye(2), np.eye(1), U @ v), rot)
    assert np.allclose(left.U, right.U)
    assert np.allclose(left.Uprime, right.Uprime)
    assert np.allclose(left.v, right.v)


@pytest.mark.parametrize("params", CONFIGS)
def test_compose_matches_pointwise_application(params):
    for trial in range(5):
        a = random_automorphism(params, 100 + trial)
        b = random_automorphism(params, 200 + trial)
        c = compose(params, a, b)
        for p in singles(sample_interior(params, 300 + trial, 10)):
            direct = apply(params, c, p)
            nested = apply(params, a, apply(params, b, p))
            assert np.max(np.abs(direct.coords() - nested.coords())) <= 1e-12


def test_compose_associative_pointwise():
    params = DomainParams(2, 2, 1.0)
    a, b, c = (random_automorphism(params, s) for s in (1, 2, 3))
    left = compose(params, compose(params, a, b), c)
    right = compose(params, a, compose(params, b, c))
    for p in singles(sample_interior(params, 4, 20)):
        assert np.max(
            np.abs(apply(params, left, p).coords() - apply(params, right, p).coords())
        ) <= 1e-10


# -------------------------------- inverse ----------------------------------

def test_inverse_identity_and_translation():
    assert np.allclose(inverse(P11, identity(P11)).v, [0.0])
    a = translation(P11, [0.3 + 0.4j])
    inv = inverse(P11, a)
    assert np.allclose(inv.v, [-0.3 - 0.4j])


@pytest.mark.parametrize("params", CONFIGS)
def test_inverse_round_trip(params):
    a = random_automorphism(params, 37)
    inv = inverse(params, a)
    both = compose(params, a, inv)
    assert np.max(np.abs(both.U - np.eye(params.n))) <= 1e-12
    assert np.max(np.abs(both.Uprime - np.eye(params.m))) <= 1e-12
    assert np.max(np.abs(both.v)) <= 1e-12
    for p in singles(sample_interior(params, 41, 100)):
        back = apply(params, inv, apply(params, a, p))
        assert np.max(np.abs(back.coords() - p.coords())) <= 1e-10


# -------------------------------- jacobian ---------------------------------

def test_jacobian_identity():
    p = Point([0.2], [0.3])
    assert np.allclose(jacobian(P11, identity(P11), p), np.eye(2))


@pytest.mark.parametrize("params", CONFIGS)
def test_jacobian_matches_finite_differences(params):
    a = random_automorphism(params, 43)
    for p in singles(sample_interior(params, 47, 5)):
        J = jacobian(params, a, p)
        J_fd = fd_jacobian(params, a, p)
        assert np.max(np.abs(J - J_fd)) <= 1e-6 * max(np.max(np.abs(J)), 1.0)


def test_jacobian_block_diagonal_at_origin_when_linear():
    params = DomainParams(2, 2, 1.0)
    rot = random_automorphism(params, 53)
    a = Automorphism(rot.U, rot.Uprime, np.zeros(2))
    J = jacobian(params, a, Point.origin(params))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = a.U
    expected[2:, 2:] = a.Uprime
    assert np.allclose(J, expected)
    det = np.linalg.det(J)
    assert abs(det) == pytest.approx(1.0)
    assert det == pytest.approx(np.linalg.det(a.U) * np.linalg.det(a.Uprime))


# --------------------------- random_automorphism ---------------------------

def test_random_automorphism_deterministic_and_unitary():
    params = DomainParams(3, 2, 1.0)
    a = random_automorphism(params, 59)
    b = random_automorphism(params, 59)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.Uprime, b.Uprime)
    assert np.array_equal(a.v, b.v)
    assert np.max(np.abs(a.U.conj().T @ a.U - np.eye(3))) <= 1e-10
    assert np.max(np.abs(a.Uprime.conj().T @ a.Uprime - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("dim", [0, -1, 1.5, 2.0, np.float64(2), True, "2"])
def test_haar_unitary_rejects_a_bad_dimension(dim):
    with pytest.raises(ValueError):
        haar_unitary(dim, 1)


def test_haar_unitary_takes_numpy_integer_dimensions():
    U = haar_unitary(np.int64(3), 1)
    assert U.shape == (3, 3) and np.allclose(U.conj().T @ U, np.eye(3))
    assert np.array_equal(U, haar_unitary(3, 1))


def test_haar_moment_of_trace():
    # E |tr U|^2 = 1 for the Haar measure on U(n)
    rng = np.random.default_rng(61)
    vals = [abs(np.trace(haar_unitary(2, rng))) ** 2 for _ in range(2000)]
    assert abs(np.mean(vals) - 1.0) < 0.15


def test_parameter_count_identity():
    # dim over the reals: n^2 (for U) + m^2 (for U') + 2n (for v)
    for params in CONFIGS:
        n, m = params.n, params.m
        assert n * n + m * m + 2 * n == params.n**2 + params.m**2 + 2 * params.n


# ---------------------------------- JSON -----------------------------------

def test_automorphism_json_rejects_non_pairs():
    obj = identity(DomainParams(2, 1, 1.0)).to_json()
    with pytest.raises(DimensionMismatch):
        Automorphism.from_json(dict(obj, v=5))
    with pytest.raises(DimensionMismatch):
        Automorphism.from_json(dict(obj, U=obj["v"]))


def test_automorphism_json_round_trip():
    a = random_automorphism(DomainParams(2, 2, 1.0), 67)
    encoded = json.dumps(a.to_json())
    b = Automorphism.from_json(json.loads(encoded))
    assert np.allclose(a.U, b.U)
    assert np.allclose(a.Uprime, b.Uprime)
    assert np.allclose(a.v, b.v)


def uncached_log_scale(params, a, z):
    """_log_scale as one expression, forming v* U and ||v||^2 on every call."""
    v_star = a.v.conj()
    return (
        -params.mu * np.sum(z * (a.U.swapaxes(-1, -2) @ v_star[..., None])[..., 0], axis=-1)
        - 0.5 * params.mu * np.sum(v_star * a.v, axis=-1)
    )


@pytest.mark.parametrize("params", [P11, DomainParams(3, 2, 0.7), DomainParams(32, 4, 1.0)])
def test_scale_factor_reads_a_cached_row_equal_to_the_uncached_expression(params):
    # the row v* U and ||v||^2 are formed on an automorphism's first _log_scale
    # and kept; every later call, and every group operation's result, matches the
    # one expression bit for bit, and to_json carries nothing of the cache
    a, b = random_automorphism(params, 71), random_automorphism(params, 72, (2, 3))
    X = sample_interior(params, 73, 6)
    Z = X.z.reshape(2, 3, -1)
    results = {
        "single": a, "stacked": b, "compose": compose(params, a, b), "inverse": inverse(params, b),
        "identity": identity(params), "from_json": Automorphism.from_json(json.loads(json.dumps(b.to_json()))),
    }
    for name, c in results.items():
        before = c.to_json()
        for z in (Z, Z[0, 0], Z[:, :1]):  # the second and later calls read the cache
            got, ref = _log_scale(params, c, z), uncached_log_scale(params, c, z)
            assert np.shape(got) == np.shape(ref) and got.tobytes() == ref.tobytes(), name
        assert c.to_json() == before, name
    with pytest.raises(ValueError):
        b._scale_row[0][0] = 0.0  # read-only, like the arrays it is formed from


def test_automorphism_arrays_are_frozen_copies():
    U = np.eye(2)
    a = Automorphism(U, np.eye(1), np.zeros(2))
    U[0, 0] = 5.0
    assert a.U[0, 0] == 1.0 and a.U.dtype == complex
    for arr in (a.U, a.Uprime, a.v):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@pytest.mark.parametrize(
    "params", CONFIGS + [DomainParams(3, 2, 1.0), DomainParams(32, 4, 1.0), DomainParams(2, 64, 1.0)]
)
def test_jacobian_det_closed_form_matches_lu(params):
    a = random_automorphism(params, 5)
    X = sample_interior(params, 6, 10)
    X = Point(X.z.reshape(2, 5, -1), X.zeta.reshape(2, 5, -1))
    closed = jacobian_det(params, a, X)
    lu = np.linalg.det(jacobian(params, a, X))
    assert closed.shape == (2, 5)
    assert np.all(np.abs(closed - lu) <= 1e-12 * np.abs(lu))
    one = Point(X.z[1, 3], X.zeta[1, 3])
    assert np.shape(jacobian_det(params, a, one)) == ()
