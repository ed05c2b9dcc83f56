"""The automorphism group of the domain in canonical coordinates.

Every automorphism is a triple (v, U', U) acting as the composite of a
z-rotation, a zeta-rotation and a twisted translation:

    (z, zeta)  ->  (U z + v,  exp(-mu v*(U z) - mu ||v||^2 / 2) U' zeta),

with U in U(n), U' in U(m), v in C^n, and v*w = sum_i conj(v_i) w_i.  The
scalar factor is exactly what keeps ||zeta||^2 < exp(-mu ||z||^2) invariant.
Composition stays in this normal form at the cost of a scalar phase
exp(-i mu Im(v_a*(U_a v_b))) absorbed into U'; the closed forms here are
cross-checked pointwise by the test-suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainParams, Point, _frozen, _integer, _leading, check_point, from_pairs, to_pairs
from .errors import DimensionMismatch, NotUnitary

UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Canonical triple (U, Uprime, v); U and Uprime validated unitary.

    A stack of automorphisms holds U of shape (..., n, n), Uprime
    (..., m, m) and v (..., n) with one leading shape; the group functions
    broadcast it against the leading shape of the points or automorphisms
    they meet, by numpy's rules.  Construction rejects empty stacks and
    non-unitary blocks (max-norm of U^H U - I above 1e-10, or NaN, anywhere
    in the stack), so caller bugs stay visible.
    """

    U: np.ndarray
    Uprime: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        U, Up, v = _frozen(self.U), _frozen(self.Uprime), _frozen(self.v)
        for name, M in (("U", U), ("Uprime", Up)):
            if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
                raise DimensionMismatch(f"{name} must be square, got {M.shape}")
        if v.ndim < 1 or v.shape[-1] != U.shape[-1]:
            raise DimensionMismatch("v must be a vector of length matching U")
        if not U.shape[:-2] == Up.shape[:-2] == v.shape[:-1]:
            raise DimensionMismatch(f"U {U.shape}, Uprime {Up.shape}, v {v.shape}: leads differ")
        if not v.size or not Up.size:
            raise DimensionMismatch(f"U {U.shape}, Uprime {Up.shape}, v {v.shape}: empty stack")
        for name, M in (("U", U), ("Uprime", Up)):
            dev = np.max(np.abs(M.conj().swapaxes(-1, -2) @ M - np.eye(M.shape[-1])))
            if not dev <= UNITARY_TOL:
                raise NotUnitary(f"{name} deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Uprime", Up)
        object.__setattr__(self, "v", v)

    def to_json(self) -> dict:
        return {"U": to_pairs(self.U), "Uprime": to_pairs(self.Uprime), "v": to_pairs(self.v)}

    @staticmethod
    def from_json(obj: dict) -> "Automorphism":
        return Automorphism(from_pairs(obj["U"]), from_pairs(obj["Uprime"]), from_pairs(obj["v"]))


def identity(params: DomainParams) -> Automorphism:
    return Automorphism(np.eye(params.n), np.eye(params.m), np.zeros(params.n))


def _matvec(M, x):
    """M x over the last axes, leading axes broadcast: (..., k, l) by (..., l)."""
    return (M @ x[..., None])[..., 0]


def _check_dims(params: DomainParams, a: Automorphism, lead=()) -> None:
    """DimensionMismatch unless a's blocks fit (n, m) and its leading shape
    broadcasts against the leading shape `lead` of what it meets."""
    if a.U.shape[-2:] != (params.n, params.n) or a.Uprime.shape[-2:] != (params.m, params.m):
        raise DimensionMismatch(
            f"automorphism blocks {a.U.shape} / {a.Uprime.shape} do not match "
            f"(n, m) = ({params.n}, {params.m})"
        )
    try:
        np.broadcast_shapes(a.v.shape[:-1], lead)
    except ValueError:
        raise DimensionMismatch(f"leading shapes {a.v.shape[:-1]}, {lead} mismatch") from None


def scale_factor(params: DomainParams, a: Automorphism, z: np.ndarray):
    """The zeta multiplier exp(-mu v*(U z) - mu ||v||^2 / 2), one per row of
    z, which has shape (..., n)."""
    v_star = a.v.conj()
    return np.exp(
        -params.mu * np.sum(z * _matvec(a.U.swapaxes(-1, -2), v_star), axis=-1)
        - 0.5 * params.mu * np.sum(v_star * a.v, axis=-1)
    )


def apply(params: DomainParams, a: Automorphism, p: Point) -> Point:
    """Action of the automorphism on a point or a stack of points; preserves
    the defect sign."""
    check_point(params, p)
    _check_dims(params, a, p.z.shape[:-1])
    z_new = _matvec(a.U, p.z) + a.v
    zeta_new = scale_factor(params, a, p.z)[..., None] * _matvec(a.Uprime, p.zeta)
    return Point(z_new, zeta_new)


def compose(params: DomainParams, a: Automorphism, b: Automorphism) -> Automorphism:
    """Canonical form of a after b, so apply(compose(a, b), p) == apply(a, apply(b, p)).

    U = U_a U_b and v = v_a + U_a v_b are immediate; matching the scalar
    factors forces the phase exp(-i mu Im(v_a*(U_a v_b))) on U'_a U'_b.
    """
    _check_dims(params, b)
    _check_dims(params, a, b.v.shape[:-1])
    Ua_vb = _matvec(a.U, b.v)
    phase = np.exp(-1j * params.mu * np.sum(a.v.conj() * Ua_vb, axis=-1).imag)
    return Automorphism(a.U @ b.U, phase[..., None, None] * (a.Uprime @ b.Uprime), a.v + Ua_vb)


def inverse(params: DomainParams, a: Automorphism) -> Automorphism:
    """Group inverse: (U^H, U'^H, -U^H v); the composition phase cancels here
    because Im(v*(-v)) = 0."""
    _check_dims(params, a)
    Uh = a.U.conj().swapaxes(-1, -2)
    return Automorphism(Uh, a.Uprime.conj().swapaxes(-1, -2), -_matvec(Uh, a.v))


def jacobian(params: DomainParams, a: Automorphism, p: Point) -> np.ndarray:
    """Holomorphic Jacobian of the action at p, blocks ordered (z, zeta);
    a stack of points gives a stack of matrices.

    With s(z) = exp(-mu v*(U z) - mu ||v||^2 / 2):

        [ U                                0      ]
        [ -mu s(z) (U' zeta) (v* U)_row    s(z) U' ]
    """
    check_point(params, p)
    _check_dims(params, a, p.z.shape[:-1])
    n = params.n
    s = scale_factor(params, a, p.z)[..., None, None]
    row_vhU = _matvec(a.U.swapaxes(-1, -2), a.v.conj())[..., None, :]
    J = np.zeros(s.shape[:-2] + (params.dim, params.dim), dtype=complex)
    J[..., :n, :n] = a.U
    J[..., n:, :n] = -params.mu * s * (_matvec(a.Uprime, p.zeta)[..., :, None] * row_vhU)
    J[..., n:, n:] = s * a.Uprime
    return J


def _jacobian_times(params: DomainParams, a: Automorphism, p: Point, X) -> np.ndarray:
    """J(a, p) X for column blocks X of shape (..., N, k), J never formed:

        [ U X_z                                  ]
        [ s(z) U' (X_zeta - mu zeta (v* U X_z))  ]

    O(n^2 + m^2) per column; leading axes broadcast as in jacobian()."""
    n = params.n
    UX = a.U @ X[..., :n, :]
    W = X[..., n:, :] - params.mu * p.zeta[..., :, None] * (a.v.conj()[..., None, :] @ UX)
    return np.concatenate([UX, scale_factor(params, a, p.z)[..., None, None] * (a.Uprime @ W)], axis=-2)


def _jacobian_h_times(params: DomainParams, a: Automorphism, p: Point, Y) -> np.ndarray:
    """J(a, p)^H Y for column blocks Y of shape (..., N, k), J never formed:
    with W = U'^H Y_zeta and s = s(z),

        [ U^H (Y_z - mu conj(s) v (zeta^H W)) ]
        [ conj(s) W                          ]
    """
    n = params.n
    s = np.conj(scale_factor(params, a, p.z))[..., None, None]
    W = a.Uprime.conj().swapaxes(-1, -2) @ Y[..., n:, :]
    Y_z = Y[..., :n, :] - params.mu * s * a.v[..., :, None] * (p.zeta.conj()[..., None, :] @ W)
    return np.concatenate([a.U.conj().swapaxes(-1, -2) @ Y_z, s * W], axis=-2)


def jacobian_det(params: DomainParams, a: Automorphism, p: Point):
    """det J(a, p) = det U * det U' * s(z)^m in closed form (J is block
    lower-triangular), one value per point of a stack."""
    check_point(params, p)
    _check_dims(params, a, p.z.shape[:-1])
    s = scale_factor(params, a, p.z)
    return np.linalg.det(a.U) * np.linalg.det(a.Uprime) * s**params.m


def haar_unitary(dim: int, rng, shape=()) -> np.ndarray:
    """Haar-distributed unitaries of leading shape `shape`: complex Ginibre,
    QR, R-diagonal phases absorbed.  `rng` is a seed as for the samplers."""
    dim = _integer(dim, "dim", 1)
    rng = np.random.default_rng(rng)
    shape = _leading(shape) + (dim, dim)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_automorphism(params: DomainParams, seed, shape=()) -> Automorphism:
    """Haar-random U and U', complex Gaussian v with unit per-coordinate
    variance, drawn in that order from one stream; a stack of leading shape
    `shape` is checked for unitarity once, as a whole."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(params.n, rng, shape)
    Up = haar_unitary(params.m, rng, shape)
    v_shape = U.shape[:-1]
    v = (rng.standard_normal(v_shape) + 1j * rng.standard_normal(v_shape)) / math.sqrt(2)
    return Automorphism(U, Up, v)
