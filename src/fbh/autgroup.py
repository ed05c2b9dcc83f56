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

from .domain import (
    DomainParams,
    Point,
    check_point,
    mat_from_pairs,
    mat_to_pairs,
    vec_from_pairs,
    vec_to_pairs,
)
from .errors import DimensionMismatch, NotUnitary

UNITARY_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Canonical triple (U, Uprime, v); U and Uprime validated unitary.

    Construction rejects non-unitary blocks (max-norm of U^H U - I above
    1e-10), so caller bugs stay visible.
    """

    U: np.ndarray
    Uprime: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=complex)
        Up = np.array(self.Uprime, dtype=complex)
        v = np.array(self.v, dtype=complex)
        for name, M in (("U", U), ("Uprime", Up)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise DimensionMismatch(f"{name} must be square, got {M.shape}")
        if v.ndim != 1 or v.shape[0] != U.shape[0]:
            raise DimensionMismatch("v must be a vector of length matching U")
        for name, M in (("U", U), ("Uprime", Up)):
            dev = np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))
            if dev > UNITARY_TOL:
                raise NotUnitary(f"{name} deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "U", _readonly(U))
        object.__setattr__(self, "Uprime", _readonly(Up))
        object.__setattr__(self, "v", _readonly(v))

    def to_json(self) -> dict:
        return {
            "U": mat_to_pairs(self.U),
            "Uprime": mat_to_pairs(self.Uprime),
            "v": vec_to_pairs(self.v),
        }

    @staticmethod
    def from_json(obj: dict) -> "Automorphism":
        return Automorphism(
            mat_from_pairs(obj["U"]),
            mat_from_pairs(obj["Uprime"]),
            vec_from_pairs(obj["v"]),
        )


def identity(params: DomainParams) -> Automorphism:
    return Automorphism(np.eye(params.n), np.eye(params.m), np.zeros(params.n))


def _check_dims(params: DomainParams, a: Automorphism) -> None:
    if a.U.shape != (params.n, params.n) or a.Uprime.shape != (params.m, params.m):
        raise DimensionMismatch(
            f"automorphism blocks {a.U.shape} / {a.Uprime.shape} do not match "
            f"(n, m) = ({params.n}, {params.m})"
        )


def scale_factor(params: DomainParams, a: Automorphism, z: np.ndarray):
    """The zeta multiplier exp(-mu v*(U z) - mu ||v||^2 / 2), one per row of
    z, which has shape (..., n)."""
    v_star = a.v.conj()
    return np.exp(-params.mu * (z @ (v_star @ a.U)) - 0.5 * params.mu * (v_star @ a.v))


def apply(params: DomainParams, a: Automorphism, p: Point) -> Point:
    """Action of the automorphism on a point or a stack of points; preserves
    the defect sign."""
    _check_dims(params, a)
    check_point(params, p)
    z_new = p.z @ a.U.T + a.v
    zeta_new = scale_factor(params, a, p.z)[..., None] * (p.zeta @ a.Uprime.T)
    return Point(z_new, zeta_new)


def compose(params: DomainParams, a: Automorphism, b: Automorphism) -> Automorphism:
    """Canonical form of a after b, so apply(compose(a, b), p) == apply(a, apply(b, p)).

    U = U_a U_b and v = v_a + U_a v_b are immediate; matching the scalar
    factors forces the phase exp(-i mu Im(v_a*(U_a v_b))) on U'_a U'_b.
    """
    _check_dims(params, a)
    _check_dims(params, b)
    Ua_vb = a.U @ b.v
    phase = np.exp(-1j * params.mu * np.vdot(a.v, Ua_vb).imag)
    return Automorphism(a.U @ b.U, phase * (a.Uprime @ b.Uprime), a.v + Ua_vb)


def inverse(params: DomainParams, a: Automorphism) -> Automorphism:
    """Group inverse: (U^H, U'^H, -U^H v); the composition phase cancels here
    because Im(v*(-v)) = 0."""
    _check_dims(params, a)
    Uh = a.U.conj().T
    return Automorphism(Uh, a.Uprime.conj().T, -(Uh @ a.v))


def jacobian(params: DomainParams, a: Automorphism, p: Point) -> np.ndarray:
    """Holomorphic Jacobian of the action at p, blocks ordered (z, zeta);
    a stack of points gives a stack of matrices.

    With s(z) = exp(-mu v*(U z) - mu ||v||^2 / 2):

        [ U                                0      ]
        [ -mu s(z) (U' zeta) (v* U)_row    s(z) U' ]
    """
    _check_dims(params, a)
    check_point(params, p)
    n = params.n
    s = scale_factor(params, a, p.z)[..., None, None]
    row_vhU = a.v.conj() @ a.U
    J = np.zeros(p.z.shape[:-1] + (params.dim, params.dim), dtype=complex)
    J[..., :n, :n] = a.U
    J[..., n:, :n] = -params.mu * s * ((p.zeta @ a.Uprime.T)[..., :, None] * row_vhU)
    J[..., n:, n:] = s * a.Uprime
    return J


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre, QR, R-diagonal phases absorbed."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_automorphism(params: DomainParams, seed: int) -> Automorphism:
    """Haar-random U and U', complex Gaussian v with unit per-coordinate
    variance; deterministic per seed."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(params.n, rng)
    Up = haar_unitary(params.m, rng)
    v = (rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)) / math.sqrt(2)
    return Automorphism(U, Up, v)
