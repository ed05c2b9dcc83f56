"""Geometry of the domain { (z, zeta) : ||zeta||^2 < exp(-mu ||z||^2) }.

The domain lives in C^n x C^m and is unbounded: the whole slice zeta = 0 is
contained in it for every z.  Membership is expressed through the defect
exp(-mu ||z||^2) - ||zeta||^2, whose sign classifies interior / boundary /
exterior.  The interior sampler doubles as the importance proposal for the
Monte-Carlo checks, so its density is exposed in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnit


@dataclass(frozen=True)
class DomainParams:
    """Parameters (n, m, mu): block dimensions and the Gaussian decay rate."""

    n: int
    m: int
    mu: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not self.mu > 0:
            raise ValueError("mu must be > 0")

    @property
    def dim(self) -> int:
        """Total complex dimension n + m."""
        return self.n + self.m


def _readonly_coords(vec) -> np.ndarray:
    arr = np.array(vec, dtype=complex)
    if arr.ndim < 1:
        raise DimensionMismatch("expected coordinate vectors along a last axis")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Point:
    """A point (z, zeta) with z in C^n and zeta in C^m, or a stack of them:
    z of shape (..., n) and zeta of shape (..., m) with the same leading
    shape, over which the geometric functions broadcast.

    Coordinate arrays are copied and frozen read-only at construction, so
    Points are safe to share between threads.
    """

    z: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        z = _readonly_coords(self.z)
        zeta = _readonly_coords(self.zeta)
        if z.shape[:-1] != zeta.shape[:-1]:
            raise DimensionMismatch(f"z {z.shape} and zeta {zeta.shape} differ in leading shape")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zeta", zeta)

    @staticmethod
    def origin(params: DomainParams) -> "Point":
        return Point(np.zeros(params.n), np.zeros(params.m))

    def coords(self) -> np.ndarray:
        """Concatenated (z, zeta): vectors of length n + m along the last axis."""
        return np.concatenate([self.z, self.zeta], axis=-1)

    def to_json(self) -> dict:
        return {"z": vec_to_pairs(self.z), "zeta": vec_to_pairs(self.zeta)}

    @staticmethod
    def from_json(obj: dict) -> "Point":
        return Point(vec_from_pairs(obj["z"]), vec_from_pairs(obj["zeta"]))


# ----------------------------- JSON encoding -------------------------------
# Complex scalars travel as [re, im] pairs; vectors as lists of pairs and
# matrices as lists of rows.  Shared by the Point and Automorphism codecs.

def vec_to_pairs(v: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=complex)]


def vec_from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def mat_to_pairs(M: np.ndarray) -> list:
    return [vec_to_pairs(row) for row in np.asarray(M, dtype=complex)]


def mat_from_pairs(rows) -> np.ndarray:
    return np.array([vec_from_pairs(row) for row in rows], dtype=complex)


# ------------------------------- geometry ----------------------------------

def check_point(params: DomainParams, p: Point) -> None:
    """Raise DimensionMismatch unless p has shape (..., n) x (..., m)."""
    if p.z.shape[-1:] != (params.n,) or p.zeta.shape[-1:] != (params.m,):
        raise DimensionMismatch(
            f"point has shapes {p.z.shape} x {p.zeta.shape}, "
            f"expected (..., {params.n}) x (..., {params.m})"
        )


def defect(params: DomainParams, p: Point):
    """exp(-mu ||z||^2) - ||zeta||^2, one value per point of a stack.

    Positive iff p is interior, zero on the boundary, negative outside.
    """
    check_point(params, p)
    z2 = np.sum(np.abs(p.z) ** 2, axis=-1)
    return np.exp(-params.mu * z2) - np.sum(np.abs(p.zeta) ** 2, axis=-1)


def project_to_boundary(params: DomainParams, z, direction) -> Point:
    """Boundary point above z in the given unit zeta-direction.

    Returns (z, exp(-mu ||z||^2 / 2) * direction); its defect vanishes up to
    rounding.  Raises NotUnit when ||direction|| deviates from 1 by more
    than 1e-12.
    """
    z = np.asarray(z, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    if z.shape != (params.n,) or direction.shape != (params.m,):
        raise DimensionMismatch("z / direction shapes do not match (n, m)")
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > 1e-12:
        raise NotUnit(f"direction norm {nrm} is not 1 within 1e-12")
    radius = math.exp(-params.mu * float(np.vdot(z, z).real) / 2.0)
    return Point(z, radius * direction)


# ------------------------------- sampling ----------------------------------
# The generator is numpy's seeded PCG64; draws are reproducible per seed on
# one implementation and reproducible in distribution across platforms.

def sample_interior_arrays(params: DomainParams, seed: int, count: int):
    """Vectorized interior sampler: arrays Z (count, n) and Zeta (count, m).

    z has independent complex-Gaussian coordinates with variance 1/(2 mu)
    per real coordinate, so the z-marginal density is (mu/pi)^n
    exp(-mu ||z||^2).  Given z, zeta is uniform in the ball of radius
    exp(-mu ||z||^2 / 2): a normalized complex Gaussian direction scaled by
    R u^(1/(2m)) with u uniform on [0, 1).  Every row is strictly interior.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(1.0 / (2.0 * params.mu))
    Z = sigma * (
        rng.standard_normal((count, params.n))
        + 1j * rng.standard_normal((count, params.n))
    )
    direction = rng.standard_normal((count, params.m)) + 1j * rng.standard_normal(
        (count, params.m)
    )
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    z2 = np.sum(np.abs(Z) ** 2, axis=1)
    radius = np.exp(-params.mu * z2 / 2.0) * rng.random(count) ** (1.0 / (2 * params.m))
    return Z, radius[:, None] * direction


def sample_interior(params: DomainParams, seed: int, count: int) -> list:
    """Deterministic list of `count` interior Points for the given seed."""
    Z, Zeta = sample_interior_arrays(params, seed, count)
    return [Point(Z[i], Zeta[i]) for i in range(count)]


def sample_density_arrays(params: DomainParams, Z: np.ndarray) -> np.ndarray:
    """Joint proposal density of the interior sampler at points above Z.

    With respect to Lebesgue measure on R^(2n+2m):

        (mu/pi)^n exp(-mu ||z||^2) * m! / (pi^m R^(2m)),   R^2 = exp(-mu ||z||^2),

    constant on each fiber ball.  Z has shape (count, n).
    """
    z2 = np.sum(np.abs(np.asarray(Z, dtype=complex)) ** 2, axis=-1)
    gauss = (params.mu / math.pi) ** params.n * np.exp(-params.mu * z2)
    ball = math.factorial(params.m) / (
        math.pi ** params.m * np.exp(-params.m * params.mu * z2)
    )
    return gauss * ball


def sample_density(params: DomainParams, p: Point):
    """Proposal density at a Point, one value per point of a stack."""
    check_point(params, p)
    return sample_density_arrays(params, p.z)


def sample_boundary(params: DomainParams, seed: int, count: int) -> list:
    """Deterministic boundary points: sampled z, uniform zeta-direction."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(1.0 / (2.0 * params.mu))
    out = []
    for _ in range(count):
        z = sigma * (rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n))
        d = rng.standard_normal(params.m) + 1j * rng.standard_normal(params.m)
        d /= np.linalg.norm(d)
        out.append(project_to_boundary(params, z, d))
    return out
