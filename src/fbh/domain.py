"""Geometry of the domain { (z, zeta) : ||zeta||^2 < exp(-mu ||z||^2) }.

The domain lives in C^n x C^m and is unbounded: the whole slice zeta = 0 is
contained in it for every z.  Membership has one test, _check_interior,
which compares in logs; the defect exp(-mu ||z||^2) - ||zeta||^2 measures
how far a point lies from the boundary.  The interior sampler doubles as the
importance proposal for the Monte-Carlo checks, so its density is exposed
in closed form.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotUnit, OutsideDomain


@dataclass(frozen=True)
class DomainParams:
    """Parameters (n, m, mu): block dimensions and the Gaussian decay rate.
    kernel_constant, the kernel's prefactor mu^n / pi^(n+m), is derived."""

    n: int
    m: int
    mu: float
    kernel_constant: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "m"):  # stored as int, so numpy integers work everywhere
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if isinstance(self.mu, bool) or not isinstance(self.mu, numbers.Real):
            raise ValueError(f"mu must be a real number, got {self.mu!r}")
        try:  # the sampler needs 1/mu and the kernel its prefactor to be a normal float
            object.__setattr__(self, "mu", float(self.mu))
            usable = 0 < self.mu < math.inf and math.isfinite(1 / self.mu)
            object.__setattr__(self, "kernel_constant", self.mu**self.n / math.pi**self.dim)
            usable = usable and self.kernel_constant >= sys.float_info.min
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"mu must be finite and > 0 with 1/mu finite and mu^n / pi^(n+m) "
                             f"a normal float, got {self.mu}")

    @property
    def dim(self) -> int:
        """Total complex dimension n + m."""
        return self.n + self.m


def _frozen(value) -> np.ndarray:
    """A complex copy of value, frozen read-only: the immutability that makes
    Points and Automorphisms safe to share between threads."""
    arr = np.array(value, dtype=complex)
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
        z, zeta = _frozen(self.z), _frozen(self.zeta)
        if z.ndim < 1 or zeta.ndim < 1:
            raise DimensionMismatch("expected coordinate vectors along a last axis")
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
        return {"z": to_pairs(self.z), "zeta": to_pairs(self.zeta)}

    @staticmethod
    def from_json(obj: dict) -> "Point":
        return Point(from_pairs(obj["z"]), from_pairs(obj["zeta"]))


# ----------------------------- JSON encoding -------------------------------
# Complex scalars travel as [re, im] pairs, so an array of any shape becomes
# nested lists with one more axis of length 2.  Shared by the Point and
# Automorphism codecs, for single values and stacks alike.

def to_pairs(a) -> list:
    """Nested lists of [re, im] pairs, one pair per entry of a."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def from_pairs(obj) -> np.ndarray:
    """Complex array from nested [re, im] pairs, the inverse of to_pairs bit
    for bit; NotFinite for NaN or inf entries, DimensionMismatch otherwise."""
    try:
        arr = np.array(obj)
    except ValueError as exc:  # ragged nesting
        raise DimensionMismatch(f"expected nested [re, im] pairs: {exc}") from None
    if arr.dtype.kind not in "iuf" or arr.ndim < 2 or arr.shape[-1] != 2:
        raise DimensionMismatch(f"expected nested numeric [re, im] pairs, got {obj!r:.80}")
    if not np.all(np.isfinite(arr)):
        raise NotFinite(f"coordinates must be finite, got {obj!r:.80}")
    return arr.astype(float).view(complex)[..., 0]


# ------------------------------- geometry ----------------------------------

def _norm2(x):  # squared Euclidean norm over the last axis, squared into one buffer
    sq = np.square(x.real)
    return np.add.reduce(np.add(sq, np.square(x.imag), out=sq), axis=-1)


def check_point(params: DomainParams, p: Point) -> None:
    """Raise DimensionMismatch unless p has shape (..., n) x (..., m)."""
    if p.z.shape[-1:] != (params.n,) or p.zeta.shape[-1:] != (params.m,):
        raise DimensionMismatch(
            f"point has shapes {p.z.shape} x {p.zeta.shape}, "
            f"expected (..., {params.n}) x (..., {params.m})"
        )


def _check_interior(params: DomainParams, *points: Point) -> None:
    """The domain's one membership test, log ||zeta||^2 < -mu ||z||^2 at every
    point: in logs, so zeta = 0 passes where exp(-mu ||z||^2) underflows, and as
    2 log r + log ||zeta / r||^2, r = max |zeta_i|, so a ||zeta||^2 that underflows
    is not read as 0.  Raises, with no warning, DimensionMismatch as check_point
    does, NotFinite for a non-finite coordinate or at zeta = 0 where mu ||z||^2
    passes the float range (a point of the domain no float evaluation reaches),
    else OutsideDomain."""
    for p in points:
        check_point(params, p)
        if not (np.isfinite(p.z).all() and np.isfinite(p.zeta).all()):
            raise NotFinite("kernel evaluations take finite coordinates")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound, a = -params.mu * _norm2(p.z), np.abs(p.zeta)
            r = np.max(a, axis=-1, keepdims=True)
            a /= np.where(r > 0, r, 1)  # real: numpy's complex division by a subnormal r overflows
            log_r2 = 2 * np.log(r[..., 0]) + np.log(np.add.reduce(np.square(a, out=a), axis=-1))
        if np.any(np.isinf(bound) & (r[..., 0] == 0)):
            raise NotFinite("mu ||z||^2 is not a finite float at a point of the slice zeta = 0")
        if not np.all(log_r2 < bound):
            raise OutsideDomain("kernel evaluations take points strictly inside the domain")


def defect(params: DomainParams, p: Point):
    """exp(-mu ||z||^2) - ||zeta||^2, one value per point of a stack, with no
    warning: positive inside, zero on the boundary, negative outside, but only
    while exp(-mu ||z||^2) is a nonzero float (mu ||z||^2 below about 745); past
    that an interior point reads 0 or less.  _check_interior is the membership test.
    """
    check_point(params, p)
    with np.errstate(over="ignore"):
        return np.exp(-params.mu * _norm2(p.z)) - _norm2(p.zeta)


def project_to_boundary(params: DomainParams, z, direction) -> Point:
    """Boundary point above z in the given unit zeta-direction, or a stack of
    them: z of shape (..., n) and direction of shape (..., m).

    Returns (z, exp(-mu ||z||^2 / 2) * direction); its defect vanishes up to
    rounding.  Raises NotUnit when any ||direction|| deviates from 1 by more
    than 1e-12, and DimensionMismatch when the shapes do not fit.
    """
    p = Point(z, direction)
    check_point(params, p)
    nrm = np.sqrt(_norm2(p.zeta))
    if not np.all(np.abs(nrm - 1.0) <= 1e-12):
        raise NotUnit(f"direction norm off 1 by {np.max(np.abs(nrm - 1.0))}, not within 1e-12")
    radius = np.exp(-params.mu * _norm2(p.z) / 2.0)
    return Point(p.z, radius[..., None] * p.zeta)


# ------------------------------- sampling ----------------------------------
# The generator is numpy's seeded PCG64; draws are reproducible per seed on
# one implementation and reproducible in distribution across platforms.  A
# seed is anything np.random.default_rng takes (an int, an int sequence, or a
# Generator, which continues its stream), and a draw of leading shape (k, c)
# is the draw of k * c reshaped: each component is one call on the whole shape.

def _integer(value, name: str, low: int, high=math.inf) -> int:
    """value as a plain int: a Python or numpy integer in low..high.  A bool,
    a float, a string or a value out of range raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _leading(shape) -> tuple:
    """A draw's leading shape from an integer or a sequence of them, each axis >= 1."""
    return tuple(_integer(k, "draw shape axis", 1) for k in (shape if np.ndim(shape) else (shape,)))


def sample_interior_arrays(params: DomainParams, seed, count):
    """Vectorized interior sampler: arrays Z (*count, n) and Zeta
    (*count, m), where count is an int or a shape.

    z has independent complex-Gaussian coordinates with variance 1/(2 mu)
    per real coordinate, so the z-marginal density is (mu/pi)^n
    exp(-mu ||z||^2).  Given z, zeta is uniform in the ball of radius
    exp(-mu ||z||^2 / 2): a complex Gaussian direction scaled by
    R u^(1/(2m)) / |direction| with u uniform on [0, 1).  Every row is
    strictly interior.  The draws are, in order, Re z, Im z, Re zeta,
    Im zeta and u, each one call on the whole shape, written into the
    real and imaginary parts of the returned arrays.
    """
    rng = np.random.default_rng(seed)
    lead = _leading(count)
    Z, Zeta = np.empty(lead + (params.n,), complex), np.empty(lead + (params.m,), complex)
    for part in (Z.real, Z.imag, Zeta.real, Zeta.imag):
        part[...] = rng.standard_normal(part.shape)
    Z *= math.sqrt(1.0 / (2.0 * params.mu))
    s, norm, u = _norm2(Z), _norm2(Zeta), rng.random(lead)  # the fibre scale, in place
    np.exp(np.multiply(s, -params.mu / 2.0, out=s), out=s)
    u **= 1.0 / (2 * params.m)  # in place; numpy takes sqrt for 0.5, as u ** 0.5 does
    Zeta *= np.divide(np.multiply(s, u, out=s), np.sqrt(norm, out=norm), out=s)[..., None]
    return Z, Zeta


def sample_interior(params: DomainParams, seed, count) -> Point:
    """Deterministic stack of interior points, of leading shape count."""
    return Point(*sample_interior_arrays(params, seed, count))


def sample_density_arrays(params: DomainParams, Z: np.ndarray) -> np.ndarray:
    """Joint proposal density of the interior sampler at points above Z.

    With respect to Lebesgue measure on R^(2n+2m):

        (mu/pi)^n exp(-mu ||z||^2) * m! / (pi^m R^(2m)),   R^2 = exp(-mu ||z||^2),

    constant on each fiber ball, and evaluated as the one exponential
    (mu/pi)^n m!/pi^m exp((m-1) mu ||z||^2), finite wherever the density is.
    Z has shape (..., n) and is never written to.
    """
    density = np.asarray(_norm2(np.asarray(Z, dtype=complex)))
    np.exp(np.multiply(density, (params.m - 1) * params.mu, out=density), out=density)
    density *= (params.mu / math.pi) ** params.n * math.factorial(params.m) / math.pi**params.m
    return density[()]  # a float for one point, as numpy's own ufuncs return


def sample_density(params: DomainParams, p: Point):
    """Proposal density at a Point, one value per point of a stack.  Raises
    NotFinite where it is not a finite float: at large orders the density
    itself passes the float range at ordinary interior points."""
    check_point(params, p)
    with np.errstate(over="ignore", invalid="ignore"):
        density = sample_density_arrays(params, p.z)
    if not np.all(np.isfinite(density)):
        raise NotFinite(f"the proposal density is not a finite float at {np.sum(~np.isfinite(density))} "
                        f"of {np.size(density)} points for {params}")
    return density


def sample_boundary(params: DomainParams, seed, count) -> Point:
    """Deterministic stack of boundary points, of leading shape count:
    sampled z, uniform zeta-direction.

    Row i of the draw holds Re z, Im z, Re d, Im d of point i, so the first
    k points do not depend on count.
    """
    n, m = params.n, params.m
    g = np.random.default_rng(seed).standard_normal(_leading(count) + (2 * (n + m),))
    z = math.sqrt(1.0 / (2.0 * params.mu)) * (g[..., :n] + 1j * g[..., n : 2 * n])
    d = g[..., 2 * n : 2 * n + m] + 1j * g[..., 2 * n + m :]
    d /= np.sqrt(_norm2(d))[..., None]
    return project_to_boundary(params, z, d)
