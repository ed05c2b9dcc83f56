"""Bergman kernel of the domain, its log-derivatives and metric.

The kernel in the (z, zeta) coordinates is

    K(p, q) = mu^n exp(m mu <z, z'>) / pi^(n+m) * F_m(t),
    t = exp(mu <z, z'>) <zeta, zeta'>,

where <u, w> = sum_i u_i conj(w_i) (linear in the first slot) and F_m is the
m-th derivative of the order -n polylogarithm, so F_m' = F_{m+1}.  All
derivative code below is analytic through that recursion; finite differences
appear only in the test-suite as an independent oracle.

Wirtinger convention: d/dz treats conj(z) as constant.  The metric entry
(i, k) is d^2 log K / (d conj(w_i) d z_k), rows indexed by the conjugated
second argument and columns by the first argument.
"""

from dataclasses import dataclass

import numpy as np

from .autgroup import Automorphism, jacobian
from .domain import DomainParams, Point, _norm2, check_point
from .errors import (
    DimensionMismatch,
    DoesNotFixOrigin,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    OutsideDomain,
)
from .polylog import _power, log_derivatives, polylog_deriv

HERMITIAN_TOL = 1e-10
EIGEN_FLOOR = 1e-10


def inner(u, w):
    """Hermitian product sum_i u_i conj(w_i) over the last axis, linear in the
    first slot; the leading axes of u and w broadcast against each other.

    Computed as conj(w conj(u)^T) so that only u and the result are
    conjugated: a large w, such as a batch of kernel rows, is never copied.
    """
    u = np.asarray(u, dtype=complex)
    w = np.asarray(w, dtype=complex)
    try:
        if u.ndim == 1:  # one vector against rows: a single BLAS matrix-vector product
            return np.conj(w @ u.conj())
        return np.conj((w[..., None, :] @ u.conj()[..., :, None])[..., 0, 0])
    except (ValueError, IndexError):
        raise DimensionMismatch(f"inner product shapes {u.shape}, {w.shape} do not match") from None


@dataclass(frozen=True)
class KernelValue:
    """Kernel value together with the intermediate argument t.

    Both are arrays over the broadcast leading shape of stacked arguments.
    On the diagonal p = q the value is real positive and t lies in [0, 1).
    """

    value: complex | np.ndarray
    t_arg: complex | np.ndarray


def _kernel_args(params: DomainParams, p: Point, Z: np.ndarray, Zeta: np.ndarray):
    """s = <p.z, Z>, t = E <p.zeta, Zeta> and E = exp(mu s), broadcast over
    leading axes; E is the one complex exponential of a kernel row."""
    check_point(params, p)
    s = inner(p.z, Z)
    E = np.exp(params.mu * s)
    w = inner(p.zeta, Zeta)  # fresh, so t = E w (E first: bit for bit) may overwrite it
    return s, np.multiply(E, w, out=w if np.ndim(w) else None), E


def _kernel_rows(params: DomainParams, p: Point, Z: np.ndarray, Zeta: np.ndarray):
    """(s, t, K(p, q)) against q = (Z, Zeta).  The kernel formula is written
    down here, and in logs, without its constant, in verify.check_gram_psd.
    One complex exponential per row: exp(m mu s) is E^m, E squared in place."""
    s, t, E = _kernel_args(params, p, Z, Zeta)
    values = _power(E, params.m)
    values *= params.kernel_constant
    values *= polylog_deriv(params.n, params.m, t)
    return s, t, values


def kernel(params: DomainParams, p: Point, q: Point) -> KernelValue:
    """Evaluate K(p, q), broadcast over stacked points; Hermitian in its arguments.

    Raises NotFinite for non-finite coordinates and OutsideDomain unless
    every point lies strictly inside the domain, ||zeta||^2 < exp(-mu ||z||^2),
    compared in logs so that the slice zeta = 0 passes even where
    exp(-mu ||z||^2) underflows.  Raises PoleProximity when t falls inside
    the guard band around 1.
    """
    _check_interior(params, p, q)
    _, t, values = _kernel_rows(params, p, q.z, q.zeta)
    return KernelValue(value=values, t_arg=t)


def _check_interior(params: DomainParams, *points: Point) -> None:
    for x in points:
        if not (np.isfinite(x.z).all() and np.isfinite(x.zeta).all()):
            raise NotFinite("kernel evaluations take finite coordinates")
        with np.errstate(divide="ignore"):
            if not np.all(np.log(_norm2(x.zeta)) < -params.mu * _norm2(x.z)):
                raise OutsideDomain("kernel evaluations take points strictly inside the domain")


def kernel_batch(params: DomainParams, p: Point, Z: np.ndarray, Zeta: np.ndarray):
    """Kernel values K(p, q_i) against a batch of second arguments.

    Z has shape (count, n) and Zeta (count, m); returns (values, t_args) as
    complex arrays of length count.  Same formula as kernel() on a stacked
    Point, without copying the rows into one and without kernel()'s checks
    that the rows are finite and inside the domain.
    """
    if np.ndim(Z) != 2 or np.shape(Z)[1] != params.n or np.shape(Zeta) != (len(Z), params.m):
        raise DimensionMismatch("batch shapes must be (count, n) and (count, m)")
    _, t, values = _kernel_rows(params, p, Z, Zeta)
    return values, t


def _log_kernel_pieces(params: DomainParams, p: Point, q: Point):
    """t, E = exp(mu s), G = F_{m+1}/F_m and H = G' at t, broadcast and checked
    like kernel(); K is never formed, so an underflow of exp(m mu s) is not a
    zero, and KernelZero is raised only where F_m(t) = 0 (log_derivatives)."""
    _check_interior(params, p, q)
    _, t, E = _kernel_args(params, p, q.z, q.zeta)
    return (t, E) + log_derivatives(params.n, params.m, t)


def log_kernel_grad_wbar(params: DomainParams, p: Point, q: Point) -> np.ndarray:
    """Conjugate-Wirtinger gradient of log K(p, w) in w at w = q, along the last axis.

    From log K = n log mu - (n+m) log pi + m mu <z, z'> + log F_m(t):

        d/d conj(z'_i)    = mu z_i (m + t F_{m+1}(t)/F_m(t)),
        d/d conj(zeta'_i) = exp(mu s) zeta_i F_{m+1}(t)/F_m(t).
    """
    t, E, G, _ = _log_kernel_pieces(params, p, q)
    grad_z = params.mu * p.z * (params.m + t * G)[..., None]
    grad_zeta = E[..., None] * p.zeta * G[..., None]
    return np.concatenate([grad_z, grad_zeta], axis=-1)


def metric(params: DomainParams, p: Point, q: Point) -> np.ndarray:
    """Mixed Wirtinger Hessian of log K: entry (i, k) is
    d^2 log K / (d conj(w_i) d z_k) evaluated at (p, q), in the last two axes.

    Analytic blocks, with E = exp(mu s), G = F_{m+1}/F_m,
    H = F_{m+2}/F_m - G^2 and W = G + t H:

        [ mu (m + t G) I_n + mu^2 t W z zbar'      mu E W z zetabar'        ]
        [ mu E W zeta zbar'                        E G I_m + E^2 H zeta zetabar' ]

    Hermitian positive definite on the diagonal; at q = origin it collapses
    to the constant diag(m mu I_n, (F_{m+1}(0)/F_m(0)) I_m).  Raises
    KernelZero only where F_m(t) = 0, not where exp(m mu s) underflows.
    """
    t, E, G, H = (x[..., None, None] for x in _log_kernel_pieces(params, p, q))
    W = G + t * H
    mu, n = params.mu, params.n
    z, zeta = p.z[..., :, None], p.zeta[..., :, None]
    zbar, zetabar = q.z.conj()[..., None, :], q.zeta.conj()[..., None, :]
    # One output array, each block written into it bit for bit as above
    T = np.empty(t.shape[:-2] + (params.dim, params.dim), dtype=complex)
    np.multiply(mu * mu * t * W, z * zbar, out=T[..., :n, :n])
    np.multiply(mu * E * W, z * zetabar, out=T[..., :n, n:])
    np.multiply(mu * E * W, zeta * zbar, out=T[..., n:, :n])
    np.multiply(E * E * H, zeta * zetabar, out=T[..., n:, n:])
    T[..., :n, :n] += mu * (params.m + t * G) * np.eye(n)
    T[..., n:, n:] += E * G * np.eye(params.m)
    return T


def _origin_metric_diagonal(params: DomainParams) -> np.ndarray:
    """Diagonal of T(0,0) = diag(m mu I_n, (m+1)^(n+1)/m^n I_m).

    Closed form of metric(o, o): at t = 0 only the k = j term of
    sum_j j^n t^j survives k derivatives, so F_k(0) = k! k^n and
    G(0) = F_{m+1}(0)/F_m(0) = (m+1)^(n+1)/m^n.
    """
    n, m = params.n, params.m
    return np.array([m * params.mu] * n + [(m + 1) ** (n + 1) / m ** n] * m)


def _checked_hermitian(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {M.shape}")
    dev = np.max(np.abs(M - M.conj().T))
    if not dev <= HERMITIAN_TOL:
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds {HERMITIAN_TOL}")
    return (M + M.conj().T) / 2.0


def _eig_power(M, power: float) -> np.ndarray:
    Mh = _checked_hermitian(M)
    w, V = np.linalg.eigh(Mh)
    if not w.min() > EIGEN_FLOOR:
        raise NotPositiveDefinite(
            f"minimum eigenvalue {w.min():.3e} at or below floor {EIGEN_FLOOR}"
        )
    R = (V * w ** power) @ V.conj().T
    return (R + R.conj().T) / 2.0


def sqrt_pd(M) -> np.ndarray:
    """Hermitian positive-definite square root via eigendecomposition."""
    return _eig_power(M, 0.5)


def inv_sqrt_pd(M) -> np.ndarray:
    """Hermitian positive-definite inverse square root."""
    return _eig_power(M, -0.5)


def representative_map(params: DomainParams, p: Point) -> np.ndarray:
    """Origin-normalized representative of p, one row per point of a stack:

        T(0,0)^(-1/2) grad_wbar log [K(p, w) / K(0, w)] at w = 0.

    grad_wbar log K(0, w) is proportional to the coordinates of 0, so only
    the first gradient is evaluated, scaled by the closed-form diagonal of
    T(0,0).  On this domain the result coincides with T(0,0)^(1/2) p, which
    the test-suite verifies rather than assumes.
    """
    g = log_kernel_grad_wbar(params, p, Point.origin(params))
    return g / np.sqrt(_origin_metric_diagonal(params))


def l_matrix(params: DomainParams, phi: Automorphism) -> np.ndarray:
    """L = T(0,0)^(-1/2) (J^H)^(-1) T(0,0)^(1/2) with J = J(phi, 0), one per
    automorphism of a stack: it conjugates the representative map of phi
    into a linear action.  phi must fix the origin (||v|| <= 1e-12), so it
    is the linear map U + U'; J = diag(U, U') is unitary and commutes with
    the block-scalar T(0,0), so the factors cancel and L = J.
    """
    norm = np.max(np.linalg.norm(phi.v, axis=-1))
    if not norm <= 1e-12:
        raise DoesNotFixOrigin(f"translation part has norm {norm:.3e}")
    return jacobian(params, phi, Point.origin(params))
