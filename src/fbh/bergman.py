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
from .domain import DomainParams, Point, _check_interior, check_point
from .errors import DimensionMismatch, DoesNotFixOrigin, NotFinite, NotHermitian, NotPositiveDefinite
from .polylog import _exp, _guarded, _power, a_poly, log_derivatives, polylog_deriv

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
    """s = <p.z, Z>, t = E <p.zeta, Zeta> and E = exp(mu s), broadcast over leading axes; E, the
    one exponential of a kernel row, is exp(mu Re s) times a unit phase from tan(mu Im s / 2)."""
    check_point(params, p)
    s = inner(p.z, Z)
    E = _exp(s, params.mu)
    w = inner(p.zeta, Zeta)  # fresh, so t = E w (E first: bit for bit) may overwrite it
    return s, np.multiply(E, w, out=w if np.ndim(w) else None), E


def _kernel_rows(params: DomainParams, p: Point, Z: np.ndarray, Zeta: np.ndarray):
    """(t, K(p, q)) against q = (Z, Zeta).  The kernel formula is written down
    here; _log_kernel is its log form.  One exponential per row
    (polylog._exp): exp(m mu s) is E^m, E squared in place."""
    _, t, E = _kernel_args(params, p, Z, Zeta)
    values = _power(E, params.m)
    values *= params.kernel_constant
    values *= polylog_deriv(params.n, params.m, t)
    return t, values


def _log_kernel(params: DomainParams, s, t):
    """log(K / kernel_constant) = m mu s + log A(t) - (n+m+1) log(1-t) from _kernel_args' s, t:
    finite where K overflows, with no warning, behind polylog_deriv's pole guard (PoleProximity)."""
    t, u = _guarded(params.n, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = params.m * params.mu * s + np.log(a_poly(params.n, params.m).eval(t))
        L -= (params.dim + 1) * np.log(u)
    return L


def kernel(params: DomainParams, p: Point, q: Point) -> KernelValue:
    """Evaluate K(p, q), broadcast over stacked points; Hermitian in its arguments.

    Every point passes the domain's one interior check, domain._check_interior
    (DimensionMismatch, NotFinite, or OutsideDomain unless strictly inside).
    Raises PoleProximity when t falls inside the guard band around 1.
    """
    _check_interior(params, p, q)
    t, values = _kernel_rows(params, p, q.z, q.zeta)
    return KernelValue(value=values, t_arg=t)


def kernel_batch(params: DomainParams, p: Point, Z: np.ndarray, Zeta: np.ndarray):
    """Kernel values K(p, q_i) against a batch of second arguments.

    Z has shape (count, n) and Zeta (count, m); returns (values, t_args) as
    complex arrays of length count.  Same formula as kernel() on a stacked
    Point, without copying the rows into one and without kernel()'s checks
    that the rows are finite and inside the domain.
    """
    if np.ndim(Z) != 2 or np.shape(Z)[1] != params.n or np.shape(Zeta) != (len(Z), params.m):
        raise DimensionMismatch("batch shapes must be (count, n) and (count, m)")
    t, values = _kernel_rows(params, p, Z, Zeta)
    return values, t


def _metric_parts(params: DomainParams, p: Point, q: Point):
    """(alpha, G, E, C) of T(p, q) = diag(alpha I_n, E G I_m) + B_p C B_q^H, with

        B_p = [[z, 0], [0, E zeta]],   B_q^H = [[zbar', 0], [0, E zetabar']],
        alpha = mu (m + t G),   C = [[mu^2 t W, mu W], [mu W, H]]

    in the notation of metric().  E scales zeta before C acts and meets G only
    in the diagonal, so no E^2 is formed and zeta = 0 reads 0 wherever E is
    finite.  alpha, G and E carry the pairs' broadcast leading shape and (1, 1),
    to scale matrices, C that shape and (2, 2).  Points are checked like
    kernel()'s; K is never formed, so KernelZero is raised only where F_m(t) = 0."""
    _check_interior(params, p, q)
    _, t, E = _kernel_args(params, p, q.z, q.zeta)
    # the trailing axes keep even one pair's products in numpy's array loops,
    # whose complex rounding metric()'s bytes follow, not in scalar arithmetic
    t, G, H = (x[..., None, None] for x in (t,) + log_derivatives(params.n, params.m, t))
    W = G + t * H
    mu = params.mu
    C = np.concatenate([mu * mu * t * W, mu * W, mu * W, H], axis=-1).reshape(t.shape[:-2] + (2, 2))
    return mu * (params.m + t * G), G, E[..., None, None], C


def log_kernel_grad_wbar(params: DomainParams, p: Point, q: Point) -> np.ndarray:
    """Conjugate-Wirtinger gradient of log K(p, w) in w at w = q, along the last axis.

    From log K = n log mu - (n+m) log pi + m mu <z, z'> + log F_m(t) it is
    [alpha z, (E zeta) G], the metric's diagonal part applied to p (_metric_parts).
    """
    alpha, G, E = (x[..., 0] for x in _metric_parts(params, p, q)[:3])
    return np.concatenate([alpha * p.z, E * p.zeta * G], axis=-1)


def _metric_times(params: DomainParams, p: Point, q: Point, X) -> np.ndarray:
    """T(p, q) X for column blocks X of shape (..., N, k), T never formed: the
    diagonal scales X, and B_p C B_q^H X costs two inner products per column.
    X's leading axes broadcast against those of the pairs."""
    alpha, G, E, C = _metric_parts(params, p, q)
    X_z, X_zeta = X[..., :params.n, :], X[..., params.n:, :]
    Bq_X = np.concatenate([q.z.conj()[..., None, :] @ X_z, E * (q.zeta.conj()[..., None, :] @ X_zeta)], axis=-2)
    D = C @ Bq_X  # (..., 2, k)
    return np.concatenate([
        alpha * X_z + p.z[..., :, None] * D[..., :1, :],
        E * G * X_zeta + E * p.zeta[..., :, None] * D[..., 1:, :],
    ], axis=-2)


def metric(params: DomainParams, p: Point, q: Point) -> np.ndarray:
    """Mixed Wirtinger Hessian of log K: entry (i, k) is
    d^2 log K / (d conj(w_i) d z_k) evaluated at (p, q), in the last two axes.

    Analytic blocks, with E = exp(mu s), G = F_{m+1}/F_m,
    H = F_{m+2}/F_m - G^2 and W = G + t H:

        [ mu (m + t G) I_n + mu^2 t W z zbar'    mu W z (E zetabar')               ]
        [ mu W (E zeta) zbar'                    E G I_m + H (E zeta) (E zetabar') ]

    np.block joins these over _metric_parts, which _metric_times applies without
    forming T.  Hermitian positive definite on the diagonal; at q = origin it is
    the constant diag(m mu I_n, (F_{m+1}(0)/F_m(0)) I_m).  Raises KernelZero
    only where F_m(t) = 0, not where exp(m mu s) underflows, and NotFinite,
    with no warning, where an entry leaves the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, G, E, C = _metric_parts(params, p, q)
        z, zeta = p.z[..., :, None], E * p.zeta[..., :, None]
        zbar, zetabar = q.z.conj()[..., None, :], E * q.zeta.conj()[..., None, :]
        T = np.block([
            [a * np.eye(params.n) + C[..., 0, 0, None, None] * (z * zbar), C[..., 0, 1, None, None] * (z * zetabar)],
            [C[..., 1, 0, None, None] * (zeta * zbar),
             E * G * np.eye(params.m) + C[..., 1, 1, None, None] * (zeta * zetabar)],
        ])
    if not np.isfinite(T).all():
        raise NotFinite(f"{np.count_nonzero(~np.isfinite(T))} of {T.size} metric entries leave the float range")
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
    """Origin-normalized representative T(0,0)^(-1/2) grad_wbar log [K(p, w) / K(0, w)]
    at w = 0, one row per point of a stack.  There t = 0 and exp(mu s) = 1, so it is
    T(0,0)^(1/2) p, taken in closed form; the test-suite checks it against the gradient.
    p is checked like kernel()'s points.
    """
    _check_interior(params, p)
    return p.coords() * np.sqrt(_origin_metric_diagonal(params))


def l_matrix(params: DomainParams, phi: Automorphism) -> np.ndarray:
    """L = J(phi, 0), one per automorphism of a stack: the linear map that
    an origin-fixing phi is, by Cartan's theorem.  phi must fix the origin
    (||v|| <= 1e-12), so it is U + U' and J = diag(U, U').  This equals
    T(0,0)^(-1/2) (J^H)^(-1) T(0,0)^(1/2): J is unitary and commutes with
    the block-scalar T(0,0), so the factors cancel.
    """
    norm = np.max(np.linalg.norm(phi.v, axis=-1))
    if not norm <= 1e-12:
        raise DoesNotFixOrigin(f"translation part has norm {norm:.3e}")
    return jacobian(params, phi, Point.origin(params))
