"""Independent numerical oracles for the test-suite.

Nothing here shares code paths with the production derivatives: the series
oracle sums the defining power series directly, the Stirling closed form
builds the numerators without the recurrences a_poly uses, and the
finite-difference oracles only ever call the functions they are checking at
perturbed points.
The per-part suite runner is the reference for run_suite's one call per
suite and its lazily drawn automorphism stack: it shares the checks and the
stacked draws, draws the stack before any suite, and checks the draws slice
by slice.  The block metric
is the reference for metric, bit for bit: it shares _kernel_args and
log_derivatives, not _metric_parts.  The metric-diagonal gradient,
[mu z (m + t G), E zeta G] in closed form, is the reference for
log_kernel_grad_wbar up to rounding, so the closed form checks the
gradient's assembly from _metric_parts.  The one-stream Haar draw is the
reference for the draw order of random_automorphism at an int seed.  The
kernel formula is
the reference for the kernel core's powers by squaring; it shares only the
Hermitian product.  The exact F_m evaluates a_poly's integer numerator in
rational arithmetic and rounds once; the exact Taylor coefficient of any
integer polynomial is computed in integers and never rounded.  The Horner jet
is the loop that PolyExact.jet's blocks replaced, the reference for its
shapes.  The blockwise Monte-Carlo estimator is the reference for mc's streamed moments: it shares the block draws and
weights, and takes their mean and standard deviation in two passes over the
concatenated weights.  The one-expression interior sampler and density are
the references for the in-place fibre scale and exponential, bit for bit:
same generator and draw order, full-size temporaries, and their own norm.
The representative map by gradient is the reference for its closed form:
it evaluates the kernel gradient and the metric at the origin, never the
closed-form origin metric.  The log kernel reference is the two lines the
Gram check once held, the reference for bergman._log_kernel bit for bit.
"""

import math
from dataclasses import astuple
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from fbh import verify
from fbh.autgroup import apply
from fbh.bergman import _kernel_args, inner, kernel, log_kernel_grad_wbar, metric
from fbh.domain import Point, sample_interior_arrays
from fbh.polylog import _exp, _guarded, a_poly, log_derivatives

# Central-difference step balancing truncation against rounding for first
# derivatives in double precision.
FD_STEP = 1e-5


def series_polylog_deriv(n, m, t, tail_bound=1e-13, max_terms=100_000):
    """Termwise m-th derivative of sum_{k>=1} k^n t^k, truncated so the
    geometric tail bound K^(n+m) |t|^(K-m) / (1 - |t|) falls below
    tail_bound."""
    at = abs(t)
    assert at < 1.0, "series oracle requires |t| < 1"
    # k^(n+m) |t|^(k-m) decreases once k exceeds (n+m)/log(1/|t|)
    k_start = int(np.ceil((n + m) / np.log(1.0 / at))) + m + 2
    K = k_start
    while K ** (n + m) * at ** (K - m) / (1.0 - at) >= tail_bound:
        K += 1
        assert K < max_terms, "series oracle failed to converge"
    total = 0.0 + 0.0j
    for k in range(max(1, m), K + 1):
        falling = 1.0
        for j in range(m):
            falling *= k - j
        total += k**n * falling * t ** (k - m)
    return total


def stirling2_recursive(n, k, _cache={}):
    """Memoized recursive Stirling recurrence, independent of the iterative
    production implementation."""
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    key = (n, k)
    if key not in _cache:
        _cache[key] = k * stirling2_recursive(n - 1, k) + stirling2_recursive(n - 1, k - 1)
    return _cache[key]


def a_poly_stirling(n, m):
    """Coefficients (lowest first) of the numerator A with d^m/dt^m
    sum_{k>=1} k^n t^k = A(t) / (1-t)^(n+m+1), from the closed form

        A(t) = m! sum_{j=0..n} (-1)^(n+j) (m+1)_j S(n+1, j+1) (1-t)^(n-j)

    with the recursive Stirling numbers and binomial expansions, and no
    recurrence in n or m.
    """
    coeffs = [0] * (n + 1)
    for j in range(n + 1):
        w = (-1) ** (n + j) * factorial(m) * prod(range(m + 1, m + 1 + j)) * stirling2_recursive(n + 1, j + 1)
        for i in range(n - j + 1):
            coeffs[i] += w * (-1) ** i * comb(n - j, i)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def eulerian_numerator(n, m):
    """Coefficients (lowest first) of P with d^m/dt^m sum_{k>=1} k^n t^k =
    P(t) / (1-t)^(n+m+1), from Eulerian numbers and no Stirling numbers.

    Li_{-n}(t) = t sum_k E(n, k) t^k / (1-t)^(n+1) with the explicit
    E(n, k) = sum_j (-1)^j C(n+1, j) (k+1-j)^n; each derivative maps
    P / (1-t)^e to (P' (1-t) + e P) / (1-t)^(e+1).
    """
    poly = [0] + [
        sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))
        for k in range(n)
    ]
    for e in range(n + 1, n + m + 1):
        dp = [i * poly[i] for i in range(1, len(poly))] + [0]
        poly = [dp[i] - (dp[i - 1] if i else 0) + e * poly[i] for i in range(len(poly))]
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def kernel_formula(params, p, Z, Zeta):
    """(K(p, q_i), t_i) against rows q_i = (Z_i, Zeta_i), written as in
    README.md: mu^n exp(m mu s) / pi^(n+m) * A(t) / (1-t)^(n+m+1), with
    s = <z_p, Z_i>, t = exp(mu s) <zeta_p, Zeta_i> and A the Eulerian
    numerator evaluated by numpy's polyval.  Only s and the zeta product come
    from bergman.inner, so that the conditioning of s does not enter."""
    n, m, mu = params.n, params.m, params.mu
    s = inner(p.z, Z)
    t = np.exp(mu * s) * inner(p.zeta, Zeta)
    A = np.polynomial.polynomial.polyval(t, [float(c) for c in eulerian_numerator(n, m)])
    return mu**n * np.exp(m * mu * s) / math.pi ** (n + m) * A / (1 - t) ** (n + m + 1), t


def log_kernel_reference(params, s, t):
    """log(K / kernel_constant) from the s and t of _kernel_args, as
    verify.check_gram_psd wrote it: m mu s + log A(t) - (n+m+1) log(1-t)."""
    t, u = _guarded(params.n, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = params.m * params.mu * s + np.log(a_poly(params.n, params.m).eval(t))
        L -= (params.dim + 1) * np.log(u)
    return L


def exact_polylog_deriv(n, m, t):
    """F_m(t) = A(t) / (1-t)^(n+m+1) at the binary value of the complex t, in
    exact rational arithmetic on a_poly(n, m)'s integer coefficients, rounded
    once to a complex float; None where that value overflows."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    x = (Fraction(t.real), Fraction(t.imag))
    num = (Fraction(0), Fraction(0))
    for c in reversed(a_poly(n, m).coeffs):
        num = mul(num, x)
        num = (num[0] + c, num[1])
    den = (Fraction(1), Fraction(0))
    for _ in range(n + m + 1):
        den = mul(den, (1 - x[0], -x[1]))
    norm = den[0] ** 2 + den[1] ** 2
    re, im = mul(num, (den[0] / norm, -den[1] / norm))
    if max(abs(re), abs(im)) > Fraction(np.finfo(float).max):
        return None
    return complex(float(re), float(im))


def exact_taylor(coeffs, t, j):
    """The j-th Taylor coefficient sum_i C(i, j) a_i t^(i-j) of the polynomial
    with integer coefficients `coeffs` (lowest degree first) at the binary
    value of the complex t, exactly: (re, im) as Fractions.  Horner on
    integers, with t = (x + iy) / 2^e, and one division at the end."""
    c = [comb(i, j) * a for i, a in enumerate(coeffs)][j:]
    if not c:
        return Fraction(0), Fraction(0)
    x, y = Fraction(t.real), Fraction(t.imag)
    e = max(x.denominator, y.denominator).bit_length() - 1
    X, Y, d = int(x * 2**e), int(y * 2**e), len(c) - 1
    re = im = 0
    for i in range(d, -1, -1):
        re, im = re * X - im * Y + (c[i] << (e * (d - i))), re * Y + im * X
    return Fraction(re, 1 << (e * d)), Fraction(im, 1 << (e * d))


def horner_jet(coeffs, t, k):
    """[A(t), A'(t), ..., A^(k)(t)/k!] for the integer polynomial `coeffs` by
    one Horner pass with derivatives (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 5.1), on fresh complex arrays: the
    coefficient-by-coefficient loop that PolyExact.jet's blocks replace."""
    t = np.asarray(t, dtype=complex)
    y = [t * 0.0 for _ in range(k + 1)]
    for c in reversed(coeffs):
        for j in range(k, 0, -1):
            y[j] = y[j] * t + y[j - 1]
        y[0] = y[0] * t + float(c)
    return y


def representative_map_by_gradient(params, p):
    """T(0,0)^(-1/2) grad_wbar log K(p, w) at w = 0: the kernel gradient at
    the origin over the square root of metric(o, o)'s diagonal."""
    o = Point.origin(params)
    return log_kernel_grad_wbar(params, p, o) / np.sqrt(np.diagonal(metric(params, o, o)).real)


def perturb(p: Point, index: int, delta: complex) -> Point:
    """Copy of p with `delta` added to coordinate `index` of (z, zeta)."""
    z = p.z.copy()
    zeta = p.zeta.copy()
    if index < len(z):
        z[index] += delta
    else:
        zeta[index - len(z)] += delta
    return Point(z, zeta)


def fd_grad_wbar_log_kernel(params, p, q, h=FD_STEP):
    """Conjugate-Wirtinger gradient (d/da + i d/db)/2 of log K(p, .) at q by
    central differences, evaluated through logs of kernel ratios so branch
    cuts of the complex logarithm cannot bite."""
    N = params.dim
    out = np.empty(N, dtype=complex)
    for i in range(N):
        ratio_re = (
            kernel(params, p, perturb(q, i, +h)).value
            / kernel(params, p, perturb(q, i, -h)).value
        )
        ratio_im = (
            kernel(params, p, perturb(q, i, +1j * h)).value
            / kernel(params, p, perturb(q, i, -1j * h)).value
        )
        da = np.log(ratio_re) / (2 * h)
        db = np.log(ratio_im) / (2 * h)
        out[i] = 0.5 * (da + 1j * db)
    return out


def fd_metric(params, p, q, h=FD_STEP):
    """Finite-difference metric: holomorphic derivative (d/dx - i d/dy)/2 of
    the analytic gradient in the first argument, column by column.

    A direct second difference of log K at this step size would sit at the
    eps/h^2 rounding floor near 1e-5; differencing the gradient keeps each
    layer first-order so the oracle resolves 1e-6 comfortably.
    """
    N = params.dim
    T = np.empty((N, N), dtype=complex)
    for k in range(N):
        gx = (
            log_kernel_grad_wbar(params, perturb(p, k, +h), q)
            - log_kernel_grad_wbar(params, perturb(p, k, -h), q)
        ) / (2 * h)
        gy = (
            log_kernel_grad_wbar(params, perturb(p, k, +1j * h), q)
            - log_kernel_grad_wbar(params, perturb(p, k, -1j * h), q)
        ) / (2 * h)
        T[:, k] = 0.5 * (gx - 1j * gy)
    return T


def metric_block(params, p, q):
    """Reference for bergman.metric: the four blocks written as formulas, with
    zeta scaled by E = exp(mu s) first, and joined with np.block."""
    s, t = _kernel_args(params, p, q.z, q.zeta)[:2]
    G, H = log_derivatives(params.n, params.m, t)
    s, t, G, H = (x[..., None, None] for x in (s, t, G, H))
    E = _exp(s, params.mu)
    W = G + t * H
    mu = params.mu
    z, zeta = p.z[..., :, None], E * p.zeta[..., :, None]
    zbar, zetabar = q.z.conj()[..., None, :], E * q.zeta.conj()[..., None, :]
    zz = mu * (params.m + t * G) * np.eye(params.n) + mu * mu * t * W * (z * zbar)
    z_zeta = mu * W * (z * zetabar)
    zeta_z = mu * W * (zeta * zbar)
    zeta_zeta = E * G * np.eye(params.m) + H * (zeta * zetabar)
    return np.block([[zz, z_zeta], [zeta_z, zeta_zeta]])


def grad_wbar_by_metric_diagonal(params, p, q):
    """Reference for bergman.log_kernel_grad_wbar: the metric's diagonal part
    applied to p in closed form, [mu z (m + t G), E zeta G], from _kernel_args
    and log_derivatives, not from _metric_parts, which the gradient assembles."""
    _, t, E = _kernel_args(params, p, q.z, q.zeta)
    G = log_derivatives(params.n, params.m, t)[0]
    grad_z = params.mu * p.z * (params.m + t * G)[..., None]
    return np.concatenate([grad_z, E[..., None] * p.zeta * G[..., None]], axis=-1)


def fd_jacobian(params, a, p, h=FD_STEP):
    """Finite-difference holomorphic Jacobian of the automorphism action."""
    N = params.dim
    J = np.empty((N, N), dtype=complex)
    for k in range(N):
        fx = (
            apply(params, a, perturb(p, k, +h)).coords()
            - apply(params, a, perturb(p, k, -h)).coords()
        ) / (2 * h)
        fy = (
            apply(params, a, perturb(p, k, +1j * h)).coords()
            - apply(params, a, perturb(p, k, -1j * h)).coords()
        ) / (2 * h)
        J[:, k] = 0.5 * (fx - 1j * fy)
    return J


def stack(points) -> Point:
    """The listed Points as one stacked Point, list index first."""
    return Point(np.array([p.z for p in points]), np.array([p.zeta for p in points]))


def singles(X: Point) -> list:
    """The points of a stack along its first axis, as a list of single Points."""
    return [Point(z, zeta) for z, zeta in zip(X.z, X.zeta)]


def assert_rows_match(stacked, singles, rtol=1e-13):
    """Row i of a stacked result equals the i-th one-point result to rtol,
    relative to that result's max-norm."""
    singles = np.array(singles)
    assert np.shape(stacked) == singles.shape
    count = len(singles)
    err = np.max(np.abs(stacked - singles).reshape(count, -1), axis=1)
    scale = np.max(np.abs(singles).reshape(count, -1), axis=1)
    assert np.all(err <= rtol * scale), np.max(err / scale)


def haar_one_stream(params, seed):
    """Reference for random_automorphism at one int seed: U, U' and v drawn
    from one default_rng(seed) in that order, with one generator call per
    real or imaginary part."""
    rng = np.random.default_rng(seed)

    def haar(dim):
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    U, Up = haar(params.n), haar(params.m)
    return U, Up, (rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)) / np.sqrt(2)


def sample_pairs_per_pair(params, seed, count):
    """Reference for verify.sample_pairs: the same chunked draws from one
    stream, kept pair by pair as a list of single-Point pairs."""
    pairs, rng = [], np.random.default_rng(seed)
    while len(pairs) < count:
        Z, Zeta = sample_interior_arrays(params, rng, 2 * (count - len(pairs)) + 8)
        for i in range(0, len(Z), 2):
            p, q = Point(Z[i], Zeta[i]), Point(Z[i + 1], Zeta[i + 1])
            guarded = abs(1.0 - kernel(params, p, q).t_arg) > verify.PAIR_POLE_DISTANCE
            if guarded and len(pairs) < count:
                pairs.append((p, q))
    return pairs


def mc_blockwise(params, seed, samples):
    """Reference for verify.mc_reproduce_constant: the (estimate, stderr) of
    the same _MC_BLOCK-row blocks of one stream, by a two-pass mean and
    standard deviation over every block's weights kept in one array."""
    rng, weights = np.random.default_rng(seed), []
    for start in range(0, samples, verify._MC_BLOCK):
        Z, Zeta = verify.sample_interior_arrays(params, rng, min(verify._MC_BLOCK, samples - start))
        values, _ = verify.kernel_batch(params, Point.origin(params), Z, Zeta)
        weights.append(values.real / verify.sample_density_arrays(params, Z))
    weights = np.concatenate(weights)
    return float(weights.mean()), float(weights.std(ddof=1) / math.sqrt(samples))


def _norm2_reference(x):
    return np.sum(x.real**2 + x.imag**2, axis=-1)


def sample_interior_reference(params, seed, count):
    """domain.sample_interior_arrays with its fibre scale as one expression."""
    rng = np.random.default_rng(seed)
    lead = tuple(count) if np.ndim(count) else (count,)
    Z, Zeta = np.empty(lead + (params.n,), complex), np.empty(lead + (params.m,), complex)
    for part in (Z.real, Z.imag, Zeta.real, Zeta.imag):
        part[...] = rng.standard_normal(part.shape)
    Z *= math.sqrt(1.0 / (2.0 * params.mu))
    u = rng.random(lead)
    scale = (
        np.exp(-params.mu * _norm2_reference(Z) / 2.0)
        * u ** (1.0 / (2 * params.m))
        / np.sqrt(_norm2_reference(Zeta))
    )
    Zeta *= scale[..., None]
    return Z, Zeta


def density_reference(params, Z):
    """domain.sample_density_arrays as one expression."""
    density = np.exp((params.m - 1) * params.mu * _norm2_reference(np.asarray(Z, dtype=complex)))
    return density * ((params.mu / math.pi) ** params.n * factorial(params.m) / math.pi**params.m)


def _merge_parts(reports, seed):
    """One report from per-part reports: the largest residual and detail
    (NaN-propagating), the summed sample count."""
    first = reports[0]
    details = {}
    for r in reports:
        for k, v in r.details.items():
            details[k] = float(np.maximum(details.get(k, v), v))
    residual = float(np.max([r.max_residual for r in reports], initial=0.0))
    return verify.CheckReport(
        name=first.name,
        max_residual=residual,
        tolerance=first.tolerance,
        samples=sum(r.samples for r in reports),
        passed=bool(residual <= first.tolerance),
        seed=seed,
        residual_kind=first.residual_kind,
        details=details,
    )


def _part(draw, j):
    """Part j of a stacked draw: an Automorphism, a Point, an array, or a tuple
    of them such as (P, Q) pairs or metric-law's (P, Q, X)."""
    if isinstance(draw, tuple):
        return tuple(_part(x, j) for x in draw)
    if isinstance(draw, np.ndarray):
        return draw[j]
    return type(draw)(*(x[j] for x in astuple(draw)))


def run_suite_per_part(params, seed, suites):
    """Reference for verify.run_suite: the shared automorphism stack and every
    suite's samples are drawn as _SUITE_TABLE says, the stack up front, each
    part's slice of them is checked in a call of its own, and the part
    reports are merged."""
    stack = verify.random_automorphism(params, np.random.default_rng([seed, verify.AUT_KEY]), (verify.AUT_PARTS, 1))
    reports = []
    for name in suites:
        check, aut, sampler, count, parts, key = verify._SUITE_TABLE[name]
        fn = getattr(verify, check)
        rng = np.random.default_rng([seed, key])
        if sampler is None:
            reports.append(_merge_parts([fn(params, rng, count)], seed))
            continue
        auts = None if aut is None else stack if aut == "stack" else getattr(verify, aut)(stack)
        draws = getattr(verify, sampler)(params, rng, (parts, count))
        part_reports = []
        for j in range(parts):
            args = [params] if auts is None else [params, _part(auts, (j, 0))]
            part_reports.append(fn(*args, _part(draws, j), None))
        reports.append(_merge_parts(part_reports, seed))
    return reports
