"""eval-disk inputs and the exact-rational oracle that checks them.

Rows are interior points q_i = (z_i, zeta_i) of the domain, built around a
fixed interior point p so that t_i = exp(mu <z_p, z_i>) <zeta_p, zeta_i>
lands on a chosen target in the closed disk |t| <= 1 - 1e-3.  The targets
come from fixed-size strata (whole disk, near the pole t = 1, near t = -1,
the rim, the left half-disk), so the region mix is the same for every seed
and only the positions inside each stratum move.

The oracle never touches the package's float Horner path or its Stirling
coefficients: it rebuilds the numerator from Eulerian numbers, takes the
binary value of t with `fractions.Fraction`, evaluates in exact
Gaussian-integer arithmetic and rounds once, at the end.
"""

import math
from fractions import Fraction

import numpy as np

N_ORDER, M_ORDER, MU = 64, 8, 1.0
ROWS = 1 << 16
RIM = 1.0 - 1e-3  # largest |t| the rows reach
P_SLACK = 1e-6  # p sits this close (relatively) to the boundary

# (name, share of rows).  Shares sum to 1; counts are fixed per stratum.
STRATA = (
    ("disk", 0.40),  # area-uniform over |t| <= RIM
    ("pole", 0.20),  # |1 - t| log-uniform in [1e-3, 1e-1]
    ("minus_one", 0.15),  # |1 + t| log-uniform in [1e-3, 1e-1]
    ("rim", 0.10),  # 0.99 <= |t| <= RIM, any argument
    ("left", 0.15),  # area-uniform over the left half-disk
)
CHECK_PER_STRATUM = 256  # oracle rows per stratum, fixed positions
SCALAR_CHECK_ROWS = 32  # of those, rows also compared with scalar kernel()
REL_TOL = 1e-10  # the package's stated evaluator accuracy


def _near(rng, centre, count):
    """Targets centre (1 - d e^{i phi}) with d log-uniform in [1e-3, 1e-1]
    and phi kept inside the disk |t| <= RIM; every 64th sits at d = 1e-3,
    which forces t = centre * RIM on the real axis."""
    d = 10.0 ** rng.uniform(-3.0, -1.0, count)
    d[::64] = 1e-3
    # Largest angle off the real axis that keeps |centre - d e^{i phi}| <= RIM.
    cos_max = np.clip((1.0 + d * d - RIM * RIM) / (2.0 * d), -1.0, 1.0)
    phi = rng.uniform(-1.0, 1.0, count) * np.arccos(cos_max)
    return centre * (1.0 - d * np.exp(1j * phi))


def _targets(rng, count):
    """Fixed-count strata of t targets; returns (targets, stratum ids)."""
    sizes = [int(round(share * count)) for _, share in STRATA]
    sizes[0] += count - sum(sizes)
    parts, ids = [], []
    for k, ((name, _), size) in enumerate(zip(STRATA, sizes)):
        if name == "disk":
            r = RIM * np.sqrt(rng.random(size))
            arg = rng.uniform(-math.pi, math.pi, size)
        elif name == "pole":
            parts.append(_near(rng, 1.0, size))
            ids.append(np.full(size, k))
            continue
        elif name == "minus_one":
            parts.append(_near(rng, -1.0, size))
            ids.append(np.full(size, k))
            continue
        elif name == "rim":
            r = rng.uniform(0.99, RIM, size)
            arg = rng.uniform(-math.pi, math.pi, size)
        else:  # left half-disk
            r = RIM * np.sqrt(rng.random(size))
            arg = rng.uniform(0.5 * math.pi, 1.5 * math.pi, size)
        parts.append(r * np.exp(1j * arg))
        ids.append(np.full(size, k))
    return np.concatenate(parts), np.concatenate(ids)


def _unit(rng, shape):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def make_inputs(seed, rows=ROWS, n=N_ORDER, m=M_ORDER, mu=MU, chunk=8192):
    """Seeded eval-disk inputs.

    Returns a dict with p's coordinates, Z (rows, n), Zeta (rows, m), the
    target t per row, its stratum id and the checked row indices.  Built in
    chunks so the peak stays near the size of Z itself.
    """
    rng = np.random.default_rng([seed, 0x0D15C])
    z_p = _unit(rng, n)  # ||z_p|| = 1
    zeta_dir = _unit(rng, m)
    zeta_p = math.sqrt(math.exp(-mu) * (1.0 - P_SLACK)) * zeta_dir
    zeta_p2 = float(np.vdot(zeta_p, zeta_p).real)

    tau, stratum = _targets(rng, rows)
    order = rng.permutation(rows)
    tau, stratum = tau[order], stratum[order]

    Z = np.empty((rows, n), dtype=complex)
    Zeta = np.empty((rows, m), dtype=complex)
    for lo in range(0, rows, chunk):
        hi = min(rows, lo + chunk)
        tc = tau[lo:hi]
        # ||z_i - z_p||^2 may use a fraction of the room the interior
        # condition |t|^2 exp(mu ||z_i - z_p||^2) < 1 - P_SLACK leaves.
        room = -np.log(np.maximum(np.abs(tc) ** 2, 1e-300) / (1.0 - P_SLACK)) / mu
        step2 = np.minimum(rng.uniform(0.0, 0.9, hi - lo) * room, 4.0)
        Zc = z_p + np.sqrt(step2)[:, None] * _unit(rng, (hi - lo, n))
        E = np.exp(mu * (Zc.conj() @ z_p))
        lam = np.conj(tc / (E * zeta_p2))  # <zeta_p, lam zeta_p> E = t
        along = lam[:, None] * zeta_p
        # Orthogonal part: up to half of the fibre room left, t unchanged.
        free = np.exp(-mu * np.sum(np.abs(Zc) ** 2, axis=1)) - np.abs(lam) ** 2 * zeta_p2
        w = _unit(rng, (hi - lo, m))
        w -= np.outer(w @ zeta_dir.conj(), zeta_dir)
        w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-300)
        radius = np.sqrt(np.maximum(free, 0.0) * rng.uniform(0.0, 0.5, hi - lo))
        Z[lo:hi] = Zc
        Zeta[lo:hi] = along + radius[:, None] * w

    checked = np.concatenate(
        [np.flatnonzero(stratum == k)[:CHECK_PER_STRATUM] for k in range(len(STRATA))]
    )
    return {
        "z_p": z_p,
        "zeta_p": zeta_p,
        "Z": Z,
        "Zeta": Zeta,
        "tau": tau,
        "stratum": stratum,
        "checked": np.sort(checked),
    }


def interior_defects(Z, Zeta, mu=MU):
    """exp(-mu ||z||^2) - ||zeta||^2 per row, relative to exp(-mu ||z||^2)."""
    bound = np.exp(-mu * np.sum(np.abs(Z) ** 2, axis=1))
    return (bound - np.sum(np.abs(Zeta) ** 2, axis=1)) / bound


def region_mix(t):
    """Shares of rows with Re t < 0, |1 - t| < 1e-2 and |t| < 0.5, and the
    extremes of |1 - t| and |t|."""
    t = np.asarray(t)
    return {
        "re_t_lt_0": float(np.mean(t.real < 0.0)),
        "one_minus_t_lt_1e-2": float(np.mean(np.abs(1.0 - t) < 1e-2)),
        "abs_t_lt_0.5": float(np.mean(np.abs(t) < 0.5)),
        "min_one_minus_t": float(np.min(np.abs(1.0 - t))),
        "max_abs_t": float(np.max(np.abs(t))),
    }


# ------------------------------ exact oracle --------------------------------

_NUMERATORS = {}


def eulerian_numerator(n, m):
    """Integer coefficients (lowest first) of P with
    d^m/dt^m sum_{k>=1} k^n t^k = P(t) / (1 - t)^(n+m+1).

    Starts from Li_{-n}(t) = t A_n(t) / (1-t)^(n+1) with Eulerian numbers
    A(n, k), then applies d/dt [P/(1-t)^k] = (P'(1-t) + k P)/(1-t)^(k+1)
    m times.
    """
    key = (n, m)
    if key not in _NUMERATORS:
        row = [1]  # A(1, .)
        for i in range(2, n + 1):
            row = [
                (k + 1) * (row[k] if k < len(row) else 0)
                + (i - k) * (row[k - 1] if k >= 1 else 0)
                for k in range(i)
            ]
        poly = [0] + row  # t * A_n(t)
        order = n + 1
        for _ in range(m):
            deriv = [i * poly[i] for i in range(1, len(poly))] + [0]
            # P'(1 - t) + order * P
            nxt = [deriv[i] + order * poly[i] for i in range(len(poly))]
            for i in range(1, len(poly)):
                nxt[i] -= deriv[i - 1]
            while len(nxt) > 1 and nxt[-1] == 0:
                nxt.pop()
            poly, order = nxt, order + 1
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        _NUMERATORS[key] = tuple(poly)
    return _NUMERATORS[key]


def _dyadic(t):
    """(a, b, e) with t == (a + i b) / 2^e exactly."""
    re = Fraction(t.real)
    im = Fraction(t.imag)
    e = max(re.denominator.bit_length(), im.denominator.bit_length()) - 1
    scale = 1 << e
    return re.numerator * (scale // re.denominator), im.numerator * (scale // im.denominator), e


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gpow(x, k):
    out = (1, 0)
    while k:
        if k & 1:
            out = _gmul(out, x)
        x = _gmul(x, x)
        k >>= 1
    return out


def _scaled_numerator(coeffs, a, b, e):
    """2^(e d) P((a + i b) / 2^e) as a Gaussian integer, d = deg P."""
    d = len(coeffs) - 1
    acc = (coeffs[d], 0)
    for k in range(d - 1, -1, -1):
        acc = _gmul(acc, (a, b))
        acc = (acc[0] + (coeffs[k] << (e * (d - k))), acc[1])
    return acc


def exact_fm(n, m, t):
    """F_m(t) = P(t)/(1-t)^(n+m+1) at the binary value of t, exactly, as
    Gaussian-integer numerator parts and a positive integer denominator."""
    coeffs = eulerian_numerator(n, m)
    a, b, e = _dyadic(complex(t))
    d = len(coeffs) - 1
    acc = _scaled_numerator(coeffs, a, b, e)
    order = n + m + 1
    den = _gpow(((1 << e) - a, -b), order)
    num = _gmul(acc, (den[0], -den[1]))
    shift = e * (order - d)
    return num[0] << shift, num[1] << shift, den[0] * den[0] + den[1] * den[1]


def relerr(computed, exact):
    """|computed - X/den| / |X/den| for exact = (X_re, X_im, den); inf when
    the computed value is not finite.  Big-integer true division rounds
    correctly, so the only rounding is the final square root."""
    xr, xi, den = exact
    if not (math.isfinite(computed.real) and math.isfinite(computed.imag)):
        return math.inf
    cr, ci, ec = _dyadic(complex(computed))
    dr = cr * den - (xr << ec)
    di = ci * den - (xi << ec)
    mag2 = (xr * xr + xi * xi) << (2 * ec)
    if mag2 == 0:
        return 0.0 if dr == 0 and di == 0 else math.inf
    try:
        return math.sqrt((dr * dr + di * di) / mag2)
    except OverflowError:
        return math.inf


def exact_kernel(factor, n, m, t):
    """factor * F_m(t) exactly, with `factor` the float prefactor
    mu^n exp(m mu s) / pi^(n+m) taken at its binary value."""
    xr, xi, den = exact_fm(n, m, t)
    fr, fi, ef = _dyadic(complex(factor))
    return fr * xr - fi * xi, fr * xi + fi * xr, den << ef


def horner_condition(n, m, t):
    """A(|t|) / |A(t)| for the exact numerator A: the condition number of
    Horner evaluation, since every coefficient of A is positive (m >= 1)."""
    coeffs = eulerian_numerator(n, m)
    a, b, e = _dyadic(complex(t))
    d = len(coeffs) - 1
    acc = _scaled_numerator(coeffs, a, b, e)
    abs_t = abs(complex(t))
    summed = 0.0
    for c in reversed(coeffs):
        summed = summed * abs_t + c
    mag = math.sqrt((acc[0] * acc[0] + acc[1] * acc[1]) / (1 << (2 * e * d)))
    return summed / mag if mag > 0 else math.inf
