"""Numerical verification suites.

Each check samples deterministically from a seed, measures a residual and
reports pass/fail against its tolerance.  Residuals are relative wherever
the reference magnitude is nonzero and absolute otherwise; every report
records which convention it used.  Default tolerances reflect double
precision error accumulation across determinants and matrix products.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autgroup import Automorphism, _matvec, apply, haar_unitary, jacobian, jacobian_det, random_automorphism
# Nothing here calls sqrt_pd or inv_sqrt_pd; they stay as the benchmark's tracing-shim targets.
from .bergman import (
    _check_interior,
    _kernel_args,
    _kernel_rows,
    inv_sqrt_pd,
    kernel,
    kernel_batch,
    l_matrix,
    metric,
    representative_map,
    sqrt_pd,
)
from .domain import (
    DomainParams,
    Point,
    _integer,
    _leading,
    _norm2,
    defect,
    sample_boundary,
    sample_density_arrays,
    sample_interior,
    sample_interior_arrays,
)
from .errors import NotFinite, OutsideDomain
from .polylog import _guarded, a_poly

# One row per suite: (check, automorphism factory, sampler, sample count,
# parts, stream key).  Each suite draws from one default_rng([seed, key]):
# first its automorphisms, shaped (parts, 1), then its samples, shaped
# (parts, count); the check runs once on the stacks.  Without a sampler the
# check gets the stream and count.  Names resolve when the suite runs, so
# whatever the module attribute holds then gets called.
_SUITE_TABLE = {
    "kernel-law": ("check_kernel_law", "random_automorphism", "sample_pairs", 10, 10, 101),
    "metric-law": ("check_metric_law", "random_automorphism", "sample_pairs", 5, 10, 501),
    "cartan": ("check_cartan", "_rotation", "sample_interior", 10, 10, 901),
    "gram": ("check_gram_psd", None, "sample_interior", 40, 1, 1301),
    "mc": ("mc_reproduce_constant", None, None, 1_000_000, 1, 1501),
    "boundary": ("check_boundary_invariance", "random_automorphism", "sample_boundary", 50, 4, 1701),
}
SUITE_NAMES = tuple(_SUITE_TABLE)

MC_MIN_SAMPLES = 100_000  # fewest samples the Monte-Carlo check accepts

DEFAULT_TOLERANCES = {
    "kernel-law": 1e-8,
    "metric-law": 1e-7,
    "cartan": 1e-7,
    "gram": 1e-10,
    "boundary": 1e-12,
}

# Floor of the residual denominators, so a vanishing reference gives no NaN.
KERNEL_FLOOR = 1e-300

# Pair sampling for the law checks stays this far from the kernel pole;
# a conditioning choice, not a correctness one.
PAIR_POLE_DISTANCE = 1e-6

# Monte-Carlo rows per block: the check's memory is one block's, 1.25 MB traced at any sample count.
_MC_BLOCK = 2**13


@dataclass
class CheckReport:
    """Machine-readable outcome of one check."""

    name: str
    max_residual: float
    tolerance: float
    samples: int
    passed: bool
    seed: int | None  # None when drawn from a Generator or an entropy sequence
    residual_kind: str = "relative"
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, max_residual, tolerance, samples, seed, residual_kind, **details):
    """A CheckReport; tolerance None means DEFAULT_TOLERANCES[name]."""
    max_residual = float(max_residual)
    tolerance = float(DEFAULT_TOLERANCES[name] if tolerance is None else tolerance)
    return CheckReport(
        name=name,
        max_residual=max_residual,
        tolerance=tolerance,
        samples=int(samples),
        passed=bool(max_residual <= tolerance),
        seed=int(seed) if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) else None,
        residual_kind=residual_kind,
        details={k: float(v) for k, v in details.items()},
    )


def _worst(residuals) -> float:
    """Largest residual, 0 for none; a NaN anywhere makes the result NaN."""
    return float(np.max(residuals, initial=0.0))


def sample_pairs(params: DomainParams, seed, count):
    """Stacks (P, Q) of interior point pairs with |1 - t| above the pole
    guard, of leading shape count (an int or a shape); only t is computed.
    They are the guarded pairs of one stream, in order: rows 0 and 1 of an
    interior draw form its first pair, and a short draw is continued from
    the same stream.  A NaN t, which no draw mends, raises NotFinite."""
    rng = np.random.default_rng(seed)
    lead = _leading(count)
    need, kept = math.prod(lead), []
    while need:
        Z, Zeta = sample_interior_arrays(params, rng, 2 * need + 8)
        sides = [Z[0::2], Zeta[0::2], Z[1::2], Zeta[1::2]]
        t = _kernel_args(params, Point(*sides[:2]), *sides[2:])[1]
        if np.isnan(t).any():
            raise NotFinite(f"pair sampling drew a NaN t at {params}")
        guarded = np.abs(1.0 - t) > PAIR_POLE_DISTANCE
        kept.append([x[guarded][:need] for x in sides])
        need -= len(kept[-1][0])
    sides = [np.concatenate(x).reshape(lead + x[0].shape[-1:]) for x in zip(*kept)]
    return Point(*sides[:2]), Point(*sides[2:])


# ------------------------------ law checks ---------------------------------

def check_kernel_law(params, a: Automorphism, pairs, tolerance=None, seed=0) -> CheckReport:
    """Residual of K(p,q) = conj(det J(a,q)) K(a p, a q) det J(a,p), relative
    to |K(p,q)| per pair.  `pairs` is a tuple (P, Q) of stacked Points, whose
    leading shape broadcasts against that of a stacked `a`.  K at the images
    comes from the unchecked kernel core, so an action that leaves the
    domain fails the law instead of raising OutsideDomain."""
    P, Q = pairs
    kv = kernel(params, P, Q).value
    det_p, det_q = jacobian_det(params, a, P), jacobian_det(params, a, Q)
    aP, aQ = apply(params, a, P), apply(params, a, Q)
    image = _kernel_rows(params, aP, aQ.z, aQ.zeta)[2]
    rhs = np.conj(det_q) * image * det_p
    residuals = np.abs(kv - rhs) / np.maximum(np.abs(kv), KERNEL_FLOOR)
    return _report("kernel-law", _worst(residuals), tolerance, residuals.size, seed, "relative")


def check_metric_law(params, a: Automorphism, pairs, tolerance=None, seed=0) -> CheckReport:
    """Max-norm residual of T(p,q) = conj(J(a,q)^T) T(a p, a q) J(a,p),
    relative to the max-norm of T(p,q), over stacked pairs (P, Q) checked
    as in check_kernel_law; an image outside the domain fails with residual
    inf.  metric() never forms K, so an underflow of exp(m mu s) is not a
    zero: it raises KernelZero only where F_m(t) = 0.  At most three
    metric-sized stacks are live."""
    P, Q = pairs
    _check_interior(params, P, Q)
    aP, aQ = apply(params, a, P), apply(params, a, Q)
    try:  # no local holds the image metric: it is one of the three stacks
        rhs = np.conj(jacobian(params, a, Q)).swapaxes(-1, -2) @ metric(params, aP, aQ)
    except OutsideDomain:
        pairs = np.broadcast(aP.z[..., 0], aQ.z[..., 0]).size
        return _report("metric-law", math.inf, tolerance, pairs, seed, "relative")
    rhs = rhs @ jacobian(params, a, P)
    lhs = metric(params, P, Q)
    scale = np.max(np.abs(lhs), axis=(-2, -1))
    diff = np.subtract(lhs, rhs, out=rhs)
    residuals = np.max(np.abs(diff), axis=(-2, -1)) / np.maximum(scale, KERNEL_FLOOR)
    return _report("metric-law", _worst(residuals), tolerance, residuals.size, seed, "relative")


def check_cartan(params, a: Automorphism, points, tolerance=None, seed=0) -> CheckReport:
    """Origin-fixing automorphisms act linearly.

    Verifies, over the given interior points, that the representative map
    intertwines the action with L = l_matrix(a), the Jacobian at the
    origin, that L reproduces the action, and that L is exactly the
    block-diagonal (U, U'); the residual is the worst of the three, each
    reported in the details.  `points` is a stacked Point whose leading
    shape broadcasts against that of a stacked `a`.
    """
    L = l_matrix(params, a)
    block = np.zeros(L.shape, dtype=complex)
    block[..., : params.n, : params.n] = a.U
    block[..., params.n :, params.n :] = a.Uprime
    block_residual = float(np.max(np.abs(L - block)))
    image = apply(params, a, points)
    sig_image = representative_map(params, image)
    denom_c = np.maximum(np.max(np.abs(sig_image), axis=-1), KERNEL_FLOOR)
    sig_linear = _matvec(L, representative_map(params, points))
    comm = np.max(np.abs(sig_image - sig_linear), axis=-1) / denom_c
    denom_l = np.maximum(np.max(np.abs(image.coords()), axis=-1), KERNEL_FLOOR)
    lin = np.max(np.abs(image.coords() - _matvec(L, points.coords())), axis=-1) / denom_l
    worst = {"commutation_residual": _worst(comm), "linearity_residual": _worst(lin),
             "block_residual": block_residual}
    return _report("cartan", _worst(list(worst.values())), tolerance, comm.size, seed, "relative", **worst)


def check_gram_psd(params, points, tolerance=None, seed=0) -> CheckReport:
    """The kernel Gram matrix [K(p_i, p_j)] must be positive semidefinite,
    over the last axis of the stacked `points`; leading axes give one Gram
    matrix each.

    The eigenvalue floor is applied to the diagonally normalized Gram
    D^(-1/2) G D^(-1/2), which shares positivity with G but keeps the
    eigensolver's backward error scale-free; near-boundary points can push
    raw diagonal entries to 1e10, where an absolute floor on the raw
    spectrum would only measure rounding.  It is exp(L_ij - (L_ii + L_jj)/2)
    with L = log(G / kernel_constant) from log A(t), so it stays finite where
    G overflows; G is never formed.  The details give the overflow headroom
    log10_max_kernel = max_i log10 K(p_i, p_i), read off L.  The points get
    kernel()'s checks; a normalized Gram with non-finite entries fails, with
    their count in the details, and no warning.
    """
    kind = "absolute (diagonal-normalized Gram)"
    _check_interior(params, points)
    z, zeta = points.z[..., None, :], points.zeta[..., None, :]  # rows; columns swap axes
    s, t, _ = _kernel_args(params, Point(z, zeta), z.swapaxes(-2, -3), zeta.swapaxes(-2, -3))
    npts = points.z[..., 0].size
    t, u = _guarded(params.n, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = params.m * params.mu * s + np.log(a_poly(params.n, params.m).eval(t))
        L -= (params.dim + 1) * np.log(u)
        half = np.diagonal(L, axis1=-2, axis2=-1).real / 2.0
        normalized = np.exp(L - half[..., :, None] - half[..., None, :])
    non_finite = np.count_nonzero(~np.isfinite(normalized))
    if non_finite:
        return _report("gram", math.inf, tolerance, npts, seed, kind, non_finite=non_finite)
    min_norm = float(np.linalg.eigvalsh(normalized).min())
    log10_max_kernel = (2.0 * np.max(half) + math.log(params.kernel_constant)) / math.log(10.0)
    return _report("gram", max(0.0, -min_norm), tolerance, npts, seed, kind,
                   min_eigenvalue_normalized=min_norm, log10_max_kernel=log10_max_kernel)


def mc_reproduce_constant(params: DomainParams, seed, samples: int = 1_000_000) -> CheckReport:
    """Importance-sampling check that the kernel integrates the constant
    function 1 back to 1 at the origin (n = m = 1 only).

    Draws from the interior sampler, whose density is known in closed form,
    and averages K((0,0), q) / density(q).  The integrand decays exactly
    like the proposal here, so the weights are constant up to rounding and
    the standard error sits at float-noise level.  Passes when
    |estimate - 1| <= max(0.02, 4 stderr).  Drawn in blocks of _MC_BLOCK
    rows from one default_rng(seed), which continues a Generator; each
    block's mean and centred sum of squares merge into running totals by
    the pairwise update of Chan, Golub and LeVeque (1979), so memory is one
    block's, whatever the sample count.  samples is an integer >= MC_MIN_SAMPLES.
    """
    if params.n != 1 or params.m != 1:
        raise ValueError("the reproducing check is defined for n = m = 1")
    samples = _integer(samples, "samples", MC_MIN_SAMPLES)
    rng, origin = np.random.default_rng(seed), Point.origin(params)
    mean = sum_sq = 0.0
    for start in range(0, samples, _MC_BLOCK):
        Z, Zeta = sample_interior_arrays(params, rng, min(_MC_BLOCK, samples - start))
        values, _ = kernel_batch(params, origin, Z, Zeta)
        weights = values.real / sample_density_arrays(params, Z)
        block_mean, k = weights.mean(), len(weights)
        weights -= block_mean
        delta, total = block_mean - mean, start + k
        mean += delta * (k / total)
        sum_sq += weights @ weights + delta**2 * (start * k / total)
    estimate = float(mean)
    stderr = math.sqrt(sum_sq / (samples - 1)) / math.sqrt(samples)
    tolerance = max(0.02, 4.0 * stderr)
    return _report(
        "mc",
        abs(estimate - 1.0),
        tolerance,
        samples,
        seed,
        "absolute",
        estimate=estimate,
        stderr=stderr,
    )


def check_boundary_invariance(params, a: Automorphism, boundary_points, tolerance=None, seed=0) -> CheckReport:
    """Boundary points must stay on the boundary: max |defect(a p)| relative
    to exp(-mu ||z||^2) at a p, the squared zeta-radius of the boundary
    there.  An image whose radius underflows to 0 gives an infinite
    residual."""
    image = apply(params, a, boundary_points)
    radius2 = np.exp(-params.mu * _norm2(image.z))
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = np.where(radius2 > 0, np.abs(defect(params, image)) / radius2, math.inf)
    return _report("boundary", _worst(residuals), tolerance, residuals.size, seed, "relative")


# ------------------------------ suite runner --------------------------------

def _rotation(params: DomainParams, seed, shape=()) -> Automorphism:
    """Origin-fixing automorphisms: random_automorphism's U and U' for seed, v = 0."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(params.n, rng, shape)
    return Automorphism(U, haar_unitary(params.m, rng, shape), np.zeros(U.shape[:-1]))


def run_suite(params: DomainParams, seed: int, suites=("all",), samples=None, tolerances=None):
    """Run the selected verification suites and return their reports.

    `suites` is an iterable of names from SUITE_NAMES, or ("all",), in which
    case the Monte-Carlo check is included only where it is defined
    (n = m = 1).  `samples` overrides the Monte-Carlo sample count, and a
    run without that check rejects it; `tolerances` maps the names of
    DEFAULT_TOLERANCES to overrides, and any other name (mc derives its own
    tolerance), or one of a suite this run leaves out, raises ValueError.
    Each suite runs as its _SUITE_TABLE row says: its parts are drawn
    together from the suite's own stream and checked in one call, so the
    report holds the largest residual over all parts.  Every report carries
    the root seed, which must be a non-negative int.
    """
    tolerances = tolerances or {}
    wanted = list(SUITE_NAMES) if "all" in suites else list(suites)
    if "all" in suites and not (params.n == 1 and params.m == 1):
        wanted.remove("mc")
    unknown = set(wanted) - set(SUITE_NAMES) | set(tolerances) - set(DEFAULT_TOLERANCES).intersection(wanted)
    if unknown:
        raise ValueError(f"unknown suites, or tolerance overrides this run would drop: {sorted(unknown)}")
    if samples is not None:
        if "mc" not in wanted:
            raise ValueError("samples sizes the Monte-Carlo check, which this run does not include")
        samples = _integer(samples, "samples", MC_MIN_SAMPLES)
    seed = _integer(seed, "seed", 0)

    names, reports = globals(), []
    for name in wanted:
        check, factory, sampler, count, parts, key = _SUITE_TABLE[name]
        rng = np.random.default_rng([seed, key])
        args = [] if factory is None else [names[factory](params, rng, (parts, 1))]
        if sampler is None:
            args += [rng, count if samples is None else samples]
        else:
            args += [names[sampler](params, rng, (parts, count)), tolerances.get(name), seed]
        reports.append(names[check](params, *args))
        reports[-1].seed = seed
    return reports
