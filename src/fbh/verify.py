"""Numerical verification suites.

Each check measures a residual on the inputs it is given and reports
pass/fail against its tolerance; run_suite draws those inputs from a seed
and checks its own run inputs.  A relative residual divides by the reference
magnitude floored at KERNEL_FLOOR, so a vanishing reference gives no NaN, and
boundary reads inf where the radius is 0; residual_kind records the
convention.  Default tolerances reflect double precision error accumulation
across determinants and matrix products.
"""

import math
import numbers
import sys
from collections.abc import Collection, Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .autgroup import (
    Automorphism,
    _jacobian_h_times,
    _jacobian_times,
    _matvec,
    apply,
    haar_unitary,
    jacobian,
    jacobian_det,
    random_automorphism,
)
# jacobian, metric, representative_map, sqrt_pd and inv_sqrt_pd have no caller here;
# the benchmark's tracing shims patch them.
from .bergman import (
    _kernel_args,
    _kernel_rows,
    _log_kernel,
    _metric_times,
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
    _check_interior,
    _integer,
    _leading,
    _norm2,
    defect,
    sample_boundary,
    sample_density_arrays,
    sample_interior,
    sample_interior_arrays,
)
from .errors import DimensionMismatch, NotFinite, OutsideDomain

# One row per suite: (check, automorphism factory, sampler, sample count,
# parts, stream key).  Each suite draws from one default_rng([seed, key]):
# first its automorphisms, shaped (parts, 1), then its samples, shaped
# (parts, count); the check runs once on the stacks.  Without a sampler the
# check gets the stream and count.  Names resolve when the suite runs, so
# whatever the module attribute holds then gets called.
_SUITE_TABLE = {
    "kernel-law": ("check_kernel_law", "random_automorphism", "sample_pairs", 10, 10, 101),
    "metric-law": ("check_metric_law", "random_automorphism", "_probed_pairs", 5, 10, 501),
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

# Random probe columns per pair that metric-law applies both sides of its law to.
METRIC_PROBES = 2

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
    seed: int | None  # run_suite's root seed; None for a direct check call, or mc drawn from a Generator
    residual_kind: str = "relative"
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name, max_residual, tolerance, samples, residual_kind, seed=None, **details):
    """A CheckReport; tolerance None means DEFAULT_TOLERANCES[name].  Only mc passes a seed."""
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


def _probed_pairs(params: DomainParams, seed, count):
    """(P, Q, X) for check_metric_law: sample_pairs' pairs, then METRIC_PROBES
    complex Gaussian probe columns per pair, X of shape lead + (N, METRIC_PROBES),
    drawn from the same stream."""
    rng = np.random.default_rng(seed)
    P, Q = sample_pairs(params, rng, count)
    shape = P.z.shape[:-1] + (params.dim, METRIC_PROBES)
    return P, Q, (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


# ------------------------------ law checks ---------------------------------

def check_kernel_law(params, a: Automorphism, pairs, tolerance=None) -> CheckReport:
    """Residual of K(p,q) = conj(det J(a,q)) K(a p, a q) det J(a,p), relative
    to |K(p,q)| per pair.  `pairs` is a tuple (P, Q) of stacked Points, whose
    leading shape broadcasts against that of a stacked `a`.  K at the images
    comes from the unchecked kernel core, so an action that leaves the
    domain fails the law instead of raising OutsideDomain.  Reports seed None."""
    P, Q = pairs
    kv = kernel(params, P, Q).value
    det_p, det_q = jacobian_det(params, a, P), jacobian_det(params, a, Q)
    aP, aQ = apply(params, a, P), apply(params, a, Q)
    image = _kernel_rows(params, aP, aQ.z, aQ.zeta)[1]
    rhs = np.conj(det_q) * image * det_p
    residuals = np.abs(kv - rhs) / np.maximum(np.abs(kv), KERNEL_FLOOR)
    return _report("kernel-law", _worst(residuals), tolerance, residuals.size, "relative")


def check_metric_law(params, a: Automorphism, probed_pairs, tolerance=None) -> CheckReport:
    """Residual of T(p,q) = J(a,q)^H T(a p, a q) J(a,p) on probe vectors: for
    each pair, the largest over its probes x of max |T(p,q) x - J_q^H T(ap,aq) J_p x|
    relative to max |T(p,q) x|.  `probed_pairs` is (P, Q, X): stacked Points
    as in check_kernel_law and probe columns X of shape lead + (N, k), whose
    leading shape broadcasts against theirs and a's.  T and J are applied in
    their structured forms and never formed, so a pair costs O(n^2 + m^2);
    a random probe misses a nonzero difference matrix with probability 0
    (Freivalds, 1977).  An image outside the domain fails with residual inf.
    The metric never forms K, so an underflow of exp(m mu s) is not a zero:
    it raises KernelZero only where F_m(t) = 0.  Reports seed None."""
    P, Q, X = probed_pairs
    lhs = _metric_times(params, P, Q, X)
    aP, aQ = apply(params, a, P), apply(params, a, Q)
    try:
        rhs = _metric_times(params, aP, aQ, _jacobian_times(params, a, P, X))
    except OutsideDomain:
        pairs = np.broadcast(aP.z[..., 0], aQ.z[..., 0], X[..., 0, 0]).size
        return _report("metric-law", math.inf, tolerance, pairs, "relative")
    rhs = _jacobian_h_times(params, a, Q, rhs)
    scale = np.maximum(np.max(np.abs(lhs), axis=-2), KERNEL_FLOOR)
    residuals = np.max(np.max(np.abs(lhs - rhs), axis=-2) / scale, axis=-1)
    return _report("metric-law", _worst(residuals), tolerance, residuals.size, "relative")


def check_cartan(params, a: Automorphism, points, tolerance=None) -> CheckReport:
    """Origin-fixing automorphisms act linearly: L = l_matrix(a), the
    Jacobian at the origin, must be exactly the block-diagonal (U, U') and
    reproduce the action on the interior `points`, whose leading shape
    broadcasts against that of a stacked `a`.  Both residuals are in the
    details.  The linearity residual |a p - L p| is the larger of its z and
    zeta parts, each relative to that part of a p: it sees a zeta far
    smaller than z, and it bounds the residual of D a p = L D p for every
    block-scalar D, such as T(0,0)^(1/2) in the representative map.  No
    kernel is evaluated.  Reports seed None.
    """
    n, L = params.n, l_matrix(params, a)
    block = np.zeros(L.shape, dtype=complex)
    block[..., :n, :n] = a.U
    block[..., n:, n:] = a.Uprime
    image, linear = apply(params, a, points), _matvec(L, points.coords())
    lin = np.maximum(*(
        np.max(np.abs(x - y), axis=-1) / np.maximum(np.max(np.abs(x), axis=-1), KERNEL_FLOOR)
        for x, y in ((image.z, linear[..., :n]), (image.zeta, linear[..., n:]))
    ))
    worst = {"linearity_residual": _worst(lin), "block_residual": float(np.max(np.abs(L - block)))}
    return _report("cartan", _worst(list(worst.values())), tolerance, lin.size, "relative", **worst)


def check_gram_psd(params, points, tolerance=None) -> CheckReport:
    """The kernel Gram matrix [K(p_i, p_j)] must be positive semidefinite,
    over the last axis of the stacked `points`; leading axes give one Gram
    matrix each.

    The eigenvalue floor is applied to the diagonally normalized Gram
    D^(-1/2) G D^(-1/2), which shares positivity with G but keeps the
    eigensolver's backward error scale-free; near-boundary points can push
    raw diagonal entries to 1e10, where an absolute floor on the raw
    spectrum would only measure rounding.  It is exp(L_ij - (L_ii + L_jj)/2)
    with L = log(G / kernel_constant) from bergman._log_kernel, finite where
    G overflows; G is never formed.  The details give the overflow headroom
    log10_max_kernel = max_i log10 K(p_i, p_i), read off L.  The points get
    kernel()'s checks, and a single point, which has no points axis, raises
    DimensionMismatch; a normalized Gram with non-finite entries fails, with
    their count in the details, and no warning.  Reports seed None.
    """
    kind = "absolute (diagonal-normalized Gram)"
    _check_interior(params, points)
    if points.z.ndim < 2:
        raise DimensionMismatch("a Gram matrix takes a stack of points: one point has no points axis")
    z, zeta = points.z[..., None, :], points.zeta[..., None, :]  # rows; columns swap axes
    s, t, _ = _kernel_args(params, Point(z, zeta), z.swapaxes(-2, -3), zeta.swapaxes(-2, -3))
    npts = points.z[..., 0].size
    L = _log_kernel(params, s, t)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.diagonal(L, axis1=-2, axis2=-1).real / 2.0
        normalized = np.exp(L - half[..., :, None] - half[..., None, :])
    non_finite = np.count_nonzero(~np.isfinite(normalized))
    if non_finite:
        return _report("gram", math.inf, tolerance, npts, kind, non_finite=non_finite)
    min_norm = float(np.linalg.eigvalsh(normalized).min())
    log10_max_kernel = (2.0 * np.max(half) + math.log(params.kernel_constant)) / math.log(10.0)
    return _report("gram", max(0.0, -min_norm), tolerance, npts, kind,
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
    A seed is a Generator (reported as None) or, as for run_suite, an integer >= 0.
    """
    if params.n != 1 or params.m != 1:
        raise ValueError("the reproducing check is defined for n = m = 1")
    samples = _integer(samples, "samples", MC_MIN_SAMPLES)
    seed = seed if isinstance(seed, np.random.Generator) else _integer(seed, "seed", 0)
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
    return _report("mc", abs(estimate - 1.0), tolerance, samples, "absolute", seed,
                   estimate=estimate, stderr=stderr)


def check_boundary_invariance(params, a: Automorphism, boundary_points, tolerance=None) -> CheckReport:
    """Boundary points must stay on the boundary: max |defect(a p)| relative
    to exp(-mu ||z||^2) at a p, the squared zeta-radius of the boundary
    there.  An image whose radius underflows to 0 gives an infinite
    residual.  Reports seed None."""
    image = apply(params, a, boundary_points)
    radius2 = np.exp(-params.mu * _norm2(image.z))
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = np.where(radius2 > 0, np.abs(defect(params, image)) / radius2, math.inf)
    return _report("boundary", _worst(residuals), tolerance, residuals.size, "relative")


# ------------------------------ suite runner --------------------------------

def _rotation(params: DomainParams, seed, shape=()) -> Automorphism:
    """Origin-fixing automorphisms: random_automorphism's U and U' for seed, v = 0."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(params.n, rng, shape)
    return Automorphism(U, haar_unitary(params.m, rng, shape), np.zeros(U.shape[:-1]))


def run_suite(params: DomainParams, seed: int, suites=("all",), samples=None, tolerances=None):
    """Run the selected verification suites and return their reports.

    `suites` is a collection, such as a tuple, of names from SUITE_NAMES, or
    ("all",), in which case the Monte-Carlo check is included only where it
    is defined (n = m = 1); a string, a non-collection or an entry that is
    not a str raises ValueError.  `samples` overrides the Monte-Carlo sample
    count, and a run without that check rejects it.  `tolerances` must be a
    Mapping from the names of DEFAULT_TOLERANCES to overrides; any other
    name (mc derives its own tolerance), or one of a suite this run leaves
    out, raises ValueError.  An override must be a real number, not a bool,
    finite as a float and >= 0, else ValueError.  Each suite runs as its
    _SUITE_TABLE row says: its parts are drawn together from the suite's own
    stream and checked in one call, so the report holds the largest residual
    over all parts.  Every report carries the root seed, which must be a
    non-negative int.  All of these inputs are checked before any suite
    runs; the checks themselves check none of them.
    """
    named = isinstance(suites, Collection) and not isinstance(suites, str)
    if not (named and all(isinstance(s, str) for s in suites)):
        raise ValueError(f"suites must be a collection of suite names, got {suites!r}")
    tolerances = {} if tolerances is None else tolerances
    if not isinstance(tolerances, Mapping):
        raise ValueError(f"tolerances must be a mapping of suite names to overrides, got {tolerances!r}")
    wanted = [s for s in SUITE_NAMES if s != "mc" or params.n == params.m == 1] if "all" in suites else suites
    unknown = set(wanted) - set(SUITE_NAMES) | set(tolerances) - set(DEFAULT_TOLERANCES).intersection(wanted)
    if unknown:
        raise ValueError(f"unknown suites, or tolerance overrides this run would drop: {sorted(unknown)}")
    for name, value in tolerances.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= sys.float_info.max:
            raise ValueError(f"tolerance for {name} must be a finite real number >= 0, got {value!r}")
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
            args += [names[sampler](params, rng, (parts, count)), tolerances.get(name)]
        reports.append(names[check](params, *args))
        reports[-1].seed = seed
    return reports
