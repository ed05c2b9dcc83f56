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

from .autgroup import Automorphism, apply, jacobian, jacobian_det, random_automorphism
from .bergman import (
    KERNEL_FLOOR,
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
    defect,
    sample_boundary,
    sample_density_arrays,
    sample_interior,
    sample_interior_arrays,
)

# One row per suite: (check, automorphism factory, its seed offset, sampler,
# its seed offset, sample count, parts); part j uses sub-seeds seed + offset + j.
# Without a sampler the check gets the sub-seed and count.  Names resolve when
# the suite runs, so whatever the module attribute holds then gets called.
_SUITE_TABLE = {
    "kernel-law": ("check_kernel_law", "random_automorphism", 101, "sample_pairs", 301, 10, 10),
    "metric-law": ("check_metric_law", "random_automorphism", 501, "sample_pairs", 701, 5, 10),
    "cartan": ("check_cartan", "_rotation", 901, "sample_interior", 1101, 10, 10),
    "gram": ("check_gram_psd", None, 0, "sample_interior", 1301, 40, 1),
    "mc": ("mc_reproduce_constant", None, 0, None, 1501, 1_000_000, 1),
    "boundary": (
        "check_boundary_invariance", "random_automorphism", 1701, "sample_boundary", 1901, 50, 4
    ),
}
SUITE_NAMES = tuple(_SUITE_TABLE)

DEFAULT_TOLERANCES = {
    "kernel-law": 1e-8,
    "metric-law": 1e-7,
    "cartan": 1e-7,
    "gram": 1e-10,
    "boundary": 1e-12,
}

# Pair sampling for the law checks stays this far from the kernel pole;
# a conditioning choice, not a correctness one.
PAIR_POLE_DISTANCE = 1e-6


@dataclass
class CheckReport:
    """Machine-readable outcome of one check."""

    name: str
    max_residual: float
    tolerance: float
    samples: int
    passed: bool
    seed: int
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
        seed=int(seed),
        residual_kind=residual_kind,
        details={k: float(v) for k, v in details.items()},
    )


def _worst(residuals) -> float:
    """Largest residual, 0 for none; a NaN anywhere makes the result NaN."""
    return float(np.max(residuals, initial=0.0))


def sample_pairs(params: DomainParams, seed: int, count: int) -> list:
    """Interior point pairs with |1 - t| above the pole guard: consecutive
    draws of the interior sampler, one chunk seed after another."""
    pairs = []
    chunk_seed = seed
    while len(pairs) < count:
        Z, Zeta = sample_interior_arrays(params, chunk_seed, 2 * (count - len(pairs)) + 8)
        P, Q = Point(Z[0::2], Zeta[0::2]), Point(Z[1::2], Zeta[1::2])
        t = kernel(params, P, Q).t_arg
        kept = np.flatnonzero(np.abs(1.0 - t) > PAIR_POLE_DISTANCE)[: count - len(pairs)]
        pairs += [(Point(P.z[i], P.zeta[i]), Point(Q.z[i], Q.zeta[i])) for i in kept]
        chunk_seed += 1
    return pairs


def _stack(points) -> Point:
    """The listed Points as one Point with a leading sample axis."""
    return Point(np.array([p.z for p in points]), np.array([p.zeta for p in points]))


# ------------------------------ law checks ---------------------------------

def check_kernel_law(params, a: Automorphism, pairs, tolerance=None, seed=0) -> CheckReport:
    """Residual of K(p,q) = conj(det J(a,q)) K(a p, a q) det J(a,p), relative
    to |K(p,q)| per pair."""
    P = _stack([p for p, _ in pairs])
    Q = _stack([q for _, q in pairs])
    kv = kernel(params, P, Q).value
    det_p = jacobian_det(params, a, P)
    det_q = jacobian_det(params, a, Q)
    image = kernel(params, apply(params, a, P), apply(params, a, Q)).value
    rhs = np.conj(det_q) * image * det_p
    residuals = np.abs(kv - rhs) / np.maximum(np.abs(kv), KERNEL_FLOOR)
    return _report("kernel-law", _worst(residuals), tolerance, len(pairs), seed, "relative")


def check_metric_law(params, a: Automorphism, pairs, tolerance=None, seed=0) -> CheckReport:
    """Max-norm residual of T(p,q) = conj(J(a,q)^T) T(a p, a q) J(a,p),
    relative to the max-norm of T(p,q).  Pairs with |K| below KERNEL_FLOOR at
    (p, q) or at (a p, a q), where metric() would raise KernelZero, are
    skipped and counted, also when K is NaN at the other (hence fmin)."""
    P = _stack([p for p, _ in pairs])
    Q = _stack([q for _, q in pairs])
    aP, aQ = apply(params, a, P), apply(params, a, Q)
    smaller = np.fmin(np.abs(kernel(params, P, Q).value), np.abs(kernel(params, aP, aQ).value))
    vanishing = smaller < KERNEL_FLOOR
    P, Q, aP, aQ = (Point(x.z[~vanishing], x.zeta[~vanishing]) for x in (P, Q, aP, aQ))
    lhs = metric(params, P, Q)
    rhs = (
        jacobian(params, a, Q).conj().swapaxes(-1, -2)
        @ metric(params, aP, aQ)
        @ jacobian(params, a, P)
    )
    scale = np.max(np.abs(lhs), axis=(-2, -1))
    residuals = np.max(np.abs(lhs - rhs), axis=(-2, -1)) / np.maximum(scale, KERNEL_FLOOR)
    skipped = np.count_nonzero(vanishing)
    return _report(
        "metric-law", _worst(residuals), tolerance, len(pairs), seed, "relative", skipped=skipped
    )


def check_cartan(params, a: Automorphism, points, tolerance=None, seed=0) -> CheckReport:
    """Origin-fixing automorphisms act linearly.

    Verifies, over the given interior points, that the representative map
    intertwines the action with the unitary L = l_matrix(a), that the
    reconstructed linear map T^(-1/2) L T^(1/2) reproduces the action, and
    that this matrix is exactly the block-diagonal (U, U'); the block
    deviation is reported in the details.  T^(+-1/2) come from metric(0, 0)
    here, so the closed-form diagonal in representative_map is checked too.
    """
    L = l_matrix(params, a)
    o = Point.origin(params)
    t0 = metric(params, o, o)
    linear_map = inv_sqrt_pd(t0) @ L @ sqrt_pd(t0)
    block = np.zeros((params.dim, params.dim), dtype=complex)
    block[: params.n, : params.n] = a.U
    block[params.n :, params.n :] = a.Uprime
    block_residual = float(np.max(np.abs(linear_map - block)))
    X = _stack(points)
    image = apply(params, a, X)
    sig_image = representative_map(params, image)
    denom_c = np.maximum(np.max(np.abs(sig_image), axis=-1), KERNEL_FLOOR)
    comm = np.max(np.abs(sig_image - representative_map(params, X) @ L.T), axis=-1) / denom_c
    denom_l = np.maximum(np.max(np.abs(image.coords()), axis=-1), KERNEL_FLOOR)
    lin = np.max(np.abs(image.coords() - X.coords() @ linear_map.T), axis=-1) / denom_l
    return _report(
        "cartan",
        _worst(np.concatenate([comm, lin])),
        tolerance,
        len(points),
        seed,
        "relative",
        commutation_residual=_worst(comm),
        linearity_residual=_worst(lin),
        block_residual=block_residual,
    )


def check_gram_psd(params, points, tol=None, seed=0) -> CheckReport:
    """The kernel Gram matrix [K(p_i, p_j)] must be positive semidefinite.

    The eigenvalue floor is applied to the diagonally normalized Gram
    D^(-1/2) G D^(-1/2), which shares positivity with G but keeps the
    eigensolver's backward error scale-free; near-boundary points can push
    raw diagonal entries to 1e10, where an absolute floor on the raw
    spectrum would only measure rounding.  The raw minimum eigenvalue is
    reported in the details.

    A Gram matrix with non-finite entries (kernel values overflow at large
    orders) fails, with its count of them in the details, and no warning.
    """
    npts = len(points)
    kind = "absolute (diagonal-normalized Gram)"
    X = _stack(points)
    with np.errstate(over="ignore", invalid="ignore"):
        G = kernel(params, Point(X.z[:, None], X.zeta[:, None]), X).value
    non_finite = np.count_nonzero(~np.isfinite(G))
    if non_finite:
        return _report("gram", math.inf, tol, npts, seed, kind, non_finite=non_finite)
    G = (G + G.conj().T) / 2.0
    d = np.sqrt(np.abs(np.diagonal(G).real))
    normalized = G / np.outer(d, d)
    min_norm = float(np.linalg.eigvalsh(normalized).min())
    min_raw = float(np.linalg.eigvalsh(G).min())
    return _report(
        "gram",
        max(0.0, -min_norm),
        tol,
        npts,
        seed,
        kind,
        min_eigenvalue_normalized=min_norm,
        min_eigenvalue_raw=min_raw,
    )


def mc_reproduce_constant(params: DomainParams, seed: int, samples: int = 1_000_000) -> CheckReport:
    """Importance-sampling check that the kernel integrates the constant
    function 1 back to 1 at the origin (n = m = 1 only).

    Draws from the interior sampler, whose density is known in closed form,
    and averages K((0,0), q) / density(q).  The integrand decays exactly
    like the proposal here, so the weights are constant up to rounding and
    the standard error sits at float-noise level.  Passes when
    |estimate - 1| <= max(0.02, 4 stderr).
    """
    if params.n != 1 or params.m != 1:
        raise ValueError("the reproducing check is defined for n = m = 1")
    if samples < 100_000:
        raise ValueError("samples must be >= 1e5")
    Z, Zeta = sample_interior_arrays(params, seed, samples)
    values, _ = kernel_batch(params, Point.origin(params), Z, Zeta)
    weights = values.real / sample_density_arrays(params, Z)
    estimate = float(weights.mean())
    stderr = float(weights.std(ddof=1) / math.sqrt(samples))
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
    image = apply(params, a, _stack(boundary_points))
    radius2 = np.exp(-params.mu * np.sum(np.abs(image.z) ** 2, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = np.where(radius2 > 0, np.abs(defect(params, image)) / radius2, math.inf)
    return _report("boundary", _worst(residuals), tolerance, len(boundary_points), seed, "relative")


# ------------------------------ suite runner --------------------------------

def _merge(reports) -> CheckReport:
    """Merge same-named reports by max residual (checks are seed-split);
    sample and skip counts accumulate.  A NaN residual or detail survives
    the merge, so the merged report fails."""
    first = reports[0]
    details = {}
    for r in reports:
        for k, v in r.details.items():
            if k == "skipped":
                details[k] = details.get(k, 0.0) + v
            else:
                details[k] = float(np.maximum(details.get(k, v), v))
    return _report(
        first.name,
        _worst([r.max_residual for r in reports]),
        first.tolerance,
        sum(r.samples for r in reports),
        first.seed,
        first.residual_kind,
        **details,
    )


def _rotation(params: DomainParams, seed: int) -> Automorphism:
    """Origin-fixing automorphism: the rotation part of a random one."""
    rot = random_automorphism(params, seed)
    return Automorphism(rot.U, rot.Uprime, np.zeros(params.n))


def _run_part(params, seed, row, j, samples, tol) -> CheckReport:
    check, factory, factory_offset, sampler, sample_offset, count, _ = row
    names = globals()
    if sampler is None:
        return names[check](params, seed + sample_offset + j, samples or count)
    args = [params]
    if factory is not None:
        args.append(names[factory](params, seed + factory_offset + j))
    args.append(names[sampler](params, seed + sample_offset + j, count))
    return names[check](*args, tol, seed)


def run_suite(params: DomainParams, seed: int, suites=("all",), samples=None, tolerances=None):
    """Run the selected verification suites and return their reports.

    `suites` is an iterable of names from SUITE_NAMES, or ("all",), in which
    case the Monte-Carlo check is included only where it is defined
    (n = m = 1).  `samples` overrides the Monte-Carlo sample count and
    `tolerances` maps suite names to tolerance overrides.  Each suite runs
    as its _SUITE_TABLE row says, and every report carries the root seed.
    """
    tolerances = tolerances or {}
    wanted = list(SUITE_NAMES) if "all" in suites else list(suites)
    if "all" in suites and not (params.n == 1 and params.m == 1):
        wanted.remove("mc")
    unknown = set(wanted) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")

    reports = []
    for name in wanted:
        row = _SUITE_TABLE[name]
        parts = [
            _run_part(params, seed, row, j, samples, tolerances.get(name))
            for j in range(row[-1])
        ]
        report = _merge(parts)
        report.seed = seed
        reports.append(report)
    return reports
