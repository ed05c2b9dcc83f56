"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here; nothing is deferred to later calibration.
Runtime bounds are asserted where the criterion states one.
"""

import math
import time
import types
from pathlib import Path

import numpy as np
import pytest

import fbh
from fbh.autgroup import (
    Automorphism,
    apply,
    compose,
    inverse,
    random_automorphism,
)
from fbh.bergman import kernel, metric, representative_map, sqrt_pd
from fbh.domain import DomainParams, Point, defect, sample_boundary, sample_interior
from fbh.polylog import a_poly, polylog_deriv
from fbh.verify import (
    check_boundary_invariance,
    check_cartan,
    check_gram_psd,
    check_kernel_law,
    check_metric_law,
    mc_reproduce_constant,
)

from oracles import fd_metric, probed_pairs, series_polylog_deriv, singles

LAW_CONFIGS = [(1, 1), (2, 1), (1, 2), (2, 2)]
KERNEL_CONFIGS = LAW_CONFIGS + [(3, 2)]
MUS = (0.5, 1.0, 2.0)
README = Path(__file__).resolve().parents[1] / "README.md"


def _criterion(name, ok, started, limit=None, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} ({elapsed:.2f} s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, f"{name} failed {detail}"
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded {limit} s ({elapsed:.2f} s)"


def test_criterion_01_printed_coefficient_reproduction():
    started = time.perf_counter()
    printed = {
        1: ((0, 1), 2),
        2: ((0, 1, 1), 3),
        3: ((0, 1, 4, 1), 4),
        4: ((0, 1, 11, 11, 1), 5),
        5: ((0, 1, 26, 66, 26, 1), 6),
    }
    ok, t = True, 0.5
    for n, (coeffs, pole) in printed.items():
        # Li_{-n} = A_{n,0} / (1-t)^pole, the pole order checked against the series
        A = a_poly(n, 0)
        pole_ok = abs((1 - t) ** pole * series_polylog_deriv(n, 0, t) - A.eval(t)) <= 1e-12 * abs(A.eval(t))
        ok = ok and A.coeffs == coeffs and pole_ok
    _criterion("01 printed-coefficients", ok, started, limit=1.0)


def test_criterion_02_series_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for m in range(0, 5):
            for t in (0.1, 0.3, 0.5, 0.7, -0.4, 0.2 + 0.3j):
                value = polylog_deriv(n, m, t)
                oracle = series_polylog_deriv(n, m, t)
                worst = max(worst, abs(value - oracle) / abs(oracle))
    _criterion(
        "02 series-oracle", worst <= 1e-10, started, limit=5.0,
        detail=f"max_rel={worst:.3e}",
    )


def test_criterion_03_coefficient_positivity():
    started = time.perf_counter()
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            coeffs = a_poly(n, m).coeffs
            ok = ok and len(coeffs) == n + 1 and all(c > 0 for c in coeffs)
        base = a_poly(n, 0).coeffs
        ok = ok and base[0] == 0 and all(c > 0 for c in base[1:])
    _criterion("03 coefficient-positivity", ok, started, limit=1.0)


def test_criterion_04_kernel_conditions_at_origin():
    started = time.perf_counter()
    ok = True
    worst_block = 0.0
    worst_fd = 0.0
    for n, m in KERNEL_CONFIGS:
        for mu in MUS:
            params = DomainParams(n, m, mu)
            o = Point.origin(params)
            ok = ok and kernel(params, o, o).value.real > 0.0
            T = metric(params, o, o)
            ok = ok and np.linalg.eigvalsh((T + T.conj().T) / 2).min() > 0.0
            ratio = a_poly(n, m + 1).coeffs[0] / a_poly(n, m).coeffs[0]
            expected = np.diag([m * mu] * n + [ratio] * m).astype(complex)
            worst_block = max(worst_block, np.max(np.abs(T - expected)))
            fd = fd_metric(params, o, o)
            worst_fd = max(worst_fd, np.max(np.abs(T - fd)) / np.max(np.abs(T)))
    ok = ok and worst_block <= 1e-10 and worst_fd <= 1e-6
    _criterion(
        "04 kernel-conditions", ok, started,
        detail=f"block_dev={worst_block:.3e} fd_dev={worst_fd:.3e}",
    )


def test_criterion_05_constancy_against_origin():
    started = time.perf_counter()
    worst = 0.0
    for n, m in LAW_CONFIGS:
        params = DomainParams(n, m, 1.0)
        o = Point.origin(params)
        k0 = kernel(params, o, o).value
        t0 = metric(params, o, o)
        scale = np.max(np.abs(t0))
        for p in singles(sample_interior(params, 11, 50)):
            worst = max(worst, abs(kernel(params, p, o).value - k0) / abs(k0))
            worst = max(worst, np.max(np.abs(metric(params, p, o) - t0)) / scale)
    _criterion(
        "05 constancy-against-origin", worst <= 1e-10, started, detail=f"max_rel={worst:.3e}"
    )


def test_criterion_06_transformation_laws():
    started = time.perf_counter()
    worst_kernel = 0.0
    worst_metric = 0.0
    for n, m in LAW_CONFIGS:
        for mu in MUS:
            params = DomainParams(n, m, mu)
            base = 10_000 * n + 1_000 * m + int(10 * mu)
            for j in range(10):  # 10 automorphisms x 10 pairs = 100 draws per law
                a = random_automorphism(params, base + j)
                P, Q, X = probed_pairs(params, base + 100 + j, 10)  # sample_pairs' pairs, then probes
                worst_kernel = max(
                    worst_kernel, check_kernel_law(params, a, (P, Q)).max_residual
                )
                worst_metric = max(
                    worst_metric, check_metric_law(params, a, (P, Q, X)).max_residual
                )
    ok = worst_kernel <= 1e-8 and worst_metric <= 1e-7
    _criterion(
        "06 transformation-laws", ok, started, limit=30.0,
        detail=f"kernel={worst_kernel:.3e} metric={worst_metric:.3e}",
    )


def test_criterion_07_representative_map_and_cartan():
    started = time.perf_counter()
    worst_linear = 0.0
    worst_cartan = 0.0
    worst_block = 0.0
    for n, m in LAW_CONFIGS:
        for mu in MUS:
            params = DomainParams(n, m, mu)
            o = Point.origin(params)
            half = sqrt_pd(metric(params, o, o))
            for p in singles(sample_interior(params, 13, 100)):
                sigma = representative_map(params, p)
                expected = half @ p.coords()
                denom = max(np.max(np.abs(expected)), 1.0)
                worst_linear = max(worst_linear, np.max(np.abs(sigma - expected)) / denom)
            rot = random_automorphism(params, 17 + n + 10 * m)
            fixing = Automorphism(rot.U, rot.Uprime, np.zeros(n))
            report = check_cartan(params, fixing, sample_interior(params, 19, 100))
            worst_cartan = max(worst_cartan, report.max_residual)
            worst_block = max(worst_block, report.details["block_residual"])
    ok = worst_linear <= 1e-7 and worst_cartan <= 1e-7 and worst_block <= 1e-8
    _criterion(
        "07 representative-map", ok, started,
        detail=f"linear={worst_linear:.3e} cartan={worst_cartan:.3e} block={worst_block:.3e}",
    )


def test_criterion_08_group_law_oracle():
    started = time.perf_counter()
    worst_compose = 0.0
    worst_inverse = 0.0
    worst_boundary = 0.0
    slice_exact = True
    for n, m in LAW_CONFIGS:
        params = DomainParams(n, m, 1.0)
        # 250 (a, b, p) triples per configuration: 1000 total
        for j in range(25):
            a = random_automorphism(params, 1_000 + j)
            b = random_automorphism(params, 2_000 + j)
            c = compose(params, a, b)
            for p in singles(sample_interior(params, 3_000 + j, 10)):
                direct = apply(params, c, p).coords()
                nested = apply(params, a, apply(params, b, p)).coords()
                worst_compose = max(worst_compose, np.max(np.abs(direct - nested)))
        a = random_automorphism(params, 4_001)
        inv = inverse(params, a)
        for p in singles(sample_interior(params, 5_001, 25)):
            back = apply(params, inv, apply(params, a, p)).coords()
            worst_inverse = max(worst_inverse, np.max(np.abs(back - p.coords())))
        rng = np.random.default_rng(6_001)
        for _ in range(50):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            image = apply(params, a, Point(z, np.zeros(m)))
            slice_exact = slice_exact and bool(np.all(image.zeta == 0.0))
        report = check_boundary_invariance(
            params, random_automorphism(params, 7_001), sample_boundary(params, 8_001, 200)
        )
        worst_boundary = max(worst_boundary, report.max_residual)
    ok = (
        worst_compose <= 1e-10
        and worst_inverse <= 1e-10
        and slice_exact
        and worst_boundary <= 1e-12
    )
    _criterion(
        "08 group-law", ok, started,
        detail=(
            f"compose={worst_compose:.3e} inverse={worst_inverse:.3e} "
            f"slice_exact={slice_exact} boundary={worst_boundary:.3e}"
        ),
    )


def test_criterion_09_gram_psd():
    started = time.perf_counter()
    worst = 0.0
    for n, m in LAW_CONFIGS:
        for mu in MUS:
            params = DomainParams(n, m, mu)
            report = check_gram_psd(params, sample_interior(params, 23, 40), tolerance=1e-10)
            worst = max(worst, report.max_residual)
    _criterion(
        "09 gram-psd", worst <= 1e-10, started, detail=f"max_violation={worst:.3e}"
    )


def test_criterion_10_monte_carlo_reproducing():
    started = time.perf_counter()
    report = mc_reproduce_constant(DomainParams(1, 1, 1.0), 29, samples=1_000_000)
    estimate = report.details["estimate"]
    stderr = report.details["stderr"]
    ok = abs(estimate - 1.0) <= 0.02
    _criterion(
        "10 monte-carlo", ok, started, limit=60.0,
        detail=f"estimate={estimate:.6f} stderr={stderr:.3e}",
    )


def test_exports_resolve_sorted_and_complete():
    # a deletion must not leave a stale name in __all__, nor an addition miss it
    assert all(hasattr(fbh, name) for name in fbh.__all__)
    assert fbh.__all__ == sorted(set(fbh.__all__))
    public = {k for k, v in vars(fbh).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public <= set(fbh.__all__)


def test_readme_quick_start_runs_and_gives_its_commented_values():
    # the README's python block runs as written, and the values its comments
    # give for the kernel, the metric and the representative map hold
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    lines = (line.split("#", 1) for line in block.splitlines() if "#" in line)
    commented = {comment.strip(): expression for expression, comment in lines}
    expected = {"1/pi^2": 1 / math.pi**2, "diag(1, 4)": np.diag([1.0, 4.0]), "[0.5, 0.2]": [0.5, 0.2]}
    for comment, value in expected.items():
        got = eval(commented[comment], namespace)
        assert np.shape(got) == np.shape(value)
        assert np.all(np.abs(got - np.asarray(value)) <= 1e-15 * np.abs(value)), (comment, got)
