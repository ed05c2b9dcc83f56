"""Self-test of the benchmark's own pieces: python3 perfbench/run.py --self-test

Checks the exact oracle against the package's numerators and a direct
series, the eval-disk generator's determinism, interior rows and region
coverage, that the shims restore every attribute, that an untraced loop
runs with none installed, and that the host-speed probe samples during an
op and cleans up after it.
"""

import signal
import sys
import time

import numpy as np

import disk
import probe
import shims
import worker

import fbh.polylog


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    return bool(cond)


def series_fm(n, m, t, terms=4000):
    """Direct sum of d^m/dt^m sum_k k^n t^k for small |t|."""
    total = 0j
    for k in range(max(1, m), terms):
        falling = 1
        for j in range(m):
            falling *= k - j
        total += k**n * falling * t ** (k - m)
    return total


def main():
    ok = True
    grid = [(n, m) for n in (1, 2, 5, 8) for m in (0, 1, 3)] + [(32, 4), (64, 8)]
    ok &= check(all(disk.eulerian_numerator(n, m) == fbh.polylog.a_poly(n, m).coeffs for n, m in grid),
                "Eulerian oracle numerators equal a_poly on the grid")
    t = 0.3 + 0.2j
    exact = disk.exact_fm(3, 2, t)
    ok &= check(disk.relerr(series_fm(3, 2, t), exact) < 1e-13, "exact F_m agrees with the series")
    ok &= check(disk.relerr(complex(fbh.polylog.polylog_deriv(64, 8, -0.99)), disk.exact_fm(64, 8, -0.99)) > 1e-10,
                "oracle sees the known cancellation at n=64, m=8, t=-0.99")
    big = disk.exact_kernel(2.0, 2, 1, 0.5)
    ok &= check(disk.relerr(2 * complex(fbh.polylog.polylog_deriv(2, 1, 0.5)), big) < 1e-14,
                "exact_kernel applies the prefactor")

    a = disk.make_inputs(5, rows=4096)
    b = disk.make_inputs(5, rows=4096)
    ok &= check(all(np.array_equal(a[k], b[k]) for k in a), "generator is deterministic per seed")
    ok &= check(not np.array_equal(a["Z"], disk.make_inputs(6, rows=4096)["Z"]), "seeds give other inputs")
    ok &= check(np.all(disk.interior_defects(a["Z"], a["Zeta"]) > 0), "all rows are interior points")
    p = fbh.Point(a["z_p"], a["zeta_p"])
    _, tt = fbh.bergman.kernel_batch(fbh.DomainParams(64, 8, 1.0), p, a["Z"], a["Zeta"])
    mix = disk.region_mix(tt)
    ok &= check(mix["re_t_lt_0"] > 0.2 and mix["one_minus_t_lt_1e-2"] > 0.05 and mix["abs_t_lt_0.5"] > 0.05,
                f"region mix covers every region: {mix}")
    ok &= check(mix["min_one_minus_t"] < 1.01e-3 and mix["max_abs_t"] <= disk.RIM + 1e-12,
                "rows reach |1 - t| = 1e-3 and stay in |t| <= 1 - 1e-3")
    ok &= check(np.min(np.abs(1.0 + tt)) < 2e-3, "rows reach t near -1")

    originals = {(m, attr): getattr(mod, attr) for (m, attr), mod in
                 (((m, attr), sys.modules[m]) for pairs in shims.TARGETS.values() for m, attr in pairs)}
    tracer = shims.Tracer()
    tracer.install()
    ok &= check(shims.installed_count() == len(originals), "install shims every target")
    fbh.verify.run_suite(fbh.DomainParams(1, 1, 1.0), 3, ("kernel-law",))
    tracer.uninstall()
    ok &= check(all(getattr(sys.modules[m], attr) is fn for (m, attr), fn in originals.items()),
                "uninstall restores every original")
    totals = tracer.totals()
    ok &= check(totals["calls"].get("verify.kernel_law") == 10 and totals["calls"].get("polylog.a_poly", 0) > 0,
                "traced suite records spans")
    ok &= check(all(totals["self_s"][k] <= totals["total_s"][k] + 1e-9 for k in totals["self_s"]),
                "self time never exceeds span time")

    wl = worker.VerifyLarge(1)
    wl.params = fbh.DomainParams(1, 1, 1.0)
    wl.suites = fbh.verify.SUITE_NAMES
    times, calibrated, failed, leaks = worker.run_window(wl, 0.0, 0, guard_untraced=True,
                                                          speed=probe.SpeedProbe(*probe.INTERPRETER))
    ok &= check(failed == 0 and leaks == 0, "an untraced loop runs with no shim installed")
    ok &= check(len(times) == len(calibrated) == 1 and min(times + calibrated) > 0, "the loop gives calibrated times")
    ok &= check(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
                "the probe disarms its timer and restores the SIGALRM handler")

    speed = probe.SpeedProbe(*probe.INTERPRETER)
    _, error, wall, _ = speed.run(lambda: time.sleep(0.35) or 1 / 0)
    ok &= check(isinstance(error, ZeroDivisionError) and 0 < wall < 0.35, "the probe returns an op's error")
    ok &= check(len(speed.samples) >= 4, f"the probe samples during the op ({len(speed.samples)} samples)")

    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
