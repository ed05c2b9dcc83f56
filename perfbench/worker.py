"""One benchmark process: set up a workload, run its closed loop, check it.

run.py starts this file with `src` on PYTHONPATH (children inherit it and
the BLAS thread setting).  It prints READY once
set-up is done (run.py times set-up up to that line), then one JSON line
per verify-large op, a summary line and, last, the result object.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import disk  # noqa: E402  (sibling module; HERE is sys.path[0])
import probe  # noqa: E402
import shims  # noqa: E402

import fbh  # noqa: E402
import fbh.bergman  # noqa: E402
import fbh.cli  # noqa: E402
import fbh.verify  # noqa: E402
from fbh import DomainParams, Point  # noqa: E402

CLI_PARAMS = "1,1,1.0"
P90_TAIL = 10  # p90 is reported only with at least this many ops beyond it
SEED_SPAN = 1 << 30  # op seeds are drawn from [0, SEED_SPAN)


def _op_seeds(seed, count=4096):
    """Per-op seeds derived from the benchmark seed, spread so that the
    suites' fixed seed offsets (up to about 2000) never overlap."""
    return [int(s) for s in np.random.default_rng([seed, 7]).integers(0, SEED_SPAN, count)]


# --------------------------------------------------------------- workloads

class VerifyLarge:
    """In-process run_suite(DomainParams(32, 4, 1.0), seed_i, ("all",))."""

    name = "verify-large"
    speed = probe.INTERPRETER
    params = DomainParams(32, 4, 1.0)
    suites = ("kernel-law", "metric-law", "cartan", "gram", "boundary")  # mc needs n = m = 1

    def __init__(self, seed):
        self.seeds = _op_seeds(seed)
        self.headroom = 0.0

    def setup(self):
        # Warm every code path once at (1, 1), where coefficients are cheap,
        # so no (32, 4) result is cached before the first timed op.
        reports = fbh.verify.run_suite(DomainParams(1, 1, 1.0), self.seeds[-1], ("all",), samples=100_000)
        if not all(r.passed for r in reports):
            raise RuntimeError("verify-large warm-up failed")

    def op(self, i):
        return fbh.verify.run_suite(self.params, self.seeds[i], ("all",))

    def check(self, i, reports):
        residuals = {r.name: r.max_residual for r in reports}
        ok = tuple(residuals) == self.suites and all(r.passed for r in reports)
        self.headroom = max([self.headroom] + [r.max_residual / r.tolerance for r in reports])
        print(json.dumps({"op": i, "seed": self.seeds[i], "passed": ok, "residuals": residuals}))
        return ok

    def finish(self):
        return True, {}


class EvalDisk:
    """In-process kernel_batch(DomainParams(64, 8, 1.0), p, Z, Zeta) on
    2^16 rows whose t covers the closed disk |t| <= 1 - 1e-3."""

    name = "eval-disk"
    speed = probe.STREAM
    params = DomainParams(disk.N_ORDER, disk.M_ORDER, disk.MU)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.inp = disk.make_inputs(self.seed)
        self.p = Point(self.inp["z_p"], self.inp["zeta_p"])
        self.ref = self.op(-1)

    def op(self, _i):
        return fbh.bergman.kernel_batch(self.params, self.p, self.inp["Z"], self.inp["Zeta"])

    def check(self, _i, out):
        values, t = out
        return (
            values.shape == t.shape == (disk.ROWS,)
            and np.array_equal(values, self.ref[0], equal_nan=True)
            and np.array_equal(t, self.ref[1])
        )

    def finish(self):
        """Oracle and scalar checks on the fixed row subset, untimed."""
        n, m, mu = self.params.n, self.params.m, self.params.mu
        values, t = self.ref
        Z, Zeta, checked = self.inp["Z"], self.inp["Zeta"], self.inp["checked"]
        s = Z[checked].conj() @ self.p.z
        factor = mu**n / math.pi ** (n + m) * np.exp(m * mu * s)
        errs = np.array(
            [disk.relerr(values[i], disk.exact_kernel(f, n, m, t[i])) for i, f in zip(checked, factor)]
        )
        bad = ~(errs <= disk.REL_TOL)
        by_stratum = {
            name: float(np.mean(bad[self.inp["stratum"][checked] == k]))
            for k, (name, _) in enumerate(disk.STRATA)
        }
        scalar_ok, scalar_worst = self._scalar_check(checked[:: max(1, len(checked) // disk.SCALAR_CHECK_ROWS)])
        numerator_ok = fbh.polylog.a_poly(n, m).coeffs == disk.eulerian_numerator(n, m)
        defects = disk.interior_defects(Z, Zeta, mu)
        interior_ok = bool(np.all(defects > 0.0))
        tau_dev = float(np.max(np.abs(t - self.inp["tau"])))
        info = {
            "rows": disk.ROWS,
            "rows_checked": int(len(checked)),
            "bad_value_share": float(np.mean(bad)),
            "bad_value_share_by_stratum": by_stratum,
            "kernel_relerr_max_finite": float(np.max(errs[np.isfinite(errs)], initial=0.0)),
            "nonfinite_rows_checked": int(np.sum(~np.isfinite(errs))),
            "nonfinite_rows_all": int(np.sum(~np.isfinite(values))),
            "region_mix": disk.region_mix(t),
            "strata": {name: share for name, share in disk.STRATA},
            "scalar_rows_checked": disk.SCALAR_CHECK_ROWS,
            "scalar_worst_over_bound": scalar_worst,
            "numerator_matches_oracle": numerator_ok,
            "min_relative_defect": float(np.min(defects)),
            "max_t_target_deviation": tau_dev,
            "bytes_in_computed": Z.nbytes + Zeta.nbytes,
        }
        ok = scalar_ok and numerator_ok and interior_ok and tau_dev < 1e-12
        return ok, info

    def _scalar_check(self, rows):
        """Scalar kernel() must agree with the batch row within a first-order
        error model: Horner rounding on both paths (condition number of the
        numerator) plus the propagated difference of the two t's."""
        n, m, mu = self.params.n, self.params.m, self.params.mu
        eps = np.finfo(float).eps
        values, t = self.ref
        worst = 0.0
        for i in rows:
            kv = fbh.bergman.kernel(self.params, self.p, Point(self.inp["Z"][i], self.inp["Zeta"][i]))
            vb = values[i]
            if not (np.isfinite(vb) and np.isfinite(kv.value)):
                if np.isfinite(vb) or np.isfinite(kv.value):
                    return False, math.inf
                continue
            cond = disk.horner_condition(n, m, t[i])
            dt = abs(kv.t_arg - t[i]) / abs(t[i])
            zz = float(np.sum(np.abs(self.inp["Z"][i]) * np.abs(self.p.z)))
            pole = (n + m + 1) * abs(t[i]) / abs(1.0 - t[i])
            bound = 8.0 * (4 * n * eps * cond + (n * cond + pole) * dt + 64 * eps * (1 + m * mu * zz))
            worst = max(worst, abs(kv.value - vb) / abs(vb) / bound)
        return worst <= 1.0, worst


class CliVerify:
    """Fresh `python -m fbh.cli verify --suite all --params 1,1,1.0 --seed s
    --json` subprocesses, one at a time."""

    name = "cli-verify"
    speed = probe.SPAWN

    def __init__(self, seed):
        self.seeds = _op_seeds(seed)
        self.headroom = 0.0
        self.tracer_parts = None  # set to a list to run ops traced

    def _argv(self, seed):
        return ["verify", "--suite", "all", "--params", CLI_PARAMS, "--seed", str(seed), "--json"]

    def setup(self):
        if not self.check(-1, self._run(self.seeds[-1])):
            raise RuntimeError("cli-verify warm-up failed")

    def _run(self, seed):
        if self.tracer_parts is None:
            cmd = [sys.executable, "-m", "fbh.cli"] + self._argv(seed)
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py")] + self._argv(seed)
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)

    def op(self, i):
        return self._run(self.seeds[i])

    def check(self, _i, proc):
        if self.tracer_parts is not None:
            last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
            if last.startswith("PERFBENCH_TRACE "):
                self.tracer_parts.append(json.loads(last[len("PERFBENCH_TRACE "):]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return False
        try:
            reports = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False
        names = {r.get("name") for r in reports}
        self.headroom = max([self.headroom] + [r["max_residual"] / r["tolerance"] for r in reports])
        return names == set(fbh.verify.SUITE_NAMES) and all(r.get("passed") is True for r in reports)

    def finish(self):
        return True, {}


WORKLOADS = {cls.name: cls for cls in (VerifyLarge, EvalDisk, CliVerify)}


# ------------------------------------------------------------------- loop

def run_window(wl, seconds, first, guard_untraced, speed=None):
    """Closed loop, one caller: start ops until `seconds` have passed (at
    least one), numbering them from `first`.
    Returns per-op wall times, per-op calibrated times (with a SpeedProbe;
    the wall times then exclude the probe's own time), the number that
    failed and, if guarded, shims found installed."""
    times, calibrated, failed, shim_leaks = [], [], 0, 0
    start = time.perf_counter()
    i = first
    while not times or time.perf_counter() - start < seconds:
        if speed is None:
            t0 = time.perf_counter()
            try:
                out, error = wl.op(i), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, exc
            times.append(time.perf_counter() - t0)
        else:
            out, error, wall, cal = speed.run(lambda: wl.op(i))
            times.append(wall)
            calibrated.append(cal)
        if error is not None:
            traceback.print_exception(error)
        ok = error is None and wl.check(i, out)
        failed += not ok
        if guard_untraced:
            shim_leaks += shims.installed_count()
        i += 1
    return times, calibrated, failed, shim_leaks


def environment():
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in open("/proc/cpuinfo", encoding="utf-8")
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "lib*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliVerify) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


# --------------------------------------------------------------- traced run

def cli_layer_times(seed):
    """cli.import_s (fresh `import fbh`, median of 3) and cli.main_s (one
    in-process fbh.cli.main call on the cli-verify arguments)."""
    code = "import time; t = time.perf_counter(); import fbh; print(time.perf_counter() - t)"
    imports = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        imports.append(float(out.stdout.strip()))
    import contextlib
    import io

    argv = ["verify", "--suite", "all", "--params", CLI_PARAMS, "--seed", str(_op_seeds(seed)[-2]), "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        exit_code = fbh.cli.main(argv)
        main_s = time.perf_counter() - t0
    return statistics.median(imports), main_s, exit_code == 0


def layer_metrics(totals, ops, overhead_s, import_s, main_s, headroom):
    """Per-layer metrics; counts and times are per traced op."""
    calls, self_s, total_s, c = totals["calls"], totals["self_s"], totals["total_s"], totals["counts"]

    def per(x):
        return x / ops

    def share(num, den):
        return num / den if den else 0.0

    errs = [disk.relerr(complex(vr, vi), disk.exact_fm(n, m, complex(tr, ti)))
            for n, m, tr, ti, vr, vi in totals["samples"]]
    finite = [e for e in errs if math.isfinite(e)]
    out = {
        "polylog.a_poly.calls": per(calls.get("polylog.a_poly", 0)),
        "polylog.a_poly.self_s": per(self_s.get("polylog.a_poly", 0.0)),
        "polylog.a_poly.repeat_share": share(c.get("a_poly_repeats", 0), calls.get("polylog.a_poly", 0)),
        "polylog.stirling2.calls": per(calls.get("polylog.stirling2", 0)),
        "polylog.stirling2.s": per(total_s.get("polylog.stirling2", 0.0)),
        "polylog.polylog_deriv.calls": per(calls.get("polylog.polylog_deriv", 0)),
        "polylog.polylog_deriv.points": per(c.get("points", 0)),
        "polylog.polylog_deriv.self_s": per(self_s.get("polylog.polylog_deriv", 0.0)),
        "polylog.fp_events": per(c.get("fp_events", 0)),
        "polylog.relerr_max": max(finite, default=0.0),
        "polylog.bad_share": share(sum(not (e <= disk.REL_TOL) for e in errs), len(errs)),
        "polylog.horner_flops": per(c.get("horner_flops", 0)),
    }
    for fn in ("kernel", "kernel_batch", "metric", "log_kernel_grad_wbar", "representative_map", "eig"):
        out[f"bergman.{fn}.calls"] = per(calls.get(f"bergman.{fn}", 0))
        out[f"bergman.{fn}.self_s"] = per(self_s.get(f"bergman.{fn}", 0.0))
    out["bergman.kernel_batch.rows"] = per(c.get("kernel_batch_rows", 0))
    out["bergman.kernel_batch.bytes_in"] = per(c.get("kernel_batch_bytes", 0))
    out["bergman.origin_metric.repeat_share"] = share(c.get("origin_metric_repeats", 0),
                                                      c.get("origin_metric_calls", 0))
    for fn in ("apply", "jacobian", "random_automorphism"):
        out[f"autgroup.{fn}.calls"] = per(calls.get(f"autgroup.{fn}", 0))
        out[f"autgroup.{fn}.self_s"] = per(self_s.get(f"autgroup.{fn}", 0.0))
    out["domain.sample.calls"] = per(calls.get("domain.sample", 0))
    out["domain.sample.self_s"] = per(self_s.get("domain.sample", 0.0))
    out["verify.sample_pairs.self_s"] = per(self_s.get("verify.sample_pairs", 0.0))
    out["verify.sample_pairs.accept_share"] = share(c.get("pairs_accepted", 0), c.get("pairs_examined", 0))
    for check in ("kernel_law", "metric_law", "cartan", "gram", "boundary", "mc"):
        out[f"verify.{check}.s"] = per(total_s.get(f"verify.{check}", 0.0))
    out["verify.self_s"] = per(sum(v for k, v in self_s.items() if k.startswith("verify.")))
    out["verify.residual_headroom"] = headroom
    out["cli.import_s"] = import_s
    out["cli.main_s"] = main_s
    out["trace.overhead_s"] = overhead_s
    out["trace.ops"] = ops
    return out


# -------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.realpath(fbh.__file__).startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        print(f"error: fbh imported from {fbh.__file__}, not from this checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        times, calibrated, failed, leaks = run_window(wl, args.seconds / 2, 0, guard_untraced=True)
        tracer = shims.Tracer()
        if isinstance(wl, CliVerify):
            wl.tracer_parts = []
        else:
            tracer.install()
        try:
            traced, _, traced_failed, _ = run_window(wl, args.seconds / 2, len(times), guard_untraced=False)
        finally:
            tracer.uninstall()
        totals = shims.merge_totals(wl.tracer_parts) if isinstance(wl, CliVerify) else tracer.totals()
        wl.tracer_parts = None
        leaks += shims.installed_count()
        failed += traced_failed
    else:
        traced = []
        times, calibrated, failed, leaks = run_window(wl, args.seconds, 0, guard_untraced=True,
                                                      speed=probe.SpeedProbe(*wl.speed))

    finish_ok, info = wl.finish()
    ops = len(times) + len(traced)
    p50 = statistics.median(times)
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": ops,
        "ops_untraced": len(times),
        "op_p50_s": p50,
        "op_p50_cal_s": statistics.median(calibrated) if calibrated else None,
        "host_speed_p50": statistics.median(c / t for c, t in zip(calibrated, times)) if calibrated else None,
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1]
        if len(times) * 0.1 >= P90_TAIL else None,
        "fail_share": failed / ops,
        "peak_rss_mb": rss_mb(wl),
        "shims_left_installed": leaks,
        "environment": environment(),
    }
    if isinstance(wl, EvalDisk):
        summary["evals_per_s"] = disk.ROWS / p50
        summary.update(info)
    if isinstance(wl, VerifyLarge):
        summary["residual_headroom"] = wl.headroom
    correct = finish_ok and leaks == 0

    if args.trace:
        import_s, main_s, main_ok = cli_layer_times(args.seed)
        correct = correct and main_ok
        headroom = getattr(wl, "headroom", 0.0)
        metrics = layer_metrics(totals, len(traced), statistics.median(traced) - p50, import_s, main_s, headroom)
        result_metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        result_metrics = {
            "op_p50_cal_s": {"value": summary["op_p50_cal_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": bool(correct), "attempted": ops, "failed": failed, "metrics": result_metrics}))
    return 0


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "relerr_max", "headroom")):
        return "ratio"
    if name.endswith("bytes_in"):
        return "B"
    if name.endswith("flops"):
        return "flop"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
