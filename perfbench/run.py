"""fbh benchmark.

    python3 perfbench/run.py --workload {verify-large,eval-disk,cli-verify,all}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is taken from its `src`.
Set-up is timed in fresh worker processes, from spawn to the worker's READY
line, SETUP_SAMPLES times: set-up-only workers before and after the one
that runs the timed loop, so the samples span the run.  The
last line of standard output is the result object; see README.md.  With
`--workload all` the three run in turn and the last line merges them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-large", "eval-disk", "cli-verify")
SETUP_SAMPLES = 5  # odd; the median is reported
DEADLINE_S = 175.0  # per workload, so a stuck worker cannot hold the caller


def _worker_env():
    env = dict(os.environ)
    # One BLAS thread: the benchmark is one process with no extra threads,
    # and on a small shared machine BLAS threads mostly add noise.
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, deadline):
    """Start a worker, return (setup seconds, later stdout lines, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    # The launcher only waits; the watchdog kills a worker past the deadline.
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
                continue
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup_s, lines, code


# End-to-end figures of the summary line, with units, for the readable report.
E2E_UNITS = {
    "op_p50_s": "s",
    "op_p50_cal_s": "s",
    "host_speed_p50": "ratio",
    "op_p90_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fail_share": "ratio",
    "bad_value_share": "ratio",
}


def run_workload(name, args):
    """Set up `name` SETUP_SAMPLES times, run it once; print its lines and
    return the result object, or None if a worker failed."""
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(args.seed)]
    setups = []

    def setup_only():
        setup_s, _, code = _spawn(common + ["--seconds", "0", "--setup-only"], deadline)
        if code != 0 or setup_s is None:
            print(f"error: set-up of {name} failed (exit {code})", file=sys.stderr)
            return False
        setups.append(setup_s)
        return True

    if not all(setup_only() for _ in range(SETUP_SAMPLES // 2)):
        return None
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_s, lines, code = _spawn(run_args, deadline)
    if code != 0 or setup_s is None or len(lines) < 2:
        print(f"error: {name} worker failed (exit {code})", file=sys.stderr)
        return None
    setups.append(setup_s)
    if not all(setup_only() for _ in range(SETUP_SAMPLES // 2)):
        return None

    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])["summary"]
    summary["setup_s"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"setup_samples_s": setups}))
    for key, unit in E2E_UNITS.items():
        if summary.get(key) is not None:
            print(f"{name} {key} {summary[key]:.6g} {unit}")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": summary["setup_s"], "unit": "s"}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fbh", "__init__.py")):
        print(f"error: no fbh package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        env = _worker_env()
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")], cwd=ROOT, env=env).returncode
    if args.workload is None:
        ap.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]), flush=True)
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
