"""Tracing shims for the traced benchmark run.

Each shim replaces a public function at the module attribute its callers
look up (fbh.bergman.polylog_deriv, fbh.verify.kernel, ...), records one
span per call and restores the original on uninstall.  Self time is the
span's duration minus the time its child spans cover.  Spans and counters
stay in memory until the run reads them.
"""

import importlib
import time
from collections import defaultdict

import numpy as np

# span name -> [(module, attribute), ...] where callers look the function up.
TARGETS = {
    "polylog.a_poly": [("fbh.polylog", "a_poly"), ("fbh.cli", "a_poly")],
    "polylog.stirling2": [("fbh.polylog", "stirling2")],
    "polylog.polylog_deriv": [("fbh.bergman", "polylog_deriv"), ("fbh.polylog", "polylog_deriv")],
    "bergman.kernel": [("fbh.verify", "kernel"), ("fbh.cli", "kernel"), ("fbh.bergman", "kernel")],
    "bergman.kernel_batch": [("fbh.verify", "kernel_batch"), ("fbh.bergman", "kernel_batch")],
    "bergman.metric": [("fbh.bergman", "metric"), ("fbh.verify", "metric"), ("fbh.cli", "metric")],
    "bergman.log_kernel_grad_wbar": [("fbh.bergman", "log_kernel_grad_wbar")],
    "bergman.representative_map": [("fbh.verify", "representative_map")],
    "bergman.eig": [
        ("fbh.bergman", "sqrt_pd"),
        ("fbh.bergman", "inv_sqrt_pd"),
        ("fbh.verify", "sqrt_pd"),
        ("fbh.verify", "inv_sqrt_pd"),
    ],
    "autgroup.apply": [("fbh.verify", "apply"), ("fbh.cli", "apply")],
    "autgroup.jacobian": [("fbh.verify", "jacobian"), ("fbh.bergman", "jacobian")],
    "autgroup.random_automorphism": [("fbh.verify", "random_automorphism")],
    "domain.sample": [
        ("fbh.verify", "sample_interior"),
        ("fbh.verify", "sample_interior_arrays"),
        ("fbh.verify", "sample_boundary"),
        ("fbh.verify", "sample_density_arrays"),
    ],
    "verify.run_suite": [("fbh.verify", "run_suite"), ("fbh.cli", "run_suite")],
    "verify.sample_pairs": [("fbh.verify", "sample_pairs")],
    "verify.kernel_law": [("fbh.verify", "check_kernel_law")],
    "verify.metric_law": [("fbh.verify", "check_metric_law")],
    "verify.cartan": [("fbh.verify", "check_cartan")],
    "verify.gram": [("fbh.verify", "check_gram_psd")],
    "verify.boundary": [("fbh.verify", "check_boundary_invariance")],
    "verify.mc": [("fbh.verify", "mc_reproduce_constant")],
}

MARK = "__perfbench_shim__"
SAMPLE_POINTS = 256  # polylog_deriv inputs kept for the exact oracle
FLOPS_PER_TERM = 8  # complex multiply (6) + add of a real coefficient (2)


def _modules():
    return {name: importlib.import_module(name) for name in {m for v in TARGETS.values() for m, _ in v}}


def installed_count():
    """Number of target attributes that currently hold a shim."""
    mods = _modules()
    return sum(
        bool(getattr(getattr(mods[m], attr), MARK, False))
        for pairs in TARGETS.values()
        for m, attr in pairs
    )


def _is_origin(point):
    return not np.any(point.z) and not np.any(point.zeta)


class Tracer:
    """Span recorder with the per-layer counters the benchmark reports."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.stack = []  # child time accumulated per open span
        self.names = []  # names of open spans
        self.saved = []
        self.counts = defaultdict(float)
        self.a_poly_seen = set()
        self.origin_seen = set()
        self.samples = []  # (n, m, t, value) fed to polylog_deriv

    # ---------------------------------------------------------------- spans
    def _wrap(self, name, fn):
        tracer = self

        def shim(*args, **kwargs):
            tracer._before(name, args)
            tracer.stack.append(0.0)
            tracer.names.append(name)
            t0 = time.perf_counter()
            try:
                out = tracer._call(name, fn, args, kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer.stack.pop()
                tracer.names.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - child
                if tracer.stack:
                    tracer.stack[-1] += dt
            tracer._after(name, args, out)
            return out

        setattr(shim, MARK, True)
        shim.__wrapped__ = fn
        return shim

    def _call(self, name, fn, args, kwargs):
        if name != "polylog.polylog_deriv":
            return fn(*args, **kwargs)
        events = [0]

        def count(_kind, _flag):
            events[0] += 1

        with np.errstate(over="call", invalid="call", divide="call", call=count):
            out = fn(*args, **kwargs)
        self.counts["fp_events"] += events[0]
        return out

    def _before(self, name, args):
        if name == "polylog.a_poly":
            key = (args[0], args[1])
            self.counts["a_poly_repeats"] += key in self.a_poly_seen
            self.a_poly_seen.add(key)
        elif name == "bergman.metric":
            params, p, q = args[:3]
            if _is_origin(p) and _is_origin(q):
                self.counts["origin_metric_calls"] += 1
                self.counts["origin_metric_repeats"] += params in self.origin_seen
                self.origin_seen.add(params)
        elif name == "bergman.kernel_batch":
            Z, Zeta = np.asarray(args[2]), np.asarray(args[3])
            self.counts["kernel_batch_rows"] += Z.shape[0]
            self.counts["kernel_batch_bytes"] += Z.nbytes + Zeta.nbytes
        elif name == "bergman.kernel" and self.names and self.names[-1] == "verify.sample_pairs":
            self.counts["pairs_examined"] += 1

    def _after(self, name, args, out):
        if name == "polylog.polylog_deriv":
            n, m = args[0], args[1]
            t = np.atleast_1d(np.asarray(args[2], dtype=complex))
            values = np.atleast_1d(np.asarray(out, dtype=complex))
            self.counts["points"] += t.size
            self.counts["horner_flops"] += FLOPS_PER_TERM * (n + 1) * t.size
            room = SAMPLE_POINTS - len(self.samples)
            for ti, vi in zip(t.ravel()[:room], values.ravel()[:room]):
                self.samples.append((n, m, complex(ti), complex(vi)))
        elif name == "verify.sample_pairs":
            self.counts["pairs_accepted"] += len(out)

    # ------------------------------------------------------ install/restore
    def install(self):
        mods = _modules()
        for name, pairs in TARGETS.items():
            for m, attr in pairs:
                original = getattr(mods[m], attr)
                self.saved.append((mods[m], attr, original))
                setattr(mods[m], attr, self._wrap(name, original))

    def uninstall(self):
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)

    # -------------------------------------------------------------- results
    def totals(self):
        """Raw sums over everything traced so far, JSON-ready."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": [[n, m, t.real, t.imag, v.real, v.imag] for n, m, t, v in self.samples],
        }


def merge_totals(parts):
    """Sum several totals() dicts (one per traced child process)."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float), "self_s": defaultdict(float),
           "counts": defaultdict(float), "samples": []}
    for part in parts:
        for key in ("calls", "total_s", "self_s", "counts"):
            for name, value in part[key].items():
                out[key][name] += value
        out["samples"].extend(part["samples"][: SAMPLE_POINTS - len(out["samples"])])
    return out
