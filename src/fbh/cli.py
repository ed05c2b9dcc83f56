"""Command line interface.

Subcommands cover the exact coefficient tables (a-poly), kernel and metric
evaluation, the group operations on JSON payloads, and the verification
suites.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error.  Floats print with 17 significant digits so text output round-trips
through double precision.
"""

import argparse
import json
import sys

from .autgroup import Automorphism, apply, compose, inverse
from .bergman import kernel, metric
from .domain import DomainParams, Point
from .errors import DimensionMismatch, FbhError
from .polylog import a_poly
from .verify import SUITE_NAMES, run_suite

FORMATS = ("text", "json", "csv")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_params(text: str) -> DomainParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--params expects n,m,mu, got {text!r}")
    return DomainParams(n=int(parts[0]), m=int(parts[1]), mu=float(parts[2]))


def _parse_tolerances(items) -> dict:
    """SUITE=VALUE items as {suite: float(value)}; run_suite checks names and values."""
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        try:
            out[name] = float(value if sep else "")
        except ValueError:
            raise ValueError(f"--tol expects SUITE=VALUE with a numeric VALUE, got {item!r}") from None
    return out


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbh",
        description="Bergman kernel, polylogarithm tables and automorphisms "
        "of the Fock-Bargmann-Hartogs domain",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", required=True, metavar="N,M,MU")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="text")

    def command(name, run, summary, *parents):  # one subparser, its handler and its shared flags
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=run)
        return p

    p = command("a-poly", _cmd_a_poly, "exact derivative-numerator coefficients", fmt)
    p.add_argument("--n", type=int, required=True, help="series order, 1..64")
    p.add_argument("--m", type=int, required=True, help="derivative order, 0..64")

    p = command("kernel-eval", _cmd_kernel_eval, "evaluate the kernel at a point pair", params, fmt)
    p.add_argument("--p", required=True, help="path to a point JSON file")
    p.add_argument("--q", required=True, help="path to a point JSON file")

    command("metric-origin", _cmd_metric_origin, "diagonal blocks of the metric at 0", params, fmt)

    p = command("apply", _cmd_apply, "apply an automorphism to a point", params)
    p.add_argument("--aut", required=True, help="path to an automorphism JSON file")
    p.add_argument("--p", required=True, help="path to a point JSON file")

    p = command("compose", _cmd_compose, "canonical form of a after b", params)
    p.add_argument("--a", required=True, help="path to an automorphism JSON file")
    p.add_argument("--b", required=True, help="path to an automorphism JSON file")

    p = command("inverse", _cmd_inverse, "group inverse of an automorphism")
    p.add_argument("--a", required=True, help="path to an automorphism JSON file")

    p = command("verify", _cmd_verify, "run the verification suites", params)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None, help="mc sample count")
    p.add_argument("--json", action="store_true", help="emit a JSON report array")
    p.add_argument(
        "--tol",
        action="append",
        metavar="SUITE=VALUE",
        help="tolerance override for any suite but mc, repeatable",
    )
    return parser


def _cmd_a_poly(args) -> int:
    coeffs = list(a_poly(args.n, args.m).coeffs)
    if args.format == "csv":
        print(",".join(str(c) for c in coeffs))
    elif args.format == "json":
        print(json.dumps(coeffs))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _emit(fmt: str, fields: dict, json_obj: dict) -> None:
    """Print json_obj as JSON, or the named float fields as one CSV row or
    as one text line per name."""
    if fmt == "json":
        print(json.dumps(json_obj))
    elif fmt == "csv":
        print(",".join(_fmt(x) for values in fields.values() for x in values))
    else:
        for name, values in fields.items():
            print(name, *(_fmt(x) for x in values))


def _cmd_kernel_eval(args) -> int:
    p = Point.from_json(_load_json(args.p))
    q = Point.from_json(_load_json(args.q))
    if p.z.ndim > 1 or q.z.ndim > 1:
        raise DimensionMismatch("kernel-eval takes single points, not stacks")
    kv = kernel(args.params, p, q)
    fields = {"value": [kv.value.real, kv.value.imag], "t_arg": [kv.t_arg.real, kv.t_arg.imag]}
    _emit(args.format, fields, fields)
    return 0


def _cmd_metric_origin(args) -> int:
    params = args.params
    o = Point.origin(params)
    T = metric(params, o, o)
    z_block = float(T[0, 0].real)
    zeta_block = float(T[params.n, params.n].real)
    json_obj = {"n": params.n, "m": params.m, "z_block": z_block, "zeta_block": zeta_block}
    _emit(args.format, {"z_block": [z_block], "zeta_block": [zeta_block]}, json_obj)
    return 0


def _cmd_apply(args) -> int:
    aut = Automorphism.from_json(_load_json(args.aut))
    p = Point.from_json(_load_json(args.p))
    print(json.dumps(apply(args.params, aut, p).to_json()))
    return 0


def _cmd_compose(args) -> int:
    a = Automorphism.from_json(_load_json(args.a))
    b = Automorphism.from_json(_load_json(args.b))
    print(json.dumps(compose(args.params, a, b).to_json()))
    return 0


def _cmd_inverse(args) -> int:
    a = Automorphism.from_json(_load_json(args.a))
    # mu never enters the inverse, so any valid params with matching sizes do
    params = DomainParams(n=a.U.shape[-1], m=a.Uprime.shape[-1], mu=1.0)
    print(json.dumps(inverse(params, a).to_json()))
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(
        args.params,
        args.seed,
        suites=(args.suite,),
        samples=args.samples,
        tolerances=args.tol,
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{r.name} {status} max_residual={_fmt(r.max_residual)} "
                f"tolerance={_fmt(r.tolerance)} samples={r.samples} "
                f"seed={r.seed} kind={r.residual_kind}"
            )
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # validate the shared flags in place before the handler runs
        if getattr(args, "params", None) is not None:
            args.params = _parse_params(args.params)
        if getattr(args, "tol", None):
            args.tol = _parse_tolerances(args.tol)
        return args.run(args)
    except (FbhError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
