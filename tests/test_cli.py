"""Tests for the command line surface."""

import json
import math
import sys

import numpy as np
import pytest

from fbh import verify
from fbh.autgroup import Automorphism, apply, compose, random_automorphism
from fbh.cli import build_parser, main
from fbh.domain import DomainParams, Point

P11 = DomainParams(1, 1, 1.0)


@pytest.fixture
def files(tmp_path):
    """Point and automorphism JSON files used by several subcommands."""
    paths = {}
    payloads = {
        "p": Point([0.3 + 0.1j], [0.2]).to_json(),
        "origin": Point([0.0], [0.0]).to_json(),
        "aut": random_automorphism(P11, 4).to_json(),
        "trans_1": Automorphism(np.eye(1), np.eye(1), np.array([1.0])).to_json(),
        "trans_i": Automorphism(np.eye(1), np.eye(1), np.array([1.0j])).to_json(),
    }
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def test_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["a-poly", "--n", "3", "--m", "1"])
    assert args.subcommand == "a-poly" and args.format == "text"
    args = parser.parse_args(["verify", "--params", "1,1,1.0", "--seed", "9"])
    assert args.suite == "all" and args.seed == 9


def test_a_poly_csv_matches_printed_table(capsys):
    assert main(["a-poly", "--n", "5", "--m", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == "0,1,26,66,26,1"


def test_a_poly_json_and_text(capsys):
    assert main(["a-poly", "--n", "1", "--m", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [1, 1]
    assert main(["a-poly", "--n", "2", "--m", "0"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "1"]


def test_a_poly_bad_order_exits_2(capsys):
    assert main(["a-poly", "--n", "0", "--m", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_metric_origin_text(capsys):
    assert main(["metric-origin", "--params", "1,1,1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split()[1]) == pytest.approx(1.0)
    assert float(lines[1].split()[1]) == pytest.approx(4.0)


def test_metric_origin_json(capsys):
    assert main(["metric-origin", "--params", "2,1,0.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z_block"] == pytest.approx(0.5)  # m mu
    # constant terms: A(0) = 8 one derivative order up over A(0) = 1 for n = 2
    assert payload["zeta_block"] == pytest.approx(8.0)


def test_kernel_eval_origin(capsys, files):
    code = main(
        ["kernel-eval", "--params", "1,1,1.0", "--p", files["origin"], "--q", files["origin"]]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("value ")
    assert float(lines[0].split()[1]) == pytest.approx(1.0 / math.pi**2)
    assert float(lines[1].split()[1]) == pytest.approx(0.0)


def test_kernel_eval_json_round_trip(capsys, files):
    code = main(
        [
            "kernel-eval",
            "--params",
            "1,1,1.0",
            "--p",
            files["p"],
            "--q",
            files["origin"],
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert complex(*payload["value"]) == pytest.approx(1.0 / math.pi**2)
    assert complex(*payload["t_arg"]) == 0.0


def test_apply_matches_library(capsys, files):
    assert main(["apply", "--params", "1,1,1.0", "--aut", files["aut"], "--p", files["p"]]) == 0
    out = Point.from_json(json.loads(capsys.readouterr().out))
    expected = apply(P11, Automorphism.from_json(json.loads(open(files["aut"]).read())),
                     Point.from_json(json.loads(open(files["p"]).read())))
    assert np.allclose(out.coords(), expected.coords())


def test_compose_translation_phase(capsys, files):
    code = main(
        ["compose", "--params", "1,1,1.0", "--a", files["trans_1"], "--b", files["trans_i"]]
    )
    assert code == 0
    result = Automorphism.from_json(json.loads(capsys.readouterr().out))
    assert np.allclose(result.v, [1.0 + 1.0j])
    assert result.Uprime[0, 0] == pytest.approx(np.exp(-1.0j))


def test_inverse_round_trip(capsys, files):
    assert main(["inverse", "--a", files["aut"]]) == 0
    inv = Automorphism.from_json(json.loads(capsys.readouterr().out))
    a = Automorphism.from_json(json.loads(open(files["aut"]).read()))
    both = compose(P11, a, inv)
    assert np.max(np.abs(both.U - np.eye(1))) <= 1e-12
    assert np.max(np.abs(both.v)) <= 1e-12


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "gram", "--params", "1,1,1.0", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "gram PASS" in out


def test_verify_json_report(capsys):
    code = main(
        ["verify", "--suite", "boundary", "--params", "2,1,1.0", "--seed", "5", "--json"]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["name"] == "boundary"
    assert reports[0]["passed"] is True


def test_verify_tolerance_override_fails(capsys):
    # a zero tolerance fails any residual above 0 (boundary's is rounding error)
    code = main(
        ["verify", "--suite", "boundary", "--params", "1,1,1.0", "--tol", "boundary=0"]
    )
    assert code == 1
    assert "boundary FAIL" in capsys.readouterr().out


def test_verify_mc_on_wrong_dimensions_exits_2(capsys):
    assert main(["verify", "--suite", "mc", "--params", "2,1,1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_mc_zero_samples_exits_2(capsys):
    # 0 is a sample count below the minimum, not "use the default"
    assert main(["verify", "--suite", "mc", "--params", "1,1,1.0", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "samples=" not in captured.out


@pytest.mark.parametrize(
    "suite, params, samples, code",
    [
        ("gram", "1,1,1.0", "0", 2),
        ("all", "3,2,1.0", "100000", 2),  # all drops mc where n, m != 1
        ("all", "1,1,1.0", "100000", 0),
    ],
)
def test_verify_samples_needs_the_mc_suite(suite, params, samples, code, capsys):
    argv = ["verify", "--suite", suite, "--params", params, "--samples", samples]
    assert main(argv) == code
    assert ("error:" in capsys.readouterr().err) == (code == 2)


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["a-poly", "--n", "2", "--m", "0", "--frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_bad_params_string_exits_2(capsys):
    assert main(["metric-origin", "--params", "1,1"]) == 2
    assert "--params" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["metric-origin", "verify"])
def test_empty_params_exits_2_with_one_error_line(command, capsys):
    # an empty --params used to skip parsing and crash the handler (exit 1)
    assert main([command, "--params", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: --params expects n,m,mu, got ''"]


@pytest.mark.parametrize(
    "params", ["1,1,inf", "1,1,1e-320", "2,1,1e308", "4,4,1e100", "8,1,1e-40", "64,1,1e-6"]
)
def test_verify_unusable_mu_exits_2_with_one_error_line(params, capsys):
    assert main(["verify", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: mu must be finite")


def test_bad_tol_flag_exits_2(capsys):
    assert main(["verify", "--suite", "gram", "--params", "1,1,1.0", "--tol", "gram"]) == 2
    assert "error:" in capsys.readouterr().err
    # an override for a suite the run leaves out would be dropped
    assert main(["verify", "--suite", "boundary", "--params", "1,1,1.0", "--tol", "gram=0"]) == 2
    assert "error:" in capsys.readouterr().err
    # NaN or a negative tolerance is a usage error, not a failed check; run_suite rejects it
    for tol in ["boundary=nan", "boundary=-1", "boundary=-inf"]:
        assert main(["verify", "--suite", "boundary", "--params", "1,1,1.0", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tolerance for boundary must be")


def test_verify_rejects_a_tolerance_for_mc(capsys):
    # mc derives its own tolerance, so an override would be dropped
    argv = ["verify", "--suite", "mc", "--params", "1,1,1.0", "--samples", "100000", "--tol", "mc=0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: unknown suites, or tolerance overrides")
    assert "['mc']" in captured.err


def test_verify_gram_non_finite_fails_with_exit_1(capsys, monkeypatch):
    # one NaN planted in the Gram's t values: a failed report, not a crash
    real = verify._kernel_args

    def one_nan(params, p, Z, Zeta):
        s, t, E = real(params, p, Z, Zeta)
        t[..., 3, 5] = math.nan
        return s, t, E

    monkeypatch.setattr(verify, "_kernel_args", one_nan)
    argv = ["verify", "--suite", "gram", "--params", "1,1,1.0", "--json"]
    assert main(argv) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["name"] == "gram" and not report["passed"]
    assert report["details"] == {"non_finite": 1.0}


@pytest.mark.parametrize("params", ["32,16,1.0", "64,8,1.0", "2,64,1.0", "64,64,1.0"])
def test_verify_gram_passes_where_kernel_values_overflow(params, capsys):
    argv = ["verify", "--suite", "gram", "--params", params, "--json"]
    assert main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["details"]["log10_max_kernel"] > math.log10(sys.float_info.max)


POINT_11 = {"z": [[0.3, 0.1]], "zeta": [[0.2, 0.0]]}
# case -> (subcommand, payload, a fragment of the expected error line)
BAD_INPUTS = {
    "z-not-pairs": ("kernel-eval", dict(POINT_11, z=[1.0, 2.0]), "pairs"),
    "z-null": ("kernel-eval", dict(POINT_11, z=None), "pairs"),
    "top-level-list": ("kernel-eval", [POINT_11], "JSON object"),
    "v-scalar": (
        "apply",
        dict(Automorphism(np.eye(1), np.eye(1), np.zeros(1)).to_json(), v=5),
        "pairs",
    ),
    "stacked-point": (
        "kernel-eval",
        {"z": [[[0.3, 0.1]], [[0.0, 0.0]]], "zeta": [[[0.2, 0.0]]] * 2},
        "single points",
    ),
    # json writes NaN and Infinity literals, and reads them back as floats
    "z-nan": ("kernel-eval", dict(POINT_11, z=[[math.nan, 0.0]]), "finite"),
    "v-infinite": (
        "apply",
        dict(Automorphism(np.eye(1), np.eye(1), np.zeros(1)).to_json(), v=[[math.inf, 0.0]]),
        "finite",
    ),
    # t = 25 lies outside the disk where the kernel series converges
    "outside-domain": ("kernel-eval", {"z": [[0.0, 0.0]], "zeta": [[5.0, 0.0]]}, "inside"),
    "on-boundary": ("kernel-eval", {"z": [[0.0, 0.0]], "zeta": [[1.0, 0.0]]}, "inside"),
    # ||z||^2 overflows on the slice zeta = 0, which lies in the domain: no warning, no "inside"
    "z-norm-overflows": ("kernel-eval", {"z": [[1e200, 0.0]], "zeta": [[0.0, 0.0]]}, "not a finite float"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_exits_2(case, capsys, tmp_path, files):
    command, payload, fragment = BAD_INPUTS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    if command == "kernel-eval":
        argv = ["kernel-eval", "--params", "1,1,1.0", "--p", str(path), "--q", files["origin"]]
    else:
        argv = ["apply", "--params", "1,1,1.0", "--aut", str(path), "--p", files["p"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize(
    "case", sorted(c for c, (command, _, _) in BAD_INPUTS.items() if command == "kernel-eval")
)
def test_malformed_q_exits_2(case, capsys, tmp_path, files):
    # the same payloads as --q with a good --p, so each side's checks are tested on their own
    _, payload, fragment = BAD_INPUTS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = ["kernel-eval", "--params", "1,1,1.0", "--p", files["origin"], "--q", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_apply_stacked_point_matches_library(capsys, tmp_path, files):
    X = Point([[0.3 + 0.1j], [-0.2j], [0.5]], [[0.2], [0.1j], [-0.3]])
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(X.to_json()))
    assert main(["apply", "--params", "1,1,1.0", "--aut", files["aut"], "--p", str(path)]) == 0
    out = Point.from_json(json.loads(capsys.readouterr().out))
    a = Automorphism.from_json(json.loads(open(files["aut"]).read()))
    expected = apply(P11, a, X)
    assert np.array_equal(out.z, expected.z) and np.array_equal(out.zeta, expected.zeta)


@pytest.mark.parametrize("seed", ["-1", "-102"])
def test_verify_negative_seed_exits_2_with_one_error_line(seed, capsys):
    assert main(["verify", "--params", "1,1,1.0", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: seed must be >= 0, got {seed}"]
