"""Tests for the command line surface."""

import json
import math

import numpy as np
import pytest

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
    code = main(
        ["verify", "--suite", "gram", "--params", "1,1,1.0", "--tol", "gram=-1"]
    )
    assert code == 1
    assert "gram FAIL" in capsys.readouterr().out


def test_verify_mc_on_wrong_dimensions_exits_2(capsys):
    assert main(["verify", "--suite", "mc", "--params", "2,1,1.0"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_bad_tol_flag_exits_2(capsys):
    assert main(["verify", "--suite", "gram", "--params", "1,1,1.0", "--tol", "gram"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_gram_non_finite_fails_with_exit_1(capsys):
    # kernel values overflow at (32, 16): a failed report, not a crash
    argv = ["verify", "--suite", "gram", "--params", "32,16,1.0", "--json"]
    assert main(argv) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["name"] == "gram" and not report["passed"]
    assert report["details"]["non_finite"] > 0


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


def test_apply_stacked_point_matches_library(capsys, tmp_path, files):
    X = Point([[0.3 + 0.1j], [-0.2j], [0.5]], [[0.2], [0.1j], [-0.3]])
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(X.to_json()))
    assert main(["apply", "--params", "1,1,1.0", "--aut", files["aut"], "--p", str(path)]) == 0
    out = Point.from_json(json.loads(capsys.readouterr().out))
    a = Automorphism.from_json(json.loads(open(files["aut"]).read()))
    expected = apply(P11, a, X)
    assert np.array_equal(out.z, expected.z) and np.array_equal(out.zeta, expected.zeta)
