"""Command-line interface: subcommands, exit codes, report stability."""

import hashlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rampsvm
from rampsvm import (
    COUNTEREXAMPLE_C,
    ProxParams,
    counterexample_dataset,
    counterexample_point,
    prox_scalar,
    write_csv,
)
from rampsvm.cli import _dumps, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GEN_DATA_ARGS = (
    "gen-data", "--n", "3", "--sep", "3.0", "--outliers", "0.0", "--seed", "0",
)


def run_cli(capsys, *argv):
    capsys.readouterr()  # drop output buffered by fixtures
    code = main(list(argv))
    out = capsys.readouterr().out
    if out:
        # Every report is the text json.dumps would write for it.
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    return code, out


def run_module(*argv):
    """Run ``python -m rampsvm *argv`` as a child process.

    The child's PYTHONPATH starts with the absolute directory holding the
    ``rampsvm`` package this process imported, so the child loads the same
    source tree whatever its cwd and whether or not the package is installed.
    """
    package_root = str(Path(rampsvm.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return subprocess.run(
        [sys.executable, "-m", "rampsvm", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def easy_csv(tmp_path):
    path = tmp_path / "easy.csv"
    code = main(
        [
            "gen-data",
            "--n", "6",
            "--sep", "4.0",
            "--outliers", "0.0",
            "--seed", "0",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def counterexample_csv(tmp_path):
    path = tmp_path / "ce.csv"
    write_csv(counterexample_dataset(), path)
    return path


def test_train_report_shape(capsys, easy_csv):
    code, out = run_cli(
        capsys, "train", "--data", str(easy_csv), "--C", "1.0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "train"
    assert set(report) >= {"inputs_digest", "problem", "params", "result", "versions"}
    assert report["params"]["sigma"] == 0.5
    assert report["result"]["status"] in {"converged", "max-iter", "diverged"}
    point = report["result"]["point"]
    assert len(point["w"]) == 2 and len(point["lambda"]) == report["problem"]["m"]


def test_train_byte_stable(capsys, easy_csv):
    _, first = run_cli(capsys, "train", "--data", str(easy_csv), "--C", "1.0")
    _, second = run_cli(capsys, "train", "--data", str(easy_csv), "--C", "1.0")
    assert first == second
    assert "timestamp" not in first


def test_train_out_file_matches_stdout(capsys, easy_csv, tmp_path):
    out_path = tmp_path / "report.json"
    _, out = run_cli(
        capsys,
        "train", "--data", str(easy_csv), "--C", "1.0", "--out", str(out_path),
    )
    assert out_path.read_text() == out


def test_train_expect_pstationary(capsys, easy_csv):
    code, _ = run_cli(
        capsys,
        "train", "--data", str(easy_csv), "--C", "1.0",
        "--expect", "p-stationary",
    )
    assert code == 0
    # One iteration cannot reach stationarity: the expectation must fail.
    code, out = run_cli(
        capsys,
        "train", "--data", str(easy_csv), "--C", "1.0",
        "--max-iter", "1", "--expect", "p-stationary",
    )
    assert code == 4
    assert json.loads(out)["result"]["status"] == "max-iter"


def test_train_diverged_exit_code(capsys, easy_csv):
    code, out = run_cli(
        capsys,
        "train", "--data", str(easy_csv), "--C", "1.0", "--sigma", "1e308",
    )
    assert code == 3
    assert json.loads(out)["result"]["status"] == "diverged"


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_train_rejects_non_finite_tol(capsys, easy_csv, tol):
    capsys.readouterr()
    code = main(["train", "--data", str(easy_csv), "--C", "1.0", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tol must be finite and positive" in captured.err


def test_certify_fixture_point(capsys, counterexample_csv):
    point = counterexample_point()
    w_arg = ",".join(repr(float(v)) for v in point.w)
    code, out = run_cli(
        capsys,
        "certify",
        "--data", str(counterexample_csv),
        "--w", w_arg,
        "--b=" + repr(float(point.b)),
        "--C", "0.25",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "kkt-only"
    assert report["result"]["kkt"]["passed"] is True
    assert all(
        c["verdict"] != "p-stationary" for c in report["result"]["stationarity"]
    )


def test_certify_expect_failure_exit_code(capsys, counterexample_csv):
    point = counterexample_point()
    code, _ = run_cli(
        capsys,
        "certify",
        "--data", str(counterexample_csv),
        "--w", ",".join(repr(float(v)) for v in point.w),
        "--b=" + repr(float(point.b)),
        "--C", "0.25",
        "--expect", "p-stationary",
    )
    assert code == 4


def test_certify_explicit_lambda_and_gammas(capsys, counterexample_csv):
    point = counterexample_point()
    code, out = run_cli(
        capsys,
        "certify",
        "--data", str(counterexample_csv),
        "--w", ",".join(repr(float(v)) for v in point.w),
        "--b=" + repr(float(point.b)),
        "--C", "0.25",
        "--lambda=" + ",".join(repr(float(v)) for v in point.lam),
        "--gammas", "0.4,16",
    )
    assert code == 0
    report = json.loads(out)
    gammas = [c["gamma"] for c in report["result"]["stationarity"]]
    assert gammas == [0.4, 16.0]


def test_certify_dimension_error(capsys, counterexample_csv):
    code, _ = run_cli(
        capsys,
        "certify",
        "--data", str(counterexample_csv),
        "--w", "1.0",
        "--b", "0.0",
        "--C", "0.25",
    )
    assert code == 2


@pytest.mark.parametrize("with_lambda", [False, True])
def test_certify_rejects_zero_C(capsys, counterexample_csv, with_lambda):
    # The default gamma grid divides by C, which used to end in a
    # ZeroDivisionError traceback and exit 1.
    point = counterexample_point()
    argv = [
        "certify",
        "--data", str(counterexample_csv),
        "--w", ",".join(repr(float(v)) for v in point.w),
        "--b=" + repr(float(point.b)),
        "--C=0",
    ]
    if with_lambda:
        argv.append("--lambda=" + ",".join(repr(float(v)) for v in point.lam))
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "C must be finite and positive" in captured.err


def test_prox_eval_matches_library(capsys):
    code, out = run_cli(
        capsys, "prox-eval", "--s", "1.5,0.5,-2", "--gamma", "1.0", "--C", "1.0"
    )
    assert code == 0
    report = json.loads(out)
    entries = report["result"]
    assert entries[0]["values"] == [1.5, 0.5] and entries[0]["tie"] is True
    assert entries[1]["values"] == [0.0]
    assert entries[2]["values"] == [-2.0]
    # Each entry is prox_scalar of its input, in both regimes and at ties.
    s = [-0.7, 0.0, 0.5, 1.2, 1.5, 2.0, 3.5]
    for gamma in (1.0, 2.0):
        code, out = run_cli(
            capsys,
            "prox-eval", "--s=" + ",".join(map(str, s)),
            "--gamma", str(gamma), "--C", "1.0",
        )
        assert code == 0
        entries = json.loads(out)["result"]
        assert [e["s"] for e in entries] == s
        for s_i, entry in zip(s, entries):
            expected = prox_scalar(s_i, ProxParams(gamma, 1.0))
            assert entry["values"] == list(expected.values)
            assert entry["tie"] is expected.tie


def test_support_vectors_report(capsys, easy_csv):
    code, out = run_cli(
        capsys,
        "support-vectors", "--data", str(easy_csv), "--C", "1.0", "--sigma", "0.5",
    )
    assert code == 0
    report = json.loads(out)
    support = report["result"]["support"]
    assert len(support["indices"]) == len(support["lambdas"])
    if report["result"]["margin_check"] is not None:
        assert report["result"]["margin_check"]["holds"] is True


def test_counterexample_subcommand(capsys):
    code, out = run_cli(capsys, "counterexample")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "kkt-only"
    gammas = [c["gamma"] for c in report["result"]["stationarity"]]
    assert gammas == [0.4, 4.0, 8.0, 16.0]
    point = counterexample_point()
    for cert in report["result"]["stationarity"]:
        assert cert["r_prox"] >= 0.1 - 1e-12
        # The reported distances are exactly the set-valued reference's.
        params = ProxParams(cert["gamma"], COUNTEREXAMPLE_C)
        s = point.u - cert["gamma"] * point.lam
        assert cert["prox_distances"] == [
            prox_scalar(s_i, params).distance(u_i) for s_i, u_i in zip(s, point.u)
        ]
        assert cert["r_prox"] == max(cert["prox_distances"])
    assert report["result"]["objective"] == pytest.approx(0.5)
    _, again = run_cli(capsys, "counterexample")
    assert out == again


def test_gen_data_digest_and_determinism(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, report_a = run_cli(
        capsys,
        "gen-data", "--n", "4", "--sep", "2.0", "--outliers", "0.25",
        "--seed", "5", "--out", str(out_a),
    )
    assert code == 0
    digest = json.loads(report_a)["result"]["csv_sha256"]
    assert digest == hashlib.sha256(out_a.read_bytes()).hexdigest()
    run_cli(
        capsys,
        "gen-data", "--n", "4", "--sep", "2.0", "--outliers", "0.25",
        "--seed", "5", "--out", str(out_b),
    )
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        {"z": 1, "a": {"y": [1.0, -0.0, 2.5e-300], "x": {"w": [[1.0], [2.0, 3.0]]}}},
        [math.nan, math.inf, -math.inf, 0.1],
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
        [np.float64(1.5), 2.0, np.float64(-0.0), np.float64(1e16)],
        {"u": [np.float64(0.1)] * 3, "n": np.float64(7.25)},
        (1.0, 2.0),
        {"t": (1, "a", None), "f": (0.5,), "b": [True, False, 1.0]},
        [True, False, None, 0, -3, 1.0, "x, y", [0.1, 0.2]],
        {"\u00e9t\u00e9": "caf\u00e9 \u65e5\u672c \u2028", "s": ["a, b", "\u00e9"]},
        [1, 2, 3],
        "plain",
        None,
        True,
        math.nan,
        3,
    ],
)
def test_dumps_matches_json(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_dumps_rejects_non_str_keys():
    with pytest.raises(TypeError):
        _dumps({1: 2.0})


def test_missing_file_exit_code(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "train", "--data", str(tmp_path / "nope.csv"), "--C", "1.0"
    )
    assert code == 2


def test_malformed_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("+2,1.0\n")
    code, _ = run_cli(capsys, "train", "--data", str(bad), "--C", "1.0")
    assert code == 2


def test_console_entry_point(tmp_path):
    data = tmp_path / "d.csv"
    gen = run_module(*GEN_DATA_ARGS, "--out", str(data))
    assert gen.returncode == 0
    run = run_module("train", "--data", str(data), "--C", "1.0")
    assert run.returncode == 0
    assert json.loads(run.stdout)["command"] == "train"


def test_unknown_arguments_exit_two():
    result = run_module("train", "--data", "x.csv", "--C", "1.0", "--bogus")
    assert result.returncode == 2


def test_console_script_mapping():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["rampsvm"] == "rampsvm.cli:main"
    assert pkgutil.resolve_name(scripts["rampsvm"]) is main


@pytest.mark.skipif(
    shutil.which("rampsvm") is None,
    reason="the rampsvm console script is not installed",
)
def test_installed_console_script(tmp_path):
    data = tmp_path / "d.csv"
    assert run_module(*GEN_DATA_ARGS, "--out", str(data)).returncode == 0
    train_args = ("train", "--data", str(data), "--C", "1.0")
    run = subprocess.run(
        ["rampsvm", *train_args], capture_output=True, text=True
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["command"] == "train"
    assert run.stdout == run_module(*train_args).stdout
