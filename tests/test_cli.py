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
    Dataset,
    ProxParams,
    counterexample_dataset,
    counterexample_point,
    gen_synthetic,
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


@pytest.fixture
def batch1_csv(tmp_path):
    # Acceptance-batch dataset 1; at sigma = 0.5 its run uses the whole
    # budget and ends uncertified.
    path = tmp_path / "batch1.csv"
    write_csv(gen_synthetic(8, 4.0, 0.1, 1), path)
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
    assert report["result"]["gamma_max"] == 0.0
    # Without --gammas the one row is the verdict's own step, 2/C here.
    [row] = report["result"]["stationarity"]
    assert row["gamma"] == 8.0 and row["verdict"] == "neither"


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


@pytest.mark.parametrize(
    "w, extra, message",
    [
        ("0,0", ["--lambda=1,2"], "error: --lambda has 2 entries, dataset has 3 samples"),
        ("0,0", ["--lambda=0,nan,0"], "error: lam must be finite"),
        ("1,x", [], "rampsvm certify: error: argument --w: bad float list '1,x'"),
        (",", [], "rampsvm certify: error: argument --w: empty list"),
    ],
    ids=["lambda-count", "lambda-nan", "w-bad-float", "w-empty"],
)
def test_certify_input_errors(capsys, counterexample_csv, w, extra, message):
    # Exit 2 with nothing on stdout and one error line on stderr; argparse
    # prints its usage lines before the error line.
    argv = [
        "certify",
        "--data", str(counterexample_csv),
        "--w=" + w,
        "--b=0",
        "--C=0.25",
        *extra,
    ]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[-1] == message
    assert all(line.startswith(("usage: ", " ")) for line in lines[:-1])


@pytest.mark.parametrize("with_lambda", [False, True])
def test_certify_rejects_zero_C(capsys, counterexample_csv, with_lambda):
    # The bounds of the admissible steps divide by C; a division by zero
    # there would end in a traceback and exit 1.
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


@pytest.mark.parametrize("with_lambda", [False, True])
@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_certify_rejects_non_finite_point(
    capsys, counterexample_csv, with_lambda, bad
):
    # u = 1 - A w - b y used to be formed first, so with --lambda a
    # non-finite b was reported as "u must be finite".
    point = counterexample_point()
    w_arg = ",".join(repr(float(v)) for v in point.w)
    for w, b, name in (
        (w_arg, bad, "b"),
        (bad + "," + repr(float(point.w[1])), repr(float(point.b)), "w"),
    ):
        argv = [
            "certify",
            "--data", str(counterexample_csv),
            "--w=" + w,
            "--b=" + b,
            "--C", "0.25",
        ]
        if with_lambda:
            argv.append("--lambda=" + ",".join(repr(float(v)) for v in point.lam))
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite\n"


def test_certify_recovers_every_margin_at_zero(capsys, tmp_path):
    # m = 8000 samples all on the margin of w = (1, 0), b = 0, as a trainer
    # iterate whose prox zeroed every u: recovery solves for all 8000
    # on-margin multipliers by least squares on the 3 x 8000 system.
    rng = np.random.default_rng(8000)
    y = np.resize([1.0, -1.0], 8000)
    X = np.column_stack((y, rng.uniform(-2.0, 2.0, y.size)))
    path = tmp_path / "on-margin.csv"
    write_csv(Dataset(X=X, y=y), path)
    code, out = run_cli(
        capsys, "certify", "--data", str(path), "--w", "1,0", "--b", "0", "--C", "1"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "p-stationary"
    assert max(abs(u) for u in result["point"]["u"]) <= 1e-12


def test_certify_grades_given_lambda_as_it_stands(capsys, counterexample_csv):
    # The counterexample grades kkt-only with its recovered multiplier; a
    # positive --lambda misses every KKT interval and grades neither, and
    # the report carries that lambda unchanged.
    point = counterexample_point()
    argv = [
        "certify",
        "--data", str(counterexample_csv),
        "--w=" + ",".join(repr(float(v)) for v in point.w),
        "--b=" + repr(float(point.b)),
        "--C", repr(COUNTEREXAMPLE_C),
    ]
    results = []
    for extra in ([], ["--lambda=5,5,5"]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        results.append(json.loads(out)["result"])
    assert results[0]["verdict"] == "kkt-only"
    assert results[1]["verdict"] == "neither"
    assert results[1]["point"]["lambda"] == [5.0, 5.0, 5.0]
    assert results[1]["kkt"]["r_multiplier"] == 5.0
    assert "multiplier_residual" not in results[0]


_STEP_SWEEP = [f"1e{k}" for k in range(-12, 4)]


def test_counterexample_never_pstationary_at_any_step(capsys, counterexample_csv):
    # The sample at u = 1 admits no prox step, so no --gammas value can
    # certify the point, through either command.  At small steps the four
    # residuals alone fall within tol.
    point = counterexample_point()
    certify = [
        "certify",
        "--data", str(counterexample_csv),
        "--w", ",".join(repr(float(v)) for v in point.w),
        "--b=" + repr(float(point.b)),
        "--C", "0.25",
    ]
    small_rows = 0
    for gamma in _STEP_SWEEP:
        for argv in (certify, ["counterexample"]):
            code, out = run_cli(capsys, *argv, "--gammas", gamma)
            assert code == 0
            result = json.loads(out)["result"]
            assert result["verdict"] == "kkt-only", (argv[0], gamma)
            [row] = result["stationarity"]
            assert row["gamma"] == float(gamma)
            assert row["verdict"] == "neither"
            small_rows += row["r_prox"] <= 1e-6
    assert small_rows > 0
    code, out = run_cli(capsys, *certify)
    result = json.loads(out)["result"]
    assert result["gamma_max"] == 0.0 and result["verdict"] == "kkt-only"


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


@pytest.mark.parametrize(
    "sigma, code, skipped",
    [
        ("1e308", 3, "solver diverged"),
        ("1", 0, "gamma*C = 1.0 < 2, margin geometry not applicable"),
        ("0.5", 0, "point not certified p-stationary (verdict neither)"),
    ],
    ids=["diverged", "regime", "uncertified"],
)
def test_support_vectors_skip_reasons(capsys, batch1_csv, sigma, code, skipped):
    got, out = run_cli(
        capsys,
        "support-vectors", "--data", str(batch1_csv), "--C", "1", "--sigma", sigma,
    )
    assert got == code
    result = json.loads(out)["result"]
    assert result["margin_check"] is None
    assert result["margin_check_skipped"] == skipped


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


def _ce_row(gamma, distances):
    return {
        "gamma": gamma,
        "prox_distances": distances,
        "r_feas": 0.0,
        "r_grad": 0.0,
        "r_prox": max(distances),
        "r_y": 0.0,
        "verdict": "neither",
    }


COUNTEREXAMPLE_REPORT = {
    "command": "counterexample",
    "inputs_digest": (
        "47915dd61093861c572375a367407288ed6c92573795b0023f9232585afc7766"
    ),
    "params": {"C": 0.25, "gammas": [0.4, 4.0, 8.0, 16.0], "tol": 1e-06},
    "problem": {
        "full_column_rank": True,
        "lambda_h": 0.2500000000000006,
        "m": 3,
        "n": 2,
    },
    "result": {
        "kkt": {
            "passed": True,
            "r_feas": 0.0,
            "r_grad": 0.0,
            "r_multiplier": 0.0,
            "r_y": 0.0,
        },
        "objective": 0.5,
        "point": {
            "b": -2.0,
            "lambda": [-0.25, 0.0, -0.25],
            "u": [0.0, 1.0, 0.0],
            "w": [0.5, 0.5],
        },
        "stationarity": [
            _ce_row(0.4, [0.0, 0.09999999999999998, 0.0]),
            _ce_row(4.0, [0.0, 1.0, 0.0]),
            _ce_row(8.0, [0.0, 1.0, 0.0]),
            _ce_row(16.0, [4.0, 1.0, 4.0]),
        ],
        "verdict": "kkt-only",
    },
    "seed": None,
}


def test_counterexample_report_pinned(capsys):
    # run_cli checks the text is json.dumps of the parsed report, so equal
    # reports mean equal bytes, versions aside.
    code, out = run_cli(capsys, "counterexample")
    assert code == 0
    report = json.loads(out)
    del report["versions"]
    assert report == COUNTEREXAMPLE_REPORT
