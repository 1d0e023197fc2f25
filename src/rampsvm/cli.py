"""Command-line interface.

Subcommands: train, certify, prox-eval, support-vectors, counterexample,
gen-data.  Every command prints a JSON report to stdout; reports contain no
timestamps and use sorted keys, so identical inputs and seeds produce
byte-identical output.

Reports are the text of ``json.dumps(report, indent=2, sort_keys=True)``,
written by ``_dumps``.  With an indent, CPython's json module encodes in
pure Python, one call per list item; ``_dumps`` instead hands every list
of floats (the m-long ``u`` and ``lambda`` of a train report) and every
scalar and key to the C encoder and indents the list text itself.

Exit codes: 0 success; 2 input or parse error; 3 numerical failure
(diverged solve or factorization failure); 4 when ``--expect p-stationary``
was passed and the final verdict is anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    DEFAULT_TOL,
    Certificate,
    PrimalDualPoint,
    Verdict,
    check_pstationary,
    grade,
)
from .datasets import (
    COUNTEREXAMPLE_C,
    DataFormat,
    counterexample_dataset,
    counterexample_point,
    gen_synthetic,
    parse_dataset,
    write_csv,
)
from .losses import objective
from .problem import ProblemData, build_problem
from .prox import ProxParams, prox_distance, prox_scalar
from .solver import SolveStatus, SolverConfig, train_admm
from .support import extract_support, verify_support_margins

__all__ = ["main", "build_parser"]

COUNTEREXAMPLE_GAMMAS = (0.4, 4.0, 8.0, 16.0)


# --- serialization helpers --------------------------------------------------


def _dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), character for character.

    Dict keys must be str, as in every report.  A list of floats is encoded
    in one C-encoder call, whose ", " separators become "," plus a newline
    and the item indent; a float's repr holds no ", ".
    """
    indent = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
        body = ("," + indent).join(
            f"{json.dumps(key)}: {_dumps(value, level + 1)}"
            for key, value in sorted(obj.items())
        )
        return "{" + indent + body + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) for v in obj):
            body = json.dumps(obj)[1:-1].replace(", ", "," + indent)
        else:
            body = ("," + indent).join(_dumps(v, level + 1) for v in obj)
        return "[" + indent + body + close + "]"
    return json.dumps(obj)


def _cert_dict(cert: Certificate) -> dict:
    return {**asdict(cert), "verdict": cert.verdict.value}


def _point_dict(point: PrimalDualPoint) -> dict:
    return {
        "w": point.w.tolist(),
        "b": point.b,
        "u": point.u.tolist(),
        "lambda": point.lam.tolist(),
    }


def _problem_dict(problem: ProblemData) -> dict:
    return {
        "m": problem.m,
        "n": problem.n,
        "full_column_rank": problem.full_column_rank,
        "lambda_h": problem.lambda_h,
    }


def _digest(file_path=None, **params) -> str:
    """Hex digest of the input file bytes (if any) plus the parameters."""
    h = hashlib.sha256()
    if file_path is not None:
        h.update(Path(file_path).read_bytes())
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()


def _emit(args, digest: str, report: dict, seed=None, out=None) -> None:
    """Print the report, plus the keys every command's report carries.

    The out file is written first, so a run that cannot write it prints
    nothing on stdout before it exits 2."""
    report.update(
        command=args.subcommand,
        inputs_digest=digest,
        seed=seed,
        versions={
            "rampsvm": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    )
    text = _dumps(report) + "\n"
    if out is not None:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _expect_exit(args, verdict: Verdict) -> int:
    if args.expect == "p-stationary" and verdict is not Verdict.P_STATIONARY:
        return 4
    return 0


# --- subcommand handlers -----------------------------------------------------


def cmd_train(args) -> int:
    dataset = parse_dataset(args.data, DataFormat(args.format))
    problem = build_problem(dataset)
    config = SolverConfig(
        C=args.C,
        sigma=args.sigma,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    res = train_admm(problem, config)
    # The digest and the report take the parameters from the config that
    # ran, sigma resolved.
    params = asdict(config)
    report = {
        "problem": _problem_dict(problem),
        "params": {**params, "gamma": config.gamma},
        "result": {
            "status": res.status.value,
            "iterations": res.iterations,
            "objective": res.objective,
            "point": _point_dict(res.point),
            "certificate": _cert_dict(res.certificate),
            "diagnostics": res.diagnostics,
        },
    }
    _emit(args, _digest(args.data, **params), report, out=args.out)
    if res.status is SolveStatus.DIVERGED:
        return 3
    return _expect_exit(args, res.certificate.verdict)


def _grading_report(graded, problem, C, gammas) -> dict:
    """The report of a graded point: grade's (cert, kkt, gamma_max, point).

    Its one verdict is certify_point's.  Each stationarity row holds the
    four residuals of check_pstationary and the per-sample prox distances at
    one step of gammas (the verdict's own step gamma* when gammas is None),
    and no verdict of its own.
    """
    cert, kkt, gamma_max, point = graded
    gammas = gammas or [cert.gamma]
    rows = []
    for gamma in gammas:
        row = asdict(check_pstationary(point, problem, C, gamma))
        del row["verdict"]
        s = point.u - gamma * point.lam
        row["prox_distances"] = prox_distance(point.u, s, ProxParams(gamma, C)).tolist()
        rows.append(row)
    return {
        "problem": _problem_dict(problem),
        "params": {"C": C, "gammas": gammas, "tol": DEFAULT_TOL},
        "result": {
            "verdict": cert.verdict.value,
            "gamma_max": None if math.isinf(gamma_max) else gamma_max,
            "kkt": asdict(kkt),
            "stationarity": rows,
            "point": _point_dict(point),
            "objective": objective(point.w, point.b, problem.dataset, C),
        },
    }


def cmd_certify(args) -> int:
    dataset = parse_dataset(args.data, DataFormat.CSV)
    problem = build_problem(dataset)
    if len(args.w) != problem.n:
        raise ValueError(
            f"--w has {len(args.w)} entries, dataset has {problem.n} features"
        )
    if args.lam is not None and len(args.lam) != problem.m:
        raise ValueError(
            f"--lambda has {len(args.lam)} entries, dataset has {problem.m} samples"
        )
    graded = grade(args.w, args.b, problem, args.C, args.lam)
    digest = _digest(
        args.data, w=args.w, b=args.b, C=args.C, gammas=args.gammas, lam=args.lam
    )
    _emit(args, digest, _grading_report(graded, problem, args.C, args.gammas))
    return _expect_exit(args, graded[0].verdict)


def cmd_prox_eval(args) -> int:
    params = ProxParams(args.gamma, args.C)
    sets = [prox_scalar(s, params) for s in args.s]
    report = {
        "params": {"gamma": args.gamma, "C": args.C, "gammaC": params.gammaC},
        "result": [
            {"s": float(s), "values": list(p.values), "tie": p.tie}
            for s, p in zip(args.s, sets)
        ],
    }
    _emit(args, _digest(s=list(args.s), gamma=args.gamma, C=args.C), report)
    return 0


def cmd_support_vectors(args) -> int:
    dataset = parse_dataset(args.data, DataFormat.CSV)
    problem = build_problem(dataset)
    config = SolverConfig(C=args.C, sigma=args.sigma)
    res = train_admm(problem, config)
    params = {"C": config.C, "sigma": config.sigma}
    gamma = config.gamma
    verdict = res.certificate.verdict
    support = extract_support(res.point, problem)
    margin_check = None
    if res.status is SolveStatus.DIVERGED:
        skipped = "solver diverged"
    elif gamma * config.C < 2.0:
        skipped = f"gamma*C = {gamma * config.C} < 2, margin geometry not applicable"
    elif verdict is not Verdict.P_STATIONARY:
        skipped = f"point not certified p-stationary (verdict {verdict.value})"
    else:
        holds, deviation = verify_support_margins(res.point, problem, config.C, gamma)
        margin_check = {"holds": holds, "max_deviation": deviation}
        skipped = None
    report = {
        "problem": _problem_dict(problem),
        "params": {**params, "gamma": gamma},
        "result": {
            "train_status": res.status.value,
            "iterations": res.iterations,
            "objective": res.objective,
            "certificate": _cert_dict(res.certificate),
            "support": {
                "indices": list(support.indices),
                "lambdas": support.lambdas.tolist(),
                "margins": support.margins.tolist(),
            },
            "margin_check": margin_check,
            "margin_check_skipped": skipped,
        },
    }
    _emit(args, _digest(args.data, **params), report)
    if res.status is SolveStatus.DIVERGED:
        return 3
    return 0


def cmd_counterexample(args) -> int:
    """The grading report of the bundled KKT-only fixture."""
    problem = build_problem(counterexample_dataset())
    point = counterexample_point()
    graded = grade(point.w, point.b, problem, COUNTEREXAMPLE_C, point.lam)
    report = _grading_report(graded, problem, COUNTEREXAMPLE_C, args.gammas)
    _emit(args, _digest(gammas=args.gammas), report)
    return 0


def cmd_gen_data(args) -> int:
    dataset = gen_synthetic(args.n, args.sep, args.outliers, args.seed)
    write_csv(dataset, args.out)
    digest = _digest(n=args.n, sep=args.sep, outliers=args.outliers, seed=args.seed)
    report = {
        "result": {
            "out": str(args.out),
            "m": dataset.m,
            "n": dataset.n,
            "csv_sha256": hashlib.sha256(
                Path(args.out).read_bytes()
            ).hexdigest(),
        },
    }
    _emit(args, digest, report, seed=args.seed)
    return 0


# --- parser ------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        items = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampsvm",
        description="Ramp-loss SVM: train, certify stationarity, inspect "
        "the prox, and verify support-vector margin geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train on a dataset and certify the result")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", choices=[f.value for f in DataFormat], default="csv")
    p.add_argument("--C", type=float, required=True, help="loss penalty")
    p.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="penalty parameter; default C/2 (prox step gamma = 1/sigma)",
    )
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--expect", choices=["p-stationary"], default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="grade a candidate (w, b) on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--w", type=_float_list, required=True, help="comma-separated")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--gammas", type=_float_list, default=None)
    p.add_argument("--lambda", dest="lam", type=_float_list, default=None)
    p.add_argument("--expect", choices=["p-stationary"], default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("prox-eval", help="evaluate the ramp prox componentwise")
    p.add_argument("--s", type=_float_list, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.set_defaults(func=cmd_prox_eval)

    p = sub.add_parser(
        "support-vectors",
        help="train, extract support vectors, check margin geometry",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=cmd_support_vectors)

    p = sub.add_parser(
        "counterexample",
        help="run the embedded KKT-but-not-P-stationary fixture",
    )
    p.add_argument("--gammas", type=_float_list, default=list(COUNTEREXAMPLE_GAMMAS))
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("gen-data", help="generate a synthetic CSV dataset")
    p.add_argument("--n", type=int, required=True, help="samples per class")
    p.add_argument("--sep", type=float, required=True)
    p.add_argument("--outliers", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # After LinAlgError, which subclasses ValueError; DataFormatError does too.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
