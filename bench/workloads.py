"""The benchmark's three workloads.

Each workload generates its inputs in setup() from the benchmark seed, runs
one operation at a time through the public API of rampsvm, and checks every
output with the reference computations in checks.py.  An operation's time
covers only the calls into rampsvm; turning results into plain records and
checking them happen outside it.

Program functions are looked up as module attributes at call time
(``self.rs.solver.train_admm``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from time import perf_counter

import numpy as np

import checks


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.asarray(part).tobytes())
    return h.digest()


def _point_record(point, cert, objective) -> dict:
    return {
        "w": np.array(point.w),
        "b": float(point.b),
        "u": np.array(point.u),
        "lam": np.array(point.lam),
        "r": (cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox),
        "gamma": cert.gamma,
        "verdict": cert.verdict.value,
        "objective": objective,
    }


class TrainBatch:
    """The 20 datasets of the acceptance batch, trained to tol 1e-8.

    The datasets are fixed (seeds 0-19); the benchmark seed only sets the
    order they run in.  Batches drawn from other data seeds converge on 8 to
    13 of 20 runs, which moves both wall_s and the median operation between
    a 10,000-iteration run and a converged one.
    """

    name = "train-batch-m16"
    C = 1.0
    GAMMA = 2.0  # 1/sigma at sigma = C/2
    TOL = 1e-8
    MAX_ITER = 10000
    SV_TOL = 1e-6

    def __init__(self, rs, seed: int, workdir):
        self.rs = rs
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(20)]

    def setup(self) -> None:
        gen = self.rs.datasets.gen_synthetic
        self.ops = [
            (f"batch-{s}", gen(8, 4.0, 0.1 if s % 2 else 0.0, s)) for s in self.order
        ]

    def run(self, op):
        _, ds = op
        rs, C = self.rs, self.C
        config = rs.solver.SolverConfig(
            C=C, sigma=C / 2.0, tol=self.TOL, max_iter=self.MAX_ITER
        )
        start = perf_counter()
        prob = rs.problem.build_problem(ds)
        res = rs.solver.train_admm(prob, config)
        sv = margin = None
        if res.status is rs.solver.SolveStatus.CONVERGED:
            sv = rs.support.extract_support(res.point, prob, sv_tol=self.SV_TOL)
            margin = rs.support.verify_support_margins(
                res.point, prob, C, self.GAMMA, sv_tol=self.SV_TOL
            )
        elapsed = perf_counter() - start
        rec = _point_record(res.point, res.certificate, res.objective)
        rec.update(status=res.status.value, iterations=res.iterations)
        if sv is not None:
            rec.update(
                sv_indices=sv.indices,
                sv_margins=np.array(sv.margins),
                margin_ok=margin[0],
                margin_deviation=margin[1],
            )
        return elapsed, rec

    def check(self, op, rec) -> list[str]:
        _, ds = op
        X, y = ds.X, ds.y
        errors = []
        if rec["gamma"] != self.GAMMA:
            errors.append(f"certificate at gamma {rec['gamma']!r}, expected {self.GAMMA}")
        if not 1 <= rec["iterations"] <= self.MAX_ITER:
            errors.append(f"iterations {rec['iterations']} outside [1, {self.MAX_ITER}]")
        converged = rec["status"] == "converged"
        if converged != (rec["verdict"] == "p-stationary"):
            errors.append(f"status {rec['status']} with verdict {rec['verdict']}")
        errors += checks.check_point(X, y, self.C, self.GAMMA, self.TOL, rec)
        if converged:
            errors += checks.check_support(X, y, self.C, self.GAMMA, rec, self.SV_TOL)
        return errors

    def round_check(self, recs) -> dict:
        return {}

    def fingerprint(self, rec) -> bytes:
        return _digest(rec["w"], rec["b"], rec["u"], rec["lam"], rec["status"],
                       np.array(rec["iterations"]))


class TrainM8000:
    """In-process `rampsvm train` on three m = 8000 CSV datasets with a
    fixed iteration budget that no run converges within."""

    name = "train-m8000"
    N_PER_CLASS = 4000
    DATASETS = 3
    MAX_ITER = 100
    C = 1.0
    GAMMA = 2.0  # the CLI's default sigma is C/2
    TOL = 1e-6  # the CLI's default --tol

    def __init__(self, rs, seed: int, workdir):
        self.rs = rs
        self.seeds = [self.DATASETS * seed + j for j in range(self.DATASETS)]
        self.workdir = workdir

    def setup(self) -> None:
        ds_mod = self.rs.datasets
        self.ops = []
        for s in self.seeds:
            ds = ds_mod.gen_synthetic(self.N_PER_CLASS, 4.0, 0.1, s)
            path = self.workdir / f"m8000-{s}.csv"
            ds_mod.write_csv(ds, path)
            self.ops.append((f"m8000-{s}", ds, path))

    def run(self, op):
        _, _, path = op
        argv = ["train", "--data", str(path), "--C", "1", "--max-iter", str(self.MAX_ITER)]
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.rs.cli.main(argv)
        elapsed = perf_counter() - start
        return elapsed, {"code": code, "text": out.getvalue()}

    def check(self, op, rec) -> list[str]:
        _, ds, _ = op
        X, y = ds.X, ds.y
        if rec["code"] != 0:
            return [f"exit code {rec['code']}"]
        try:
            report = json.loads(rec["text"])
            res, params, prob = report["result"], report["params"], report["problem"]
            p, cert = res["point"], res["certificate"]
            point = {
                "w": np.array(p["w"], dtype=float),
                "b": float(p["b"]),
                "u": np.array(p["u"], dtype=float),
                "lam": np.array(p["lambda"], dtype=float),
                "r": (cert["r_grad"], cert["r_y"], cert["r_feas"], cert["r_prox"]),
                "verdict": cert["verdict"],
                "objective": res["objective"],
            }
        except (ValueError, KeyError, TypeError) as exc:
            return [f"report does not parse: {exc!r}"]
        errors = []
        expected = {"C": self.C, "gamma": self.GAMMA, "tol": self.TOL, "max_iter": self.MAX_ITER}
        for key, value in expected.items():
            if params.get(key) != value:
                errors.append(f"params.{key} = {params.get(key)!r}, expected {value!r}")
        if (prob["m"], prob["n"]) != X.shape:
            errors.append(f"problem {prob['m']}x{prob['n']} != data {X.shape}")
        lam_h = checks.lambda_h(X, y)
        if not (prob["lambda_h"] and checks.close(prob["lambda_h"], lam_h, 1e-7)):
            errors.append(f"lambda_h {prob['lambda_h']!r}, recomputed {lam_h!r}")
        status = res["status"]
        if status not in ("converged", "max-iter") or not 1 <= res["iterations"] <= self.MAX_ITER:
            errors.append(f"status {status} after {res['iterations']} iterations")
        if (status == "converged") != (point["verdict"] == "p-stationary"):
            errors.append(f"status {status} with verdict {point['verdict']}")
        if point["w"].shape != (X.shape[1],) or point["u"].shape != (X.shape[0],):
            return errors + ["point has the wrong shape"]
        return errors + checks.check_point(X, y, self.C, self.GAMMA, self.TOL, point)

    def round_check(self, recs) -> dict:
        return {}

    def fingerprint(self, rec) -> bytes:
        return _digest(str(rec["code"]), rec["text"])


class OraclePairs:
    """Criterion-8 pairs: a clean 8-point set and the same set plus one
    outlier, each solved by the grid global oracle and certified from the
    primal minimizer through the recovered multiplier.

    A run takes three of criterion 8's ten pairs (data seeds 100-109),
    rotating with the benchmark seed.  Outside that set global_oracle is
    not always exact: on data seed 158 it stops 4.3e-3 above the exact
    minimum, and on 134 and 140 its point does not certify.
    """

    name = "oracle-n2"
    PAIRS = 3
    CRITERION_8 = range(100, 110)
    C = 1.0
    TOL = 1e-2  # criterion 5's certification tolerance
    OUTLIER = (-30.0, 0.0)

    def __init__(self, rs, seed: int, workdir):
        self.rs = rs
        n = len(self.CRITERION_8)
        self.seeds = [self.CRITERION_8[(self.PAIRS * seed + j) % n] for j in range(self.PAIRS)]

    def setup(self) -> None:
        rs = self.rs
        self.ops = []
        for s in self.seeds:
            clean = rs.datasets.gen_synthetic(4, 3.0, 0.0, s)
            aug = rs.problem.Dataset(
                X=np.vstack([clean.X, [self.OUTLIER]]), y=np.append(clean.y, 1.0)
            )
            # Criterion 8's box, from the augmented set, for both members.
            wb = math.sqrt(2.0 * self.C * aug.m) + 0.5
            bb = 1.0 + float(np.linalg.norm(aug.X, axis=1).max()) * wb + 0.5
            box = ((-wb, wb), (-wb, wb), (-bb, bb))
            self.ops.append((f"pair{s}-clean", clean, box))
            self.ops.append((f"pair{s}-outlier", aug, box))

    def gamma(self, u, lambda_h) -> float:
        """Criterion 5's prox step: below 0.5/lambda_H and 1.9/C, and short
        of every margin's no-fixed-point band."""
        C, gamma = self.C, min(0.5 / lambda_h, 1.9 / self.C)
        for u_i in u:
            if u_i > 1.0 + 1e-3:
                gamma = min(gamma, (u_i - 1.0) / C)
            elif 1e-3 < u_i < 1.0 - 1e-3:
                gamma = min(gamma, (1.0 - u_i) / C)
        return gamma

    def run(self, op):
        _, ds, box = op
        rs, C = self.rs, self.C
        start = perf_counter()
        prob = rs.problem.build_problem(ds)
        w, b, value = rs.solver.global_oracle(prob, C, bounds=box)
        u = 1.0 - prob.A @ w - b * prob.y
        lam, _ = rs.certify.recover_multiplier(w, b, prob, C)
        gamma = self.gamma(u, prob.lambda_h)
        point = rs.certify.PrimalDualPoint(w=w, b=b, u=u, lam=lam)
        cert = rs.certify.check_pstationary(point, prob, C, gamma, self.TOL)
        elapsed = perf_counter() - start
        rec = _point_record(point, cert, value)
        rec["lambda_h"] = prob.lambda_h
        return elapsed, rec

    def check(self, op, rec) -> list[str]:
        _, ds, box = op
        X, y = ds.X, ds.y
        errors = []
        coords = (*rec["w"], rec["b"])
        if not all(lo - 1e-9 <= v <= hi + 1e-9 for v, (lo, hi) in zip(coords, box)):
            errors.append(f"minimizer {coords} outside the box")
        lam_h = checks.lambda_h(X, y)
        if not (rec["lambda_h"] and checks.close(rec["lambda_h"], lam_h, 1e-7)):
            errors.append(f"lambda_h {rec['lambda_h']!r}, recomputed {lam_h!r}")
        gamma = self.gamma(1.0 - y * (X @ rec["w"] + rec["b"]), lam_h)
        if not checks.close(gamma, rec["gamma"], 1e-7):
            errors.append(f"certified at gamma {rec['gamma']!r}, rule gives {gamma!r}")
        if rec["verdict"] != "p-stationary":
            errors.append(f"minimizer not certified: verdict {rec['verdict']}")
        errors += checks.check_point(X, y, self.C, rec["gamma"], self.TOL, rec)
        best = checks.exact_b_search(X, y, self.C, box)
        if rec["objective"] > best + 1e-9:
            errors.append(f"oracle value {rec['objective']!r} above a searched point's {best!r}")
        return errors

    def round_check(self, recs) -> dict:
        """f0 <= f1 <= f0 + C for every pair; errors go to the outlier op."""
        errors = {}
        for k in range(0, len(recs) - 1, 2):
            if recs[k] is None or recs[k + 1] is None:
                continue  # a failed operation is already counted
            f0, f1 = recs[k]["objective"], recs[k + 1]["objective"]
            if not f0 - 1e-9 <= f1 <= f0 + self.C + 1e-6:
                errors[k + 1] = [f"pair values f0 = {f0!r}, f1 = {f1!r} break f0 <= f1 <= f0 + C"]
        return errors

    def fingerprint(self, rec) -> bytes:
        return _digest(rec["w"], rec["b"], rec["lam"], np.array(rec["r"]),
                       np.array([rec["objective"], rec["gamma"]]))


WORKLOADS = {cls.name: cls for cls in (TrainBatch, TrainM8000, OraclePairs)}
