"""Acceptance gate: ten numbered criteria, one test and one pass/fail line
each.

Later criteria quantify over "the suite": every point certified here is
recorded in _CERTIFIED, and every solver run in _solver_batch() feeds the
local-minimum probe, the margin-geometry check, and the implication audit.
test_criterion_09 therefore runs last (definition order), after the
registry is fully populated.  The batch's converged runs also feed the
cross-path check that grade_point and `rampsvm certify` agree with the
trainer's verdict; a second check retrains the batch at the default tol
and four penalties and pins where the grading routes and the trainer
differ.
"""

import functools
import json
import math
import time

import numpy as np

from conftest import local_min_probe, prox_objective, prox_oracle
from rampsvm import (
    COUNTEREXAMPLE_C,
    Dataset,
    PrimalDualPoint,
    ProxParams,
    SolveStatus,
    SolverConfig,
    Verdict,
    build_problem,
    check_kkt,
    check_pstationary,
    counterexample_dataset,
    counterexample_point,
    extract_support,
    gen_synthetic,
    global_oracle,
    grade_point,
    objective,
    prox_scalar,
    recover_multiplier,
    single_point_dataset,
    single_point_point,
    symmetric_pair_dataset,
    symmetric_pair_point,
    train_admm,
    verify_support_margins,
    write_csv,
)
from rampsvm.cli import main
from rampsvm.prox import _prox_shift_regime, _prox_threshold_regime

# Every P-stationarity certification issued by this module:
# (point, problem, C, certificate, tol).  Criterion 9 audits the lot.
_CERTIFIED = []


def _certify(point, problem, C, gamma, tol=1e-6):
    cert = check_pstationary(point, problem, C, gamma, tol)
    _CERTIFIED.append((point, problem, C, cert, tol))
    return cert


@functools.lru_cache(maxsize=1)
def _solver_batch():
    """Twenty seeded synthetic trainings at sigma = C/2 (gamma*C = 2).

    tol = 1e-8 keeps the convergence floor of the iterates well below the
    1e-9 decrease slack of the local-minimum probe; at 1e-6 the residual
    noise on high-leverage outlier datasets is itself a visible descent
    direction at radius 1e-3.
    """
    C = 1.0
    runs = []
    for seed in range(20):
        frac = 0.1 if seed % 2 else 0.0
        ds = gen_synthetic(
            n_per_class=8, separation=4.0, outlier_fraction=frac, seed=seed
        )
        prob = build_problem(ds)
        res = train_admm(prob, SolverConfig(C=C, sigma=C / 2.0, tol=1e-8))
        if res.status is SolveStatus.CONVERGED:
            _certify(res.point, prob, C, 2.0 / C, tol=1e-6)
        runs.append((seed, ds, prob, res))
    return runs


def test_criterion_01_prox_oracle_equivalence():
    rng = np.random.default_rng(0)
    gammaC_values = np.array([0.3, 1.0, 1.9, 2.0, 4.0, 10.0])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        s = float(rng.uniform(-5.0, 8.0))
        gc = float(rng.choice(gammaC_values))
        params = ProxParams(gamma=gc, C=1.0)
        best = prox_objective(prox_oracle(s, params), s, params)
        for v in prox_scalar(s, params).values:
            worst = max(worst, prox_objective(v, s, params) - best)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"closed form beat by oracle: excess {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"criterion 1 PASS: 10000 pairs, worst excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tie_exactness():
    checked = 0
    for gc in (0.5, 1.0, 1.9):
        params = ProxParams(gamma=gc, C=1.0)
        s = 1.0 + gc / 2.0
        out = prox_scalar(s, params)
        assert len(out.values) == 2 and out.tie
        gap = abs(
            prox_objective(out.values[0], s, params)
            - prox_objective(out.values[1], s, params)
        )
        assert gap <= 1e-12
        checked += 1
    for gc in (2.0, 8.0):
        params = ProxParams(gamma=gc, C=1.0)
        s = math.sqrt(2.0 * gc)
        out = prox_scalar(s, params)
        assert len(out.values) == 2 and out.tie
        gap = abs(
            prox_objective(out.values[0], s, params)
            - prox_objective(out.values[1], s, params)
        )
        assert gap <= 1e-12
        checked += 1
    print(f"criterion 2 PASS: {checked} tie points, objectives equal to 1e-12")


def test_criterion_03_regime_continuity():
    params = ProxParams(gamma=2.0, C=1.0)
    rng = np.random.default_rng(1)
    ss = np.concatenate((rng.uniform(-5.0, 8.0, size=999), [2.0]))
    for s in ss:
        a = _prox_shift_regime(float(s), params)
        b = _prox_threshold_regime(float(s), params)
        assert a.values == b.values and a.tie == b.tie, f"regimes split at s={s}"
    print("criterion 3 PASS: 1000 points, both closed forms identical at gammaC=2")


def test_criterion_04_counterexample_reproduction():
    start = time.perf_counter()
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    kkt = check_kkt(point, prob, COUNTEREXAMPLE_C)
    assert kkt.passed and kkt.max_residual <= 1e-12
    for gamma in (0.4, 4.0, 8.0, 16.0):
        cert = _certify(point, prob, COUNTEREXAMPLE_C, gamma)
        assert cert.verdict is Verdict.NEITHER
        # The gamma = 0.4 residual is exactly 0.1 in exact arithmetic
        # (|1 - (1 - gammaC)| with gammaC = 0.1); float evaluation gives
        # 0.09999999999999998, hence the 1e-12 slack below the stated bound.
        assert cert.r_prox >= 0.1 - 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4 PASS: KKT exact, non-stationary at all four gammas, {elapsed:.2f}s")


def test_criterion_05_necessity_at_global_minimizers():
    # Global minimizers must admit a certifying multiplier and prox step
    # inside (0, 1/lambda_H).  The step is capped away from the prox
    # no-fixed-point band [1 - gammaC/2, 1 + gammaC/2): margins inside that
    # band admit no multiplier at all, and exact minimizers with a violated
    # margin just above 1 do occur, so a single fixed step cannot work.
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        C = 0.1 if k % 2 == 0 else 1.0
        while True:
            m = int(rng.integers(3, 7))
            X = rng.uniform(-2.0, 2.0, size=(m, 2))
            y = rng.choice([-1.0, 1.0], size=m)
            ds = Dataset(X=X, y=y)
            prob = build_problem(ds)
            if (
                prob.full_column_rank
                and np.linalg.svd(prob.B, compute_uv=False)[-1] >= 0.2
            ):
                break
        wb = math.sqrt(2.0 * C * m) + 0.5
        bb = 1.0 + float(np.linalg.norm(prob.A, axis=1).max()) * wb + 0.5
        w, b, _ = global_oracle(prob, C, bounds=((-wb, wb), (-wb, wb), (-bb, bb)))
        u = 1.0 - prob.A @ w - b * prob.y
        lam, _ = recover_multiplier(w, b, prob, C)
        gamma = min(0.5 / prob.lambda_h, 1.9 / C)
        for u_i in u:
            if u_i > 1.0 + 1e-3:
                gamma = min(gamma, (u_i - 1.0) / C)
            elif 1e-3 < u_i < 1.0 - 1e-3:
                gamma = min(gamma, (1.0 - u_i) / C)
        assert gamma > 0.0
        point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
        cert = _certify(point, prob, C, gamma, tol=1e-2)
        worst = max(worst, cert.max_residual)
        assert cert.verdict is Verdict.P_STATIONARY, (
            f"instance {k}: residual {cert.max_residual:.3e} at gamma {gamma:.4f}"
        )
        # The one verdict rule, at its own step and tol, agrees.
        graded = grade_point(w, b, prob, C)
        assert graded.verdict is Verdict.P_STATIONARY, f"instance {k}: {graded}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"criterion 5 PASS: 50 global minimizers certified, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_local_min_probe():
    probed = 0
    worst = 0.0
    for seed, ds, prob, res in _solver_batch():
        if res.status is not SolveStatus.CONVERGED:
            continue
        ok, decrease = local_min_probe(
            res.point, ds, C=1.0, radius=1e-3, n_probe=1000, slack=1e-9
        )
        worst = max(worst, decrease)
        assert ok, f"seed {seed}: descent of {decrease:.3e} within radius 1e-3"
        probed += 1
    for ds, point, C in (
        (single_point_dataset(), None, 1.0),
        (symmetric_pair_dataset(), None, 1.0),
    ):
        prob = build_problem(ds)
        res = train_admm(prob, SolverConfig(C=C, tol=1e-10))
        assert res.status is SolveStatus.CONVERGED
        ok, decrease = local_min_probe(res.point, ds, C)
        worst = max(worst, decrease)
        assert ok
        probed += 1
    assert probed >= 8, f"only {probed} converged points to probe"
    print(f"criterion 6 PASS: {probed} converged points, worst decrease {worst:.2e}")


def test_criterion_07_margin_geometry():
    C = 1.0
    gamma = 2.0 / C  # sigma = C/2
    cap = math.sqrt(2.0 * C / gamma)
    converged = 0
    for seed, ds, prob, res in _solver_batch():
        if res.status is not SolveStatus.CONVERGED:
            continue
        converged += 1
        # sv_tol matches the solver tolerance scale: below it, multipliers
        # are indistinguishable from zero.
        support = extract_support(res.point, prob, sv_tol=1e-6)
        assert len(support) >= 1, f"seed {seed}: no support vectors"
        for i, lam_i in zip(support.indices, support.lambdas):
            assert abs(res.point.u[i]) <= 1e-5, (
                f"seed {seed}: support vector {i} off margin by {res.point.u[i]:.2e}"
            )
            assert -cap <= lam_i < 0.0, (
                f"seed {seed}: multiplier {lam_i} outside [-sqrt(2C/gamma), 0)"
            )
        holds, deviation = verify_support_margins(
            res.point, prob, C, gamma, sv_tol=1e-6
        )
        assert holds, f"seed {seed}: margin deviation {deviation:.3e}"
    assert converged >= 8, f"only {converged}/20 runs converged"
    print(f"criterion 7 PASS: {converged}/20 converged runs, all support vectors on margins")


def test_certified_runs_grade_pstationary_on_every_path(capsys, tmp_path):
    # A verdict must not depend on the path that recovers the multiplier:
    # every (w, b) the trainer certifies must also grade p-stationary from
    # (w, b) alone, through grade_point and through `rampsvm certify` on the
    # run's CSV.
    C = 1.0
    checked = 0
    for seed, ds, prob, res in _solver_batch():
        if res.status is not SolveStatus.CONVERGED:
            continue
        w, b = res.point.w, res.point.b
        cert = grade_point(w, b, prob, C)
        assert cert.verdict is Verdict.P_STATIONARY, (
            f"seed {seed}: grade_point says {cert.verdict.value}, "
            f"worst residual {cert.max_residual:.3e}"
        )
        path = tmp_path / f"batch-{seed}.csv"
        write_csv(ds, path)
        capsys.readouterr()
        code = main(
            [
                "certify",
                "--data", str(path),
                "--w=" + ",".join(repr(float(v)) for v in w),
                "--b=" + repr(float(b)),
                "--C", repr(C),
                "--expect", "p-stationary",
            ]
        )
        verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]
        assert code == 0, f"seed {seed}: rampsvm certify says {verdict}"
        checked += 1
    assert checked >= 8, f"only {checked}/20 runs converged"
    print(f"cross-path PASS: {checked}/{checked} certified runs grade p-stationary through grade_point and rampsvm certify")


# At the trainer's default tol, the batch runs that the trainer certifies
# but a grading route does not, per sigma (C = 1): from (w, b) alone
# (grade_point and `rampsvm certify`), and with the trainer's lambda
# (`rampsvm certify --lambda`).  The trainer checks the residuals only, at
# gamma = 1/sigma, where a band lambda may miss -C by tol * sigma.
# Grading also checks KKT in lambda units, and r_prox at gamma* = 2/C,
# where it is larger than at 1/sigma < 2/C.  No route certifies a run the
# trainer rejects.
_DEFAULT_TOL_MISSES = {
    0.1: ((), ()),
    0.5: ((15,), ()),
    1.0: ((3,), (3, 4, 7, 10, 11, 18)),
    5.0: ((0, 1, 5, 7, 8, 11, 12, 15, 16, 17), tuple(range(19))),
}


def test_default_tol_verdicts_pinned(capsys, tmp_path):
    # The batch at the default tol and sigma in {C/10, C/2, C, 5C},
    # converged or not.  grade_point and `rampsvm certify` are one route
    # and give the same verdict; `certify --lambda` grades the trainer's
    # lambda as it stands.  Where they differ from the trainer is pinned.
    # Every returned certificate is check_pstationary's for the returned
    # point.
    C = 1.0
    agreed = 0
    for sigma, (from_wb, with_lam) in _DEFAULT_TOL_MISSES.items():
        misses = ([], [])
        for seed in range(20):
            ds = gen_synthetic(8, 4.0, 0.1 if seed % 2 else 0.0, seed)
            prob = build_problem(ds)
            path = tmp_path / f"batch-{seed}.csv"
            write_csv(ds, path)
            config = SolverConfig(C=C, sigma=sigma)
            res = train_admm(prob, config)
            again = check_pstationary(res.point, prob, C, config.gamma)
            assert again == res.certificate, (sigma, seed)
            w, b = res.point.w, res.point.b
            certify = [
                "certify",
                "--data", str(path),
                "--w=" + ",".join(repr(float(v)) for v in w),
                "--b=" + repr(float(b)),
                "--C", repr(C),
            ]
            lam = "--lambda=" + ",".join(repr(float(v)) for v in res.point.lam)
            reports = []
            for argv in (certify, certify + [lam]):
                capsys.readouterr()
                assert main(argv) == 0
                reports.append(json.loads(capsys.readouterr().out)["result"])
            graded = grade_point(w, b, prob, C).verdict.value
            assert reports[0]["verdict"] == graded, (sigma, seed)
            trained = res.certificate.verdict is Verdict.P_STATIONARY
            for miss, verdict in zip(misses, (graded, reports[1]["verdict"])):
                stationary = verdict == Verdict.P_STATIONARY.value
                assert trained or not stationary, (sigma, seed, verdict)
                if trained and not stationary:
                    miss.append(seed)
            agreed += not (seed in misses[0] or seed in misses[1])
        assert tuple(misses[0]) == from_wb, (sigma, misses)
        assert tuple(misses[1]) == with_lam, (sigma, misses)
    assert agreed == 54
    print(f"default-tol verdicts PASS: {agreed}/80 runs agree on every path, the misses pinned")


def test_solver_batch_outcomes_pinned():
    # The acceptance batch's outcomes: which runs converge, in how many
    # iterations, and that every returned certificate is the one
    # check_pstationary gives for the returned point.
    pinned = {
        3: 4619, 4: 601, 7: 2477, 10: 363, 11: 2077,
        15: 1606, 17: 4472, 18: 561, 19: 2524,
    }
    converged = {}
    for seed, ds, prob, res in _solver_batch():
        if res.status is SolveStatus.CONVERGED:
            converged[seed] = res.iterations
        else:
            assert res.status is SolveStatus.MAX_ITER, f"seed {seed}: {res.status}"
        again = check_pstationary(res.point, prob, 1.0, 2.0, 1e-8)
        assert again == res.certificate, f"seed {seed}: {again} != {res.certificate}"
    assert converged == pinned


def test_criterion_08_outlier_boundedness():
    C = 1.0
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(100, 110):
        clean = gen_synthetic(
            n_per_class=4, separation=3.0, outlier_fraction=0.0, seed=seed
        )
        augmented = Dataset(
            X=np.vstack([clean.X, [[-30.0, 0.0]]]),
            y=np.append(clean.y, 1.0),
        )
        prob0 = build_problem(clean)
        prob1 = build_problem(augmented)
        wb = math.sqrt(2.0 * C * prob1.m) + 0.5
        bb = 1.0 + float(np.linalg.norm(prob1.A, axis=1).max()) * wb + 0.5
        bounds = ((-wb, wb), (-wb, wb), (-bb, bb))
        _, _, f0 = global_oracle(prob0, C, bounds=bounds)
        _, _, f1 = global_oracle(prob1, C, bounds=bounds)
        assert f1 >= f0 - 1e-9  # adding a sample cannot help
        worst = max(worst, f1 - f0 - C)
        assert f1 - f0 <= C + 1e-6, (
            f"seed {seed}: outlier raised objective by {f1 - f0:.6f} > C"
        )
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8 PASS: 10 datasets, worst excess over C is {worst:.2e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_10_fixture_exactness():
    prob = build_problem(single_point_dataset())
    cert = _certify(single_point_point(), prob, C=1.0, gamma=1.0)
    assert cert.verdict is Verdict.P_STATIONARY
    for r in (cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox):
        assert r <= 1e-12
    pair_ds = symmetric_pair_dataset()
    pair_prob = build_problem(pair_ds)
    pair_point = symmetric_pair_point()
    cert = _certify(pair_point, pair_prob, C=1.0, gamma=2.0)
    assert cert.verdict is Verdict.P_STATIONARY
    for r in (cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox):
        assert r <= 1e-12
    f = objective(pair_point.w, pair_point.b, pair_ds, 1.0)
    assert abs(f - 0.5) <= 1e-12
    print("criterion 10 PASS: both fixtures exact to 1e-12, pair objective 0.5")


def test_criterion_09_pstationary_implies_kkt():
    # Runs last: audits every certification recorded by the tests above.
    _solver_batch()
    passing = 0
    for point, problem, C, cert, tol in _CERTIFIED:
        if cert.verdict is not Verdict.P_STATIONARY:
            continue
        passing += 1
        kkt = check_kkt(point, problem, C, tol=10.0 * tol)
        assert kkt.passed, (
            f"P-stationary point fails KKT at 10x tolerance: "
            f"max residual {kkt.max_residual:.3e}"
        )
    assert passing >= 50, f"only {passing} P-stationary points recorded"
    print(f"criterion 9 PASS: {passing} P-stationary points all satisfy KKT at 10x tol")
