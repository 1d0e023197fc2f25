"""Trainer, global oracle, and predictor."""

import math

import numpy as np
import pytest

from conftest import kkt_enumerate
from rampsvm import (
    COUNTEREXAMPLE_C,
    Dataset,
    SolveStatus,
    SolverConfig,
    Verdict,
    build_problem,
    check_pstationary,
    counterexample_dataset,
    gen_synthetic,
    global_oracle,
    objective,
    predict,
    single_point_dataset,
    symmetric_pair_dataset,
    train_admm,
)


def test_config_defaults_and_validation():
    cfg = SolverConfig(C=2.0)
    assert cfg.sigma == 1.0
    assert cfg.gamma == 1.0
    assert SolverConfig(C=1.0, sigma=4.0).gamma == 0.25
    with pytest.raises(ValueError):
        SolverConfig(C=0.0)
    with pytest.raises(ValueError):
        SolverConfig(C=1.0, sigma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(C=1.0, max_iter=0)


def test_train_single_point():
    # One sample at x=2, y=+1: the margin constraint pins u=0 with w=0,
    # b=1 costing nothing, which is the unconstrained minimum.
    prob = build_problem(single_point_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate.verdict is Verdict.P_STATIONARY
    assert res.objective <= 1e-10


def test_train_symmetric_pair():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED
    assert res.point.w[0] == pytest.approx(1.0, abs=1e-5)
    assert res.point.b == pytest.approx(0.0, abs=1e-5)
    assert res.objective == pytest.approx(0.5, abs=1e-6)


def test_train_deterministic():
    ds = counterexample_dataset()
    prob = build_problem(ds)
    cfg = SolverConfig(C=COUNTEREXAMPLE_C)
    a = train_admm(prob, cfg)
    b = train_admm(prob, cfg)
    assert a.status is b.status and a.iterations == b.iterations
    assert np.array_equal(a.point.w, b.point.w)
    assert a.point.b == b.point.b
    assert np.array_equal(a.point.lam, b.point.lam)


def test_train_max_iter_status():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0, max_iter=1))
    assert res.status is SolveStatus.MAX_ITER
    assert res.iterations == 1


def test_train_max_iter_returns_best_iterate():
    # This run cycles: iteration 2 has max residual 1.1365, iteration 60
    # has 1.7457.  MAX_ITER must carry the best (point, certificate) pair.
    prob = build_problem(gen_synthetic(8, 4.0, 0.1, 0))
    res = train_admm(prob, SolverConfig(C=1.0, max_iter=60))
    assert res.status is SolveStatus.MAX_ITER and res.iterations == 60
    assert res.diagnostics["best_iteration"] == 2
    assert res.certificate.max_residual == pytest.approx(1.1365, abs=1e-4)
    assert res.diagnostics["max_residual"] == res.certificate.max_residual
    # The certificate and objective belong to the returned point.
    again = check_pstationary(res.point, prob, 1.0, res.certificate.gamma, 1e-6)
    assert again == res.certificate
    assert res.objective == objective(res.point.w, res.point.b, prob.dataset, 1.0)
    # A budget of k iterations returns the best of the first k.
    best = [
        train_admm(prob, SolverConfig(C=1.0, max_iter=k)).certificate.max_residual
        for k in range(1, 61)
    ]
    assert best == sorted(best, reverse=True) and best[-1] == best[1]


def test_train_diverged_status():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0, sigma=1e308, max_iter=50))
    assert res.status is SolveStatus.DIVERGED
    assert "diverged" in res.diagnostics or res.diagnostics.get("reason")


def test_oracle_matches_enumeration():
    # Independent check on five random tiny instances: the grid oracle with
    # active-set polish must land on the exact combinatorial minimum.
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 5:
        m = int(rng.integers(3, 7))
        X = rng.uniform(-2.0, 2.0, size=(m, 2))
        y = rng.choice([-1.0, 1.0], size=m)
        ds = Dataset(X=X, y=y)
        prob = build_problem(ds)
        if not prob.full_column_rank:
            continue
        checked += 1
        C = 1.0
        f_star = kkt_enumerate(prob, ds, C)[0][0]
        wb = math.sqrt(2.0 * C * m) + 0.5
        bb = 1.0 + float(np.linalg.norm(prob.A, axis=1).max()) * wb + 0.5
        _, _, f_hat = global_oracle(
            prob, C, bounds=((-wb, wb), (-wb, wb), (-bb, bb))
        )
        assert f_hat == pytest.approx(f_star, abs=1e-9)
        assert f_hat >= f_star - 1e-12


def test_oracle_counterexample_exact():
    prob = build_problem(counterexample_dataset())
    w, b, f = global_oracle(
        prob, COUNTEREXAMPLE_C, bounds=((-4, 4), (-4, 4), (-9, 9))
    )
    assert f == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(w, 0.0, atol=1e-12)
    # The easy all-positive classifier beats the KKT point's value of 0.5.
    assert f < 0.5


def test_oracle_respects_objective(tmp_path):
    prob = build_problem(symmetric_pair_dataset())
    w, b, f = global_oracle(prob, 1.0, bounds=((-2, 2), (-3, 3)))
    assert f == pytest.approx(objective(w, b, prob.dataset, 1.0), abs=1e-12)
    assert f == pytest.approx(0.5, abs=1e-9)


def test_oracle_rejects_high_dimensions():
    X = np.eye(3)
    y = np.array([1.0, -1.0, 1.0])
    prob = build_problem(Dataset(X=X, y=y))
    with pytest.raises(ValueError):
        global_oracle(prob, 1.0, bounds=(-1.0, 1.0))


def test_predict_signs():
    w = np.array([1.0, -1.0])
    assert predict(w, 0.0, np.array([2.0, 1.0])) == 1
    assert predict(w, 0.0, np.array([0.0, 3.0])) == -1
    assert predict(w, 0.0, np.array([1.0, 1.0])) == 1  # tie goes positive
    with pytest.raises(ValueError):
        predict(w, 0.0, np.array([1.0]))


def test_diagnostics_present():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert "sigma" in res.diagnostics and "gamma" in res.diagnostics
