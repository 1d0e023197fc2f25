"""Stationarity certification: P-stationary, KKT, multiplier recovery."""

import numpy as np
import pytest

from conftest import kkt_enumerate
from rampsvm import (
    COUNTEREXAMPLE_C,
    Certificate,
    Dataset,
    PrimalDualPoint,
    Verdict,
    build_problem,
    check_kkt,
    check_pstationary,
    counterexample_dataset,
    counterexample_point,
    default_gamma_grid,
    grade_point,
    recover_multiplier,
    single_point_dataset,
    single_point_point,
    symmetric_pair_dataset,
    symmetric_pair_point,
)


def test_single_point_fixture_exact():
    prob = build_problem(single_point_dataset())
    point = single_point_point()
    cert = check_pstationary(point, prob, C=1.0, gamma=1.0)
    assert cert.verdict is Verdict.P_STATIONARY
    assert cert.max_residual <= 1e-12


def test_symmetric_pair_fixture_exact():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    cert = check_pstationary(point, prob, C=1.0, gamma=2.0)
    assert cert.verdict is Verdict.P_STATIONARY
    assert cert.max_residual <= 1e-12


def test_counterexample_kkt_but_not_pstationary():
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    kkt = check_kkt(point, prob, COUNTEREXAMPLE_C)
    assert kkt.passed and kkt.max_residual <= 1e-12
    for gamma in (0.4, 4.0, 8.0, 16.0):
        cert = check_pstationary(point, prob, COUNTEREXAMPLE_C, gamma)
        assert cert.verdict is Verdict.NEITHER
        assert cert.r_prox >= 0.1 - 1e-12


def test_counterexample_grade_is_kkt_only():
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    cert = grade_point(point.w, point.b, prob, COUNTEREXAMPLE_C)
    assert cert.verdict is Verdict.KKT_ONLY
    assert isinstance(cert, Certificate)


def test_grade_point_pstationary_on_pair():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    cert = grade_point(point.w, point.b, prob, C=1.0)
    assert cert.verdict is Verdict.P_STATIONARY
    assert cert.max_residual <= 1e-9


def test_grade_point_neither_on_garbage():
    prob = build_problem(counterexample_dataset())
    cert = grade_point(np.array([5.0, -3.0]), 2.0, prob, COUNTEREXAMPLE_C)
    assert cert.verdict is Verdict.NEITHER
    assert cert.max_residual > 1e-3


def test_recover_multiplier_exact_when_square():
    # m = n+1 makes B^T square and nonsingular: recovery is exact.
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    lam, resid = recover_multiplier(point.w, point.b, prob, COUNTEREXAMPLE_C)
    assert resid <= 1e-12
    assert np.allclose(lam, point.lam, atol=1e-12)


def test_recover_multiplier_uses_margin_structure():
    # Build an instance with more samples than n+1, take its exact global
    # minimizer, and compare both recoveries.  The minimum-norm solution
    # spreads weight onto samples whose margins force lambda_i = 0; the
    # structured recovery must reproduce the enumeration's multiplier.
    rng = np.random.default_rng(11)
    while True:
        X = rng.uniform(-2.0, 2.0, size=(6, 2))
        y = rng.choice([-1.0, 1.0], size=6)
        ds = Dataset(X=X, y=y)
        prob = build_problem(ds)
        if prob.full_column_rank:
            break
    f_star, w, b, lam_exact, u = kkt_enumerate(prob, ds, C=1.0)[0]
    lam, resid = recover_multiplier(w, b, prob, C=1.0)
    assert resid <= 1e-9
    assert np.allclose(lam, lam_exact, atol=1e-8)
    # Zero structure: no weight on samples strictly off the margins.
    off = [i for i in range(6) if abs(u[i]) > 1e-6 and not 0 < u[i] < 1]
    assert np.all(lam[off] == 0.0)


def test_recover_multiplier_on_margin_pair():
    # Both samples sit on the margin (u = 0), so both components are free
    # and least squares must split the gradient condition between them.
    prob = build_problem(symmetric_pair_dataset())
    lam, resid = recover_multiplier(np.array([1.0]), 0.0, prob, C=1.0)
    assert resid <= 1e-12
    assert np.allclose(lam, [-0.5, -0.5], atol=1e-12)


def test_kkt_multiplier_interval_logic():
    prob = build_problem(symmetric_pair_dataset())
    good = symmetric_pair_point()
    assert check_kkt(good, prob, C=1.0).passed
    # Positive multiplier is outside -C*[0,1] everywhere: must fail.
    bad = PrimalDualPoint(
        w=good.w, b=good.b, u=good.u, lam=np.array([0.5, -1.5])
    )
    res = check_kkt(bad, prob, C=1.0)
    assert not res.passed
    assert res.r_multiplier >= 0.5


def test_default_gamma_grid_contents():
    prob = build_problem(counterexample_dataset())
    grid = default_gamma_grid(prob, C=0.25)
    assert grid[0] == pytest.approx(0.5 / prob.lambda_h)
    assert 2.0 / 0.25 in grid and 4.0 / 0.25 in grid
    short = build_problem(single_point_dataset())
    assert default_gamma_grid(short, C=1.0) == [2.0, 4.0]


def test_certificate_residuals_nonnegative():
    prob = build_problem(counterexample_dataset())
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, b = rng.standard_normal(2), float(rng.standard_normal())
        lam, _ = recover_multiplier(w, b, prob, COUNTEREXAMPLE_C)
        u = 1.0 - prob.A @ w - b * prob.y
        point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
        cert = check_pstationary(point, prob, COUNTEREXAMPLE_C, gamma=2.0)
        for r in (cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox):
            assert r >= 0.0
        assert cert.max_residual == max(
            cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox
        )


def test_verdict_serialized_values():
    assert Verdict.P_STATIONARY.value == "p-stationary"
    assert Verdict.KKT_ONLY.value == "kkt-only"
    assert Verdict.NEITHER.value == "neither"


def test_dimension_mismatch_rejected():
    prob = build_problem(counterexample_dataset())
    good = counterexample_point()
    with pytest.raises(ValueError):
        check_pstationary(
            PrimalDualPoint(w=np.zeros(3), b=0.0, u=good.u, lam=good.lam),
            prob,
            COUNTEREXAMPLE_C,
            gamma=1.0,
        )
    with pytest.raises(ValueError):
        check_pstationary(good, prob, COUNTEREXAMPLE_C, gamma=-1.0)
