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


def _scalar_r_multiplier(u, lam, C, tol):
    """check_kkt's multiplier-interval distance, one sample at a time."""
    r = 0.0
    for u_i, l_i in zip(u, lam):
        if abs(u_i) <= tol or abs(u_i - 1.0) <= tol:
            lo, hi = -C, 0.0
        elif 0.0 < u_i < 1.0:
            lo, hi = -C, -C
        else:
            lo, hi = 0.0, 0.0
        r = max(r, lo - float(l_i), float(l_i) - hi, 0.0)
    return r


def _scalar_recover_multiplier(w, b, prob, C, region_tol):
    """recover_multiplier's region rule, one sample at a time."""
    u = 1.0 - prob.A @ w - float(b) * prob.y
    lam = np.zeros(prob.m)
    active = []
    for i, u_i in enumerate(u):
        if abs(u_i) <= region_tol:
            active.append(i)
        elif region_tol < u_i < 1.0 - region_tol:
            lam[i] = -C
    target = np.concatenate((-w, [0.0]))
    if active:
        sol, *_ = np.linalg.lstsq(
            prob.B.T[:, active], target - prob.B.T @ lam, rcond=None
        )
        lam[active] = sol
    return lam, float(np.max(np.abs(prob.B.T @ lam - target)))


def _around(x):
    """x and its two floating-point neighbours."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def test_check_kkt_matches_scalar_rule():
    rng = np.random.default_rng(21)
    C = 0.7
    one = build_problem(Dataset(X=[[1.0]], y=[1.0]))
    for tol in (1e-6, 1e-3, 0.25, 0.3):
        # Each sample alone, at every float next to a breakpoint of the
        # tol-snapped classification; the four multipliers tell the three
        # intervals apart.
        edges = [0.0, 1.0]
        for e in (-tol, tol, 1.0 - tol, 1.0 + tol):
            edges += _around(e)
        for u_i in edges:
            for l_i in (-C, -0.5 * C, 0.0, 0.5):
                point = PrimalDualPoint(w=[0.0], b=0.0, u=[u_i], lam=[l_i])
                res = check_kkt(point, one, C, tol)
                assert res.r_multiplier == _scalar_r_multiplier(
                    [u_i], [l_i], C, tol
                ), (tol, u_i, l_i)
        # Random points, all samples at once.
        for _ in range(20):
            m = 12
            X = rng.uniform(-2.0, 2.0, size=(m, 2))
            prob = build_problem(Dataset(X=X, y=rng.choice([-1.0, 1.0], m)))
            u = np.concatenate((rng.uniform(-1.0, 2.0, m - 4), [0.0, 1.0, tol, -tol]))
            lam = rng.choice([-C, 0.0], m) + rng.uniform(-0.1, 0.1, m)
            point = PrimalDualPoint(w=rng.standard_normal(2), b=0.3, u=u, lam=lam)
            res = check_kkt(point, prob, C, tol)
            r_mult = _scalar_r_multiplier(u, lam, C, tol)
            assert res.r_multiplier == r_mult
            assert res.passed == (
                max(res.r_grad, res.r_y, res.r_feas, r_mult) <= tol
            )


def test_recover_multiplier_matches_scalar_rule():
    rng = np.random.default_rng(22)
    C = 0.7
    rt = 1e-3  # the default region_tol
    # Margins near -rt and rt: a sample with x = y has u = -b * y exactly
    # at w = 1, so b = rt and its neighbours put u on both sides of +-rt.
    X = np.concatenate(([1.0, -1.0, 1.0, -1.0], rng.uniform(-2.0, 2.0, 6)))
    y = np.concatenate(([1.0, -1.0, 1.0, -1.0], rng.choice([-1.0, 1.0], 6)))
    near_zero = build_problem(Dataset(X=X[:, None], y=y))
    for b in [0.0] + _around(rt):
        w = np.array([1.0])
        u = 1.0 - near_zero.A @ w - b * near_zero.y
        assert b in u and -b in u
        lam, resid = recover_multiplier(w, b, near_zero, C)
        ref_lam, ref_resid = _scalar_recover_multiplier(w, b, near_zero, C, rt)
        assert np.array_equal(lam, ref_lam) and resid == ref_resid, b
    # Margins near 1 - rt and 1: at w = 1, b = 0 a sample with y = 1 and
    # x = 1 - t has u = t exactly for t in [0.5, 1].
    targets = _around(1.0 - rt) + [np.nextafter(1.0, 0.0), 1.0]
    X = np.concatenate(([1.0 - t for t in targets], [1.0, -1.0, 0.5]))
    near_one = build_problem(Dataset(X=X[:, None], y=np.ones(X.size)))
    w = np.array([1.0])
    assert set(targets) <= set(1.0 - near_one.A @ w)
    lam, resid = recover_multiplier(w, 0.0, near_one, C)
    ref_lam, ref_resid = _scalar_recover_multiplier(w, 0.0, near_one, C, rt)
    assert np.array_equal(lam, ref_lam) and resid == ref_resid
    # Random points, with a region wide enough to catch on-margin samples.
    for region_tol in (rt, 0.2):
        for _ in range(20):
            X = rng.uniform(-2.0, 2.0, size=(15, 2))
            prob = build_problem(Dataset(X=X, y=rng.choice([-1.0, 1.0], 15)))
            w, b = rng.standard_normal(2), float(rng.standard_normal())
            lam, resid = recover_multiplier(w, b, prob, C, region_tol)
            ref_lam, ref_resid = _scalar_recover_multiplier(
                w, b, prob, C, region_tol
            )
            assert np.array_equal(lam, ref_lam) and resid == ref_resid


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
def test_checks_reject_bad_tol(tol):
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_pstationary(point, prob, 1.0, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check_kkt(point, prob, 1.0, tol)


@pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
def test_kkt_and_recovery_reject_bad_C(C):
    # A NaN C would make every multiplier-interval distance NaN, which
    # max() then drops, so the check would pass.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(ValueError, match="C must be finite and positive"):
        check_kkt(point, prob, C)
    with pytest.raises(ValueError, match="C must be finite and positive"):
        recover_multiplier(point.w, point.b, prob, C)
    # 2 / C used to raise ZeroDivisionError at C = 0 and give NaN at NaN.
    with pytest.raises(ValueError, match="C must be finite and positive"):
        default_gamma_grid(prob, C)
    # A NaN region_tol used to classify no sample and return lambda = 0.
    for region_tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="region_tol must be finite"):
            recover_multiplier(point.w, point.b, prob, 1.0, region_tol)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_recovery_rejects_non_finite_point(bad):
    # b = inf used to give lambda = 0 with residual 0.0, an exact-looking
    # recovery; a non-finite w gave lambda = 0 with residual NaN or inf.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(ValueError, match="b must be finite"):
        recover_multiplier(point.w, bad, prob, 1.0)
    for i in range(prob.n):
        w = np.array(point.w)
        w[i] = bad
        with pytest.raises(ValueError, match="w must be finite"):
            recover_multiplier(w, point.b, prob, 1.0)
        with pytest.raises(ValueError, match="w must be finite"):
            grade_point(w, point.b, prob, 1.0)


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
