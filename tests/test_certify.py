"""Stationarity certification: P-stationary, KKT, multiplier recovery,
the admissible prox steps and the one verdict rule."""

import math

import numpy as np
import pytest

from conftest import kkt_enumerate
from rampsvm import (
    COUNTEREXAMPLE_C,
    Certificate,
    Dataset,
    PrimalDualPoint,
    ProxParams,
    SolverConfig,
    Verdict,
    admissible_steps,
    build_problem,
    certify_point,
    check_kkt,
    check_pstationary,
    counterexample_dataset,
    counterexample_point,
    gen_synthetic,
    global_oracle,
    grade,
    grade_point,
    prox_scalar,
    recover_multiplier,
    single_point_dataset,
    single_point_point,
    symmetric_pair_dataset,
    symmetric_pair_point,
    train_admm,
)
from rampsvm.certify import DEFAULT_TOL


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
    # Its middle sample sits at u = 1, which admits no prox step.  At small
    # steps the four residuals alone fall within tol (r_prox = gamma*C),
    # which used to certify it.
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    C = COUNTEREXAMPLE_C
    assert check_pstationary(point, prob, C, 1e-12).verdict is Verdict.P_STATIONARY
    cert, kkt, gamma_max = certify_point(point, prob, C)
    assert kkt.passed and gamma_max == 0.0
    assert cert.verdict is Verdict.KKT_ONLY
    cert = grade_point(point.w, point.b, prob, C)
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


def test_grade_point_not_stationary_off_the_minimizer():
    # Two points whose margins sit on (or within 1e-3 of) the margin
    # hyperplane, but which no multiplier makes stationary.  On the single
    # point, (0.3, 0.4) has u = 0, and along 2w + b = 1 the margin stays 0
    # while w^2/2 falls.  On the pair, w = 1.0005 puts both margins at
    # -5e-4: below the margin, where lambda must be 0, so w must be 0.
    cases = (
        (build_problem(single_point_dataset()), 0.3, 0.4, 0.0),
        (build_problem(symmetric_pair_dataset()), 1.0005, 0.0, -5e-4),
    )
    for prob, w, b, margin in cases:
        u = 1.0 - prob.A @ [w] - b * prob.y
        assert np.allclose(u, margin, rtol=0.0, atol=1e-12)
        cert = grade_point(np.array([w]), b, prob, C=1.0)
        assert cert.verdict is not Verdict.P_STATIONARY, (w, b)
        assert cert.max_residual > 1e-4


def test_grade_point_frees_only_on_margin_multipliers():
    # Three nearly collinear samples per class: the trained point leaves
    # margins (0, -3.8e-4, 0, -7.7e-4, 0, -1.5e-3).  The samples below the
    # margin take lambda = 0.  Freeing their multipliers in the fit, as a
    # margin class 1e-3 wide did, missed their KKT interval by 0.2 and
    # graded the point neither.
    X = np.array([
        (1.0002113662973113, -1.5), (1.0006120714150541, 0.0),
        (1.000260635510887, 1.5), (-1.0002746062858843, -1.5),
        (-0.9994784224308331, 0.0), (-1.000947030902192, 1.5),
    ])
    prob = build_problem(Dataset(X=X, y=np.array([1.0, 1, 1, -1, -1, -1])))
    res = train_admm(prob, SolverConfig(C=1.0, sigma=0.5))
    assert res.certificate.verdict is Verdict.P_STATIONARY
    w, b = res.point.w, res.point.b
    u = 1.0 - prob.A @ w - b * prob.y
    assert np.count_nonzero(np.abs(u) <= 1e-6) == 3
    assert np.count_nonzero((u < -1e-4) & (u > -2e-3)) == 3
    cert = grade_point(w, b, prob, C=1.0)
    assert cert.verdict is Verdict.P_STATIONARY
    assert max(cert.r_grad, cert.r_y) <= 1e-12


def test_grade_uses_the_given_multiplier():
    # grade is grade_point's route; a given lambda is graded as it stands,
    # and the certified point carries it.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    cert, kkt, gamma_max, graded = grade(point.w, point.b, prob, 1.0)
    assert cert == grade_point(point.w, point.b, prob, 1.0)
    assert np.array_equal(graded.u, point.u)
    for lam, verdict in (
        (point.lam, Verdict.P_STATIONARY),
        ([-0.5, -0.4], Verdict.NEITHER),  # r_y = 0.1
        ([5.0, 5.0], Verdict.NEITHER),
    ):
        cert, kkt, gamma_max, graded = grade(point.w, point.b, prob, 1.0, lam)
        assert cert.verdict is verdict
        assert np.array_equal(graded.lam, lam)


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
        elif 0.0 < u_i < 1.0 and abs(u_i - 1.0) > region_tol:
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
    rt = DEFAULT_TOL  # the tolerance recover_multiplier classifies at
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
    # Random points.
    for _ in range(20):
        X = rng.uniform(-2.0, 2.0, size=(15, 2))
        prob = build_problem(Dataset(X=X, y=rng.choice([-1.0, 1.0], 15)))
        w, b = rng.standard_normal(2), float(rng.standard_normal())
        lam, resid = recover_multiplier(w, b, prob, C)
        ref_lam, ref_resid = _scalar_recover_multiplier(w, b, prob, C, rt)
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
    # Every bound of the admissible set divides by C or multiplies by it.
    with pytest.raises(ValueError, match="C must be finite and positive"):
        admissible_steps(point, C)


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
    with pytest.raises(ValueError, match=r"w has shape \(3,\), expected \(2,\)"):
        check_pstationary(
            PrimalDualPoint(w=np.zeros(3), b=0.0, u=good.u, lam=good.lam),
            prob,
            COUNTEREXAMPLE_C,
            gamma=1.0,
        )
    with pytest.raises(ValueError, match=r"u has shape \(4,\), expected \(3,\)"):
        check_pstationary(
            PrimalDualPoint(w=good.w, b=0.0, u=np.zeros(4), lam=np.zeros(4)),
            prob,
            COUNTEREXAMPLE_C,
            gamma=1.0,
        )
    with pytest.raises(ValueError, match=r"w has shape \(3,\), expected \(2,\)"):
        recover_multiplier(np.zeros(3), 0.0, prob, COUNTEREXAMPLE_C)
    with pytest.raises(ValueError):
        check_pstationary(good, prob, COUNTEREXAMPLE_C, gamma=-1.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"lam": [-0.5]}, r"lam has shape \(1,\), expected \(2,\) to match u"),
        ({"w": [[1.0]]}, r"w must be 1-d, got shape \(1, 1\)"),
        ({"b": np.inf}, "b must be finite"),
        ({"b": np.nan}, "b must be finite"),
    ],
    ids=["lam-shape", "w-2d", "b-inf", "b-nan"],
)
def test_point_rejects_malformed_fields(fields, message):
    pair = symmetric_pair_point()
    kwargs = {"w": pair.w, "b": pair.b, "u": pair.u, "lam": pair.lam, **fields}
    with pytest.raises(ValueError, match=message):
        PrimalDualPoint(**kwargs)


# Powers of two, and margins and multipliers on a 1/16 grid, keep every sum,
# product and closed-form bound exact, so the sweep lands on the tie bounds.
_STEPS = [2.0**k for k in range(-14, 13)]


def _class_samples(C):
    """(u_i, lambda_i) with the KKT structure: margins below 0, inside the
    band and beyond 1 with their forced multiplier, both kinks with a grid
    of multipliers in [-C, 0]."""
    samples = []
    for k in range(-16, 65):
        u = k / 16.0
        if u in (0.0, 1.0):
            samples += [(u, -C * j / 8.0) for j in range(9)]
        else:
            samples.append((u, -C if 0.0 < u < 1.0 else 0.0))
    return samples


def _prox_fixed(u_i, lam_i, gamma, C):
    """The set-valued reference: u_i is a member of prox(u_i - gamma*lam_i)."""
    s = u_i - gamma * lam_i
    return prox_scalar(s, ProxParams(gamma, C)).distance(u_i) == 0.0


def _point(u, lam):
    return PrimalDualPoint(w=[0.0], b=0.0, u=u, lam=lam)


def test_admissible_steps_match_set_valued_prox():
    rng = np.random.default_rng(31)
    ties = 0
    for C in (0.25, 0.5, 1.0, 2.0, 4.0):
        samples = _class_samples(C)
        bounds = []
        for u_i, lam_i in samples:
            gamma_max = admissible_steps(_point([u_i], [lam_i]), C)
            bounds.append(gamma_max)
            for gamma in _STEPS:
                fixed = _prox_fixed(u_i, lam_i, gamma, C)
                assert (gamma <= gamma_max) == fixed, (C, u_i, lam_i, gamma)
                ties += fixed and gamma == gamma_max
        # Several samples at once: the set is the intersection.
        for _ in range(100):
            idx = rng.choice(len(samples), size=4, replace=False)
            u, lam = zip(*(samples[i] for i in idx))
            gamma_max = admissible_steps(_point(u, lam), C)
            assert gamma_max == min(bounds[i] for i in idx)
            for gamma in _STEPS:
                fixed = all(_prox_fixed(a, b, gamma, C) for a, b in zip(u, lam))
                assert (gamma <= gamma_max) == fixed
    assert ties > 0, "no step landed on a bound"


def test_upper_kink_admits_no_step():
    tol = 1e-6
    for C in (0.25, 1.0, 4.0):
        for u_i in (1.0 - tol / 2, 1.0, 1.0 + tol / 2):
            for lam_i in (-C, -C / 2, 0.0):
                point = _point([-1.0, u_i, 0.5], [0.0, lam_i, -C])
                assert admissible_steps(point, C, tol) == 0.0
    # Nothing binds: every step works.
    assert admissible_steps(_point([-2.0, 0.0], [0.0, 0.0]), 1.0) == math.inf


def test_criterion_8_minimizers_grade_pstationary():
    # Criterion 8's clean and outlier global minimizers of seeds 100-102.
    # On seed 100 the margin u = 0.4055 sits inside the band, so only
    # gamma <= 2(1 - u)/C = 1.19 certifies it; gamma* is half of that.
    C = 1.0
    for seed in (100, 101, 102):
        clean = gen_synthetic(4, 3.0, 0.0, seed)
        augmented = Dataset(
            X=np.vstack([clean.X, [[-30.0, 0.0]]]), y=np.append(clean.y, 1.0)
        )
        wb = math.sqrt(2.0 * C * (clean.m + 1)) + 0.5
        bb = 1.0 + float(np.linalg.norm(augmented.X, axis=1).max()) * wb + 0.5
        bounds = ((-wb, wb), (-wb, wb), (-bb, bb))
        for ds in (clean, augmented):
            prob = build_problem(ds)
            w, b, _ = global_oracle(prob, C, bounds=bounds)
            cert = grade_point(w, b, prob, C)
            assert cert.verdict is Verdict.P_STATIONARY, (seed, cert)
            assert cert.max_residual <= 1e-12
            if seed == 100:
                assert cert.gamma == pytest.approx(0.5945, abs=1e-4)
