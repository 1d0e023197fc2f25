"""Support-vector extraction and margin-hyperplane geometry."""

import numpy as np
import pytest

from rampsvm import (
    COUNTEREXAMPLE_C,
    PrimalDualPoint,
    RegimeError,
    SolveStatus,
    SolverConfig,
    build_problem,
    counterexample_dataset,
    counterexample_point,
    extract_support,
    gen_synthetic,
    symmetric_pair_dataset,
    symmetric_pair_point,
    train_admm,
    verify_support_margins,
)


def test_extract_support_pair():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    sv = extract_support(point, prob)
    assert sv.indices == (0, 1)
    assert len(sv) == 2
    assert np.allclose(sv.lambdas, [-0.5, -0.5])
    # Both samples sit exactly on their margin hyperplane.
    assert np.allclose(sv.margins, [1.0, 1.0])


def test_extract_support_tolerance_cutoff():
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    sv = extract_support(point, prob)
    assert 0 < len(sv) <= 3
    none = extract_support(point, prob, sv_tol=10.0)
    assert none.indices == () and len(none) == 0
    # A NaN cutoff used to return an empty support set.
    for sv_tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sv_tol must be finite"):
            extract_support(point, prob, sv_tol=sv_tol)


def test_extract_support_matches_per_index_rule():
    # The gathers give the floats of the per-sample formulas: margin
    # y_i * (<w, x_i> + b) from the full score vector, and lambda_i.
    prob = build_problem(gen_synthetic(10, 3.0, 0.1, 4))
    rng = np.random.default_rng(3)
    for sv_tol in (0.0, 0.3, 10.0):
        lam = np.where(rng.random(prob.m) < 0.5, 0.0, rng.uniform(-1.0, 0.0, prob.m))
        point = PrimalDualPoint(
            w=rng.standard_normal(prob.n), b=0.7, u=np.zeros(prob.m), lam=lam
        )
        sv = extract_support(point, prob, sv_tol)
        idx = [i for i in range(prob.m) if abs(lam[i]) > sv_tol]
        scores = prob.dataset.X @ point.w + point.b
        assert sv.indices == tuple(idx) and all(type(i) is int for i in sv.indices)
        want = np.array([prob.dataset.y[i] * scores[i] for i in idx])
        assert sv.margins.tobytes() == want.tobytes()
        assert sv.margins.shape == want.shape == (len(idx),)
        assert sv.lambdas.tobytes() == np.array([lam[i] for i in idx]).tobytes()


def test_reconstruct_w_roundtrip():
    # Only the support vectors contribute to w = -A^T lambda.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    assert np.allclose(-prob.A.T @ point.lam, point.w, atol=1e-12)
    prob2 = build_problem(counterexample_dataset())
    point2 = counterexample_point()
    assert np.allclose(-prob2.A.T @ point2.lam, point2.w, atol=1e-12)


def test_verify_support_margins_pair():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    ok, deviation = verify_support_margins(point, prob, C=1.0, gamma=2.0)
    assert ok
    assert deviation == 0.0


def test_verify_support_margins_wrong_regime():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(RegimeError):
        verify_support_margins(point, prob, C=1.0, gamma=1.0)


@pytest.mark.parametrize(
    "C, gamma, sv_tol, name",
    [
        (np.nan, 2.0, 1e-6, "C"),
        (1.0, np.nan, 1e-6, "gamma"),
        (1.0, np.inf, 1e-6, "gamma"),
        (1.0, 2.0, np.inf, "sv_tol"),
        (1.0, 2.0, np.nan, "sv_tol"),
    ],
)
def test_verify_support_margins_rejects_non_finite(C, gamma, sv_tol, name):
    # The C and gamma cases used to return (True, 0.0) on the symmetric pair.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        verify_support_margins(point, prob, C, gamma, sv_tol=sv_tol)


def test_verify_support_margins_takes_sv_tol_by_keyword():
    # The fifth positional slot was a margin tolerance; a stale call that
    # passes one must fail rather than be read as the support cutoff.
    prob = build_problem(symmetric_pair_dataset())
    with pytest.raises(TypeError):
        verify_support_margins(symmetric_pair_point(), prob, 1.0, 2.0, 1e-6)


@pytest.mark.parametrize("seed", [3, 11, 15])
def test_support_defaults_match_solver_tolerance(seed):
    # A point certified at the trainer's default tolerance carries
    # multipliers of about 1e-7 on samples off the margins.  A support
    # cutoff of 1e-8 counted 15 or 16 of the 16 samples as support vectors
    # and failed the margin check with deviation 2.35-2.42.
    prob = build_problem(gen_synthetic(8, 4.0, 0.1, seed))
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED
    sv = extract_support(res.point, prob)
    assert sv.indices == extract_support(res.point, prob, sv_tol=1e-6).indices
    assert len(sv) == 2
    holds, deviation = verify_support_margins(res.point, prob, 1.0, 2.0)
    assert holds is True, deviation


def test_verify_support_margins_accepts_kkt_fixture():
    # The counterexample's multipliers load only the two on-margin samples,
    # so its geometry happens to pass even though the point is KKT-only.
    prob = build_problem(counterexample_dataset())
    point = counterexample_point()
    gamma = 2.0 / COUNTEREXAMPLE_C  # gamma * C = 2
    ok, deviation = verify_support_margins(
        point, prob, COUNTEREXAMPLE_C, gamma
    )
    assert ok and deviation == 0.0


def test_verify_support_margins_rejects_off_margin_sv():
    # Load multiplier weight onto the sample sitting at u_i = 1: it becomes
    # a support vector one full unit off its margin hyperplane.
    prob = build_problem(counterexample_dataset())
    base = counterexample_point()
    point = PrimalDualPoint(
        w=base.w, b=base.b, u=base.u, lam=np.array([-0.25, -0.1, -0.25])
    )
    gamma = 2.0 / COUNTEREXAMPLE_C
    ok, deviation = verify_support_margins(
        point, prob, COUNTEREXAMPLE_C, gamma
    )
    assert not ok
    assert deviation == pytest.approx(1.0)


def test_verify_support_margins_empty_support():
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    ok, deviation = verify_support_margins(
        point, prob, C=1.0, gamma=2.0, sv_tol=10.0
    )
    assert ok and deviation == 0.0
