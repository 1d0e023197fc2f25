"""Support-vector extraction and margin-hyperplane geometry."""

import numpy as np
import pytest

from rampsvm import (
    COUNTEREXAMPLE_C,
    PrimalDualPoint,
    RegimeError,
    build_problem,
    counterexample_dataset,
    counterexample_point,
    extract_support,
    symmetric_pair_dataset,
    symmetric_pair_point,
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
    "C, gamma, tol, name",
    [
        (np.nan, 2.0, 1e-6, "C"),
        (1.0, np.nan, 1e-6, "gamma"),
        (1.0, np.inf, 1e-6, "gamma"),
        (1.0, 2.0, np.inf, "tol"),
        (1.0, 2.0, np.nan, "tol"),
    ],
)
def test_verify_support_margins_rejects_non_finite(C, gamma, tol, name):
    # Each of these used to return (True, 0.0) on the symmetric pair.
    prob = build_problem(symmetric_pair_dataset())
    point = symmetric_pair_point()
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        verify_support_margins(point, prob, C, gamma, tol)


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
