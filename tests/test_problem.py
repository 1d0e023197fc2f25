"""Problem assembly: A, B, the spectral bound lambda_h, solvers."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from rampsvm import (
    Dataset,
    build_problem,
    counterexample_dataset,
    gen_synthetic,
    spd_solver,
)


def _random_full_rank(rng, m, n):
    while True:
        X = rng.uniform(-2.0, 2.0, size=(m, n))
        y = rng.choice([-1.0, 1.0], size=m)
        prob = build_problem(Dataset(X=X, y=y))
        if prob.full_column_rank:
            return prob


def test_assembly_shapes_and_rows():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 2))
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    prob = build_problem(Dataset(X=X, y=y))
    assert prob.A.shape == (5, 2) and prob.B.shape == (5, 3)
    for i in range(5):
        assert np.allclose(prob.A[i], y[i] * X[i])
        assert prob.B[i, 2] == y[i]


def _dense_lambda_h(prob):
    """Largest eigenvalue of the m x m matrix H^T H, with H the SVD
    pseudo-inverse of B with its bias row zeroed."""
    H = np.linalg.pinv(prob.B)
    H[-1, :] = 0.0
    return float(np.linalg.eigvalsh(H.T @ H)[-1])


def test_lambda_h_against_dense_eigensolver():
    rng = np.random.default_rng(2)
    for m in (3, 4, 6, 9, 2000):
        prob = _random_full_rank(rng, m, 2)
        assert prob.lambda_h == pytest.approx(_dense_lambda_h(prob), rel=1e-12)


def test_build_problem_memory_scales_with_m_n():
    # m = 8000, n = 2: an m x m intermediate alone would take 488 MiB,
    # while A and B together take under 1 MiB.
    ds = gen_synthetic(4000, 4.0, 0.1, 0)
    tracemalloc.start()
    try:
        prob = build_problem(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prob.m == 8000 and prob.full_column_rank
    assert peak < 16 * 1024 * 1024


def test_lambda_h_counterexample_value():
    prob = build_problem(counterexample_dataset())
    assert prob.lambda_h == pytest.approx(_dense_lambda_h(prob), rel=1e-10)
    assert prob.lambda_h == pytest.approx(0.25, abs=1e-6)


def test_rank_deficient_paths():
    # Fewer samples than n+1 can never give full column rank.
    short = build_problem(
        Dataset(X=np.array([[1.0, 2.0]]), y=np.array([1.0]))
    )
    assert not short.full_column_rank
    assert short.lambda_h is None
    # Duplicated sample rows collapse the rank as well.
    X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, 1.0])
    dup = build_problem(Dataset(X=X, y=y))
    assert not dup.full_column_rank


def test_spd_solver_accuracy():
    # The trainer solves once for a matrix right-hand side (B^T); each
    # column must meet the residual bound of a vector solve.
    rng = np.random.default_rng(4)
    G = rng.standard_normal((7, 7))
    M = G @ G.T + 7 * np.eye(7)
    solve = spd_solver(M)
    rhs = rng.standard_normal((7, 5))
    x = solve(rhs)
    assert x.shape == rhs.shape
    for j in range(rhs.shape[1]):
        resid = float(np.max(np.abs(M @ x[:, j] - rhs[:, j])))
        assert np.isfinite(resid)
        assert resid <= 1e-10 * (1.0 + np.max(np.abs(rhs[:, j])))
        assert np.allclose(solve(rhs[:, j]), x[:, j])


def test_spd_solver_rejects_indefinite():
    M = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(LinAlgError):
        spd_solver(M)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros(3), y=np.array([1.0, 1.0, -1.0]))


def test_dataset_immutable():
    ds = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.y[0] = -1.0
    prob = build_problem(ds)
    with pytest.raises(ValueError):
        prob.A[0, 0] = 9.0
