"""Problem assembly: A, B, the spectral bound lambda_h, solvers."""

import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from rampsvm import (
    Dataset,
    build_problem,
    counterexample_dataset,
    gen_synthetic,
    spd_solver,
)
from rampsvm.problem import _cho_solve

EPS = np.finfo(float).eps


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
    probs = [_random_full_rank(rng, m, 2) for m in (3, 4, 6, 9, 2000)]
    probs += [_batch_problem(seed) for seed in range(20)]
    for prob in probs:
        assert prob.lambda_h == pytest.approx(_dense_lambda_h(prob), rel=1e-12)


def _batch_problem(seed):
    return build_problem(gen_synthetic(8, 4.0, 0.1 if seed % 2 else 0.0, seed))


def _solve_systems():
    """(M, rhs): the trainer's M = sigma B^T B + blockdiag(I_n, 0) with
    rhs = B^T on the 20 batch datasets at four sigmas, then random SPD
    matrices of several orders with random right-hand sides."""
    for seed in range(20):
        prob = _batch_problem(seed)
        for sigma in (0.1, 0.5, 1.0, 5.0):
            M = sigma * (prob.B.T @ prob.B)
            M[np.arange(prob.n), np.arange(prob.n)] += 1.0
            yield M, prob.B.T
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 5, 8, 13):
        G = rng.standard_normal((k, k))
        yield G @ G.T + k * np.eye(k), rng.standard_normal((k, 6))


def _relative_residual(M, x, rhs):
    """Largest |M x - rhs| over ||M||_inf ||x||_inf, column by column."""
    scale = np.abs(M).sum(axis=1).max() * np.abs(x).max(axis=0)
    return float((np.abs(M @ x - rhs).max(axis=0) / scale).max())


def test_cho_solve_residual_at_machine_precision():
    # The substitution alone and spd_solver with its refinement step both
    # solve to a relative residual of a few units of roundoff, and a column
    # solved alone gives the bits it gets inside a matrix right-hand side.
    for M, rhs in _solve_systems():
        L = np.linalg.cholesky(M)
        x = _cho_solve(L, rhs)
        assert x.shape == rhs.shape
        assert _relative_residual(M, x, rhs) <= 4 * EPS
        assert _relative_residual(M, spd_solver(M)(rhs), rhs) <= 4 * EPS
        assert x[:, 0].tobytes() == _cho_solve(L, rhs[:, 0]).tobytes()


def test_cholesky_factor_matches_lapack_lower_factor():
    # numpy's factor is the lower factor scipy's cho_factor leaves in its
    # lower triangle, bit for bit, on every system above.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for M, _ in _solve_systems():
        lower = np.tril(scipy_linalg.cho_factor(M, lower=True)[0])
        assert np.linalg.cholesky(M).tobytes() == lower.tobytes()


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
    # One feature a multiple of another: B has rank n.
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = int(rng.integers(3, 10))
        x = rng.standard_normal(m)
        X = np.column_stack((x, rng.uniform(-3.0, 3.0) * x))
        y = rng.choice([-1.0, 1.0], size=m)
        dep = build_problem(Dataset(X=X, y=y))
        assert dep.lambda_h is None and not dep.full_column_rank
    # Features near 1e200 build without overflow; sigma_min/sigma_max of
    # this B is about 1e-217, so it counts as rank-deficient.
    X = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    big = build_problem(Dataset(X=X, y=np.array([1.0, -1.0, 1.0])))
    assert big.lambda_h is None


def test_lambda_h_without_features():
    # n = 0: B is the label column, and H is its zeroed bias row.
    ds = Dataset(X=np.zeros((3, 0)), y=np.array([1.0, -1.0, 1.0]))
    prob = build_problem(ds)
    assert prob.full_column_rank and prob.lambda_h == 0.0


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
    for bad in (np.nan, np.inf):
        with pytest.raises(
            LinAlgError,
            match="SPD factorization failed: array must not contain infs or NaNs",
        ):
            spd_solver(np.array([[1.0, 0.0], [0.0, bad]]))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros(3), y=np.array([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="dataset needs at least one sample"):
        Dataset(X=np.zeros((0, 2)), y=np.zeros(0))


def test_dataset_immutable():
    ds = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.y[0] = -1.0
    prob = build_problem(ds)
    with pytest.raises(ValueError):
        prob.A[0, 0] = 9.0
