"""Dataset model and the derived matrices used by certification and training.

From a labeled dataset we assemble A (row i is y_i * x_i), the label vector
y, and B = [A y].  When B has full column rank we also carry lambda_h, the
largest eigenvalue of the m x m matrix H^T H, where H is the generalized
inverse Bdag = (B^T B)^{-1} B^T of B with its last row zeroed.  lambda_h
bounds the prox steps for which the stationarity certificate is a necessary
condition at global minimizers, so it is surfaced in reports.  It is
computed as the largest eigenvalue of the (n+1) x (n+1) matrix H H^T, which
has the same nonzero spectrum, so the build takes O(m n) memory; neither
Bdag nor H is kept.

Rank-deficient B gets a None lambda_h instead of an SVD pseudo-inverse:
the certification theory assumes full column rank, and silently working
outside that hypothesis would be misleading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "Dataset",
    "ProblemData",
    "build_problem",
    "spd_solver",
]

# Relative threshold on Cholesky diagonals below which B counts as
# rank-deficient.
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled dataset: X is (m, n) features, y is (m,) labels.

    Labels must be exactly +1 or -1; anything else is rejected rather than
    remapped so that mislabeled inputs fail loudly.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d (m, n), got shape {X.shape}")
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"y has shape {y.shape}, expected ({X.shape[0]},)"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all(np.abs(y) == 1.0):
            bad = y[np.abs(y) != 1.0]
            raise ValueError(f"labels must be exactly +1 or -1, got {bad[0]}")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ProblemData:
    """Derived matrices for one dataset.

    lambda_h is None when B is rank-deficient (including the unavoidable
    m < n+1 case).
    """

    dataset: Dataset
    A: np.ndarray
    y: np.ndarray
    B: np.ndarray
    full_column_rank: bool
    lambda_h: float | None

    @property
    def m(self) -> int:
        return self.dataset.m

    @property
    def n(self) -> int:
        return self.dataset.n


def build_problem(dataset: Dataset) -> ProblemData:
    """Assemble A, y, B and, if B has full column rank, lambda_h."""
    X, y = dataset.X, dataset.y
    m, n = dataset.m, dataset.n
    A = y[:, None] * X
    B = np.hstack((A, y[:, None]))
    for arr in (A, B):
        arr.setflags(write=False)

    lam = None
    full_rank = False
    if m >= n + 1:
        G = B.T @ B
        try:
            cf = scipy.linalg.cho_factor(G, lower=True)
        except (scipy.linalg.LinAlgError, ValueError):
            cf = None
        if cf is not None:
            d = np.abs(np.diag(cf[0]))
            if d.min() >= _RANK_RTOL * d.max():
                full_rank = True
                H = scipy.linalg.cho_solve(cf, B.T)
                H[-1, :] = 0.0
                lam = float(np.linalg.eigvalsh(H @ H.T)[-1])
    return ProblemData(
        dataset=dataset,
        A=A,
        y=y,
        B=B,
        full_column_rank=full_rank,
        lambda_h=lam,
    )


def spd_solver(M):
    """Factor a symmetric positive-definite M once; return a solve closure.

    The closure applies one step of iterative refinement, which keeps the
    residual near machine precision for the mildly conditioned systems we
    build.  Factorization failure (non-SPD input) propagates as LinAlgError.
    """
    M = np.asarray(M, dtype=float)
    try:
        cf = scipy.linalg.cho_factor(M, lower=True)
    except ValueError as exc:
        raise np.linalg.LinAlgError(f"SPD factorization failed: {exc}") from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = scipy.linalg.cho_solve(cf, rhs)
        x += scipy.linalg.cho_solve(cf, rhs - M @ x)
        return x

    return solve

