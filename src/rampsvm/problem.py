"""Dataset model and the derived matrices used by certification and training.

From a labeled dataset we assemble A (row i is y_i * x_i), the label vector
y, and B = [A y].  When B has full column rank we also carry lambda_h, the
largest eigenvalue of the m x m matrix H^T H, where H is the generalized
inverse Bdag = (B^T B)^{-1} B^T of B with its last row zeroed.  lambda_h
bounds the prox steps for which the stationarity certificate is a necessary
condition at global minimizers, so it is surfaced in reports.  H^T H has
the nonzero spectrum of H H^T, the leading n x n block of (B^T B)^{-1}, so
the build takes O(m n) memory and forms neither B^T B, Bdag nor H.

Rank-deficient B gets a None lambda_h instead of an SVD pseudo-inverse:
the certification theory assumes full column rank, and silently working
outside that hypothesis would be misleading.

The rank test and lambda_h take B's triangular QR factor, L = R^T with
L L^T = B^T B, so B's condition number is not squared; the trainer's (w, b)
gain matrix takes the Cholesky factor (numpy's LAPACK potrf) of its SPD
matrix M.  One forward and back substitution over the n+1 rows
(_cho_solve) solves with either, so numpy is the only runtime dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "ProblemData",
    "build_problem",
    "spd_solver",
]

# Relative threshold on the |diagonal| of B's triangular QR factor below
# which B counts as rank-deficient.
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
    lambda_h: float | None

    @property
    def full_column_rank(self) -> bool:
        return self.lambda_h is not None

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
    if m >= n + 1:
        L = np.linalg.qr(B, mode="r").T
        d = np.abs(np.diag(L))
        if d.min() >= _RANK_RTOL * d.max():
            inv = _cho_solve(L, np.eye(n + 1))[:n, :n]
            lam = float(np.linalg.eigvalsh(inv).max(initial=0.0))
    return ProblemData(dataset=dataset, A=A, y=y, B=B, lambda_h=lam)


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs for a lower triangular factor L.

    Forward substitution, then back substitution, one row of L at a time;
    rhs is a vector or a matrix of right-hand sides, and a new array of its
    shape is returned.
    """
    x = np.array(rhs, dtype=float)
    X = x.reshape(len(L), -1)
    for k in range(len(L)):
        X[k] /= L[k, k]
        X[k + 1 :] -= L[k + 1 :, k, None] * X[k]
    for k in reversed(range(len(L))):
        X[k] /= L[k, k]
        X[:k] -= L[k, :k, None] * X[k]
    return x


def spd_solver(M):
    """Factor a symmetric positive-definite M once; return a solve closure.

    The closure solves by forward and back substitution with the Cholesky
    factor and applies one step of iterative refinement, which keeps the
    residual near machine precision for the mildly conditioned systems we
    build.  A non-SPD M raises LinAlgError, and so does a non-finite M,
    which numpy's factorization would not reject (it returns NaN rows).
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError(
            "SPD factorization failed: array must not contain infs or NaNs"
        )
    L = np.linalg.cholesky(M)

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = _cho_solve(L, rhs)
        x += _cho_solve(L, rhs - M @ x)
        return x

    return solve
