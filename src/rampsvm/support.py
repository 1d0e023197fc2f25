"""Support vectors of a certified solution and their margin geometry.

Samples with a nonzero multiplier are the support vectors: they are the
only ones contributing to w = -A^T lambda.  For P-stationary points in the
gamma*C >= 2 prox regime, every support vector must sit exactly on a margin
hyperplane <w, x_i> + b = +-1 (equivalently u_i = 0), and its multiplier is
confined to [-sqrt(2C/gamma), 0).  verify_support_margins checks the former;
the multiplier range is an invariant exercised by the test suite.  Neither
function knows how the point was certified; callers keep the verdict.

Indices are 0-based positions into the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_positive
from .certify import DEFAULT_TOL, PrimalDualPoint
from .problem import ProblemData

__all__ = [
    "RegimeError",
    "SupportSet",
    "extract_support",
    "verify_support_margins",
]


class RegimeError(ValueError):
    """Raised when a check is invoked outside its gamma*C regime."""


@dataclass(frozen=True)
class SupportSet:
    """Support vector indices with their multipliers and functional margins.

    margins holds y_i * (<w, x_i> + b) per support index.
    """

    indices: tuple[int, ...]
    lambdas: np.ndarray
    margins: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def extract_support(
    point: PrimalDualPoint,
    problem: ProblemData,
    sv_tol: float = DEFAULT_TOL,
) -> SupportSet:
    """Indices with |lambda_i| > sv_tol, plus multipliers and margins.

    sv_tol separates true zeros from the multiplier noise floor.  A point
    the trainer certifies at tolerance tol can carry multipliers of the
    order of tol on samples off the margins, so the default is the trainer's
    default tolerance, DEFAULT_TOL; pass at least the tolerance a point was
    certified at.
    """
    if not (math.isfinite(sv_tol) and sv_tol >= 0):
        raise ValueError(f"sv_tol must be finite and nonnegative, got {sv_tol}")
    idx = np.flatnonzero(np.abs(point.lam) > sv_tol)
    X, y = problem.dataset.X, problem.dataset.y
    scores = X @ point.w + point.b
    return SupportSet(
        indices=tuple(idx.tolist()),
        lambdas=point.lam[idx],
        margins=y[idx] * scores[idx],
    )


def verify_support_margins(
    point: PrimalDualPoint,
    problem: ProblemData,
    C: float,
    gamma: float,
    *,
    sv_tol: float = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Check that every support vector lies on a margin hyperplane.

    Only meaningful in the gamma*C >= 2 regime and for points already
    certified P-stationary; the regime is enforced here, the certification
    is the caller's contract.  Support vectors are the samples with
    |lambda_i| > sv_tol (extract_support).  Returns (ok, deviation) with
    deviation = max |u_i| over support indices (0 for an empty support set)
    and ok true when it is at most 10*DEFAULT_TOL.
    """
    check_positive("gamma", gamma)
    check_positive("C", C)
    if gamma * C < 2.0:
        raise RegimeError(
            f"margin geometry requires gamma*C >= 2, got {gamma * C}"
        )
    sv = extract_support(point, problem, sv_tol)
    deviation = float(np.max(np.abs(np.take(point.u, sv.indices)), initial=0.0))
    return deviation <= 10.0 * DEFAULT_TOL, deviation
