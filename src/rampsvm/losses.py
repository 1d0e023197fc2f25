"""Ramp loss and the regularized training objective.

The ramp loss clips the hinge loss at 1: it charges nothing for margins on
the correct side, a linear cost inside the margin band, and a flat cost of 1
beyond it.  The flat cap is what makes the classifier robust to outliers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ._checks import check_positive

if TYPE_CHECKING:
    from .problem import Dataset

__all__ = [
    "ramp_loss",
    "objective",
]


def ramp_loss(t: float) -> float:
    """Scalar ramp loss: 0 for t < 0, t for 0 <= t < 1, and 1 for t >= 1.

    Boundary values are pinned exactly (no tolerance): ramp_loss(0) = 0 and
    ramp_loss(1) = 1.  Equivalent to min(1, max(t, 0)).
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"ramp loss needs a finite argument, got {t}")
    if t >= 1.0:
        return 1.0
    if t >= 0.0:
        return t
    return 0.0


def objective(w, b: float, dataset: "Dataset", C: float) -> float:
    """Training objective 0.5*||w||^2 + C * sum_i ramp_loss(u_i).

    Here u = 1 - Aw - b*y with A the matrix of label-scaled samples
    (row i is y_i * x_i), so u_i = 1 - y_i*(<w, x_i> + b).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (dataset.n,):
        raise ValueError(f"w has shape {w.shape}, expected ({dataset.n},)")
    check_positive("C", C)
    u = 1.0 - dataset.y * (dataset.X @ w) - b * dataset.y
    if not np.all(np.isfinite(u)):
        raise ValueError("ramp loss sum needs finite entries")
    # clip(u, 0, 1) matches the piecewise definition exactly, boundaries included
    return 0.5 * float(w @ w) + C * float(np.clip(u, 0.0, 1.0).sum())
