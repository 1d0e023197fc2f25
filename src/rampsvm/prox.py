"""Set-valued proximal operator of the scaled ramp loss.

For a penalty C and step gamma, the prox at s minimizes

    phi(v) = C * ramp_loss(v) + (v - s)^2 / (2 * gamma)

over v.  The ramp loss is nonconvex, so phi can have two global minimizers;
the closed form returns both at the (single) tie point of each regime.  The
shape of the solution depends only on the product gamma*C:

* gamma*C < 2 ("shift" regime): inputs in the linear band are shifted left
  by gamma*C, small positive inputs collapse to 0, and everything at or
  below 0 or above 1 + gamma*C/2 is left alone.  Tie at s = 1 + gamma*C/2.
* gamma*C >= 2 ("threshold" regime): positive inputs below sqrt(2*gamma*C)
  collapse to 0, larger ones are left alone.  Tie at s = sqrt(2*gamma*C).

Both regimes coincide at gamma*C = 2.  Threshold comparisons are exact
floating-point comparisons; callers wanting fuzzy tie detection must snap
s themselves before calling.

prox_scalar and ProxSet are the set-valued reference.  prox_array evaluates
the same closed form elementwise with the same floats, and prox_distance
builds ProxSet.distance on it; the trainer and the certificate use these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_positive
from .losses import ramp_loss

__all__ = [
    "ProxParams",
    "ProxSet",
    "prox_scalar",
    "prox_array",
    "prox_distance",
    "prox_objective",
    "prox_oracle",
]

# Grid points per oracle block: 64 KiB of float64, below glibc's default
# 128 KiB mmap threshold.
_ORACLE_BLOCK = 8192


@dataclass(frozen=True)
class ProxParams:
    """Prox step gamma and loss penalty C, both strictly positive."""

    gamma: float
    C: float

    def __post_init__(self) -> None:
        check_positive("gamma", self.gamma)
        check_positive("C", self.C)

    @property
    def gammaC(self) -> float:
        """The product gamma*C that selects the prox regime."""
        return self.gamma * self.C


@dataclass(frozen=True)
class ProxSet:
    """One or two global minimizers of the prox objective.

    ``values`` has two entries only at the regime's tie point, where both
    attain the same objective; ``tie`` records that case.  Order follows
    the closed form: the untouched input s first, then the shifted or
    zeroed alternative.
    """

    values: tuple[float, ...]
    tie: bool

    def distance(self, x: float) -> float:
        """Distance from x to the set, min over members of |x - v|."""
        return min(abs(x - v) for v in self.values)


def _prox_shift_regime(s: float, params: ProxParams) -> ProxSet:
    """Closed form valid for 0 < gamma*C <= 2."""
    gc = params.gammaC
    thr = 1.0 + gc / 2.0
    if s > thr:
        return ProxSet((s,), False)
    if s == thr:
        return ProxSet((s, s - gc), True)
    if s >= gc:
        return ProxSet((s - gc,), False)
    if s > 0.0:
        return ProxSet((0.0,), False)
    return ProxSet((s,), False)


def _prox_threshold_regime(s: float, params: ProxParams) -> ProxSet:
    """Closed form valid for gamma*C >= 2."""
    thr = math.sqrt(2.0 * params.gammaC)
    if s > thr:
        return ProxSet((s,), False)
    if s == thr:
        return ProxSet((s, 0.0), True)
    if s > 0.0:
        return ProxSet((0.0,), False)
    return ProxSet((s,), False)


def prox_scalar(s: float, params: ProxParams) -> ProxSet:
    """All global minimizers of C*ramp_loss(v) + (v-s)^2/(2*gamma)."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"prox needs a finite argument, got {s}")
    if params.gammaC < 2.0:
        return _prox_shift_regime(s, params)
    return _prox_threshold_regime(s, params)


def prox_array(s, params: ProxParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise closed form of prox_scalar on an array.

    Returns (primary, alternative, tie): primary[i] is
    prox_scalar(s[i]).values[0], alternative[i] is .values[-1] (equal to
    primary[i] off the tie), and tie[i] is .tie, all bit for bit.  Below
    the tie threshold both regimes shift or zero s exactly as the scalar
    branches do; at the threshold the primary value keeps s and the
    alternative takes the branch below it.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("prox needs finite arguments")
    gc = params.gammaC
    if gc < 2.0:
        thr = 1.0 + gc / 2.0
        below = np.where(s >= gc, s - gc, np.where(s > 0.0, 0.0, s))
    else:
        thr = math.sqrt(2.0 * gc)
        below = np.where(s > 0.0, 0.0, s)
    primary = np.where(s >= thr, s, below)
    alternative = np.where(s > thr, s, below)
    return primary, alternative, s == thr


def prox_distance(u, s, params: ProxParams) -> np.ndarray:
    """Elementwise ProxSet.distance: |u_i - prox(s_i)|, the nearer member
    at a tie."""
    u = np.asarray(u, dtype=float)
    primary, alternative, _ = prox_array(s, params)
    return np.minimum(np.abs(u - primary), np.abs(u - alternative))


def prox_objective(v: float, s: float, params: ProxParams) -> float:
    """The prox objective C*ramp_loss(v) + (v-s)^2/(2*gamma) at v."""
    v = float(v)
    s = float(s)
    return params.C * ramp_loss(v) + (v - s) ** 2 / (2.0 * params.gamma)


def prox_oracle(s: float, params: ProxParams) -> float:
    """Brute-force minimizer of the prox objective, independent of the
    closed form.

    Evaluates the exact candidate points {s, s - gamma*C, 0} plus a uniform
    grid of step 1e-4 spanning [min(s,-1)-1, max(s,2)+1], and returns the
    first best point found, candidates before grid.  The candidates make the
    oracle exact at the kinks that the coarse grid would otherwise straddle.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"prox oracle needs a finite argument, got {s}")
    step = 1e-4
    lo = min(s, -1.0) - 1.0
    hi = max(s, 2.0) + 1.0
    # Grid point i is lo + i*delta, bit for bit the values of
    # np.arange(lo, hi + step/2, step).  The grid is built and scanned in
    # blocks small enough to stay off the mmap allocation path: a fresh
    # grid-sized array per call spent most of the oracle's time faulting
    # in new pages.
    delta = (lo + step) - lo
    size = math.ceil((hi + 0.5 * step - lo) / step)

    def blocks():
        yield np.array([s, s - params.gammaC, 0.0])
        for start in range(0, size, _ORACLE_BLOCK):
            v = np.arange(start, min(start + _ORACLE_BLOCK, size), dtype=float)
            v *= delta
            v += lo
            yield v

    best, best_obj = s, math.inf
    for v in blocks():
        obj = np.clip(v, 0.0, 1.0)
        obj *= params.C
        quad = v - s
        quad *= quad
        quad /= 2.0 * params.gamma
        obj += quad
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best, best_obj = float(v[i]), float(obj[i])
    return best
