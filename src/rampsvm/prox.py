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
builds ProxSet.distance on it.  certify.residual_rows, which serves the
trainer's screen and the certificate, takes r_prox from prox_distance; the
trainer's prox step calls _prox_primary, the primary branch on which
prox_array is built, without prox_array's finiteness check.  Both read
gamma*C and the tie threshold that ProxParams works out once, when it is
built, with the floats the scalar branches compute on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_positive

__all__ = [
    "ProxParams",
    "ProxSet",
    "prox_scalar",
    "prox_array",
    "prox_distance",
]


@dataclass(frozen=True)
class ProxParams:
    """Prox step gamma and loss penalty C, both strictly positive.

    gammaC, the product gamma*C that selects the prox regime, and the tie
    threshold, the input s at which the prox has two members, are worked
    out once, here, for the trainer's per-iteration prox.  They follow from
    (gamma, C), so equality, hashing and repr use those two alone.
    """

    gamma: float
    C: float
    gammaC: float = field(init=False, repr=False, compare=False)
    _threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive("gamma", self.gamma)
        check_positive("C", self.C)
        gc = self.gamma * self.C
        thr = 1.0 + gc / 2.0 if gc < 2.0 else math.sqrt(2.0 * gc)
        object.__setattr__(self, "gammaC", gc)
        object.__setattr__(self, "_threshold", thr)


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


def _prox_primary(s: np.ndarray, params: ProxParams, out=None) -> np.ndarray:
    """prox_array's primary value for a float array s already known to be
    finite; the trainer's hot path calls it without the input check, into
    out when given, which may be s itself.  In both regimes it is s times
    a keep mask that zeroes s on (0, a) and keeps it elsewhere, with a the
    tie threshold in the threshold regime and gamma*C in the shift regime;
    the shift regime then subtracts gamma*C on [gamma*C, threshold).  That
    gives prox_scalar's first value bit for bit, signed zeros and ties
    included, and a non-finite value for a non-finite s."""
    gc, thr = params.gammaC, params._threshold
    if gc >= 2.0:
        return np.multiply(s, (s <= 0.0) | (s >= thr), out=out)
    shift = gc * ((s >= gc) & (s < thr))
    out = np.multiply(s, (s <= 0.0) | (s >= gc), out=out)
    out -= shift
    return out


def prox_array(s, params: ProxParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise closed form of prox_scalar on an array.

    Returns (primary, alternative, tie): primary[i] is
    prox_scalar(s[i]).values[0], alternative[i] is .values[-1] (equal to
    primary[i] off the tie), and tie[i] is .tie, all bit for bit.  Below
    the tie threshold both regimes shift or zero s exactly as the scalar
    branches do; at the threshold the primary value keeps s and the
    alternative takes the branch below it: s - gamma*C in the shift
    regime, 0 in the threshold regime.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("prox needs finite arguments")
    gc, thr = params.gammaC, params._threshold
    below_thr = thr - gc if gc < 2.0 else 0.0
    primary = _prox_primary(s, params)
    tie = s == thr
    return primary, np.where(tie, below_thr, primary), tie


def prox_distance(u, s, params: ProxParams) -> np.ndarray:
    """Elementwise ProxSet.distance: |u_i - prox(s_i)|, the nearer member
    at a tie."""
    u = np.asarray(u, dtype=float)
    primary, alternative, _ = prox_array(s, params)
    return np.minimum(np.abs(u - primary), np.abs(u - alternative))

