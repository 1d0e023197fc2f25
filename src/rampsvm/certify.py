"""Certification of candidate solutions.

A candidate (w, b, u, lambda) is proximal-stationary (P-stationary) at step
gamma when four residuals vanish.  With z = (w; b), B = [A y] and
g = B^T lambda + (w; 0):

    r_grad = max_{j<n} |g_j|                 gradient condition
    r_y    = |g_n| = |<y, lambda>|           multiplier/label orthogonality
    r_feas = ||u + B z - 1||_inf             primal feasibility
    r_prox = max_i dist(u_i, prox(u_i - gamma*lambda_i))   fixed-point inclusion

The weaker KKT condition replaces the prox inclusion with a subdifferential
inclusion: -lambda_i/C must lie in the ramp subdifferential at u_i.  Every
P-stationary point is a KKT point; the converse fails, and the shipped
three-point counterexample fixture demonstrates it.

What each function decides:

* residual_rows: the four residuals of candidates stacked one per row, the
  same floats on every path;
* check_pstationary: whether they pass tol at one step gamma;
* check_kkt: whether the KKT system holds;
* admissible_steps: the steps gamma at which the prox inclusion can hold;
* certify_point: the one verdict every caller reports;
* recover_multiplier: a multiplier for a primal point (w, b);
* grade: the verdict of a primal point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_positive
from .problem import ProblemData
# prox_scalar is not called here; it stays a module attribute because
# bench/tracing.py counts prox_scalar calls by wrapping it in this module.
from .prox import ProxParams, prox_distance, prox_scalar  # noqa: F401

__all__ = [
    "Verdict",
    "PrimalDualPoint",
    "Certificate",
    "KKTCheck",
    "residual_rows",
    "check_pstationary",
    "check_kkt",
    "certify_point",
    "recover_multiplier",
    "admissible_steps",
    "grade",
]

DEFAULT_TOL = 1e-6


class Verdict(enum.Enum):
    P_STATIONARY = "p-stationary"
    KKT_ONLY = "kkt-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class PrimalDualPoint:
    """Candidate solution: primal (w, b, u) plus multiplier vector lam."""

    w: np.ndarray
    b: float
    u: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float, ndmin=1)
        u = np.array(self.u, dtype=float, ndmin=1)
        lam = np.array(self.lam, dtype=float, ndmin=1)
        b = float(self.b)
        if lam.shape != u.shape:
            raise ValueError(
                f"lam has shape {lam.shape}, expected {u.shape} to match u"
            )
        for name, arr in (("w", w), ("u", u), ("lam", lam)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(b):
            raise ValueError("b must be finite")
        for arr in (w, u, lam):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class Certificate:
    """The four stationarity residuals at one prox step, plus the verdict."""

    r_grad: float
    r_y: float
    r_feas: float
    r_prox: float
    gamma: float
    verdict: Verdict

    @property
    def max_residual(self) -> float:
        return max(self.r_grad, self.r_y, self.r_feas, self.r_prox)


@dataclass(frozen=True)
class KKTCheck:
    """KKT residuals: shared lines 1-3 plus the multiplier-interval distance."""

    passed: bool
    r_grad: float
    r_y: float
    r_feas: float
    r_multiplier: float

    @property
    def max_residual(self) -> float:
        return max(self.r_grad, self.r_y, self.r_feas, self.r_multiplier)


def _check_dims(point: PrimalDualPoint, problem: ProblemData) -> None:
    if point.w.shape != (problem.n,):
        raise ValueError(
            f"w has shape {point.w.shape}, expected ({problem.n},)"
        )
    if point.u.shape != (problem.m,):
        raise ValueError(
            f"u has shape {point.u.shape}, expected ({problem.m},)"
        )


def residual_rows(problem: ProblemData, Z, U, L, F, params=None) -> np.ndarray:
    """The P-stationarity residuals of candidates stacked one per row.

    Row i of Z, U, L and F holds z = (w; b), u, lambda and the feasibility
    residual u + B z - 1 of candidate i.  Row i of the result holds its
    r_grad, r_y and r_feas, and with params, the prox step's ProxParams,
    its r_prox as well.  g = B^T lambda takes one matrix-vector product per
    row, not one matrix-matrix product, which may sum in another order: so
    a row's residuals are the same floats whether it comes alone or in a
    block.  r_grad is 0 when w is empty.
    """
    n = problem.n
    R = np.empty((len(L), 3 if params is None else 4))
    G = np.empty((len(L), n + 1))
    BT_dot = problem.B.T.dot
    for g, lam in zip(G, L):
        BT_dot(lam, g)
    G[:, :n] += Z[:, :n]
    np.abs(G, G)
    G[:, :n].max(axis=1, initial=0.0, out=R[:, 0])
    R[:, 1] = G[:, n]
    np.abs(F).max(axis=1, out=R[:, 2])
    if params is not None:
        dist = prox_distance(U, U - params.gamma * L, params)
        dist.max(axis=1, out=R[:, 3])
    return R


def _point_residuals(problem: ProblemData, w, b, u, lam, params=None) -> list:
    """residual_rows for the one candidate (w, b, u, lam), as floats."""
    z = np.append(w, b)
    feas = u + problem.B.dot(z) - 1.0
    rows = (z[None], u[None], lam[None], feas[None])
    return residual_rows(problem, *rows, params)[0].tolist()


# Margin classes of a sample, by u = 1 - <a_i, w> - b y_i.
_BELOW, _LOWER_KINK, _BAND, _UPPER_KINK, _BEYOND = range(5)


def _classify(u: np.ndarray, tol: float) -> np.ndarray:
    """Class of each margin: on a kink when within tol of 0 or of 1 (the
    lower kink where both hold), else below 0, inside the band (0, 1), or
    beyond 1."""
    cls = np.where(u < 0.0, _BELOW, np.where(u < 1.0, _BAND, _BEYOND))
    cls[np.abs(u - 1.0) <= tol] = _UPPER_KINK
    cls[np.abs(u) <= tol] = _LOWER_KINK
    return cls


def check_pstationary(
    point: PrimalDualPoint,
    problem: ProblemData,
    C: float,
    gamma: float,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Evaluate the four P-stationarity residuals at prox step gamma.

    The verdict is P_STATIONARY when the largest residual is at most tol,
    NEITHER otherwise; deciding KKT_ONLY additionally needs check_kkt and is
    the job of certify_point.  The prox residual measures the set distance
    from u_i to prox(u_i - gamma*lambda_i), so two-valued ties count as
    satisfied when either member matches.
    """
    check_positive("tol", tol)
    _check_dims(point, problem)
    r = _point_residuals(
        problem, point.w, point.b, point.u, point.lam, ProxParams(gamma, C)
    )
    verdict = Verdict.P_STATIONARY if max(r) <= tol else Verdict.NEITHER
    return Certificate(*r, gamma, verdict)


def check_kkt(
    point: PrimalDualPoint,
    problem: ProblemData,
    C: float,
    tol: float = DEFAULT_TOL,
) -> KKTCheck:
    """Check the KKT system: lines 1-3 plus -lambda_i/C in the ramp
    subdifferential at u_i, expressed as an interval distance."""
    check_positive("tol", tol)
    check_positive("C", C)
    _check_dims(point, problem)
    shared = _point_residuals(problem, point.w, point.b, point.u, point.lam)
    return _kkt_check(point, C, tol, *shared)


def _kkt_check(point: PrimalDualPoint, C, tol, r_grad, r_y, r_feas) -> KKTCheck:
    """check_kkt on the point's shared residuals r_grad, r_y and r_feas."""
    # Admissible [lo, hi] for lambda_i: on either kink all of [-C, 0];
    # inside the band exactly -C; below or beyond it exactly 0.
    lam = point.lam
    cls = _classify(point.u, tol)
    lo = np.where((cls == _BELOW) | (cls == _BEYOND), 0.0, -C)
    hi = np.where(cls == _BAND, -C, 0.0)
    r_mult = float(np.maximum(lo - lam, lam - hi).max(initial=0.0))
    passed = max(r_grad, r_y, r_feas, r_mult) <= tol
    return KKTCheck(passed, r_grad, r_y, r_feas, r_mult)


def _margins(w, b, problem: ProblemData):
    """(w, b) as floats, once they check out, and the margins
    u = 1 - A w - b y, refused where u or ||w||^2 would not be finite."""
    w = np.asarray(w, dtype=float)
    b = float(b)
    if w.shape != (problem.n,):
        raise ValueError(f"w has shape {w.shape}, expected ({problem.n},)")
    if not np.isfinite(w).all():
        raise ValueError("w must be finite")
    if not math.isfinite(b):
        raise ValueError("b must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        u = 1.0 - problem.A @ w - b * problem.y
        finite = np.isfinite(u).all() and math.isfinite(w @ w)
    if not finite:
        raise ValueError("w and b must give finite margins and ||w||^2")
    return w, b, u


def recover_multiplier(
    w,
    b: float,
    problem: ProblemData,
    C: float,
) -> tuple[np.ndarray, float]:
    """Region-structured multiplier recovery from a primal point.

    The plain least-squares system B^T lambda = (-w; 0) is underdetermined
    for m > n+1, and its minimum-norm solution spreads weight onto samples
    whose stationarity structure forces lambda_i = 0; such a lambda rarely
    certifies anything.  This recovery first fixes the components that the
    margins u = 1 - Aw - by determine: lambda_i = 0 where u_i is outside
    [0, 1] or on the upper kink (|u_i - 1| <= DEFAULT_TOL), lambda_i = -C
    strictly inside the band (0, 1), and only the on-margin components
    (|u_i| <= DEFAULT_TOL) are left free: the classes of check_kkt at the
    tolerance every verdict is decided at.  Those are solved by least squares
    on the remaining system, which is generically square or overdetermined.

    Returns (lambda, residual) with the infinity-norm residual of
    B^T lambda + (w; 0), max(r_grad, r_y) of residual_rows; a large
    residual means no multiplier with this structure makes w stationary.
    A w or b that is not finite, or whose margins or ||w||^2 overflow, is
    rejected, as no residual of it would mean anything.
    """
    check_positive("C", C)
    w, b, u = _margins(w, b, problem)
    cls = _classify(u, DEFAULT_TOL)
    lam = np.where(cls == _BAND, -C, 0.0)
    active = np.flatnonzero(cls == _LOWER_KINK)
    rhs = np.concatenate((-w, [0.0])) - problem.B.T @ lam
    if active.size:
        sol, *_ = np.linalg.lstsq(problem.B.T[:, active], rhs, rcond=None)
        lam[active] = sol
    r_grad, r_y, _ = _point_residuals(problem, w, b, u, lam)
    return lam, max(r_grad, r_y)


def admissible_steps(point: PrimalDualPoint, C: float) -> float:
    """The admissible prox steps: every gamma > 0 with
    u_i in prox_gamma(u_i - gamma*lambda_i) for all i.

    The set is Gamma = (0, gamma_max]; this returns gamma_max, 0.0 when
    Gamma is empty and inf when every step works.  lambda is taken to have
    the KKT structure (check_kkt); for any other lambda no step works, as
    every P-stationary point is a KKT point.  Per margin class, at
    tolerance DEFAULT_TOL, the prox closed form admits, ties included:

    * below 0 (lambda_i = 0): every step;
    * lower kink, lambda_i in [-C, 0]: gamma <= 2C/lambda_i^2, which is
      never below 2/C;
    * band (0, 1), lambda_i = -C: gamma <= 2(1 - u_i)/C, below 2/C;
    * upper kink: no step;
    * beyond 1 (lambda_i = 0): gamma <= 2(u_i - 1)/C, below 2/C, for
      u_i < 2; from u_i = 2 on, gamma <= u_i^2/(2C).

    So Gamma = (0, gamma_shift] U [2/C, gamma_thr] for the two prox regimes,
    and a sample whose bound falls below 2/C admits no step from 2/C on:
    the union is one interval.
    """
    check_positive("C", C)
    u, lam = point.u, point.lam
    cls = _classify(u, DEFAULT_TOL)
    with np.errstate(divide="ignore", over="ignore"):
        kink = 2.0 * C / (lam * lam)
        band = 2.0 * (1.0 - u) / C
        beyond = np.where(u < 2.0, 2.0 * (u - 1.0) / C, u * u / (2.0 * C))
    bound = np.choose(cls, (np.inf, kink, band, 0.0, beyond))
    return float(bound.min(initial=np.inf))


def certify_point(
    point: PrimalDualPoint, problem: ProblemData, C: float
) -> tuple[Certificate, KKTCheck, float]:
    """The one verdict rule, decided at DEFAULT_TOL.

    P_STATIONARY when the KKT system holds, the admissible set
    Gamma = (0, gamma_max] is nonempty, and the residuals pass at
    gamma* in Gamma: 2/C, the step of the margin geometry, when Gamma
    holds it, else gamma_max/2, off the tie bound.  Otherwise KKT_ONLY if
    the KKT system holds, else NEITHER.

    Returns the certificate at gamma* (at 2/C when Gamma is empty) carrying
    that verdict, the KKT check, and gamma_max.  The point's residuals are
    computed once: the certificate and the KKT check share r_grad, r_y and
    r_feas.
    """
    gamma_max = admissible_steps(point, C)
    _check_dims(point, problem)
    gamma = gamma_max / 2.0 if 0.0 < gamma_max < 2.0 / C else 2.0 / C
    r = _point_residuals(
        problem, point.w, point.b, point.u, point.lam, ProxParams(gamma, C)
    )
    kkt = _kkt_check(point, C, DEFAULT_TOL, *r[:3])
    if kkt.passed and gamma_max > 0.0 and max(r) <= DEFAULT_TOL:
        verdict = Verdict.P_STATIONARY
    elif kkt.passed:
        verdict = Verdict.KKT_ONLY
    else:
        verdict = Verdict.NEITHER
    return Certificate(*r, gamma, verdict), kkt, gamma_max


def grade(
    w, b, problem: ProblemData, C: float, lam=None
) -> tuple[Certificate, KKTCheck, float, PrimalDualPoint]:
    """The one route from a primal point to a verdict: certify_point on
    (w, b, u, lambda) at DEFAULT_TOL, with u from the feasibility constraint
    and lambda as given, or else recover_multiplier's; returns certify_point's
    triple and the point.  The admissible steps are exact, so a KKT point
    that fails is not failed by the choice of a step: no step is admissible,
    or the residuals miss DEFAULT_TOL at gamma*, inside the admissible set.
    """
    w, b, u = _margins(w, b, problem)
    if lam is None:
        lam, _ = recover_multiplier(w, b, problem, C)
    point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
    return (*certify_point(point, problem, C), point)
