"""Certification of candidate solutions.

A candidate (w, b, u, lambda) is proximal-stationary (P-stationary) at step
gamma when four residuals vanish:

    r_grad = ||w + A^T lambda||_inf          gradient condition
    r_y    = |<y, lambda>|                   multiplier/label orthogonality
    r_feas = ||u + A w + b y - 1||_inf       primal feasibility
    r_prox = max_i dist(u_i, prox(u_i - gamma*lambda_i))   fixed-point inclusion

The weaker KKT condition replaces the prox inclusion with a subdifferential
inclusion: -lambda_i/C must lie in the ramp subdifferential at u_i.  Every
P-stationary point is a KKT point; the converse fails, and the shipped
three-point counterexample fixture demonstrates it.

Points carrying only (w, b) are graded by taking u from the feasibility
constraint and lambda from region-structured recovery (recover_multiplier):
the margins fix lambda_i off the margin hyperplanes, and least squares
solves only for the on-margin components.  certify_point derives the one
verdict every caller reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import ProblemData
# prox_scalar is not called here; it stays a module attribute because
# bench/tracing.py counts prox_scalar calls by wrapping it in this module.
from .prox import ProxParams, prox_distance, prox_scalar  # noqa: F401

__all__ = [
    "Verdict",
    "PrimalDualPoint",
    "Certificate",
    "KKTCheck",
    "check_pstationary",
    "check_kkt",
    "certify_point",
    "recover_multiplier",
    "default_gamma_grid",
    "grade_point",
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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_dims(point: PrimalDualPoint, problem: ProblemData) -> None:
    if point.w.shape != (problem.n,):
        raise ValueError(
            f"w has shape {point.w.shape}, expected ({problem.n},)"
        )
    if point.u.shape != (problem.m,):
        raise ValueError(
            f"u has shape {point.u.shape}, expected ({problem.m},)"
        )


def _shared_residuals(
    point: PrimalDualPoint, problem: ProblemData
) -> tuple[float, float, float]:
    A, y = problem.A, problem.y
    r_grad = float(np.max(np.abs(point.w + A.T @ point.lam)))
    r_y = abs(float(y @ point.lam))
    r_feas = float(np.max(np.abs(point.u + A @ point.w + point.b * y - 1.0)))
    return r_grad, r_y, r_feas


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
    _check_tol(tol)
    _check_dims(point, problem)
    params = ProxParams(gamma, C)
    r_grad, r_y, r_feas = _shared_residuals(point, problem)
    s = point.u - gamma * point.lam
    r_prox = float(np.max(prox_distance(point.u, s, params)))
    verdict = (
        Verdict.P_STATIONARY
        if max(r_grad, r_y, r_feas, r_prox) <= tol
        else Verdict.NEITHER
    )
    return Certificate(r_grad, r_y, r_feas, r_prox, gamma, verdict)


def check_kkt(
    point: PrimalDualPoint,
    problem: ProblemData,
    C: float,
    tol: float = DEFAULT_TOL,
) -> KKTCheck:
    """Check the KKT system: lines 1-3 plus -lambda_i/C in the ramp
    subdifferential at u_i, expressed as an interval distance."""
    _check_tol(tol)
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")
    _check_dims(point, problem)
    r_grad, r_y, r_feas = _shared_residuals(point, problem)
    # Admissible [lo, hi] for lambda_i: u_i within tol of 0 or 1 counts as
    # on the breakpoint, where all of [-C, 0] is admissible; strictly inside
    # (0, 1) forces exactly -C; outside [0, 1] forces exactly 0.
    u, lam = point.u, point.lam
    kink = (np.abs(u) <= tol) | (np.abs(u - 1.0) <= tol)
    band = ~kink & (u > 0.0) & (u < 1.0)
    lo = np.where(kink | band, -C, 0.0)
    hi = np.where(band, -C, 0.0)
    r_mult = float(np.maximum(lo - lam, lam - hi).max(initial=0.0))
    passed = max(r_grad, r_y, r_feas, r_mult) <= tol
    return KKTCheck(passed, r_grad, r_y, r_feas, r_mult)


def recover_multiplier(
    w,
    b: float,
    problem: ProblemData,
    C: float,
    region_tol: float = 1e-3,
) -> tuple[np.ndarray, float]:
    """Region-structured multiplier recovery from a primal point.

    The plain least-squares system B^T lambda = (-w; 0) is underdetermined
    for m > n+1, and its minimum-norm solution spreads weight onto samples
    whose stationarity structure forces lambda_i = 0; such a lambda rarely
    certifies anything.  This recovery first fixes the components that the
    margins u = 1 - Aw - by determine: lambda_i = 0 where u_i is outside
    [0, 1] (beyond region_tol), lambda_i = -C strictly inside the band
    (0, 1), and only the on-margin components (|u_i| <= region_tol) are
    left free.  Those are solved by least squares on the remaining system,
    which is generically square or overdetermined.

    Returns (lambda, residual) with the infinity-norm residual of
    B^T lambda - (-w; 0); a large residual means no multiplier with this
    structure makes w stationary.
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")
    if region_tol <= 0:
        raise ValueError("region_tol must be positive")
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.n,):
        raise ValueError(f"w has shape {w.shape}, expected ({problem.n},)")
    u = 1.0 - problem.A @ w - float(b) * problem.y
    lam = np.zeros(problem.m)
    lam[(u > region_tol) & (u < 1.0 - region_tol)] = -C
    active = np.flatnonzero(np.abs(u) <= region_tol)
    rhs = np.concatenate((-w, [0.0])) - problem.B.T @ lam
    if active.size:
        sol, *_ = np.linalg.lstsq(problem.B.T[:, active], rhs, rcond=None)
        lam[active] = sol
    resid = float(
        np.max(np.abs(problem.B.T @ lam - np.concatenate((-w, [0.0]))))
    )
    return lam, resid


def default_gamma_grid(problem: ProblemData, C: float) -> list[float]:
    """Prox steps probed by grade_point: 0.5/lambda_h when available (the
    regime where stationarity is necessary at global minimizers), plus 2/C
    and 4/C to cover both prox regimes."""
    grid = []
    if problem.lambda_h is not None and problem.lambda_h > 0:
        grid.append(0.5 / problem.lambda_h)
    grid.extend([2.0 / C, 4.0 / C])
    return grid


def certify_point(
    point: PrimalDualPoint,
    problem: ProblemData,
    C: float,
    gammas,
    tol: float = DEFAULT_TOL,
) -> tuple[list[Certificate], KKTCheck, Verdict]:
    """Certify a candidate at every prox step in gammas and check KKT.

    Returns the per-gamma certificates, the KKT check and the verdict:
    P_STATIONARY if any gamma passes, else KKT_ONLY if the KKT system
    holds, else NEITHER.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gamma list must be nonempty")
    certs = [check_pstationary(point, problem, C, g, tol) for g in gammas]
    kkt = check_kkt(point, problem, C, tol)
    if any(c.verdict is Verdict.P_STATIONARY for c in certs):
        verdict = Verdict.P_STATIONARY
    elif kkt.passed:
        verdict = Verdict.KKT_ONLY
    else:
        verdict = Verdict.NEITHER
    return certs, kkt, verdict


def grade_point(
    w,
    b: float,
    problem: ProblemData,
    C: float,
    gamma_list=None,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Grade a primal point with the verdict of certify_point.

    u comes from the feasibility constraint and lambda from
    recover_multiplier.  The returned certificate carries the first passing
    gamma, or the gamma with the smallest worst residual when nothing
    passes.  A non-passing verdict only says "not P-stationary at the
    probed steps"; it is not a proof that no step works.
    """
    lam, _ = recover_multiplier(w, b, problem, C)
    w = np.asarray(w, dtype=float)
    u = 1.0 - problem.A @ w - float(b) * problem.y
    point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
    if gamma_list is None:
        gamma_list = default_gamma_grid(problem, C)
    certs, _, verdict = certify_point(point, problem, C, gamma_list, tol)
    if verdict is Verdict.P_STATIONARY:
        return next(c for c in certs if c.verdict is verdict)
    return replace(min(certs, key=lambda c: c.max_residual), verdict=verdict)
