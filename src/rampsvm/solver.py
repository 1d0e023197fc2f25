"""Training by proximal alternating directions, plus a tiny-instance
global oracle and a predictor.

The trainer splits the objective through the constraint u + Aw + by = 1 and
cycles three exact updates with a constant penalty sigma:

    u      componentwise ramp prox at step gamma = 1/sigma
    (w, b) one SPD solve (matrix assembled and factored once)
    lambda gradient ascent on the constraint residual

The problem is nonconvex, so no convergence guarantee is claimed.  Instead
every iterate is certified: the solver only reports CONVERGED when the
P-stationarity residuals actually drop below tol, and MAX_ITER / DIVERGED
are first-class outcomes.

The global oracle is a brute-force multilevel grid search over (w, b),
restricted to n <= 2 where exhaustive search is honest.  It exists as an
independent reference for testing stationarity claims at true minimizers,
not as a practical trainer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .certify import Certificate, PrimalDualPoint, Verdict, check_pstationary
from .losses import objective
from .problem import ProblemData, spd_solver
# prox_scalar is not called here; it stays a module attribute because
# bench/tracing.py counts prox_scalar calls by wrapping it in this module.
from .prox import ProxParams, prox_array, prox_scalar  # noqa: F401

__all__ = [
    "SolverConfig",
    "SolveStatus",
    "SolveResult",
    "train_admm",
    "global_oracle",
    "predict",
]


@dataclass(frozen=True)
class SolverConfig:
    """Trainer knobs.

    sigma defaults to C/2 so that gamma*C = 2, the regime in which support
    vectors of certified solutions sit exactly on the margin hyperplanes.
    Override sigma to probe other regimes.
    """

    C: float
    sigma: float | None = None
    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be finite and positive, got {self.C}")
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.C / 2.0)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @property
    def gamma(self) -> float:
        """Prox step implied by the penalty: gamma = 1/sigma."""
        return 1.0 / self.sigma


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolveResult:
    point: PrimalDualPoint
    certificate: Certificate
    iterations: int
    objective: float
    status: SolveStatus
    diagnostics: dict = field(default_factory=dict)


def train_admm(problem: ProblemData, config: SolverConfig) -> SolveResult:
    """Run the alternating scheme until the stationarity residuals pass tol.

    CONVERGED results always carry a P_STATIONARY certificate at the
    configured tolerance and prox step 1/sigma.  MAX_ITER results carry the
    iterate with the smallest max_residual (the earliest on ties), with its
    iteration in diagnostics["best_iteration"].  A failed SPD factorization
    or a non-finite iterate yields DIVERGED with the trigger recorded in
    diagnostics.
    """
    A, y, B = problem.A, problem.y, problem.B
    m, n = problem.m, problem.n
    sigma, C, gamma = config.sigma, config.C, config.gamma
    params = ProxParams(gamma, C)

    # (w,b)-update matrix blockdiag(I_n, 0) + sigma * B^T B; SPD for any data.
    # Overflow for absurd sigma is tolerated here and surfaces as DIVERGED.
    with np.errstate(over="ignore"):
        M = sigma * (B.T @ B)
    M[np.arange(n), np.arange(n)] += 1.0

    w = np.zeros(n)
    b = 0.0
    u = np.ones(m)
    lam = np.zeros(m)

    def result(status, point, cert, iters, diag):
        return SolveResult(
            point=point,
            certificate=cert,
            iterations=iters,
            objective=objective(point.w, point.b, problem.dataset, C),
            status=status,
            diagnostics={"sigma": sigma, "gamma": gamma, **diag},
        )

    def diverged(reason, iters):
        point = PrimalDualPoint(
            w=np.zeros(n), b=0.0, u=np.ones(m), lam=np.zeros(m)
        )
        cert = check_pstationary(point, problem, C, gamma, config.tol)
        return result(
            SolveStatus.DIVERGED, point, cert, iters, {"reason": reason}
        )

    try:
        solve = spd_solver(M)
    except np.linalg.LinAlgError as exc:
        return diverged(str(exc), 0)

    best = None  # (point, certificate, iteration) with the least max_residual
    for it in range(1, config.max_iter + 1):
        s = 1.0 - A @ w - b * y - lam / sigma
        if not np.all(np.isfinite(s)):
            return diverged(f"non-finite iterate at iteration {it}", it)
        u = prox_array(s, params)[0]
        r = u - 1.0 + lam / sigma
        wb = solve(-sigma * (B.T @ r))
        w, b = wb[:n], float(wb[n])
        lam = lam + sigma * (u + A @ w + b * y - 1.0)
        if not (np.all(np.isfinite(wb)) and np.all(np.isfinite(lam))):
            return diverged(f"non-finite iterate at iteration {it}", it)
        point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
        cert = check_pstationary(point, problem, C, gamma, config.tol)
        if cert.verdict is Verdict.P_STATIONARY:
            return result(SolveStatus.CONVERGED, point, cert, it, {})
        if best is None or cert.max_residual < best[1].max_residual:
            best = (point, cert, it)
    point, cert, best_it = best
    return result(
        SolveStatus.MAX_ITER,
        point,
        cert,
        config.max_iter,
        {"max_residual": cert.max_residual, "best_iteration": best_it},
    )


def _normalize_bounds(bounds, dim: int) -> list[tuple[float, float]]:
    bounds = list(bounds)
    if len(bounds) == 2 and all(np.isscalar(v) for v in bounds):
        bounds = [tuple(bounds)] * dim
    if len(bounds) != dim:
        raise ValueError(f"need {dim} (lo, hi) pairs, got {len(bounds)}")
    out = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        if not (lo < hi):
            raise ValueError(f"empty box axis ({lo}, {hi})")
        out.append((lo, hi))
    return out


def _grid_min(axes, A, y, C, chunk=200_000):
    """Best (w..., b) over the cartesian grid, evaluated in chunks."""
    sizes = [len(ax) for ax in axes]
    total = int(np.prod(sizes))
    n = len(axes) - 1
    best_val = math.inf
    best_pt = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.unravel_index(idx, sizes)
        P = np.stack([axes[d][coords[d]] for d in range(len(axes))], axis=1)
        W, bb = P[:, :n], P[:, n]
        U = 1.0 - W @ A.T - bb[:, None] * y[None, :]
        vals = 0.5 * np.einsum("ij,ij->i", W, W) + C * np.clip(U, 0.0, 1.0).sum(
            axis=1
        )
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_pt = P[k].copy()
    return best_pt, best_val


def _polish(problem: ProblemData, C: float, w, b: float, box, tol: float):
    """Active-set refinement of a grid incumbent; None when not applicable.

    Grid refinement resolves which margins are pinned at the kinks long
    before it resolves the position along a kink valley, so the incumbent
    can stagnate a few coarse cells away from the basin minimum.  This
    step reads the margin pattern off the incumbent (u_i within tol of 0,
    of 1, or strictly inside the band), solves the stationarity system of
    that pattern exactly, and proposes the solution.  The caller keeps it
    only if it is inside the box and at least as good.
    """
    A, y = problem.A, problem.y
    u = 1.0 - A @ np.asarray(w, dtype=float) - float(b) * y
    zero = [i for i, v in enumerate(u) if abs(v) <= tol]
    one = [i for i, v in enumerate(u) if abs(v - 1.0) <= tol]
    band = [i for i, v in enumerate(u) if tol < v < 1.0 - tol]
    free = zero + one
    w_fixed = C * A[band].sum(axis=0) if band else np.zeros(problem.n)
    if not free:
        return np.concatenate((w_fixed, [float(b)]))
    k = len(free)
    M = np.empty((k + 1, k + 1))
    rhs = np.empty(k + 1)
    M[:k, :k] = A[free] @ A[free].T
    M[:k, k] = -y[free]
    M[k, :k] = y[free]
    M[k, k] = 0.0
    targets = np.array([0.0] * len(zero) + [1.0] * len(one))
    rhs[:k] = targets - 1.0 + A[free] @ w_fixed
    rhs[k] = C * float(np.sum(y[band]))
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    if np.max(np.abs(M @ sol - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        return None
    w_new = w_fixed - A[free].T @ sol[:k]
    return np.concatenate((w_new, [sol[k]]))


def global_oracle(
    problem: ProblemData,
    C: float,
    bounds,
    coarse_step: float = 0.1,
    refine_levels: int = 3,
) -> tuple[np.ndarray, float, float]:
    """Exhaustive multilevel grid search for the global minimum, n <= 2 only.

    A coarse pass covers the whole (w, b) box at coarse_step; each of the
    refine_levels rounds then re-grids a span of +-1.5 * previous step
    around the incumbent with a 10x finer step.  A final active-set polish
    solves the incumbent's margin pattern exactly, since pure refinement
    stalls along kink valleys where lattice alignment dominates the
    along-valley gain.  Returns (w, b, value) of the best point visited.
    """
    n = problem.n
    if n > 2:
        raise ValueError(f"global oracle is limited to n <= 2, got n = {n}")
    if C <= 0:
        raise ValueError("C must be positive")
    if coarse_step <= 0:
        raise ValueError("coarse_step must be positive")
    dim = n + 1
    box = _normalize_bounds(bounds, dim)
    A, y = problem.A, problem.y

    step = float(coarse_step)
    axes = [np.arange(lo, hi + 0.5 * step, step) for lo, hi in box]
    best_pt, best_val = _grid_min(axes, A, y, C)
    for _ in range(refine_levels):
        span = 1.5 * step
        step /= 10.0
        offsets = np.arange(-round(span / step), round(span / step) + 1) * step
        axes = [c + offsets for c in best_pt]
        pt, val = _grid_min(axes, A, y, C)
        if val < best_val:
            best_pt, best_val = pt, val
    # Two sweeps over widening margin-detection windows: a margin the grid
    # left just outside one window is pulled within reach of the next once
    # the first accepted polish moves the incumbent onto its kink valley.
    for _ in range(2):
        for tol in (1e-3, 3e-3, 1e-2):
            polished = _polish(problem, C, best_pt[:n], best_pt[n], box, tol)
            if polished is None or not all(
                lo - 1e-9 <= v <= hi + 1e-9 for v, (lo, hi) in zip(polished, box)
            ):
                continue
            val = objective(polished[:n], polished[n], problem.dataset, C)
            if val <= best_val + 1e-12 * (1.0 + abs(best_val)):
                best_pt, best_val = polished, float(val)
    return best_pt[:n].copy(), float(best_pt[n]), best_val


def predict(w, b: float, x) -> int:
    """Classify x by the sign of <w, x> + b, with sign(0) taken as +1."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape}, expected {w.shape}")
    return 1 if float(w @ x) + float(b) >= 0.0 else -1
