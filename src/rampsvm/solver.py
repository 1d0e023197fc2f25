"""Training by proximal alternating directions, plus a tiny-instance
global oracle and a predictor.

The trainer splits the objective through the constraint u + Aw + by = 1 and
cycles three exact updates with a constant penalty sigma:

    u      componentwise ramp prox at step gamma = 1/sigma
    (w, b) one product with the (n+1) x m gain matrix K = -sigma M^{-1} B^T,
           built before the loop from one factorization of the SPD M
    lambda gradient ascent on the constraint residual

The problem is nonconvex, so no convergence guarantee is claimed.  Instead
every iterate is screened with the P-stationarity residuals, computed from
the arrays the iteration already holds, and the solver only reports
CONVERGED when check_pstationary confirms that they drop below tol;
MAX_ITER / DIVERGED are first-class outcomes.  The iterations run one at a
time, while the screen runs once per block of up to 64 of them, on arrays
that hold one iterate per row; the result is bit for bit the one a screen
after every iteration gives.  The state (B z, lambda) fixes every later
iteration, so a run stops at the first bit-for-bit repeat of it that
Brent's cycle detection sees, with the MAX_ITER result its full budget
would give.  Each iteration writes its vectors in place and makes one
finiteness test, on lambda: a non-finite s, u or z carries on into lambda
in the same iteration, so that one test flags the iterations that tests
of all of them would.

The global oracle is exact over a (w, b) box for n <= 2: it enumerates the
O(C(2m + 2d, d)) vertices of the arrangement of kink planes and box facets,
d = n + 1, and the faces through them.  It exists as an independent
reference for testing stationarity claims at true minimizers, not as a
practical trainer.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._checks import check_positive
from .certify import Certificate, PrimalDualPoint, Verdict, check_pstationary
from .losses import objective
from .problem import ProblemData, spd_solver
# prox_scalar is not called here; it stays a module attribute because
# bench/tracing.py counts prox_scalar calls by wrapping it in this module.
from .prox import ProxParams, _prox_primary, prox_distance, prox_scalar  # noqa: F401

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
        check_positive("C", self.C)
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.C / 2.0)
        check_positive("sigma", self.sigma)
        check_positive("tol", self.tol)
        if isinstance(self.max_iter, bool) or not isinstance(
            self.max_iter, numbers.Integral
        ):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
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


# A screen block holds at most _BLOCK_ROWS iterations and _BLOCK_SIZE
# sample-iterations.  64 rows spread the screen's fixed per-call cost
# thinly at small m.  The size cap keeps each block array at 32 KiB, and
# bounds the work done past a converging iteration to one block; from
# m = 4097 up a block is one iteration.  Neither changes any result.
_BLOCK_ROWS = 64
_BLOCK_SIZE = 4096


def train_admm(problem: ProblemData, config: SolverConfig) -> SolveResult:
    """Run the alternating scheme until the stationarity residuals pass tol.

    The (w, b) system is factored once, before the loop, into the gain
    matrix K = -sigma M^{-1} B^T.  The iterations run one at a time in
    blocks of up to 64, each keeping its iterate in a row of the block's
    arrays.  The screen then takes the residuals of check_pstationary for
    the whole block, computed from those rows, and applies the rules below
    to the rows in iteration order, so the result is bit for bit that of a
    screen after every iteration.  Only an iterate that passes the screen
    goes to check_pstationary.  CONVERGED is returned only when that call
    agrees, so CONVERGED results always carry a P_STATIONARY certificate at
    the configured tolerance and prox step 1/sigma.  MAX_ITER results carry
    the iterate with the smallest screened max residual (the earliest on
    ties), certified once by check_pstationary, with its iteration in
    diagnostics["best_iteration"].  The screen stops at the first residual
    that already rules an iterate out, r_feas first, judged against the
    best iterate at the block's start.  A run whose state (B z, lambda)
    repeats byte for byte only replays iterates it has screened, so it
    stops at the first repeat that Brent's cycle detection sees and returns
    what the full budget would: the same MAX_ITER result, iterations =
    max_iter, plus the minimal period of the cycle in
    diagnostics["cycle_period"].  A failed SPD factorization or a
    non-finite iterate yields DIVERGED with the trigger recorded in
    diagnostics, once the iterates before it have been screened.  Only
    lambda is tested for finiteness, and that flags the same iteration as
    testing s, z and lambda: a non-finite prox input s gives a non-finite
    u in both prox regimes, a non-finite z makes every entry of B z
    non-finite, as B's last column holds the labels, and either makes the
    feasibility residual, and so lambda, non-finite.
    """
    B = problem.B
    m, n = problem.m, problem.n
    sigma, C, gamma, tol = config.sigma, config.C, config.gamma, config.tol
    params = ProxParams(gamma, C)

    # (w,b)-update matrix blockdiag(I_n, 0) + sigma * B^T B; SPD for any data.
    # Overflow for absurd sigma is tolerated here and surfaces as DIVERGED.
    with np.errstate(over="ignore"):
        M = sigma * (B.T @ B)
    M[np.arange(n), np.arange(n)] += 1.0

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
        cert = check_pstationary(point, problem, C, gamma, tol)
        return result(
            SolveStatus.DIVERGED, point, cert, iters, {"reason": reason}
        )

    # Gain matrix: the (w,b) minimizer for the shifted residual r is K @ r.
    try:
        K = -sigma * spd_solver(M)(B.T)
    except np.linalg.LinAlgError as exc:
        return diverged(str(exc), 0)

    max_iter = config.max_iter
    Bz = np.zeros(m)  # B @ (w; b) of the current iterate
    lam = np.zeros(m)
    best_worst, best = math.inf, None  # best iterate: (iteration, z, u, lam)
    # The state (B z, lam) fixes every later iteration.  Brent's cycle
    # detection keeps the bytes of one earlier state, saved at iterations
    # 1, 2, 4, 8, ..., and stops at the first state equal to it.
    saved_it, saved_lam, saved_Bz = 0, None, None
    cycle = {}
    # Iteration i of a block writes u, the feasibility residual, lam and z
    # into row i of U, F, L and Z, and its other vectors into lam_s (lam /
    # sigma), s (the prox input), rhs (the (w,b) right-hand side) and step
    # (the lam step).
    rows = min(_BLOCK_ROWS, max(1, _BLOCK_SIZE // m), max_iter)
    U, F, L = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, m))
    Z = np.empty((rows, n + 1))
    lam_s, s, rhs, step = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    it, stop = 0, None
    while it < max_iter and not cycle:
        # Core phase: the iterations themselves, one at a time.  A
        # non-finite iterate runs on until its lam is tested, so the
        # arithmetic on it overflows or meets inf - inf silently.
        start, k = it, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while k < rows and it < max_iter:
                it += 1
                np.divide(lam, sigma, out=lam_s)
                np.subtract(1.0, Bz, out=s)
                s -= lam_s
                u = _prox_primary(s, params, out=U[k])
                np.subtract(u, 1.0, out=rhs)
                rhs += lam_s
                z = np.matmul(K, rhs, out=Z[k])
                np.matmul(B, z, out=Bz)
                feas = np.add(u, Bz, out=F[k])
                feas -= 1.0
                np.multiply(feas, sigma, out=step)
                # From m = 4097 up L[k] is also the old lam, read in place.
                lam = np.add(lam, step, out=L[k])
                # The one finiteness test (the docstring says why it is
                # enough).  lam @ lam is finite only if lam is, but a large
                # finite lam can overflow it; then the entries decide.
                if not math.isfinite(lam @ lam) and not np.isfinite(lam).all():
                    stop = f"non-finite iterate at iteration {it}"
                    break
                k += 1
                # A repeated state replays iterations already screened:
                # none of them can converge, and under the strict < none
                # replaces the best iterate, so the run ends as the full
                # budget would.
                lam_bytes = lam.tobytes()
                if lam_bytes == saved_lam and Bz.tobytes() == saved_Bz:
                    cycle = {"cycle_period": it - saved_it}
                    break
                if it & (it - 1) == 0:
                    saved_it, saved_lam, saved_Bz = it, lam_bytes, Bz.tobytes()
        # Screen phase: the residuals of check_pstationary for the block's
        # k rows, each computed only for the rows that can still pass tol
        # or beat the best iterate as it stood at the block's start.  The
        # best only improves during the block, so these rows include every
        # row the per-iteration rules below look at.  r_feas comes from the
        # feasibility residual, r_grad and r_y from g = B^T lam + (w; 0),
        # whose first n entries and last entry hold them, then r_prox from
        # prox_distance on the rows left, as check_pstationary takes it.  g
        # takes one matrix-vector product per row, as a single iteration
        # does, because a matrix-matrix product may sum in another order.
        r_feas = np.abs(F[:k]).max(axis=1)
        rows_g = np.flatnonzero((r_feas <= tol) | (r_feas < best_worst))
        G = np.empty((rows_g.size, n + 1))
        for i, j in enumerate(rows_g):
            np.matmul(B.T, L[j], out=G[i])
        G[:, :n] += Z[rows_g, :n]
        worst_g = np.maximum(np.abs(G).max(axis=1), r_feas[rows_g])
        near = (worst_g <= tol) | (worst_g < best_worst)
        rows_p = rows_g[near]
        u_p = U[rows_p]
        r_prox = prox_distance(u_p, u_p - gamma * L[rows_p], params).max(axis=1)
        # The per-iteration rules, in iteration order.
        best_row = None
        for j, worst, r in zip(
            rows_p.tolist(), worst_g[near].tolist(), r_prox.tolist()
        ):
            if not (worst <= tol or worst < best_worst):
                continue
            worst = max(worst, r)
            if worst <= tol:
                point = PrimalDualPoint(w=Z[j, :n], b=Z[j, n], u=U[j], lam=L[j])
                cert = check_pstationary(point, problem, C, gamma, tol)
                if cert.verdict is Verdict.P_STATIONARY:
                    return result(
                        SolveStatus.CONVERGED, point, cert, start + j + 1, {}
                    )
            if worst < best_worst:
                best_worst, best_row = worst, j
        if best_row is not None:
            best = (
                start + best_row + 1,
                Z[best_row].copy(),
                U[best_row].copy(),
                L[best_row].copy(),
            )
        if stop is not None:
            return diverged(stop, it)
    best_it, z, u, lam = best
    point = PrimalDualPoint(w=z[:n], b=z[n], u=u, lam=lam)
    cert = check_pstationary(point, problem, C, gamma, tol)
    return result(
        SolveStatus.MAX_ITER,
        point,
        cert,
        max_iter,
        {"max_residual": cert.max_residual, "best_iteration": best_it, **cycle},
    )


# Relative size below which a determinant or projection counts as zero:
# dependent normals, a flat free along b, a direction lying in a plane.
_SINGULAR = 1e-12


def _faces(NP):
    """Faces through vertices v whose active planes have the unit normals NP.

    Yields direction rows U per vertex and face; the face's flat is
    v + U^T alpha, and an active plane is crossed on the side of the first
    row not in it.  Each line where d - 1 active planes meet gives its two
    edges, U = (+-t).  For d = 3, each of the two planes also gives the four
    faces in it next to those edges, U = (+-t, +-s), s normal to the line.
    Every 2-D face has an edge, so O(k^2) choices for k planes reach all.
    """
    k, d = NP.shape[1:]
    E = NP[:, np.array(list(combinations(range(k), d - 1)), dtype=int)]
    cofactors = [(-1) ** i * np.linalg.det(np.delete(E, i, axis=3)) for i in range(d)]
    t = np.stack(cofactors, axis=-1)
    yield np.concatenate((t, -t), axis=1)[:, :, None, :]
    if d == 3:
        o = E[:, :, ::-1]
        s = (o - np.sum(o * E, axis=3, keepdims=True) * E).reshape(len(E), -1, d)
        t = np.repeat(t, 2, axis=1)
        t = np.concatenate((t, t, -t, -t), axis=1)
        yield np.stack((t, np.concatenate((s, -s, s, -s), axis=1)), axis=2)


def _candidates(T, N, r, box, C, B) -> np.ndarray:
    """Candidate minimizers from the vertices that the d-subsets T cut out.

    Every in-box vertex is one, and so is the minimizer of 1/2 |w|^2 + g^T z
    on the flat of every face through it, with g = -C sum B_i over the
    samples inside the band on that face; these get clipped into the box.
    Flats free along b are skipped: their minimum is also on a lower face.
    """
    m, d = B.shape
    T = T[np.abs(np.linalg.det(N[T])) > _SINGULAR]
    V = np.linalg.solve(N[T], r[T][..., None])[..., 0]
    # Vertices on the box may stray out of it by rounding; they get clipped.
    slack = 1e-10 * (1.0 + np.abs(box).max())
    V = V[np.all((V >= box[:, 0] - slack) & (V <= box[:, 1] + slack), axis=1)]
    # A plane within this residual counts as active, which only adds faces.
    size = 1.0 + np.abs(V).max(axis=1, keepdims=True)
    active = np.abs(V @ N.T - r) <= 1e-9 * size
    # Its active planes fix a vertex; several subsets cut out a degenerate one.
    first = np.sort(np.unique(active, axis=0, return_index=True)[1])
    V, active = V[first], active[first]
    u = 1.0 - V @ B.T
    inside = (u > 0.0) & (u < 1.0) & ~(active[:, :m] | active[:, m : 2 * m])
    g_vertex = -C * (inside @ B)
    S = np.vstack((B, B, np.zeros((2 * d, d))))  # B_i of each kink plane
    found = [V]
    counts = active.sum(axis=1)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        P = np.nonzero(active[rows])[1].reshape(rows.size, k)
        for U in _faces(N[P]):
            proj = U @ N[P][:, None].swapaxes(2, 3)
            tol = _SINGULAR * np.linalg.norm(U, axis=3, keepdims=True)
            proj[np.abs(proj) <= tol] = 0.0
            # Each active plane is crossed along the first row of U not in it.
            cross = np.where(proj[:, :, 0] == 0.0, proj[:, :, -1], proj[:, :, 0])
            band = (cross > 0.0) & (P < 2 * m)[:, None, :]
            g = g_vertex[rows, None, :] - C * (band @ S[P])
            # Minimize over alpha: (Uw Uw^T) alpha = -(Uw w_v + U g).
            Uw = U[..., :-1]
            A = Uw @ Uw.swapaxes(2, 3)
            rhs = -(Uw @ V[rows, None, :-1, None] + U @ g[..., None])
            ok = np.linalg.det(A) > _SINGULAR * np.linalg.det(U @ U.swapaxes(2, 3))
            step = np.linalg.solve(A[ok], rhs[ok]).swapaxes(1, 2) @ U[ok]
            found.append(np.broadcast_to(V[rows, None], g.shape)[ok] + step[:, 0])
    return np.clip(np.concatenate(found), box[:, 0], box[:, 1])


def global_oracle(
    problem: ProblemData, C: float, bounds
) -> tuple[np.ndarray, float, float]:
    """Exact global minimum of the objective over a (w, b) box, n <= 2 only.

    In z = (w, b), d = n + 1, the objective is smooth on each cell of the
    arrangement of the 2m kink planes B_i z = 1 and B_i z = 0.  With the 2d
    box facets added as planes, every face in the box has a vertex, where d
    planes with independent normals meet.  A minimizer minimizes its face's
    quadratic over the face's flat, or lies on a lower face as well.  So
    the oracle visits the O(C(2m + 2d, d)) vertices, minimizes over the flat
    of every face through each one, and keeps the first best candidate in a
    fixed order, so repeated calls agree bit for bit.  bounds holds one
    (lo, hi) pair per coordinate, or one pair for all.  Returns (w, b,
    value) with value = objective(w, b).
    """
    n = problem.n
    if n > 2:
        raise ValueError(f"global oracle is limited to n <= 2, got n = {n}")
    check_positive("C", C)
    d = n + 1
    box = np.array(bounds, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (d, 1))
    if box.shape != (d, 2):
        raise ValueError(f"bounds need {d} (lo, hi) pairs, got shape {box.shape}")
    if not np.all(np.isfinite(box)):
        raise ValueError(f"bounds must be finite, got {box.tolist()}")
    if not np.all(box[:, 0] < box[:, 1]):
        raise ValueError(f"bounds has an empty axis: {box.tolist()}")
    B, m = problem.B, problem.m
    # Kink normals point to the band side: u_i > 0 is -B_i z > -1, and
    # u_i < 1 is B_i z > 0.
    N = np.vstack((-B, B, np.eye(d), np.eye(d)))
    norms = np.linalg.norm(N, axis=1)
    r = np.concatenate((-np.ones(m), np.zeros(m), box[:, 0], box[:, 1])) / norms
    N /= norms[:, None]
    T = np.array(list(combinations(range(len(r)), d)))
    Z = _candidates(T, N, r, box, C, B)
    u = np.clip(1.0 - Z @ B.T, 0.0, 1.0)
    best = Z[np.argmin(0.5 * np.sum(Z[:, :n] ** 2, axis=1) + C * u.sum(axis=1))]
    w, b = best[:n].copy(), float(best[n])
    return w, b, float(objective(w, b, problem.dataset, C))


def predict(w, b: float, x) -> int:
    """Classify x by the sign of <w, x> + b, with sign(0) taken as +1."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape}, expected {w.shape}")
    return 1 if float(w @ x) + float(b) >= 0.0 else -1
