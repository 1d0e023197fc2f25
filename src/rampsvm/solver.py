"""Training by proximal alternating directions, plus a tiny-instance
global oracle and a predictor.

The trainer splits the objective through the constraint u + Aw + by = 1 and
cycles three exact updates with a constant penalty sigma:

    u      componentwise ramp prox at step gamma = 1/sigma
    (w, b) one product with the (n+1) x m gain matrix K = -sigma M^{-1} B^T,
           built before the loop from one factorization of the SPD M
    lambda gradient ascent on the constraint residual

train_admm's docstring gives its outcomes and the reasons behind its block
screen, cycle stop, finiteness test and operands.

global_oracle is an exact minimizer over a (w, b) box for n <= 2, a
reference for testing stationarity claims at true minimizers, not a
practical trainer; its docstring gives the derivation.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._checks import check_positive
from .certify import (
    DEFAULT_TOL,
    Certificate,
    PrimalDualPoint,
    check_pstationary,
    residual_rows,
)
from .losses import objective
from .problem import ProblemData, spd_solver
# prox_scalar is not called here; it stays a module attribute because
# bench/tracing.py counts prox_scalar calls by wrapping it in this module.
from .prox import ProxParams, _prox_primary, prox_scalar  # noqa: F401

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
    tol: float = DEFAULT_TOL
    max_iter: int = 10000

    def __post_init__(self) -> None:
        check_positive("C", self.C)
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.C / 2.0)
        check_positive("sigma", self.sigma)
        if not math.isfinite(1.0 / float(self.sigma)):
            raise ValueError(
                f"sigma must be large enough that gamma = 1/sigma is finite, "
                f"got {self.sigma}"
            )
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

    The problem is nonconvex, so no convergence guarantee is claimed; every
    iterate is screened instead.  CONVERGED is returned at the first iterate
    whose largest residual is at most tol.  MAX_ITER results carry the
    iterate with the smallest largest residual (the earliest on ties), with
    its iteration in diagnostics["best_iteration"].  A failed SPD
    factorization or a non-finite iterate yields DIVERGED with the trigger
    recorded in diagnostics, once the iterates before it have been screened.
    Every result carries the certificate of its point from one
    check_pstationary call, at the configured tolerance and prox step
    1/sigma, so a CONVERGED one is P_STATIONARY.

    The (w, b) system is factored once, before the loop, into the gain
    matrix K = -sigma M^{-1} B^T.  Four shortcuts keep every result bit for
    bit that of a screen and a finiteness test after every iteration:

    * Block screen.  The iterations run one at a time in blocks of up to
      64, each keeping its iterate in a row of the block's arrays.  The
      screen then rules out the rows whose r_feas does not beat the best
      iterate as it stood at the block's start (the best only improves
      during a block), takes the residuals of the rest from residual_rows,
      the floats check_pstationary gives for them, and applies the rules
      above to the rows in iteration order.  The run returns at the first
      row within tol, so the best so far is above tol whenever a block is
      screened, and no row that could pass tol is ruled out.
    * Cycle stop.  The state (B z, lambda) fixes every later iteration, so
      a run whose state repeats byte for byte only replays iterates it has
      screened: none can converge, and under the strict < none replaces the
      best.  It stops at the first repeat that Brent's cycle detection sees
      and returns what the full budget would: the same MAX_ITER result,
      iterations = max_iter, plus the minimal period of the cycle in
      diagnostics["cycle_period"].
    * Finiteness.  Only lambda is tested, once per block after its
      iterations, and that flags the same iteration as testing s, z and
      lambda after every iteration: a non-finite prox input s gives a
      non-finite u in both prox regimes, a non-finite z makes every entry
      of B z non-finite, as B's last column holds the labels, and either
      makes the feasibility residual, and so lambda, non-finite.  Once
      non-finite, lambda stays non-finite, so the block's first non-finite
      row is the run's first non-finite iteration: the block is cut before
      it, and the run ends DIVERGED at that iteration.
    * Operands.  Each iteration writes its vectors in place and calls
      ndarray.dot, the BLAS product np.matmul calls, with less overhead per
      call.  sigma and 1.0 go in as 0-d float64 arrays made once per run:
      numpy converts a Python-float operand on every call, and a 0-d
      float64 array rounds the same way for less overhead.
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

    def result(status, point, iters, diag):
        return SolveResult(
            point=point,
            certificate=check_pstationary(point, problem, C, gamma, tol),
            iterations=iters,
            objective=objective(point.w, point.b, problem.dataset, C),
            status=status,
            diagnostics=diag,
        )

    def diverged(reason, iters):
        point = PrimalDualPoint(
            w=np.zeros(n), b=0.0, u=np.ones(m), lam=np.zeros(m)
        )
        return result(SolveStatus.DIVERGED, point, iters, {"reason": reason})

    # Gain matrix: the (w,b) minimizer for the shifted residual r is K @ r.
    try:
        K = -sigma * spd_solver(M)(B.T)
    except np.linalg.LinAlgError as exc:
        return diverged(str(exc), 0)

    max_iter = config.max_iter
    Bz = np.zeros(m)  # B @ (w; b) of the current iterate
    lam = np.zeros(m)
    best_worst, best = math.inf, None  # best iterate: (iteration, point)
    # Brent's cycle detection keeps the bytes of one earlier state (B z,
    # lam), saved at iterations 1, 2, 4, 8, ..., and stops at the first
    # state equal to it.
    saved_it, saved_lam, saved_Bz = 0, None, None
    cycle = {}
    # Iteration i of a block writes u, the feasibility residual, lam and z
    # into row i of U, F, L and Z, through row views made once per run, and
    # its other vectors into lam_s (lam / sigma), s (the prox input), rhs
    # (the (w,b) right-hand side) and step (the lam step).
    rows = min(_BLOCK_ROWS, max(1, _BLOCK_SIZE // m), max_iter)
    U, F, L = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, m))
    Z = np.empty((rows, n + 1))
    U_row, F_row, L_row, Z_row = list(U), list(F), list(L), list(Z)

    def row(j):  # a copy of the iterate in row j
        return PrimalDualPoint(w=Z[j, :n], b=Z[j, n], u=U[j], lam=L[j])

    lam_s, s, rhs, step = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    # The core phase's scalar operands and callables, bound once.
    sigma0, one0 = np.array(sigma, dtype=np.float64), np.array(1.0)
    divide, subtract, add, multiply = np.divide, np.subtract, np.add, np.multiply
    K_dot, B_dot = K.dot, B.dot
    it, stop = 0, None
    while it < max_iter and not cycle:
        # Core phase: the iterations themselves, one at a time, with no
        # finiteness test.  A non-finite iterate runs on to the block's end,
        # so the arithmetic on it overflows or meets inf - inf silently.
        start, k = it, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while k < rows and it < max_iter:
                it += 1
                divide(lam, sigma0, lam_s)
                subtract(one0, Bz, s)
                subtract(s, lam_s, s)
                u = _prox_primary(s, params, U_row[k])
                subtract(u, one0, rhs)
                add(rhs, lam_s, rhs)
                z = K_dot(rhs, Z_row[k])
                B_dot(z, Bz)
                feas = add(u, Bz, F_row[k])
                subtract(feas, one0, feas)
                multiply(feas, sigma0, step)
                # From m = 4097 up L[k] is also the old lam, read in place.
                lam = add(lam, step, L_row[k])
                k += 1
                lam_bytes = lam.tobytes()
                if lam_bytes == saved_lam and Bz.tobytes() == saved_Bz:
                    cycle = {"cycle_period": it - saved_it}
                    break
                if it & (it - 1) == 0:
                    saved_it, saved_lam, saved_Bz = it, lam_bytes, Bz.tobytes()
        # The one finiteness test, once per block, on lam.  The block ends
        # before its first non-finite row, and the DIVERGED return below
        # drops any cycle seen after it.
        bad = np.flatnonzero(~np.isfinite(L[:k]).all(axis=1))
        if bad.size:
            k = int(bad[0])
            it = start + k + 1
            stop = f"non-finite iterate at iteration {it}"
        # Screen phase: the residuals of the block's k rows, only for the
        # rows whose r_feas beats the best iterate as it stood at the
        # block's start; best_worst > tol here (see "Block screen").
        r_feas = np.abs(F[:k]).max(axis=1)
        keep = np.flatnonzero(r_feas < best_worst)
        if keep.size:
            R = residual_rows(problem, Z[keep], U[keep], L[keep], F[keep], params)
            # The per-iteration rules, in iteration order.
            best_row = None
            for j, worst in zip(keep.tolist(), R.max(axis=1).tolist()):
                if worst <= tol:
                    return result(SolveStatus.CONVERGED, row(j), start + j + 1, {})
                if worst < best_worst:
                    best_worst, best_row = worst, j
            if best_row is not None:
                best = (start + best_row + 1, row(best_row))
        if stop is not None:
            return diverged(stop, it)
    best_it, point = best
    diag = {"best_iteration": best_it, **cycle}
    return result(SolveStatus.MAX_ITER, point, max_iter, diag)


# Relative size below which a determinant or projection counts as zero:
# dependent normals, a flat free along b, a direction lying in a plane.
_SINGULAR = 1e-12


def _cross(R):
    """Normal to the d - 1 rows of each R[i] in R^d, d <= 3, by cofactor
    expansion: the cross product for d = 3, the quarter turn (x1, -x0) for
    d = 2.  Its length is the volume that the rows span."""
    d = R.shape[-1]
    if d == 1:
        return np.ones(R.shape[:-2] + (1,))
    if d == 2:
        return np.stack((R[..., 0, 1], -R[..., 0, 0]), axis=-1)
    return np.cross(R[..., 0, :], R[..., 1, :])


def _cramer(G, h):
    """Cramer's rule for the stacked d x d systems G x = h, d <= 3.

    Returns det(G) and adj(G) h, whose ratio is x where det(G) != 0.
    Column j of adj(G) is the cofactor normal to every row of G but row j.
    """
    d = G.shape[-1]
    adj = np.stack(
        [
            (-1) ** (j * (d - 1))
            * _cross(G[..., [(j + i) % d for i in range(1, d)], :])
            for j in range(d)
        ],
        axis=-1,
    )
    return np.sum(G[..., 0, :] * adj[..., 0], axis=-1), (adj @ h[..., None])[..., 0]


def _first_rows(K):
    """Indices of the first of each distinct row of K, in order."""
    order = np.lexsort(K.T[::-1])  # stable, so a run starts at its first row
    K = K[order]
    new = np.ones(len(K), dtype=bool)
    new[1:] = np.any(K[1:] != K[:-1], axis=1)
    return np.sort(order[new])


def _up(t):
    """The rows of t turned up: each row's first component above
    _SINGULAR |row| made positive, a zero row left as it is.  Both ends of
    an edge compute its direction from the same two planes, bit for bit,
    so they agree on which way is up."""
    big = np.abs(t) > _SINGULAR * np.linalg.norm(t, axis=-1, keepdims=True)
    lead = np.take_along_axis(t, np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -t, t)


def _faces(NP):
    """The up faces at vertices v whose active planes have the unit
    normals NP, one row of NP per vertex.

    Yields direction rows U per vertex and face, and their products with
    NP, those below _SINGULAR |U row| taken to be 0: first every line's up
    edge, U = (t), then for d = 3 every active plane's faces between the up
    edges of two of its lines, U = (t, t').  The face's flat is
    v + U^T alpha, and it crosses an active plane on the side of the first
    row of U not in it.  Faces whose rows are dependent are yielded too;
    the caller skips them.
    """
    k, d = NP.shape[1:]
    lines = np.array(list(combinations(range(k), d - 1)), dtype=int)
    t = _up(_cross(NP[:, lines]))
    proj = t @ NP.swapaxes(1, 2)
    proj[np.abs(proj) <= _SINGULAR * np.linalg.norm(t, axis=2, keepdims=True)] = 0.0
    yield t[:, :, None], proj[:, :, None]
    # Plane p holds the lines that name it, in order; each two bound a face.
    faces = [f for p in range(k) for f in combinations(np.nonzero(lines == p)[0], 2)]
    if faces:
        yield t[:, faces], proj[:, faces]


def _candidates(T, N, r, box, C, B) -> np.ndarray:
    """Candidate minimizers from the vertices that the d-subsets T of the
    planes N z = r cut out.

    Returns every in-box vertex and, for every face that _faces yields at
    one, the minimizer of the face's quadratic on its flat, clipped into
    the box.  Skips faces whose directions are dependent and flats free
    along b.
    """
    m, d = B.shape
    det, x = _cramer(N[T], r[T])
    keep = np.abs(det) > _SINGULAR
    V = x[keep] / det[keep, None]
    # Vertices on the box may stray out of it by rounding; they get clipped.
    slack = 1e-10 * (1.0 + np.abs(box).max())
    V = V[np.all((V >= box[:, 0] - slack) & (V <= box[:, 1] + slack), axis=1)]
    # A plane within this residual counts as active, which only adds faces.
    size = 1.0 + np.abs(V).max(axis=1, keepdims=True)
    active = np.abs(V @ N.T - r) <= 1e-9 * size
    # Its active planes fix a vertex; several subsets cut out a degenerate one.
    first = _first_rows(active)
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
        v, g_v, S_P = V[rows], g_vertex[rows, None], S[P]
        for U, proj in _faces(N[P]):
            # Each active plane is crossed along the first row of U not in it.
            cross = np.where(proj[..., 0, :] == 0.0, proj[..., -1, :], proj[..., 0, :])
            g = g_v - C * ((cross > 0.0) @ S_P)  # a box plane has S row 0
            # Minimize over alpha: (Uw Uw^T) alpha = -(Uw w_v + U g).
            Uw = U[..., :-1]
            h = -(Uw @ v[:, None, :-1, None] + U @ g[..., None])[..., 0]
            det, x = _cramer(Uw @ Uw.swapaxes(-1, -2), h)
            # The directions are dependent where det(U U^T) is small beside
            # the product of their squared lengths, and the flat is free
            # along b where det(Uw Uw^T) is small beside det(U U^T).
            G = U @ U.swapaxes(-1, -2)
            vol = lengths = G[..., 0, 0]
            if U.shape[-2] == 2:
                lengths = lengths * G[..., 1, 1]
                vol = lengths - G[..., 0, 1] * G[..., 1, 0]
            ok = (vol > _SINGULAR * lengths) & (det > _SINGULAR * vol)
            i = np.nonzero(ok)[0]
            found.append(v[i] + ((x[ok] / det[ok, None])[:, None] @ U[ok])[:, 0])
    return np.clip(np.concatenate(found), box[:, 0], box[:, 1])


def global_oracle(
    problem: ProblemData, C: float, bounds
) -> tuple[np.ndarray, float, float]:
    """Exact global minimum of the objective over a (w, b) box, n <= 2 only.

    bounds holds one (lo, hi) pair per coordinate of (w, b).  Returns
    (w, b, value) with value = objective(w, b).  Raises ValueError for
    n > 2, a C that is not finite and positive, and bounds that are not d
    finite pairs with lo < hi.

    In z = (w, b), d = n + 1, the objective is smooth on each cell of the
    arrangement of the 2m kink planes B_i z = 1 and B_i z = 0; on a face it
    is 1/2 |w|^2 + g^T z plus a constant, with g = -C sum B_i over the
    samples inside the band.  With the 2d box facets added as planes,
    every face in the box has a vertex, and a minimizer minimizes its
    face's quadratic over the face's flat or lies on a lower face too.  So
    the oracle visits the O(C(2m + 2d, d)) vertices, each in-box one a
    candidate, and generates each bounded edge and 2-D face once, at its
    lowest vertex: the lowest-vertex rule of reverse search (Avis and
    Fukuda 1996), with the up side of a line fixed by its direction alone.
    One rule holds at every vertex, however many planes meet there: each
    line where d - 1 active planes meet gives its up edge, and for d = 3
    each active plane gives the face between the up edges of every two of
    its lines, as a 2-D face lies between two up edges in its plane at its
    lowest vertex.

    Each face is solved where it is generated, in closed form (cross
    products for the vertices and line directions, Cramer's rule for the
    minimizer on the flat), and clipped into the box.  Where planes
    coincide, a line is a zero or parallel row; a face with such dependent
    directions is skipped, as the same vertex generates its edge as one,
    and so is a flat free along b, whose minimum is on a lower face too.
    Ties go to the first best candidate in a fixed order, so repeated
    calls agree bit for bit.
    """
    n = problem.n
    if n > 2:
        raise ValueError(f"global oracle is limited to n <= 2, got n = {n}")
    check_positive("C", C)
    d = n + 1
    box = np.array(bounds, dtype=float)
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
    """Classify x by the sign of <w, x> + b, with sign(0) taken as +1.

    A non-finite w, b or x raises ValueError: it has no sign to give."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    b = float(b)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape}, expected {w.shape}")
    for name, v in (("w", w), ("b", b), ("x", x)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    return 1 if float(w @ x) + b >= 0.0 else -1
