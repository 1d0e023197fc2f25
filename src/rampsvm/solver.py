"""Training by proximal alternating directions, plus a tiny-instance
global oracle and a predictor.

The trainer splits the objective through the constraint u + Aw + by = 1 and
cycles three exact updates with a constant penalty sigma:

    u      componentwise ramp prox at step gamma = 1/sigma
    (w, b) one product with the (n+1) x m gain matrix K = -sigma M^{-1} B^T,
           built before the loop from one factorization of the SPD M
    lambda gradient ascent on the constraint residual

The problem is nonconvex, so no convergence guarantee is claimed.  Instead
every iterate is screened with the P-stationarity residuals, which
certify.residual_rows computes from the arrays the iteration already holds,
the same floats check_pstationary reports; the solver reports CONVERGED at
the first iterate whose residuals all pass tol, and MAX_ITER / DIVERGED are
first-class outcomes.  The iterations run one at a time, while the screen
runs once per block of up to 64 of them, on arrays that hold one iterate
per row; the result is bit for bit the one a screen after every iteration
gives.  The state (B z, lambda) fixes every later iteration, so a run stops
at the first bit-for-bit repeat of it that Brent's cycle detection sees,
with the MAX_ITER result its full budget would give.  Each iteration writes
its vectors in place.  Only lambda is tested for finiteness, once per
block, on all its rows: a non-finite s, u or z carries on into lambda in
the same iteration, and a non-finite lambda stays non-finite, so the
block's first non-finite row is the iteration that tests of all of them
after every iteration would flag, and the run ends DIVERGED there.

The global oracle is exact over a (w, b) box for n <= 2: it enumerates the
O(C(2m + 2d, d)) vertices of the arrangement of kink planes and box facets,
d = n + 1, and generates each edge and 2-D face once, at its lowest vertex
(the lowest-vertex rule of reverse search, Avis and Fukuda 1996), by one
rule at every vertex: each line through it gives its up edge, and each
active plane the face between the up edges of every two of its lines.  It
solves each distinct face (its flat and its band set) once, with
closed-form solves: cross products for the vertices and line directions,
Cramer's rule for the faces.  Where planes coincide, a line is a zero or
repeated row, and its face has the key of an edge at the same vertex,
which comes first.  The oracle exists as an independent reference for
testing stationarity claims at true minimizers, not as a practical trainer.
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

    The (w, b) system is factored once, before the loop, into the gain
    matrix K = -sigma M^{-1} B^T.  The iterations run one at a time in
    blocks of up to 64, each keeping its iterate in a row of the block's
    arrays.  The screen then rules out the rows whose r_feas already fails
    tol and the best iterate as it stood at the block's start, takes the
    residuals of the rest from residual_rows, the floats check_pstationary
    gives for them, and applies the rules below to the rows in iteration
    order, so the result is bit for bit that of a screen after every
    iteration.  CONVERGED is returned at the first iterate whose largest
    residual is at most tol.  MAX_ITER results carry the iterate with the
    smallest largest residual (the earliest on ties), with its iteration in
    diagnostics["best_iteration"].  Every result carries the certificate of
    its point from one check_pstationary call, at the configured tolerance
    and prox step 1/sigma, so a CONVERGED one is P_STATIONARY.  A run whose
    state (B z, lambda) repeats byte for byte only replays iterates it has
    screened, so it stops at the first repeat that Brent's cycle detection
    sees and returns what the full budget would: the same MAX_ITER result,
    iterations = max_iter, plus the minimal period of the cycle in
    diagnostics["cycle_period"].  A failed SPD factorization or a
    non-finite iterate yields DIVERGED with the trigger recorded in
    diagnostics, once the iterates before it have been screened.  Only
    lambda is tested for finiteness, once per block after its iterations,
    and that flags the same iteration as testing s, z and lambda after
    every iteration: a non-finite prox input s gives a non-finite u in both
    prox regimes, a non-finite z makes every entry of B z non-finite, as
    B's last column holds the labels, and either makes the feasibility
    residual, and so lambda, non-finite.  Once non-finite, lambda stays
    non-finite, so the block's first non-finite row is the run's first
    non-finite iteration: the block is cut before it, and the run ends
    DIVERGED at that iteration.
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
    # The state (B z, lam) fixes every later iteration.  Brent's cycle
    # detection keeps the bytes of one earlier state, saved at iterations
    # 1, 2, 4, 8, ..., and stops at the first state equal to it.
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
    it, stop = 0, None
    while it < max_iter and not cycle:
        # Core phase: the iterations themselves, one at a time, with no
        # finiteness test.  A non-finite iterate runs on to the block's end,
        # so the arithmetic on it overflows or meets inf - inf silently.
        # ndarray.dot calls the BLAS product that np.matmul calls, with
        # less overhead per call.
        start, k = it, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while k < rows and it < max_iter:
                it += 1
                np.divide(lam, sigma, lam_s)
                np.subtract(1.0, Bz, s)
                s -= lam_s
                u = _prox_primary(s, params, U_row[k])
                np.subtract(u, 1.0, rhs)
                rhs += lam_s
                z = K.dot(rhs, Z_row[k])
                B.dot(z, Bz)
                feas = np.add(u, Bz, F_row[k])
                feas -= 1.0
                np.multiply(feas, sigma, step)
                # From m = 4097 up L[k] is also the old lam, read in place.
                lam = np.add(lam, step, L_row[k])
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
        # The one finiteness test, once per block, on lam (the docstring
        # says why that is enough).  A non-finite lam stays non-finite, so
        # the first such row is the run's first non-finite iterate: the
        # block ends before it, and the DIVERGED return below drops any
        # cycle seen after it.
        bad = np.flatnonzero(~np.isfinite(L[:k]).all(axis=1))
        if bad.size:
            k = int(bad[0])
            it = start + k + 1
            stop = f"non-finite iterate at iteration {it}"
        # Screen phase: the residuals of the block's k rows, only for the
        # rows whose r_feas can still pass tol or beat the best iterate as
        # it stood at the block's start.  The best only improves during the
        # block, so these rows include every row the per-iteration rules
        # below look at.
        r_feas = np.abs(F[:k]).max(axis=1)
        keep = np.flatnonzero((r_feas <= tol) | (r_feas < best_worst))
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
            (-1) ** (j * (d - 1)) * _cross(G[:, [(j + i) % d for i in range(1, d)]])
            for j in range(d)
        ],
        axis=-1,
    )
    return np.sum(G[:, 0] * adj[..., 0], axis=1), (adj @ h[..., None])[..., 0]


def _first_rows(K):
    """Indices of the first of each distinct row of the integer K, in order."""
    order = np.lexsort(K.T[::-1])  # stable, so a run starts at its first row
    K = K[order]
    new = np.ones(len(K), dtype=bool)
    new[1:] = np.any(K[1:] != K[:-1], axis=1)
    return np.sort(order[new])


def _bits(count):
    """Row j holds bit j of a key packed into 64-bit words."""
    j = np.arange(count, dtype=np.uint64)
    bits = np.zeros((count, (count + 63) // 64), dtype=np.uint64)
    bits[j, j // 64] = np.uint64(1) << j % 64
    return bits


def _up(t):
    """The rows of t turned up: each row's first component above
    _SINGULAR |row| made positive, a zero row left as it is.  Both ends of
    an edge compute its direction from the same two planes, bit for bit,
    so they agree on which way is up."""
    big = np.abs(t) > _SINGULAR * np.linalg.norm(t, axis=-1, keepdims=True)
    lead = np.take_along_axis(t, np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -t, t)


def _faces(NP):
    """Faces through vertices v whose active planes have the unit normals NP.

    Yields direction rows U per vertex and face, and their products with
    NP, those below _SINGULAR |U row| taken to be 0; the face's flat is
    v + U^T alpha, and an active plane is crossed on the side of the first
    row not in it.  Only faces that go up from v are yielded, so that each
    bounded edge and 2-D face comes once, from its lowest vertex in the
    order that _up orients.  Each line where d - 1 active planes meet gives
    its up edge, U = (t).  For d = 3, at every vertex, each active plane p
    gives the face between the up edges of every two of its lines {p, q}
    and {p, q'}, U = (t, t'): a 2-D face lies between two up edges in its
    plane at its lowest vertex.  Where planes coincide, a line is a zero
    row or repeats another; such a face's key is that of an edge at the
    same vertex, which is yielded first.
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
    """Candidate minimizers from the vertices that the d-subsets T cut out.

    Every in-box vertex is one, and so is the minimizer of 1/2 |w|^2 + g^T z
    on the flat of every face that _faces yields at it, with g = -C sum B_i
    over the samples inside the band on that face; these get clipped into
    the box.  So every edge and 2-D face in the box comes from its lowest
    vertex; a vertex where more than d planes meet may yield one twice, and
    faces in one flat may share a band set.  That minimizer depends only on
    the face's flat (the planes that hold it) and its band set, so one
    (vertex, face) pair per such key is solved: the first with it, taking
    vertices by their number of active planes and then in order, edges
    before 2-D faces.  So a face with a zero or repeated row, whose key is
    an edge's at the same vertex, is never solved.  Flats free along b are
    skipped: their minimum is also on a lower face.
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
    # A key has a bit per plane, set if the plane holds the face, and one
    # per sample, set if the sample is inside the band on the face.
    bits = _bits(len(r) + m)
    plane_bits, sample_bits = bits[: len(r)], bits[len(r) :]
    band_bits = np.vstack((sample_bits, sample_bits, np.zeros_like(plane_bits[: 2 * d])))
    # Its active planes fix a vertex; several subsets cut out a degenerate one.
    first = _first_rows(active @ plane_bits)
    V, active = V[first], active[first]
    u = 1.0 - V @ B.T
    inside = (u > 0.0) & (u < 1.0) & ~(active[:, :m] | active[:, m : 2 * m])
    g_vertex, inside_key = -C * (inside @ B), inside @ sample_bits
    S = np.vstack((B, B, np.zeros((2 * d, d))))  # B_i of each kink plane
    pairs, keys = [], []
    counts = active.sum(axis=1)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        P = np.nonzero(active[rows])[1].reshape(rows.size, k)
        for U, proj in _faces(N[P]):
            # Each active plane is crossed along the first row of U not in it.
            cross = np.where(proj[:, :, 0] == 0.0, proj[:, :, -1], proj[:, :, 0])
            band = cross > 0.0  # a box plane has no band bit and S row 0
            key = np.all(proj == 0.0, axis=2) @ plane_bits[P] + band @ band_bits[P]
            keys.append((key + inside_key[rows, None]).reshape(-1, bits.shape[1]))
            pairs.append((rows, P, U, band))
    sizes = [len(key) for key in keys]
    first = np.zeros(sum(sizes), dtype=bool)
    first[_first_rows(np.concatenate(keys))] = True
    found = [V]
    for (rows, P, U, band), pick in zip(pairs, np.split(first, np.cumsum(sizes)[:-1])):
        i, f = np.nonzero(pick.reshape(band.shape[:2]))
        v, U = V[rows[i]], U[i, f]
        g = g_vertex[rows[i]] - C * (band[i, f, None] @ S[P[i]])[:, 0]
        # Minimize over alpha: (Uw Uw^T) alpha = -(Uw w_v + U g).
        Uw = U[..., :-1]
        h = -(Uw @ v[:, :-1, None] + U @ g[..., None])[..., 0]
        det, x = _cramer(Uw @ Uw.swapaxes(1, 2), h)
        # The flat is free along b where det(Uw Uw^T) is small beside det(U U^T).
        G = U @ U.swapaxes(1, 2)
        vol = G[:, 0, 0]
        if U.shape[1] == 2:
            vol = vol * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        ok = det > _SINGULAR * vol
        found.append(v[ok] + ((x[ok] / det[ok, None])[:, None] @ U[ok])[:, 0])
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
    the oracle visits the O(C(2m + 2d, d)) vertices.  Every line through
    a vertex has one up side, fixed by its direction alone, so each bounded
    edge and 2-D face is generated once, at the vertex from which all of
    it goes up: its lowest.  That quadratic depends only on the face's flat
    (the planes that hold it) and its band set (the samples with 0 < u < 1
    on it), so it is minimized in closed form once per distinct flat and
    band set, from the first face in a fixed order that has them.  Ties
    still go to the first best candidate in a fixed order, so repeated
    calls agree bit for bit.
    bounds holds one (lo, hi) pair per coordinate of (w, b).  Returns
    (w, b, value) with value = objective(w, b).
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
    """Classify x by the sign of <w, x> + b, with sign(0) taken as +1."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape}, expected {w.shape}")
    return 1 if float(w @ x) + float(b) >= 0.0 else -1
