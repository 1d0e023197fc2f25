"""Shared test oracles.

Independent references live here so that library claims are checked
against something the library itself does not use:

prox_oracle     brute-force minimizer of the prox objective (prox_objective)
                on a fine grid plus the kink candidates, independent of the
                closed form.
kkt_enumerate   exact global minimization of the ramp-SVM objective on tiny
                instances by enumerating every margin arrangement and solving
                each arrangement's stationarity system in closed form.
local_min_probe randomized descent search in a ball around a candidate,
                the direct reading of "local minimizer".
arrangement_face_minimizers
                the minimizer on its flat of every face of the global
                oracle's arrangement in a box, listed from every vertex
                through the face.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from rampsvm import ProxParams, objective, ramp_loss

# Grid points per oracle block: 64 KiB of float64, below glibc's default
# 128 KiB mmap threshold.
_ORACLE_BLOCK = 8192


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


# Margin classes for the enumeration: each sample sits below the hinge (N),
# on the lower kink (Z), strictly inside the band (B), on the upper kink (O),
# or beyond it (S).  Stationarity fixes lambda_i = 0 on N and S, -C on B,
# and leaves it free in [-C, 0] on Z and O.
_CLASSES = "NZBOS"


def kkt_enumerate(problem, dataset, C, feas_tol=1e-9):
    """All stationary points of the ramp-SVM objective, best first.

    For every assignment of samples to margin classes, w is eliminated via
    w = -A^T lambda and the remaining unknowns (the free multipliers and b)
    solve a square linear system: u_i pinned to 0 on Z and 1 on O, plus
    <y, lambda> = 0.  Solutions are kept when the resulting point actually
    lies in the assigned classes with multipliers in range.  Exponential in
    m, so only for m up to ~8.

    Returns a list of (value, w, b, lam, u) sorted by objective value; the
    first entry is the exact global minimum.
    """
    A, y, m = problem.A, problem.y, problem.m
    found = []
    for assign in product(_CLASSES, repeat=m):
        zero = [i for i in range(m) if assign[i] == "Z"]
        one = [i for i in range(m) if assign[i] == "O"]
        band = [i for i in range(m) if assign[i] == "B"]
        free = zero + one
        k = len(free)
        lam = np.zeros(m)
        lam[band] = -C
        w_fixed = C * A[band].sum(axis=0) if band else np.zeros(problem.n)
        if free:
            M = np.empty((k + 1, k + 1))
            rhs = np.empty(k + 1)
            M[:k, :k] = A[free] @ A[free].T
            M[:k, k] = -y[free]
            M[k, :k] = y[free]
            M[k, k] = 0.0
            targets = np.array([0.0] * len(zero) + [1.0] * len(one))
            rhs[:k] = targets - 1.0 + A[free] @ w_fixed
            rhs[k] = C * float(np.sum(y[band]))
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            if np.max(np.abs(M @ sol - rhs)) > 1e-9 * (1.0 + np.abs(rhs).max()):
                continue
            lam[free] = sol[:k]
            b = float(sol[k])
            w = w_fixed - A[free].T @ sol[:k]
        else:
            # No pinned margins: stationarity needs balanced band labels,
            # and the objective is then flat in b across the piece.
            if abs(np.sum(y[band])) * C > feas_tol:
                continue
            w, b = w_fixed, 0.0
        u = 1.0 - A @ w - b * y
        ok = True
        for i in range(m):
            cls = assign[i]
            if cls == "N":
                ok = u[i] < feas_tol
            elif cls == "Z":
                ok = abs(u[i]) < 1e-7 and -C - feas_tol <= lam[i] <= feas_tol
            elif cls == "B":
                ok = -feas_tol < u[i] < 1.0 + feas_tol
            elif cls == "O":
                ok = abs(u[i] - 1.0) < 1e-7 and -C - feas_tol <= lam[i] <= feas_tol
            else:
                ok = u[i] > 1.0 - feas_tol
            if not ok:
                break
        if ok:
            found.append((objective(w, b, dataset, C), w, b, lam.copy(), u))
    found.sort(key=lambda t: t[0])
    return found


def local_min_probe(
    point, dataset, C, radius=1e-3, n_probe=1000, slack=1e-9, seed=0
):
    """Search for descent directions near a candidate local minimizer.

    Evaluates the objective at n_probe points drawn uniformly from the
    (n+1)-ball of the given radius around (w, b) and returns
    (ok, worst_decrease): ok is False when any probe beats the candidate
    by more than slack.
    """
    rng = np.random.default_rng(seed)
    dim = point.w.size + 1
    f0 = objective(point.w, point.b, dataset, C)
    worst = 0.0
    for _ in range(n_probe):
        d = rng.standard_normal(dim)
        d *= radius * rng.uniform() ** (1.0 / dim) / np.linalg.norm(d)
        f = objective(point.w + d[:-1], point.b + d[-1], dataset, C)
        worst = max(worst, f0 - f)
    return worst <= slack, worst


def arrangement_face_minimizers(problem, C, bounds):
    """The minimizer on its flat of every face of the global oracle's
    arrangement that lies in the box, listed from every vertex through it.

    In z = (w, b), d = n + 1, the planes are the kinks u_i = 0 and u_i = 1
    and the 2d box facets.  At every vertex in the box, where d planes with
    independent normals meet, every face through it is listed the long way,
    as the enumeration that solved every face once per vertex did: each line
    where d - 1 active planes meet gives its two edges, U = (+-t), and for
    d = 3 each of the line's two planes gives the four faces in it next to
    the line, U = (+-t, +-s).  A face is kept unless an active box facet has
    it outside the box.  On the face's flat v + U^T alpha the objective is
    1/2 |w|^2 + g^T z plus a constant, g = -C sum B_i over the samples
    inside the band on the face; it is minimized in an orthonormal basis of
    the flat and clipped into the box, once per distinct flat and band set.
    Flats free along b have no minimizer and give no point.
    """
    B, m = problem.B, problem.m
    d = B.shape[1]
    box = np.array(bounds, dtype=float)
    N = np.vstack((-B, B, np.eye(d), np.eye(d)))
    r = np.concatenate((-np.ones(m), np.zeros(m), box[:, 0], box[:, 1]))
    norms = np.linalg.norm(N, axis=1)
    N, r = N / norms[:, None], r / norms
    # The side of each plane that the box is on: + for a lower facet, - for
    # an upper one, none for a kink.
    box_side = np.concatenate((np.zeros(2 * m), np.ones(d), -np.ones(d)))
    T = np.array(list(combinations(range(len(r)), d)))
    T = T[np.abs(np.linalg.det(N[T])) > 1e-12]
    V = np.linalg.solve(N[T], r[T][..., None])[..., 0]
    slack = 1e-10 * (1.0 + np.abs(box).max())
    V = V[np.all((V >= box[:, 0] - slack) & (V <= box[:, 1] + slack), axis=1)]
    vertices, faces = set(), {}
    for v in V:
        act = np.flatnonzero(np.abs(N @ v - r) <= 1e-9 * (1.0 + np.abs(v).max()))
        if tuple(act) in vertices:
            continue
        vertices.add(tuple(act))
        u = 1.0 - B @ v
        kink = act < 2 * m
        band_at_v = (u > 0.0) & (u < 1.0)
        band_at_v[act[kink] % m] = False
        for U in _faces_through(N[act]):
            proj = U @ N[act].T
            proj[np.abs(proj) <= 1e-12 * np.linalg.norm(U, axis=2, keepdims=True)] = 0.0
            side = np.where(proj[:, 0] != 0.0, proj[:, 0], proj[:, -1])
            flat = np.zeros((len(U), len(r)), dtype=bool)
            flat[:, act] = np.all(proj == 0.0, axis=1)
            band = np.tile(band_at_v, (len(U), 1))
            band[:, act[kink] % m] = side[:, kink] > 0.0
            keep = np.flatnonzero(~np.any(side * box_side[act] < 0.0, axis=1))
            for f, key in zip(keep, np.hstack((flat, band))[keep]):
                faces.setdefault(key.tobytes(), (v, U[f], band[f]))
    points = []
    for rows in (1, 2):
        found = [face for face in faces.values() if len(face[1]) == rows]
        if not found:
            continue
        v, U, band = (np.array(x) for x in zip(*found))
        R = np.linalg.qr(U.swapaxes(1, 2))[0].swapaxes(1, 2)
        Rw = R[..., :-1]
        G = Rw @ Rw.swapaxes(1, 2)
        ok = np.linalg.det(G) > 1e-12
        h = -(Rw @ v[:, :-1, None] + R @ (-C * band @ B)[..., None])
        alpha = np.linalg.solve(G[ok], h[ok])
        points.append(v[ok] + (alpha.swapaxes(1, 2) @ R[ok])[:, 0])
    return np.clip(np.concatenate(points), box[:, 0], box[:, 1])


def _faces_through(NP):
    """Direction rows U, stacked, of every face through a vertex whose
    active planes have the unit normals NP: (+-t) along each line where
    d - 1 of them meet, and for d = 3 (+-t, +-s) in each of the line's two
    planes, s = n x t for the plane's normal n."""
    k, d = NP.shape
    E = np.array(list(combinations(range(k), d - 1)), dtype=int).reshape(-1, d - 1)
    rows = np.concatenate((NP[E], np.zeros((len(E), 1, d))), axis=1)
    sv, vt = np.linalg.svd(rows)[1:]
    if d > 1:  # dependent normals meet in no line
        E, vt = E[sv[:, d - 2] > 1e-9], vt[sv[:, d - 2] > 1e-9]
    t = vt[:, -1]
    yield np.concatenate((t, -t))[:, None]
    if d == 3:
        t = np.repeat(t, 2, axis=0)
        s = np.cross(NP[E].reshape(-1, d), t)
        yield np.stack(
            [np.stack((a * t, c * s), axis=1) for a, c in product((1.0, -1.0), repeat=2)]
        ).reshape(-1, 2, d)
