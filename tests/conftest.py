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
"""

from __future__ import annotations

import math
from itertools import product

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
