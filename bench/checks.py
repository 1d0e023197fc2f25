"""Reference computations for the benchmark's output checks.

Everything here is written from the paper's definitions with numpy alone;
nothing imports rampsvm.  Each check recomputes a quantity the program
reports and returns a list of error strings, empty when the output holds.
"""

from __future__ import annotations

import math

import numpy as np

# A recomputed residual may differ from the reported one by rounding in the
# order of the matrix products; 1e-9 absolute is far above that and far below
# the 1e-3 point perturbation the checks must catch.
RESIDUAL_ATOL = 1e-9
# Objectives here reach about 1e3 (m = 8000 with 10% outliers); 1e-11
# relative still rejects an objective reported 1e-6 off.
OBJECTIVE_RTOL = 1e-11


def ramp_prox(s, gamma: float, C: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form global minimizers of v -> C*ramp(v) + (v - s)^2/(2*gamma).

    Returns (v, alt) elementwise.  alt is NaN except at the regime's tie,
    where both v and alt minimize.  With g = gamma*C the candidates are v = 0
    (cost s^2/(2 gamma)), v = s - g on the linear band (cost C*s - C*g/2) and
    v = s above 1 (cost C):

    * g < 2: s - g beats 0 wherever it lies in the band, and beats s below
      1 + g/2, so s > 1 + g/2 stays, g <= s < 1 + g/2 shifts to s - g, and
      0 < s < g goes to 0.  Tie {s, s - g} at s = 1 + g/2.
    * g >= 2: the band never wins; 0 beats s below sqrt(2g).  Tie {s, 0} at
      s = sqrt(2g).

    Inputs at or below 0 cost nothing and stay.
    """
    s = np.asarray(s, dtype=float)
    g = gamma * C
    alt = np.full(s.shape, np.nan)
    if g < 2.0:
        thr = 1.0 + g / 2.0
        v = np.where(s >= g, s - g, 0.0)
        tie_alt = s - g
    else:
        thr = math.sqrt(2.0 * g)
        v = np.zeros(s.shape)
        tie_alt = np.zeros(s.shape)
    v = np.where(s <= 0.0, s, v)
    v = np.where(s > thr, s, v)
    tie = s == thr
    v[tie] = s[tie]
    alt[tie] = tie_alt[tie]
    return v, alt


def residuals(X, y, C, gamma, w, b, u, lam) -> tuple[float, float, float, float]:
    """The four P-stationarity residuals (grad, y, feas, prox) of a point."""
    A = y[:, None] * X
    r_grad = float(np.max(np.abs(w + A.T @ lam)))
    r_y = abs(float(np.dot(y, lam)))
    r_feas = float(np.max(np.abs(u + A @ w + b * y - 1.0)))
    v, alt = ramp_prox(u - gamma * lam, gamma, C)
    r_prox = float(np.max(np.fmin(np.abs(u - v), np.abs(u - alt))))
    return r_grad, r_y, r_feas, r_prox


def objective(X, y, C, w, b) -> float:
    """0.5*||w||^2 + C * sum_i clip(1 - y_i(<w, x_i> + b), 0, 1)."""
    margins = 1.0 - y * (X @ w + b)
    return 0.5 * float(np.dot(w, w)) + C * float(np.minimum(np.maximum(margins, 0.0), 1.0).sum())


def lambda_h(X, y) -> float:
    """Largest eigenvalue of H^T H, H = (B^T B)^{-1} B^T with its last row
    zeroed and B = [y*X, y]; taken from the (n+1)x(n+1) matrix H H^T."""
    B = np.hstack((y[:, None] * X, y[:, None]))
    H = np.linalg.solve(B.T @ B, B.T)
    H[-1, :] = 0.0
    return float(np.linalg.eigvalsh(H @ H.T)[-1])


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


def check_point(X, y, C, gamma, tol, rec) -> list[str]:
    """Recompute the residuals and the objective of a reported point.

    rec holds w, b, u, lam, the reported residuals r (grad, y, feas, prox),
    the reported verdict ("p-stationary" or not) and the reported objective.
    """
    errors = []
    mine = residuals(X, y, C, gamma, rec["w"], rec["b"], rec["u"], rec["lam"])
    for name, a, r in zip(("r_grad", "r_y", "r_feas", "r_prox"), mine, rec["r"]):
        if abs(a - r) > RESIDUAL_ATOL * (1.0 + abs(r)):
            errors.append(f"{name} reported {r!r}, recomputed {a!r}")
    worst = max(mine)
    if rec["verdict"] == "p-stationary" and worst > tol * (1.0 + 1e-9):
        errors.append(f"certified at tol {tol} with recomputed residual {worst!r}")
    if rec["verdict"] != "p-stationary" and worst < tol * (1.0 - 1e-9):
        errors.append(f"not certified though recomputed residual {worst!r} <= tol {tol}")
    f = objective(X, y, C, rec["w"], rec["b"])
    if not close(f, rec["objective"], OBJECTIVE_RTOL):
        errors.append(f"objective reported {rec['objective']!r}, recomputed {f!r}")
    return errors


def check_support(X, y, C, gamma, rec, sv_tol=1e-6) -> list[str]:
    """Margin geometry of a converged point in the gamma*C >= 2 regime.

    Every support vector (|lam_i| > sv_tol) has |u_i| <= 1e-5 and
    lam_i in [-sqrt(2C/gamma), 0); the program's support set and margin
    verdict must match the ones recomputed here.
    """
    errors = []
    lam, u = rec["lam"], rec["u"]
    idx = np.flatnonzero(np.abs(lam) > sv_tol)
    cap = math.sqrt(2.0 * C / gamma)
    for i in idx:
        if abs(u[i]) > 1e-5:
            errors.append(f"support vector {i} off its margin: u = {u[i]!r}")
        if not -cap <= lam[i] < 0.0:
            errors.append(f"support vector {i} multiplier {lam[i]!r} outside [-{cap}, 0)")
    if len(idx) == 0:
        errors.append("no support vectors")
    if tuple(idx) != tuple(rec["sv_indices"]):
        errors.append(f"support set {rec['sv_indices']} != recomputed {tuple(idx)}")
    else:
        margins = y[idx] * (X[idx] @ rec["w"] + rec["b"])
        if np.max(np.abs(margins - rec["sv_margins"]), initial=0.0) > 1e-12:
            errors.append("support margins differ from y_i(<w, x_i> + b)")
    deviation = float(np.max(np.abs(u[idx]), initial=0.0))
    if rec["margin_ok"] is not True or deviation != rec["margin_deviation"]:
        errors.append(
            f"margin check ({rec['margin_ok']}, {rec['margin_deviation']!r}) "
            f"!= recomputed (True, {deviation!r})"
        )
    return errors


def exact_b_search(X, y, C, box, step=0.05, chunk=2048) -> float:
    """Lowest objective over a w-grid of the given step, b chosen exactly.

    For fixed w the objective is piecewise linear in b with breakpoints
    b = y_j(1 - t - y_j<w, x_j>), t in {0, 1}, and constant beyond them, so
    its minimum over b sits at one of those 2m values.  Breakpoints outside
    the b-range of the box are skipped, so every evaluated point lies in
    the box.
    """
    *w_box, (b_lo, b_hi) = box
    axes = [np.arange(lo, hi + 0.5 * step, step) for lo, hi in w_box]
    W = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    best = math.inf
    for start in range(0, len(W), chunk):
        Wc = W[start:start + chunk]
        z = (Wc @ X.T) * y  # y_j <w, x_j>, one row per w
        bps = np.concatenate((y * (1.0 - z), y * (0.0 - z)), axis=1)
        # margins u_i = 1 - z_i - b*y_i for every breakpoint b
        U = 1.0 - z[:, None, :] - bps[:, :, None] * y[None, None, :]
        f = 0.5 * np.einsum("ij,ij->i", Wc, Wc)[:, None] + C * np.clip(U, 0.0, 1.0).sum(axis=2)
        f[(bps < b_lo) | (bps > b_hi)] = np.inf
        best = min(best, float(f.min()))
    return best
