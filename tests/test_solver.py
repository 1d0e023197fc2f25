"""Trainer, global oracle, and predictor."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.spatial import cKDTree

from conftest import arrangement_face_minimizers, kkt_enumerate
from rampsvm import (
    COUNTEREXAMPLE_C,
    Dataset,
    PrimalDualPoint,
    ProxParams,
    SolveStatus,
    SolverConfig,
    Verdict,
    build_problem,
    check_pstationary,
    counterexample_dataset,
    gen_synthetic,
    global_oracle,
    objective,
    predict,
    grade_point,
    prox_array,
    recover_multiplier,
    residual_rows,
    single_point_dataset,
    spd_solver,
    symmetric_pair_dataset,
    train_admm,
)
from rampsvm import solver


def test_config_defaults_and_validation():
    cfg = SolverConfig(C=2.0)
    assert cfg.sigma == 1.0
    assert cfg.gamma == 1.0
    assert SolverConfig(C=1.0, sigma=4.0).gamma == 0.25
    with pytest.raises(ValueError):
        SolverConfig(C=0.0)
    with pytest.raises(ValueError):
        SolverConfig(C=1.0, sigma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(C=1.0, max_iter=0)
    for tol in (0.0, -1e-6, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            SolverConfig(C=1.0, tol=tol)
    for max_iter in (2.5, 10.0, "10", True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(C=1.0, max_iter=max_iter)
    assert SolverConfig(C=1.0, max_iter=np.int64(5)).max_iter == 5
    # A subnormal sigma, given or implied by C, would make gamma = 1/sigma
    # infinite; the error names sigma, not gamma.
    for kwargs in ({"C": 1.0, "sigma": 1e-309}, {"C": 1e-309}):
        with pytest.raises(ValueError, match="^sigma must be large enough"):
            SolverConfig(**kwargs)


def test_train_single_point():
    # One sample at x=2, y=+1: the margin constraint pins u=0 with w=0,
    # b=1 costing nothing, which is the unconstrained minimum.
    prob = build_problem(single_point_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED
    assert res.certificate.verdict is Verdict.P_STATIONARY
    assert res.objective <= 1e-10


def test_train_symmetric_pair():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED
    assert res.point.w[0] == pytest.approx(1.0, abs=1e-5)
    assert res.point.b == pytest.approx(0.0, abs=1e-5)
    assert res.objective == pytest.approx(0.5, abs=1e-6)


def test_train_deterministic():
    ds = counterexample_dataset()
    prob = build_problem(ds)
    cfg = SolverConfig(C=COUNTEREXAMPLE_C)
    a = train_admm(prob, cfg)
    b = train_admm(prob, cfg)
    assert a.status is b.status and a.iterations == b.iterations
    assert np.array_equal(a.point.w, b.point.w)
    assert a.point.b == b.point.b
    assert np.array_equal(a.point.lam, b.point.lam)


def test_train_max_iter_status():
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0, max_iter=1))
    assert res.status is SolveStatus.MAX_ITER
    assert res.iterations == 1


def test_train_max_iter_returns_best_iterate():
    # This run cycles: iteration 2 has max residual 1.1365, iteration 60
    # has 1.7457.  MAX_ITER must carry the best (point, certificate) pair.
    prob = build_problem(gen_synthetic(8, 4.0, 0.1, 0))
    res = train_admm(prob, SolverConfig(C=1.0, max_iter=60))
    assert res.status is SolveStatus.MAX_ITER and res.iterations == 60
    assert res.diagnostics == {"best_iteration": 2}
    assert res.certificate.max_residual == pytest.approx(1.1365, abs=1e-4)
    # The certificate and objective belong to the returned point.
    again = check_pstationary(res.point, prob, 1.0, res.certificate.gamma, 1e-6)
    assert again == res.certificate
    assert res.objective == objective(res.point.w, res.point.b, prob.dataset, 1.0)
    # A budget of k iterations returns the best of the first k.
    best = [
        train_admm(prob, SolverConfig(C=1.0, max_iter=k)).certificate.max_residual
        for k in range(1, 61)
    ]
    assert best == sorted(best, reverse=True) and best[-1] == best[1]


def _full_budget_admm(prob, cfg, states=None):
    """train_admm without the cycle stop: every iteration of the budget runs.

    An iterate whose r_feas can still pass tol or beat the best iterate
    takes its residuals and verdict from check_pstationary.  Returns
    (status, iterations, point, certificate, best_iteration), the best
    iteration being None on convergence.  A states list gets the bytes of
    (B z, lambda) after each iteration."""
    B, m, n = prob.B, prob.m, prob.n
    sigma, C, gamma, tol = cfg.sigma, cfg.C, cfg.gamma, cfg.tol
    params = ProxParams(gamma, C)
    M = sigma * (B.T @ B)
    M[np.arange(n), np.arange(n)] += 1.0
    K = -sigma * spd_solver(M)(B.T)
    Bz, lam = np.zeros(m), np.zeros(m)
    best_worst, best = math.inf, None
    for it in range(1, cfg.max_iter + 1):
        lam_s = lam / sigma
        s = 1.0 - Bz - lam_s
        assert np.isfinite(s).all()
        u = prox_array(s, params)[0]
        z = K @ (u - 1.0 + lam_s)
        Bz = B @ z
        feas = u + Bz - 1.0
        lam = lam + sigma * feas
        assert np.isfinite(z).all() and np.isfinite(lam).all()
        if states is not None:
            states.append(Bz.tobytes() + lam.tobytes())
        r_feas = float(np.abs(feas).max())
        if not (r_feas <= tol or r_feas < best_worst):
            continue
        point = PrimalDualPoint(w=z[:n], b=z[n], u=u, lam=lam)
        cert = check_pstationary(point, prob, C, gamma, tol)
        if cert.verdict is Verdict.P_STATIONARY:
            return SolveStatus.CONVERGED, it, point, cert, None
        if cert.max_residual < best_worst:
            best_worst, best = cert.max_residual, (it, point, cert)
    best_it, point, cert = best
    return SolveStatus.MAX_ITER, cfg.max_iter, point, cert, best_it


def _parity_cases():
    """(data seed, noise, sigma, max_iter): the acceptance batch at
    sigma = C/2 and sigma = C, then two cycling runs at several budgets."""
    for seed in range(20):
        for sigma in (0.5, 1.0):
            yield seed, 0.1 if seed % 2 else 0.0, sigma, 10000
    for noise in (0.0, 0.1):
        for max_iter in (1, 60, 600, 10000):
            yield 0, noise, 0.5, max_iter


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_cycle_stop_matches_full_budget():
    # Stopping at an exact repeat of (B z, lambda) must return what the
    # full budget returns, bit for bit; only cycle_period is new.
    stopped = 0
    for case in _parity_cases():
        seed, noise, sigma, max_iter = case
        prob = build_problem(gen_synthetic(8, 4.0, noise, seed))
        cfg = SolverConfig(C=1.0, sigma=sigma, tol=1e-8, max_iter=max_iter)
        res = train_admm(prob, cfg)
        status, iters, point, cert, best_it = _full_budget_admm(prob, cfg)
        assert (res.status, res.iterations) == (status, iters), case
        for name in ("w", "b", "u", "lam"):
            got, want = getattr(res.point, name), getattr(point, name)
            assert _bits(got) == _bits(want), (case, name)
        assert res.certificate == cert, case
        assert _bits(res.objective) == _bits(
            objective(point.w, point.b, prob.dataset, 1.0)
        ), case
        assert res.diagnostics.get("best_iteration") == best_it, case
        if "cycle_period" in res.diagnostics:
            assert status is SolveStatus.MAX_ITER, case
            stopped += 1
    # The stopping path is covered, not only runs that never repeat.
    assert stopped >= 10


def test_cycle_period_recorded():
    # This run first returns to its iteration-512 state at iteration 920;
    # a budget that ends earlier records no period.
    prob = build_problem(gen_synthetic(8, 4.0, 0.0, 0))
    for max_iter, period in ((600, None), (919, None), (920, 408), (10000, 408)):
        res = train_admm(prob, SolverConfig(C=1.0, tol=1e-8, max_iter=max_iter))
        assert res.status is SolveStatus.MAX_ITER and res.iterations == max_iter
        assert res.diagnostics.get("cycle_period") == period, max_iter
    # The full-budget states agree: 408 is the least period, and no state
    # saved at an earlier power of two comes back within its window.
    states = []
    _full_budget_admm(prob, SolverConfig(C=1.0, tol=1e-8, max_iter=920), states)
    state = states[511]
    assert states[919] == state and state not in states[512:919]
    for saved in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        assert states[saved - 1] not in states[saved : 2 * saved]


def _assert_matches_full_budget(prob, cfg, case):
    """train_admm's result equals the full-budget loop's, bit for bit."""
    res = train_admm(prob, cfg)
    status, iters, point, cert, best_it = _full_budget_admm(prob, cfg)
    assert (res.status, res.iterations) == (status, iters), case
    for name in ("w", "b", "u", "lam"):
        got, want = getattr(res.point, name), getattr(point, name)
        assert _bits(got) == _bits(want), (case, name)
    assert res.certificate == cert, case
    assert res.diagnostics.get("best_iteration") == best_it, case
    return res


def _batch_problem(seed):
    return build_problem(gen_synthetic(8, 4.0, 0.1 if seed % 2 else 0.0, seed))


def test_block_boundaries_match_full_budget():
    # The screen runs once per block of up to 64 iterations at m = 16.
    # Budgets that end inside, on and just past a block give the
    # per-iteration result, and so do runs at other sample counts, odd ones
    # included.
    for seed in range(20):
        prob = _batch_problem(seed)
        for max_iter in (1, 63, 64, 65, 128):
            cfg = SolverConfig(C=1.0, tol=1e-8, max_iter=max_iter)
            _assert_matches_full_budget(prob, cfg, (seed, max_iter))
    for ds, max_iter in (
        (gen_synthetic(8, 4.0, 0.0, 10), 3000),  # converges, m = 15 too
        (gen_synthetic(8, 4.0, 0.0, 3), 3000),  # cycles at m = 15
        (gen_synthetic(500, 3.0, 0.05, 0), 300),  # m = 1000, 4-row blocks
        (gen_synthetic(2049, 3.0, 0.05, 1), 30),  # m = 4098, 1-row blocks
    ):
        prob = build_problem(ds)
        odd = build_problem(Dataset(X=ds.X[:-1], y=ds.y[:-1]))
        for p in (prob, odd):
            for sigma in (0.5, 1.0):
                cfg = SolverConfig(C=1.0, sigma=sigma, tol=1e-8, max_iter=max_iter)
                _assert_matches_full_budget(p, cfg, (p.m, sigma))


def test_budget_ending_on_convergence():
    # A budget that ends on a converging iteration converges there; one
    # iteration less returns the best iterate before it.  1606 is row 6 of
    # its block, 601 row 25 and 363 row 43.
    for seed, conv in ((15, 1606), (4, 601), (10, 363)):
        prob = _batch_problem(seed)
        for max_iter, status in (
            (conv, SolveStatus.CONVERGED),
            (conv - 1, SolveStatus.MAX_ITER),
        ):
            cfg = SolverConfig(C=1.0, tol=1e-8, max_iter=max_iter)
            res = _assert_matches_full_budget(prob, cfg, (seed, max_iter))
            assert res.status is status and res.iterations == max_iter


def test_best_iterate_earliest_on_ties():
    # Iterations 419 and 483 screen the same max residual, bit for bit, and
    # no iteration beats it, so the best iterate is the earlier one; a
    # non-strict update would return 483.  The run cycles with period 64
    # from iteration 494.
    prob = build_problem(gen_synthetic(2, 4.0, 0.1, 35))
    cfg = SolverConfig(C=1.0, sigma=0.25, tol=1e-8, max_iter=2000)
    res = _assert_matches_full_budget(prob, cfg, "ties")
    assert res.status is SolveStatus.MAX_ITER
    assert res.diagnostics["best_iteration"] == 419
    assert res.diagnostics["cycle_period"] == 64


def test_parity_in_both_prox_regimes():
    # sigma = C/10 puts the prox in the threshold regime (gamma*C = 10),
    # sigma = 4C in the shift regime (gamma*C = 1/4).
    for seed in range(20):
        prob = _batch_problem(seed)
        for sigma in (0.1, 4.0):
            cfg = SolverConfig(C=1.0, sigma=sigma, tol=1e-8, max_iter=2000)
            _assert_matches_full_budget(prob, cfg, (seed, sigma))


def test_parity_with_one_iteration_blocks():
    # From m = 4097 up each block is one iteration, so the finiteness test
    # and the screen run after every iteration; m = 4200 here, in both
    # prox regimes.
    prob = build_problem(gen_synthetic(2100, 4.0, 0.1, 0))
    assert prob.m > solver._BLOCK_SIZE
    for sigma in (0.5, 4.0):
        cfg = SolverConfig(C=1.0, sigma=sigma, tol=1e-8, max_iter=120)
        _assert_matches_full_budget(prob, cfg, sigma)


def test_screen_residuals_match_check_pstationary(monkeypatch):
    # The screen's residuals for a block of iterates are, row for row and
    # bit for bit, the ones check_pstationary gives each iterate alone: in
    # blocks of up to 64 rows at m = 16 and of one row at m = 4200.
    blocks = []

    def recorded(problem, *rows):
        R = residual_rows(problem, *rows)
        blocks.append((rows, R))
        return R

    monkeypatch.setattr(solver, "residual_rows", recorded)
    big = build_problem(gen_synthetic(2100, 4.0, 0.1, 0))
    for prob, max_iter in ((_batch_problem(15), 200), (big, 5)):
        cfg = SolverConfig(C=1.0, tol=1e-8, max_iter=max_iter)
        blocks.clear()
        train_admm(prob, cfg)
        sizes = {len(R) for _, R in blocks}
        assert sizes and (sizes == {1}) == (prob.m > solver._BLOCK_SIZE)
        for (Z, U, L, F, params), R in blocks:
            assert params == ProxParams(cfg.gamma, cfg.C) and R.shape[1] == 4
            for z, u, lam, r in zip(Z, U, L, R):
                point = PrimalDualPoint(w=z[: prob.n], b=z[prob.n], u=u, lam=lam)
                cert = check_pstationary(point, prob, cfg.C, cfg.gamma, cfg.tol)
                want = (cert.r_grad, cert.r_y, cert.r_feas, cert.r_prox)
                assert _bits(r) == _bits(want)


def test_problem_without_features():
    # n = 0 leaves only b free, and w is empty, so r_grad is 0.  The
    # oracle's minimizer grades p-stationary, and training converges.
    prob = build_problem(Dataset(X=np.zeros((3, 0)), y=[1.0, -1.0, 1.0]))
    w, b, value = global_oracle(prob, 1.0, bounds=[(-5.0, 5.0)])
    assert w.shape == (0,) and value == 1.0
    assert grade_point(w, b, prob, 1.0).verdict is Verdict.P_STATIONARY
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED and res.iterations == 5
    assert res.certificate.r_grad == 0.0
    assert res.certificate.verdict is Verdict.P_STATIONARY


def test_prox_hook_called_once_per_iteration(monkeypatch):
    # Each executed iteration calls solver._prox_primary once, through the
    # module attribute, so wrapping it counts iterations.  A full budget
    # runs every iteration; a converging run runs on at most to the end of
    # the block that holds its converging iteration.
    prox_primary = solver._prox_primary
    calls = []

    def counted(s, params, out=None):
        calls.append(None)
        return prox_primary(s, params, out)

    monkeypatch.setattr(solver, "_prox_primary", counted)
    res = train_admm(_batch_problem(5), SolverConfig(C=1.0, tol=1e-8, max_iter=500))
    assert res.status is SolveStatus.MAX_ITER and res.iterations == 500
    assert "cycle_period" not in res.diagnostics
    assert len(calls) == 500
    calls.clear()
    res = train_admm(_batch_problem(10), SolverConfig(C=1.0, tol=1e-8))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= len(calls) <= res.iterations + solver._BLOCK_ROWS - 1


def test_finite_multipliers_beyond_the_dot_range():
    # At C = 1e300 every lam is finite with entries near 1e299, so
    # lam @ lam overflows; the run must not count that as non-finite.
    prob = _batch_problem(0)
    cfg = SolverConfig(C=1e300, tol=1e-8, max_iter=100)
    res = _assert_matches_full_budget(prob, cfg, "C = 1e300")
    assert res.status is SolveStatus.MAX_ITER
    assert np.abs(res.point.lam).max() > 1e299


def test_divergence_inside_a_block(monkeypatch):
    # A non-finite iterate at iteration k ends the run with DIVERGED at k,
    # unless an earlier iteration of the same block converges: seed 15
    # converges at iteration 1606, the sixth row of the block that starts
    # at 1601.  The iterate goes non-finite through u (NaN, +inf, -inf),
    # through the prox input s, or through z while u stays finite; no run
    # raises a warning on the way.
    prob = _batch_problem(15)
    cfg = SolverConfig(C=1.0, tol=1e-8)
    clean = train_admm(prob, cfg)
    prox_primary = solver._prox_primary
    # A finite u along the labels drives b, and so every entry of B z,
    # beyond the float range; checked here at iteration 1 (lam = 0).
    big_u = np.finfo(float).max * prob.dataset.y
    M = cfg.sigma * (prob.B.T @ prob.B)
    M[np.arange(prob.n), np.arange(prob.n)] += 1.0
    K = -cfg.sigma * spd_solver(M)(prob.B.T)
    with np.errstate(over="ignore"):
        assert not np.isfinite(K @ (big_u - 1.0)).all()
    poisons = (
        ("u", 0, math.nan),
        ("u", 0, math.inf),
        ("u", 0, -math.inf),
        ("s", 0, math.nan),
        ("s", 0, -math.inf),
        ("u", slice(None), big_u),
    )
    for p, (target, index, value) in enumerate(poisons):
        for k in (1, 64, 65, 1600, 1601, 1606, 1607, 1664):
            calls = []

            def poisoned(s, params, out=None):
                calls.append(None)
                hit = len(calls) == k
                if hit and target == "s":
                    s[index] = value
                u = prox_primary(s, params, out=out)
                if hit and target == "u":
                    u[index] = value
                return u

            monkeypatch.setattr(solver, "_prox_primary", poisoned)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = train_admm(prob, cfg)
            case = (p, k)
            if k <= 1606:
                assert res.status is SolveStatus.DIVERGED, case
                assert res.iterations == k, case
                assert res.diagnostics["reason"] == (
                    f"non-finite iterate at iteration {k}"
                ), case
            else:
                assert (res.status, res.iterations) == (
                    SolveStatus.CONVERGED,
                    1606,
                ), case
                assert _bits(res.point.lam) == _bits(clean.point.lam), case
                assert res.certificate == clean.certificate, case


def test_train_diverged_status():
    # sigma = 1e308 overflows the (w, b) system before the first iteration.
    for ds, C in (
        (symmetric_pair_dataset(), 1.0),
        (counterexample_dataset(), COUNTEREXAMPLE_C),
    ):
        res = train_admm(build_problem(ds), SolverConfig(C=C, sigma=1e308, max_iter=50))
        assert res.status is SolveStatus.DIVERGED and res.iterations == 0
        assert res.diagnostics["reason"] == (
            "SPD factorization failed: array must not contain infs or NaNs"
        )


# Integer-grid instances.  Every plane u_i = 1 (B_i z = 0) passes through
# z = 0, so m >= 4 planes meet at that vertex; repeated and collinear
# samples add coincident planes and more such vertices.  The two sets with
# m = 6 have tied minima at distinct points.
_GRID_INSTANCES = [
    ([[-1], [1], [0], [-1]], [1, -1, -1, 1]),
    ([[0], [1], [2], [-1], [1]], [1, 1, -1, -1, -1]),
    ([[1], [2], [-1], [-2], [0], [0]], [1, 1, -1, -1, 1, -1]),
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, -1, -1]),
    ([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, -1, 1, -1]),
    ([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], [1, 1, -1, -1, 1, -1]),
    ([[1, 1], [1, 1], [-1, 0], [0, -1], [2, 2]], [1, -1, 1, -1, 1]),
]


def _enumeration_datasets():
    """Five random tiny instances and the grid ones."""
    rng = np.random.default_rng(21)
    datasets = []
    while len(datasets) < 5:
        m = int(rng.integers(3, 7))
        X = rng.uniform(-2.0, 2.0, size=(m, 2))
        y = rng.choice([-1.0, 1.0], size=m)
        ds = Dataset(X=X, y=y)
        if build_problem(ds).full_column_rank:
            datasets.append(ds)
    return datasets + [
        Dataset(X=np.array(X, float), y=np.array(y, float)) for X, y in _GRID_INSTANCES
    ]


def _wide_box(prob, C):
    """The box the enumeration tests solve in, from |w|^2 / 2 <= f(0, 0) <= C m."""
    wb = math.sqrt(2.0 * C * prob.m) + 0.5
    bb = 1.0 + float(np.linalg.norm(prob.A, axis=1).max()) * wb + 0.5
    return [(-wb, wb)] * prob.n + [(-bb, bb)]


def test_oracle_matches_enumeration():
    # Independent check on five random tiny instances and the grid ones:
    # the arrangement enumeration must land on the exact combinatorial
    # minimum.
    C = 1.0
    found = []
    for ds in _enumeration_datasets():
        prob = build_problem(ds)
        f_star = kkt_enumerate(prob, ds, C)[0][0]
        w, b, f_hat = global_oracle(prob, C, bounds=_wide_box(prob, C))
        assert f_hat == pytest.approx(f_star, abs=1e-9), ds
        assert f_hat >= f_star - 1e-12
        found.append((*w, b, f_hat))
    # The first grid set, where two samples share x = -1: f = 1.5 at
    # (w, b) = (-1, 0).
    assert found[5] == pytest.approx((-1.0, 0.0, 1.5), abs=1e-9)


@st.composite
def _grid_cases(draw):
    """An integer-grid set, X in {-2, ..., 2}^(m x n) with n <= 2 and
    m <= 5, and C."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    X = draw(st.lists(row, min_size=m, max_size=m))
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    C = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return Dataset(X=np.array(X, float), y=np.array(y)), C


@given(_grid_cases())
@settings(max_examples=60, database=None, deadline=None)
@seed(19)
def test_oracle_matches_enumeration_on_grids(case):
    # Integer grids put more than d planes through a vertex and give line
    # directions exact zero components, which decide their up side.
    ds, C = case
    prob = build_problem(ds)
    w, b, f = _oracle_covering_every_face(prob, C, _wide_box(prob, C))
    assert f == pytest.approx(kkt_enumerate(prob, ds, C)[0][0], abs=1e-9)


def _oracle_covering_every_face(prob, C, box):
    """global_oracle's (w, b, value), once its candidates are checked to
    hold the flat minimizer of every face in the box, listed from every
    vertex through it."""
    candidates = []

    def spy(*args):
        candidates.append(real(*args))
        return candidates[-1]

    real = solver._candidates
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_candidates", spy)
        result = global_oracle(prob, C, bounds=box)
    reference = arrangement_face_minimizers(prob, C, box)
    gap = cKDTree(candidates[0]).query(reference, p=np.inf)[0]
    scale = 1.0 + np.abs(np.array(box)).max()
    assert gap.max() <= 1e-9 * scale, (
        f"{np.sum(gap > 1e-9 * scale)} of {len(gap)} faces missed, m = {prob.m}, C = {C}"
    )
    return result


def test_oracle_candidates_cover_every_face():
    # The oracle generates each edge and 2-D face from one vertex only, yet
    # misses none, on the enumeration's instances, criterion 8's pairs of
    # seeds 100-104, and a set with a repeated sample, where kink planes
    # coincide and vertices hold more than d planes.
    instances = [
        (prob, 1.0, _wide_box(prob, 1.0))
        for prob in map(build_problem, _enumeration_datasets())
    ]
    for data_seed in range(100, 105):
        prob0, prob1, box = _criterion8_pair(data_seed)
        instances += [(prob0, 1.0, box), (prob1, 1.0, box)]
    repeated = build_problem(
        Dataset(
            X=np.array([[-1, 1], [1, -1], [-1, 0], [1, -1], [1, 1]], float),
            y=np.array([-1, -1, 1, 1, 1], float),
        )
    )
    instances += [(repeated, C, _wide_box(repeated, C)) for C in (0.5, 2.0)]
    for prob, C, box in instances:
        _oracle_covering_every_face(prob, C, box)


def test_oracle_counterexample_exact():
    prob = build_problem(counterexample_dataset())
    w, b, f = global_oracle(
        prob, COUNTEREXAMPLE_C, bounds=((-4, 4), (-4, 4), (-9, 9))
    )
    assert f == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(w, 0.0, atol=1e-12)
    # The easy all-positive classifier beats the KKT point's value of 0.5.
    assert f < 0.5


def test_oracle_respects_objective(tmp_path):
    prob = build_problem(symmetric_pair_dataset())
    w, b, f = global_oracle(prob, 1.0, bounds=((-2, 2), (-3, 3)))
    assert f == pytest.approx(objective(w, b, prob.dataset, 1.0), abs=1e-12)
    assert f == pytest.approx(0.5, abs=1e-9)


def test_oracle_rejects_high_dimensions():
    X = np.eye(3)
    y = np.array([1.0, -1.0, 1.0])
    prob = build_problem(Dataset(X=X, y=y))
    with pytest.raises(ValueError):
        global_oracle(prob, 1.0, bounds=(-1.0, 1.0))


@pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
def test_oracle_rejects_bad_C(C):
    prob = build_problem(symmetric_pair_dataset())
    with pytest.raises(ValueError, match="C must be finite and positive"):
        global_oracle(prob, C, bounds=((-2, 2), (-3, 3)))


@pytest.mark.parametrize(
    "bounds", [((-math.inf, 2), (-3, 3)), ((-2, 2), (-3, math.nan))]
)
def test_oracle_rejects_non_finite_bounds(bounds):
    prob = build_problem(symmetric_pair_dataset())
    with pytest.raises(ValueError, match="bounds must be finite"):
        global_oracle(prob, 1.0, bounds=bounds)


@pytest.mark.parametrize(
    "bounds, message",
    [
        # One (lo, hi) pair for every coordinate is not a box.
        ((-2, 2), r"bounds need 2 \(lo, hi\) pairs, got shape \(2,\)"),
        (((-2, 2),) * 3, r"bounds need 2 \(lo, hi\) pairs, got shape \(3, 2\)"),
        (((-2, 2, 0), (-3, 3, 0)), r"got shape \(2, 3\)"),
        (((-2, 2), (3, 3)), "bounds has an empty axis"),
        (((2, -2), (-3, 3)), "bounds has an empty axis"),
    ],
    ids=["one-pair", "three-pairs", "three-columns", "zero-width", "reversed"],
)
def test_oracle_rejects_misshapen_bounds(bounds, message):
    prob = build_problem(symmetric_pair_dataset())
    with pytest.raises(ValueError, match=message):
        global_oracle(prob, 1.0, bounds=bounds)


def _criterion8_pair(seed, C=1.0):
    """Criterion 8's clean set, the same set plus the outlier, and the box
    both are solved in."""
    clean = gen_synthetic(4, 3.0, 0.0, seed)
    augmented = Dataset(
        X=np.vstack([clean.X, [[-30.0, 0.0]]]), y=np.append(clean.y, 1.0)
    )
    prob0, prob1 = build_problem(clean), build_problem(augmented)
    wb = math.sqrt(2.0 * C * prob1.m) + 0.5
    bb = 1.0 + float(np.linalg.norm(prob1.A, axis=1).max()) * wb + 0.5
    return prob0, prob1, ((-wb, wb), (-wb, wb), (-bb, bb))


def _certify_minimizer(prob, C, w, b):
    """Certificate of a primal point at criterion 5's prox step, tol 1e-2."""
    u = 1.0 - prob.A @ w - b * prob.y
    lam, _ = recover_multiplier(w, b, prob, C)
    gamma = min(0.5 / prob.lambda_h, 1.9 / C)
    for u_i in u:
        if u_i > 1.0 + 1e-3:
            gamma = min(gamma, (u_i - 1.0) / C)
        elif 1e-3 < u_i < 1.0 - 1e-3:
            gamma = min(gamma, (1.0 - u_i) / C)
    point = PrimalDualPoint(w=w, b=b, u=u, lam=lam)
    return check_pstationary(point, prob, C, gamma, 1e-2)


# kkt_enumerate's minima of the clean sets on which the earlier grid oracle
# stopped above the minimum (158) or at a point that did not certify (134,
# 140).  Pinned because kkt_enumerate takes about 25 s per m = 8 set.
_KKT_MINIMA = {
    134: 0.2436387331828053,
    140: 2.5561225426553733,
    158: 1.0082417092383271,
}


# The oracle's (f0, f1) on every pair of data seeds 100-159, recorded from
# the enumeration that solved every face once per vertex through it.
_PAIR_VALUES = {
    100: (2.2027587256326164, 3.2027587256326164),
    101: (0.49651294143316893, 1.496512941433169),
    102: (0.5856667748584502, 1.58566677485845),
    103: (0.20057793733976936, 1.2005779373397694),
    104: (1.018921466087427, 2.018921466087427),
    105: (1.2019305134807738, 2.2019305134807734),
    106: (0.2870366763819234, 1.2870366763819232),
    107: (1.3831314621203938, 2.3831314621203936),
    108: (1.5814035311067496, 2.5814035311067496),
    109: (0.28692377440744593, 1.286923774407446),
    110: (1.4942991372690142, 2.494299137269014),
    111: (0.5501358749709907, 1.5501358749709908),
    112: (0.6764039577418437, 1.6764039577418437),
    113: (0.28524497444516184, 1.285244974445162),
    114: (1.1783644876710817, 2.178364487671082),
    115: (0.36725513314888436, 1.3672551331488845),
    116: (1.4359751867187205, 2.4359751867187205),
    117: (0.4485051593275861, 1.4485051593275862),
    118: (0.6918595122441905, 1.6918595122441906),
    119: (0.6147939750660916, 1.6147939750660916),
    120: (0.3099085859971656, 1.3099085859971655),
    121: (1.453316109436542, 2.4533161094365417),
    122: (1.3816792640221018, 2.3816792640221016),
    123: (1.7711607798969018, 2.771160779896902),
    124: (1.3277029522354404, 2.32770295223544),
    125: (0.42655836871862324, 1.4265583687186232),
    126: (0.9156683481841925, 1.9156683481841925),
    127: (1.594590476011689, 2.594590476011689),
    128: (1.2327612994901183, 2.232761299490118),
    129: (0.36589289149447884, 1.3658928914944788),
    130: (0.25115073680327366, 1.2511507368032737),
    131: (1.4282132051284795, 2.4282132051284795),
    132: (1.283092871980291, 2.283092871980291),
    133: (2.32158661567932, 3.32158661567932),
    134: (0.24363873318280527, 1.2436387331828052),
    135: (0.664227720437116, 1.664227720437116),
    136: (0.7312781940410875, 1.7312781940410877),
    137: (1.545526109343478, 2.545526109343478),
    138: (2.2840451480133797, 3.2840451480133797),
    139: (1.1132730494615037, 2.1132730494615037),
    140: (2.5561225426553733, 3.2033520477953514),
    141: (1.3552631383274951, 2.355263138327495),
    142: (2.2381769741597326, 3.2381769741597326),
    143: (0.36069198002446, 1.36069198002446),
    144: (1.6584870055583334, 2.6584870055583334),
    145: (2.0103285813129816, 3.0103285813129816),
    146: (1.8744192115822602, 2.87441921158226),
    147: (1.3114100524449617, 2.3114100524449617),
    148: (1.6088560687610456, 2.6088560687610456),
    149: (1.1937788547971013, 2.1937788547971007),
    150: (0.3896606738101051, 1.3896606738101052),
    151: (2.954525235092781, 3.954525235092781),
    152: (0.6876908559012977, 1.6876908559012977),
    153: (0.41797467833399016, 1.4179746783339902),
    154: (0.4307659249361404, 1.4307659249361404),
    155: (0.6088531447800128, 1.6088531447800127),
    156: (1.5348722326222681, 2.534872232622268),
    157: (1.1596659665688351, 2.159665966568835),
    158: (1.0082417092383276, 2.0082417092383276),
    159: (1.1082153924520066, 2.1082153924520064),
}


def test_oracle_sweep_criterion8_pairs():
    # Every pair of data seeds 100-159: adding the outlier costs at most C,
    # every minimizer certifies, and the pinned minima are matched.
    for seed in range(100, 160):
        prob0, prob1, box = _criterion8_pair(seed)
        values = []
        for prob in (prob0, prob1):
            w, b, f = global_oracle(prob, 1.0, bounds=box)
            cert = _certify_minimizer(prob, 1.0, w, b)
            assert cert.verdict is Verdict.P_STATIONARY, (
                f"seed {seed}, m = {prob.m}: residual {cert.max_residual:.3e}"
            )
            values.append(f)
        f0, f1 = values
        assert f0 - 1e-9 <= f1 <= f0 + 1.0 + 1e-6, f"seed {seed}: {f0}, {f1}"
        assert values == pytest.approx(_PAIR_VALUES[seed], abs=1e-12), seed
        if seed in _KKT_MINIMA:
            assert f0 == pytest.approx(_KKT_MINIMA[seed], abs=1e-9), seed


def _exact_b_grid(X, y, C, box, step):
    """Lowest objective over a w-grid of the given step with b exact in the
    box: for fixed w the objective is piecewise linear in b with kinks at
    u_j = 0 and u_j = 1, so its minimum over [b_lo, b_hi] sits at a kink
    clipped into that range."""
    *w_box, (b_lo, b_hi) = box
    axes = [np.arange(lo, hi + 0.5 * step, step) for lo, hi in w_box]
    W = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    z = (W @ X.T) * y
    bs = np.clip(np.concatenate((y * (1.0 - z), -y * z), axis=1), b_lo, b_hi)
    U = 1.0 - z[:, None, :] - bs[:, :, None] * y
    f = 0.5 * np.sum(W * W, axis=1)[:, None] + C * np.clip(U, 0.0, 1.0).sum(axis=2)
    return float(f.min())


@pytest.mark.parametrize(
    "ds, box",
    [
        (symmetric_pair_dataset(), ((-0.5, 0.5), (-3.0, 3.0))),
        (gen_synthetic(4, 3.0, 0.0, 100), ((-0.3, 0.3), (-0.3, 0.3), (-5.0, 5.0))),
    ],
)
def test_oracle_box_cuts_off_minimizer(ds, box):
    prob = build_problem(ds)
    wide = [(-10.0, 10.0)] * prob.n + [(-50.0, 50.0)]
    w_free, b_free, f_free = global_oracle(prob, 1.0, bounds=wide)
    coords = (*w_free, b_free)
    assert not all(lo <= v <= hi for v, (lo, hi) in zip(coords, box))
    w, b, f = global_oracle(prob, 1.0, bounds=box)
    assert all(lo <= v <= hi for v, (lo, hi) in zip((*w, b), box))
    assert f == objective(w, b, ds, 1.0)
    assert f_free < f <= _exact_b_grid(ds.X, ds.y, 1.0, box, step=0.005) + 1e-12


def test_predict_signs():
    w = np.array([1.0, -1.0])
    assert predict(w, 0.0, np.array([2.0, 1.0])) == 1
    assert predict(w, 0.0, np.array([0.0, 3.0])) == -1
    assert predict(w, 0.0, np.array([1.0, 1.0])) == 1  # tie goes positive
    with pytest.raises(ValueError):
        predict(w, 0.0, np.array([1.0]))


def test_diagnostics_present():
    # Diagnostics hold only what the report's params and certificate do not:
    # a diverged run's reason, a max-iter run's best iteration (and cycle).
    prob = build_problem(symmetric_pair_dataset())
    res = train_admm(prob, SolverConfig(C=1.0))
    assert res.status is SolveStatus.CONVERGED and res.diagnostics == {}
    res = train_admm(prob, SolverConfig(C=1.0, max_iter=1))
    assert res.status is SolveStatus.MAX_ITER
    assert res.diagnostics == {"best_iteration": 1}
    res = train_admm(prob, SolverConfig(C=1.0, sigma=1e308))
    assert res.status is SolveStatus.DIVERGED
    assert set(res.diagnostics) == {"reason"}
