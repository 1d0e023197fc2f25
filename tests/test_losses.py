"""Ramp loss and the full objective."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rampsvm import (
    Dataset,
    objective,
    ramp_loss,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@pytest.mark.parametrize(
    "t, expected",
    [
        (-3.0, 0.0),
        (-1e-300, 0.0),
        (0.0, 0.0),
        (0.25, 0.25),
        (0.5, 0.5),
        (1.0, 1.0),
        (1.5, 1.0),
        (1e9, 1.0),
    ],
)
def test_ramp_loss_values(t, expected):
    assert ramp_loss(t) == expected


@given(finite_floats)
def test_ramp_loss_matches_clip_formula(t):
    assert ramp_loss(t) == min(1.0, max(t, 0.0))


@given(finite_floats, finite_floats)
def test_ramp_loss_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert ramp_loss(lo) <= ramp_loss(hi)


def test_ramp_loss_rejects_nonfinite():
    with pytest.raises(ValueError):
        ramp_loss(float("nan"))
    with pytest.raises(ValueError):
        ramp_loss(float("inf"))


@given(st.lists(finite_floats, min_size=1, max_size=40))
def test_ramp_loss_sum_is_sum_of_scalars(vals):
    # With w = 1, b = 0 and x_i = 1 - u_i on positive labels, the margins
    # are u_i, so the objective is 0.5 + sum_i ramp_loss(u_i) at C = 1.
    u = np.array(vals)
    ds = Dataset(X=(1.0 - u)[:, None], y=np.ones(u.size))
    assert objective(np.ones(1), 0.0, ds, 1.0) == pytest.approx(
        0.5 + sum(ramp_loss(v) for v in vals), abs=1e-9
    )


def _toy_dataset():
    X = np.array([[1.0, 0.0], [0.5, -2.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    return Dataset(X=X, y=y)


def test_objective_matches_direct_formula():
    ds = _toy_dataset()
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.standard_normal(2)
        b = float(rng.standard_normal())
        C = float(rng.uniform(0.1, 3.0))
        u = 1.0 - ds.y * (ds.X @ w + b)
        direct = 0.5 * float(w @ w) + C * float(np.clip(u, 0.0, 1.0).sum())
        assert objective(w, b, ds, C) == pytest.approx(direct, abs=1e-12)


def test_objective_validates_inputs():
    ds = _toy_dataset()
    with pytest.raises(ValueError):
        objective(np.zeros(3), 0.0, ds, 1.0)
    with pytest.raises(ValueError):
        objective(np.zeros(2), 0.0, ds, 0.0)
    with pytest.raises(ValueError):
        objective(np.zeros(2), 0.0, ds, -1.0)
    # NaN and infinite C used to slip through a bare C <= 0 check.
    for C in (np.nan, np.inf):
        with pytest.raises(ValueError, match="C must be finite and positive"):
            objective(np.zeros(2), 0.0, ds, C)
