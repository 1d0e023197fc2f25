"""Set-valued ramp prox: closed forms, ties, regimes, and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import prox_objective, prox_oracle
from rampsvm import (
    ProxParams,
    ProxSet,
    prox_array,
    prox_distance,
    prox_scalar,
)
from rampsvm.prox import _prox_primary

# (s, gammaC) -> expected values, worked out by hand from the two closed
# forms.  Shift regime (gammaC < 2): stay above 1 + gammaC/2, shift down by
# gammaC inside [gammaC, 1 + gammaC/2), collapse to 0 inside (0, gammaC),
# stay at or below 0.  Threshold regime (gammaC >= 2): stay above
# sqrt(2 gammaC), collapse to 0 inside (0, sqrt(2 gammaC)), stay at or
# below 0.
HAND_CASES = [
    (2.0, 1.0, (2.0,)),
    (1.2, 1.0, (1.2 - 1.0,)),
    (1.0, 1.0, (0.0,)),
    (0.5, 1.0, (0.0,)),
    (0.0, 1.0, (0.0,)),
    (-0.7, 1.0, (-0.7,)),
    (1.5, 1.0, (1.5, 0.5)),
    (4.0, 8.0, (4.0, 0.0)),
    (4.1, 8.0, (4.1,)),
    (3.9, 8.0, (0.0,)),
    (0.0, 8.0, (0.0,)),
    (-2.0, 8.0, (-2.0,)),
]


@pytest.mark.parametrize("s, gc, expected", HAND_CASES)
def test_prox_scalar_hand_cases(s, gc, expected):
    out = prox_scalar(s, ProxParams(gamma=gc, C=1.0))
    assert out.values == expected
    assert out.tie == (len(expected) == 2)


def test_prox_depends_only_on_gammaC():
    # Scaling (gamma, C) at fixed gammaC rescales the prox objective but
    # not its minimizers.
    for s in (-1.0, 0.3, 1.2, 1.75, 2.5):
        a = prox_scalar(s, ProxParams(gamma=1.5, C=1.0))
        b = prox_scalar(s, ProxParams(gamma=0.5, C=3.0))
        assert a.values == b.values


def test_tie_objectives_match():
    for gc in (0.5, 1.0, 1.9):
        params = ProxParams(gamma=gc, C=1.0)
        s = 1.0 + gc / 2.0
        out = prox_scalar(s, params)
        assert out.tie and len(out.values) == 2
        f0 = prox_objective(out.values[0], s, params)
        f1 = prox_objective(out.values[1], s, params)
        assert abs(f0 - f1) <= 1e-12
    for gc in (2.0, 8.0):
        params = ProxParams(gamma=gc, C=1.0)
        s = math.sqrt(2.0 * gc)
        out = prox_scalar(s, params)
        assert out.tie and out.values[1] == 0.0
        f0 = prox_objective(out.values[0], s, params)
        f1 = prox_objective(out.values[1], s, params)
        assert abs(f0 - f1) <= 1e-12


def test_tie_lists_stay_value_first():
    out = prox_scalar(1.5, ProxParams(gamma=1.0, C=1.0))
    assert out.values[0] == 1.5
    out = prox_scalar(2.0, ProxParams(gamma=2.0, C=1.0))
    assert out.values[0] == 2.0


@given(st.floats(min_value=-5.0, max_value=8.0))
@settings(max_examples=300)
def test_prox_scalar_beats_probes(s):
    # Definitional property: every returned value minimizes the prox
    # objective, so no probe point may do better.
    for gc in (0.3, 1.0, 1.9, 2.0, 4.0):
        params = ProxParams(gamma=gc, C=1.0)
        out = prox_scalar(s, params)
        best = min(prox_objective(v, s, params) for v in out.values)
        for v in np.linspace(min(s, -1.0) - 1.0, max(s, 2.0) + 1.0, 97):
            assert best <= prox_objective(float(v), s, params) + 1e-12


@given(st.floats(min_value=-5.0, max_value=8.0))
@settings(max_examples=200)
def test_prox_scalar_matches_oracle(s):
    for gc in (0.3, 1.9, 2.0, 10.0):
        params = ProxParams(gamma=gc, C=1.0)
        out = prox_scalar(s, params)
        oracle_best = prox_objective(prox_oracle(s, params), s, params)
        for v in out.values:
            assert prox_objective(v, s, params) <= oracle_best + 1e-9


def test_prox_oracle_sanity():
    params = ProxParams(gamma=1.0, C=1.0)
    v = prox_oracle(1.2, params)
    assert v == pytest.approx(0.2, abs=1e-3)


@pytest.mark.parametrize("gc", [0.3, 1.9, 2.0, 10.0])
@pytest.mark.parametrize(
    "s", [-4.3, -1.0, 0.0, 0.7, 1.2, 1.95, 2.0, 4.47213595499958, 7.9]
)
def test_prox_oracle_matches_dense_scan(s, gc):
    # The oracle scans its grid in blocks; it must pick the same point as
    # one dense scan of candidates then np.arange grid, first minimum wins.
    params = ProxParams(gamma=gc, C=1.0)
    grid = np.arange(min(s, -1.0) - 1.0, max(s, 2.0) + 1.0 + 0.5e-4, 1e-4)
    v = np.concatenate(([s, s - gc, 0.0], grid))
    obj = np.clip(v, 0.0, 1.0) + (v - s) ** 2 / (2.0 * gc)
    assert prox_oracle(s, params) == v[int(np.argmin(obj))]


# (gamma, C) pairs covering the shift regime, gamma*C exactly 2.0 (also as
# 0.5 * 4.0) and the threshold regime.
ARRAY_PARAMS = [
    (0.3, 1.0),
    (0.7, 2.0),
    (1.9, 1.0),
    (2.0, 1.0),
    (0.5, 4.0),
    (4.0, 1.0),
    (8.0, 1.25),
]
SPECIAL_S = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


def _step_ulps(x, k):
    """x moved k representable floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


def _anchors(params):
    """Kinks 0 and gamma*C, and both regimes' tie thresholds."""
    gc = params.gammaC
    return [0.0, gc, 1.0 + gc / 2.0, math.sqrt(2.0 * gc)]


def _bits(x):
    return np.float64(x).tobytes()


def _assert_matches_scalar(s, u, params):
    primary, alternative, tie = prox_array(np.array(s), params)
    dist = prox_distance(np.array(u), np.array(s), params)
    assert primary.shape == alternative.shape == tie.shape == dist.shape
    for i, (s_i, u_i) in enumerate(zip(s, u)):
        ref = prox_scalar(s_i, params)
        assert _bits(primary[i]) == _bits(ref.values[0]), (s_i, ref)
        assert _bits(alternative[i]) == _bits(ref.values[-1]), (s_i, ref)
        assert bool(tie[i]) is ref.tie, (s_i, ref)
        assert _bits(dist[i]) == _bits(ref.distance(u_i)), (s_i, u_i, ref)


@pytest.mark.parametrize("gamma, C", ARRAY_PARAMS)
def test_prox_array_matches_scalar_at_boundaries(gamma, C):
    # Every anchor, exactly and within 3 ulps, plus signed zeros and
    # subnormals; u at each member of the set and off it.
    params = ProxParams(gamma, C)
    s = SPECIAL_S + [
        _step_ulps(a, k) for a in _anchors(params) for k in range(-3, 4)
    ]
    primary, alternative, _ = prox_array(np.array(s), params)
    for u in (primary, alternative, np.array(s) + 0.25, -np.array(s)):
        _assert_matches_scalar(s, list(u), params)
    # Rows of one width, stacked into R x m blocks: each row of the 2-d
    # distance's max is the 1-d result bit for bit.  Row 2 has a tie and
    # the alternative member as u, at distance 0 only through the tie; rows
    # 4, 5 and 6 have u = inf, NaN and -inf.
    gc = params.gammaC
    thr = 1.0 + gc / 2.0 if gc < 2.0 else math.sqrt(2.0 * gc)
    rng = np.random.default_rng(11)
    rows = [rng.uniform(-2.0, 2.0 * thr, (2, 6)) for _ in range(7)]
    rows[2][1, 3] = thr
    rows[2][0] = prox_array(rows[2][1], params)[1]
    rows[4][0, 0] = math.inf
    rows[5][0, 5] = math.nan
    rows[6][0, 1] = -math.inf
    for u, s_row in rows:
        _assert_matches_scalar(list(s_row), list(u), params)
    for block in (rows[:2], rows, rows[2:3]):
        U = np.stack([u for u, _ in block])
        S = np.stack([s_row for _, s_row in block])
        got = prox_distance(U, S, params).max(axis=1)
        assert got.shape == (len(block),)
        for g, u, s_row in zip(got, U, S):
            assert _bits(g) == _bits(prox_distance(u, s_row, params).max())
    assert prox_distance(*rows[2], params).max() == 0.0


@st.composite
def _array_prox_cases(draw):
    params = ProxParams(*draw(st.sampled_from(ARRAY_PARAMS)))
    near_anchor = st.builds(
        _step_ulps, st.sampled_from(_anchors(params)), st.integers(-4, 4)
    )
    element = st.one_of(
        st.floats(min_value=-5.0, max_value=8.0),
        near_anchor,
        st.sampled_from(SPECIAL_S),
    )
    s = draw(st.lists(element, min_size=1, max_size=30))
    u = draw(st.lists(element, min_size=len(s), max_size=len(s)))
    return s, u, params


@given(_array_prox_cases())
@settings(max_examples=300)
def test_prox_array_matches_scalar(case):
    s, u, params = case
    _assert_matches_scalar(s, u, params)


def _nested_where_primary(s, params):
    """The primary branch as nested np.where selections, the form
    _prox_primary's keep mask replaced in both regimes."""
    gc = params.gammaC
    thr = 1.0 + gc / 2.0 if gc < 2.0 else math.sqrt(2.0 * gc)
    if gc < 2.0:
        below = np.where(s >= gc, s - gc, np.where(s > 0.0, 0.0, s))
    else:
        below = np.where(s > 0.0, 0.0, s)
    return np.where(s >= thr, s, below)


@pytest.mark.parametrize("gamma, C", ARRAY_PARAMS)
def test_prox_primary_matches_prox_array(gamma, C):
    # The trainer's unchecked primary branch gives prox_array's primary
    # value, and the scalar reference's first value, bit for bit: at the
    # signed zeros and subnormals, gamma*C, the tie threshold and the floats
    # on either side of it, and on random arrays; also when written into
    # out, s itself included.  On +-inf and NaN, which prox_array
    # rejects, it gives the nested-where form's values, a non-finite u
    # that the trainer's one finiteness test relies on.
    params = ProxParams(gamma, C)
    gc = params.gammaC
    thr = 1.0 + gc / 2.0 if gc < 2.0 else math.sqrt(2.0 * gc)
    s = [-0.0, 0.0, 5e-324, -5e-324, gc] + [_step_ulps(thr, k) for k in (-1, 0, 1)]
    rng = np.random.default_rng(7)
    for arr in [np.array(s)] + [rng.uniform(-2.0, 2.0 * thr, 40) for _ in range(20)]:
        got = _prox_primary(arr, params)
        assert got.tobytes() == prox_array(arr, params)[0].tobytes(), arr
        assert got.tobytes() == _nested_where_primary(arr, params).tobytes(), arr
        for g_i, s_i in zip(got, arr):
            assert _bits(g_i) == _bits(prox_scalar(s_i, params).values[0]), s_i
        out = np.full(arr.shape, np.nan)
        assert _prox_primary(arr, params, out=out) is out
        assert out.tobytes() == got.tobytes(), arr
        out[:] = arr
        assert _prox_primary(out, params, out=out) is out
        assert out.tobytes() == got.tobytes(), arr
    bad = np.array([math.inf, -math.inf, math.nan, -math.nan, 0.5, -1.0])
    got = _prox_primary(bad, params)
    assert got.tobytes() == _nested_where_primary(bad, params).tobytes()
    assert np.isinf(got[:2]).all() and np.isnan(got[2:4]).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prox_array_rejects_non_finite(bad):
    params = ProxParams(gamma=1.0, C=1.0)
    with pytest.raises(ValueError):
        prox_array(np.array([0.5, bad]), params)
    with pytest.raises(ValueError):
        prox_distance(np.zeros(2), np.array([0.5, bad]), params)
    with pytest.raises(ValueError, match="prox needs finite arguments"):
        prox_distance(np.zeros((2, 2)), np.array([[0.5, 0.5], [0.5, bad]]), params)
    with pytest.raises(ValueError):
        prox_scalar(bad, params)


def test_prox_set_distance():
    out = ProxSet(values=(1.5, 0.5), tie=True)
    assert out.distance(0.5) == 0.0
    assert out.distance(1.0) == 0.5
    assert out.distance(-1.0) == 1.5


def test_prox_params_validation():
    with pytest.raises(ValueError):
        ProxParams(gamma=0.0, C=1.0)
    with pytest.raises(ValueError):
        ProxParams(gamma=1.0, C=-2.0)
    with pytest.raises(ValueError):
        prox_scalar(float("nan"), ProxParams(gamma=1.0, C=1.0))
