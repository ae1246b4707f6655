import math
from fractions import Fraction

import numpy as np
import pytest

from gaitkit.gaits import GaitName, standard_gait
from gaitkit.transitions import (
    TRANSITION_TABLE,
    GaitEvent,
    GaitFsm,
    GaitTimingConfig,
    advance,
    action_from_id,
    fsm_dispatch,
    initial_state,
    transition_action,
    transition_params,
)

TS = 0.5
DIRECTED_EDGES = ["a01", "a10", "a12", "a21", "a23", "a32", "a14", "a41"]


def _wrapped_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# -- parameter schedules ----------------------------------------------------

def test_trot_to_walk_endpoints():
    a10 = transition_action(GaitName.TROT, GaitName.WALK, TS)
    assert transition_params(a10, 0.0) == standard_gait(GaitName.TROT)
    assert transition_params(a10, TS) == standard_gait(GaitName.WALK)


def test_trot_to_bound_midpoint():
    a12 = transition_action(GaitName.TROT, GaitName.BOUND, TS)
    mid = transition_params(a12, TS / 2)
    assert mid.beta == 0.5
    assert mid.offsets[0] == pytest.approx(0.25)
    assert mid.offsets[1] == pytest.approx(0.25)


def test_trot_to_trot_run_endpoint():
    a14 = transition_action(GaitName.TROT, GaitName.TROT_RUN, TS)
    end = transition_params(a14, TS)
    assert end.beta == 0.3
    assert end.offsets == (0.5, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("edge", DIRECTED_EDGES)
def test_endpoint_exactness_all_edges(edge):
    action = action_from_id(edge, TS)
    assert transition_params(action, 0.0) == standard_gait(action.source)
    assert transition_params(action, action.duration) == standard_gait(action.target)


@pytest.mark.parametrize("edge", DIRECTED_EDGES)
def test_left_legs_hold_throughout(edge):
    action = action_from_id(edge, TS)
    for t in np.linspace(0.0, TS, 23):
        pattern = transition_params(action, float(t))
        assert pattern.offsets[2] == 0.0
        assert pattern.offsets[3] == 0.5


@pytest.mark.parametrize("edge", DIRECTED_EDGES)
def test_lipschitz_continuity(edge):
    action = action_from_id(edge, TS)
    slopes = {
        "a01": 1 / (4 * TS), "a10": 1 / (4 * TS),
        "a12": 1 / (2 * TS), "a21": 1 / (2 * TS),
        "a14": 1 / (5 * TS), "a41": 1 / (5 * TS),
        "a23": 1 / (5 * TS), "a32": 1 / (5 * TS),
    }
    lip = slopes[edge]
    delta = 1e-3
    prev = transition_params(action, 0.0)
    for t in np.arange(delta, TS + 1e-12, delta):
        cur = transition_params(action, float(t))
        assert abs(cur.beta - prev.beta) <= lip * delta + 1e-12
        for leg in range(4):
            d = _wrapped_dist(cur.offsets[leg], prev.offsets[leg])
            assert d <= lip * delta + 1e-12
        prev = cur


@pytest.mark.parametrize("edge", DIRECTED_EDGES)
def test_reversibility(edge):
    fwd = action_from_id(edge, TS)
    back = transition_action(fwd.target, fwd.source, TS)
    assert transition_params(back, TS) == standard_gait(fwd.source)


@pytest.mark.parametrize("edge", DIRECTED_EDGES)
def test_interior_params_are_the_exact_affine_blend(edge):
    # the t values a gait machine reaches at dt = 2 ms, plus a uniform grid
    action = action_from_id(edge, TS)
    state = fsm_dispatch(initial_state(action.source), GaitEvent(action.target), TS)
    times = set(np.linspace(0.0, TS, 101)[1:-1].tolist())
    while True:
        state, _ = advance(state, 0.002)
        if state.in_progress is None:
            break
        times.add(state.in_progress[1])
    a, b = standard_gait(action.source), standard_gait(action.target)
    for t in sorted(times):
        tau = Fraction(t) / Fraction(TS)
        pattern = transition_params(action, t)
        got = (pattern.beta,) + pattern.offsets
        for x, y, value in zip((a.beta,) + a.offsets, (b.beta,) + b.offsets, got):
            exact = Fraction(x) + tau * (Fraction(y) - Fraction(x))
            assert abs(Fraction(value) - exact) <= 2e-16, (t, x, y, value)


def test_transition_params_rejects_out_of_window():
    a12 = transition_action(GaitName.TROT, GaitName.BOUND, TS)
    with pytest.raises(ValueError):
        transition_params(a12, -0.01)
    with pytest.raises(ValueError):
        transition_params(a12, TS + 0.01)
    # NaN lies in no window: it used to fail on the duty factor, or pass a
    # self loop through
    a10 = transition_action(GaitName.TROT, GaitName.WALK, TS)
    with pytest.raises(ValueError, match="outside the switching window"):
        transition_params(a10, math.nan)
    loop = transition_action(GaitName.TROT, GaitName.TROT)
    with pytest.raises(ValueError, match="outside the switching window"):
        transition_params(loop, math.nan)


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        transition_action(GaitName.RUN, GaitName.TROT_RUN)
    with pytest.raises(ValueError):
        transition_action(GaitName.TROT_RUN, GaitName.RUN)
    with pytest.raises(ValueError):
        transition_action(GaitName.WALK, GaitName.RUN)


@pytest.mark.parametrize("duration", [float("nan"), 0.0, -0.5])
def test_transition_action_rejects_a_switching_time_that_is_not_positive(duration):
    with pytest.raises(ValueError, match="switching time must be positive"):
        transition_action(GaitName.TROT, GaitName.WALK, duration)


def test_self_loops_are_zero_duration_identity():
    for g in GaitName:
        action = transition_action(g, g, 123.0)
        assert action.duration == 0.0
        assert transition_params(action, 0.0) == standard_gait(g)


# -- FSM --------------------------------------------------------------------

EXPECTED_TABLE = {
    ("walk", 0): ("a00",), ("walk", 1): ("a01",), ("walk", 2): ("a01", "a12"),
    ("walk", 3): ("a01", "a12", "a23"), ("walk", 4): ("a01", "a14"),
    ("trot", 0): ("a10",), ("trot", 1): ("a11",), ("trot", 2): ("a12",),
    ("trot", 3): ("a12", "a23"), ("trot", 4): ("a14",),
    ("bound", 0): ("a21", "a10"), ("bound", 1): ("a21",), ("bound", 2): ("a22",),
    ("bound", 3): ("a23",), ("bound", 4): ("a21", "a14"),
    ("run", 0): ("a32", "a21", "a10"), ("run", 1): ("a32", "a21"),
    ("run", 2): ("a32",), ("run", 3): ("a33",), ("run", 4): ("a32", "a21", "a14"),
    ("trot-run", 0): ("a41", "a10"), ("trot-run", 1): ("a41",),
    ("trot-run", 2): ("a41", "a12"), ("trot-run", 3): ("a41", "a12", "a23"),
    ("trot-run", 4): ("a44",),
}


def test_table_matches_expected_verbatim():
    assert len(TRANSITION_TABLE) == 25
    for (state, event), chain in TRANSITION_TABLE.items():
        assert EXPECTED_TABLE[(state.label, int(event))] == chain


def test_all_chains_short_and_without_run_trotrun_edge():
    for chain in TRANSITION_TABLE.values():
        assert 1 <= len(chain) <= 3
        assert "a34" not in chain
        assert "a43" not in chain


def test_dispatch_examples():
    assert [a.id for a in fsm_dispatch(initial_state(GaitName.TROT), GaitEvent(GaitName.RUN)).queue] == ["a12", "a23"]
    assert [a.id for a in fsm_dispatch(initial_state(GaitName.TROT_RUN), GaitEvent(GaitName.TROT_RUN)).queue] == ["a44"]
    assert [a.id for a in fsm_dispatch(initial_state(GaitName.RUN), GaitEvent(GaitName.WALK)).queue] == ["a32", "a21", "a10"]
    assert [a.id for a in fsm_dispatch(initial_state(GaitName.BOUND), GaitEvent(GaitName.WALK)).queue] == ["a21", "a10"]


def test_dispatch_requires_idle():
    state = fsm_dispatch(initial_state(GaitName.TROT), GaitEvent(GaitName.RUN))
    with pytest.raises(ValueError):
        fsm_dispatch(state, GaitEvent(GaitName.WALK))


def _execute_chain(state, dt=0.001, period=0.4, dwell=1, max_steps=200000):
    for _ in range(max_steps):
        if not state.busy:
            return state
        state, _ = advance(state, dt, period=period, dwell_strides=dwell)
    raise AssertionError("chain did not terminate")


@pytest.mark.parametrize("source", list(GaitName))
@pytest.mark.parametrize("target", list(GaitName))
def test_every_event_reaches_target(source, target):
    state = fsm_dispatch(initial_state(source), GaitEvent(target), TS)
    state = _execute_chain(state)
    assert state.current is target


def test_advance_steady_is_identity():
    state = initial_state(GaitName.TROT)
    new_state, pattern = advance(state, 0.01)
    assert new_state == state
    assert pattern == standard_gait(GaitName.TROT)


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.002])
def test_advance_rejects_a_step_that_is_not_positive(dt):
    # a NaN step must not finish the action in progress at once
    state = fsm_dispatch(initial_state(GaitName.TROT), GaitEvent(GaitName.WALK), TS)
    state, _ = advance(state, 0.002)
    with pytest.raises(ValueError, match="dt must be positive"):
        advance(state, dt)
    fsm = GaitFsm(GaitName.TROT, GaitTimingConfig(switch_time=TS))
    fsm.request(GaitName.WALK)
    fsm.advance(0.002)
    with pytest.raises(ValueError, match="dt must be positive"):
        fsm.advance(dt)
    assert fsm.busy and fsm.current is GaitName.TROT


def test_single_action_endpoint_via_millisecond_steps():
    state = fsm_dispatch(initial_state(GaitName.TROT), GaitEvent(GaitName.BOUND), TS)
    pattern = None
    for _ in range(500):
        state, pattern = advance(state, 0.001)
    assert state.current is GaitName.BOUND
    assert not state.busy
    assert pattern == standard_gait(GaitName.BOUND)


def test_chain_with_dwell_timing():
    period, dwell = 0.4, 1
    state = fsm_dispatch(initial_state(GaitName.WALK), GaitEvent(GaitName.BOUND), TS)
    steps = int(round((2 * TS + dwell * period) / 0.001))
    for _ in range(steps):
        state, _ = advance(state, 0.001, period=period, dwell_strides=dwell)
    assert state.current is GaitName.BOUND
    assert not state.busy


@pytest.mark.parametrize(
    "timing",
    [dict(dwell_strides=-3), dict(dwell_strides=1.5), dict(switch_time=0.0)],
    ids=["negative-dwell", "fractional-dwell", "zero-switch-time"],
)
def test_a_machine_with_bad_timing_is_rejected_when_built(timing):
    # the timing record runs its checks before the machine exists, not at
    # its first request in the middle of a trial, and the machine has no
    # timing keyword of its own that would skip them
    with pytest.raises(ValueError):
        GaitFsm(GaitName.TROT, GaitTimingConfig(**timing))
    with pytest.raises(TypeError):
        GaitFsm(GaitName.TROT, **timing)


def test_mid_action_events_are_deferred():
    fsm = GaitFsm(GaitName.TROT, GaitTimingConfig(switch_time=TS))
    assert fsm.request(GaitName.BOUND) is True
    fsm.advance(0.1)
    assert fsm.request(GaitName.WALK) is False  # deferred while a12 runs
    for _ in range(5000):
        fsm.advance(0.001)
    # the deferred walk request dispatches from bound: chain a21, a10
    assert fsm.current is GaitName.WALK
    chains = [e.chain for e in fsm.events]
    assert chains == [("a12",), ("a21", "a10")]


def test_schedule_trace_rows_and_actions():
    # a gait machine driven by a request script, sampled every 10 ms
    fsm = GaitFsm(GaitName.TROT, GaitTimingConfig(period=0.4, switch_time=TS))
    pending = [(0.2, GaitName.WALK)]
    rows = []
    dt = 0.01
    for k in range(int(round(2.0 / dt))):
        t = k * dt
        while pending and pending[0][0] <= t + 1e-12:
            fsm.request(pending.pop(0)[1])
        pattern = fsm.advance(dt)
        rows.append((t + dt, pattern, fsm.current, fsm.active_action or ""))
    actions = {r[3] for r in rows}
    assert "a10" in actions
    final_time, final_pattern, final_state, _ = rows[-1]
    assert final_state is GaitName.WALK
    assert final_pattern == standard_gait(GaitName.WALK)


@pytest.mark.parametrize("dwell", [0, 1])
def test_chain_action_windows_follow_the_schedule(dwell):
    dt, period = 0.002, 0.4
    fsm = GaitFsm(GaitName.WALK, GaitTimingConfig(period, TS, dwell))
    assert fsm.request(GaitName.RUN) is True
    dispatched = tuple(action.id for action in fsm.state.queue)
    assert dispatched == ("a01", "a12", "a23")
    for _ in range(5000):
        if not fsm.busy:
            break
        fsm.advance(dt)
    assert fsm.current is GaitName.RUN and not fsm.busy
    assert [e.chain for e in fsm.events] == [dispatched]
    windows = fsm.action_windows
    assert [w.action for w in windows] == list(dispatched)
    for w in windows:
        assert abs((w.end - w.start) - TS) <= dt + 1e-9
    for prev, nxt in zip(windows, windows[1:]):
        assert abs((nxt.start - prev.end) - dwell * period) <= dt + 1e-9
