import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import gaitkit.simulation as simulation
from gaitkit import forces
from gaitkit.gaits import GaitName, LegId, standard_gait
from gaitkit.mapping import MapConfig, build_map
from gaitkit.robot import RobotParams, Terrain, TerrainSegment, terrain_preset
from gaitkit.simulation import (
    SimConfig,
    TrunkState,
    run_trial,
    stance_torques,
    step,
    swing_acceleration,
    swing_torques,
    swing_trajectory,
)
from gaitkit.transitions import GaitFsm

PARAMS = RobotParams()
QUIET = dataclasses.replace(SimConfig(), attitude_jitter=0.0, velocity_jitter=0.0)
# flat-slope's flat -> 12 deg join 0.6 m ahead of x = 0, where a trial starts
KINK_AHEAD = Terrain("flat-slope", (TerrainSegment(-100.0, 0.0, 0.7, "flat"),
                                    TerrainSegment(0.6, math.radians(12.0), 0.7, "slope12")))


def _state(pos=(0, 0, 1.0), vel=(0, 0, 0), euler=(0, 0, 0), omega=(0, 0, 0)):
    return TrunkState(*(tuple(float(x) for x in v) for v in (pos, vel, euler, omega)))


def _no_contact():
    """Forces, stance flags and foot points of a body with no foot down."""
    return np.zeros((4, 3)), np.zeros(4, dtype=bool), np.zeros((4, 3))


# -- swing trajectory ---------------------------------------------------------

def test_swing_endpoints_exact():
    lift = np.array([0.1, 0.0, 0.0])
    target = np.array([0.4, 0.05, 0.02])
    assert np.allclose(swing_trajectory(0.0, lift, target, 0.06), lift)
    assert np.allclose(swing_trajectory(1.0, lift, target, 0.06), target)


def test_swing_apex_above_chord_midpoint():
    lift = np.array([0.0, 0.0, 0.0])
    target = np.array([0.3, 0.0, 0.1])
    mid = swing_trajectory(0.5, lift, target, 0.06)
    chord_mid = 0.5 * (lift + target)
    assert mid[0] == pytest.approx(chord_mid[0])
    assert mid[2] == pytest.approx(chord_mid[2] + 0.06)


def test_swing_impulse_matches_momentum_change():
    # integral of m*(a+...) over the swing vs finite-difference foot momentum
    lift = np.array([0.0, 0.0, 0.0])
    target = np.array([0.4, 0.0, 0.0])
    apex, T, m6 = 0.06, 0.2, 0.3
    n = 2000
    s = np.linspace(0.0, 1.0, n + 1)
    pos = np.array([swing_trajectory(float(si), lift, target, apex) for si in s])
    vel = np.gradient(pos, T / n, axis=0)
    acc_analytic = np.array(
        [swing_acceleration(float(si), lift, target, apex, T) for si in s]
    )
    impulse = np.trapezoid(m6 * acc_analytic, dx=T / n, axis=0)
    dp = m6 * (vel[-1] - vel[0])
    assert np.linalg.norm(impulse - dp) <= 0.02 * max(1e-9, np.linalg.norm(dp) + np.linalg.norm(impulse))


# -- rigid body step ----------------------------------------------------------

def test_free_fall_velocity():
    s0 = _state()
    s1 = step(s0, *_no_contact(), PARAMS, 0.001)
    assert s1.velocity[2] == pytest.approx(-9.81 * 0.001)


def test_equilibrium_forces_hold_velocity():
    feet = np.array(
        [[0.19, -0.15, 0.0], [-0.19, -0.15, 0.0], [0.19, 0.15, 0.0], [-0.19, 0.15, 0.0]]
    )
    fz = PARAMS.mass * PARAMS.gravity / 4
    forces = np.tile([0.0, 0.0, fz], (4, 1))
    s0 = _state(pos=(0, 0, 0.32), vel=(0.3, 0, 0))
    s1 = step(s0, forces, np.ones(4, dtype=bool), feet, PARAMS, 0.001)
    assert np.allclose(s1.velocity, s0.velocity, atol=1e-12)
    assert np.allclose(s1.omega, s0.omega, atol=1e-12)


def test_ballistic_energy_conservation_staggered():
    # staggered-grid (time-centered velocity) energy diagnostic for the
    # semi-implicit update; drifts below 1e-6 relative over a 0.4 s stride
    dt, steps = 0.001, 400
    s = _state(pos=(0, 0, 1.0), vel=(1.0, 0.0, 1.5))
    states = [s]
    for _ in range(steps):
        s = step(s, *_no_contact(), PARAMS, dt)
        states.append(s)
    energies = []
    for a, b in zip(states[:-1], states[1:]):
        v_mid = 0.5 * np.add(a.velocity, b.velocity)
        e = 0.5 * PARAMS.mass * v_mid @ v_mid + PARAMS.mass * PARAMS.gravity * a.position[2]
        energies.append(e)
    energies = np.array(energies)
    assert np.max(np.abs(energies - energies[0])) / energies[0] <= 1e-6


def test_step_rejects_large_dt():
    with pytest.raises(ValueError):
        step(_state(), *_no_contact(), PARAMS, 0.01)


def test_step_rejects_nan_dt():
    # NaN fails every comparison, so only a range test that must hold
    # rejects it; integrating it would give an all-NaN state
    with pytest.raises(ValueError, match="integration step"):
        step(_state(), *_no_contact(), PARAMS, math.nan)


def _stance_contact():
    """Forces, stance flags and foot points of a body on all four feet with
    leg 3 pushing off-centre, as arrays and as run_trial's float rows."""
    forces = np.array([[1.0, 0.0, 30.0], [0.0, 2.0, 30.0], [0.0, 0.0, 30.0],
                       [4.0, -3.0, 40.0]])
    feet = np.array([[0.19, -0.15, 0.0], [-0.19, -0.15, 0.0], [0.19, 0.15, 0.0],
                     [-0.19, 0.15, 0.0]])
    arrays = (forces, np.ones(4, dtype=bool), feet)
    floats = (forces.tolist(), [True] * 4, [tuple(row) for row in feet.tolist()])
    return {"arrays": arrays, "floats": floats}


@pytest.mark.parametrize("form", ["arrays", "floats"])
def test_step_rejects_a_stance_that_is_not_four_flags(form):
    # three flags used to pass: zip dropped leg 3's moment while its force
    # still entered the total
    forces, stance, feet = _stance_contact()[form]
    state = _state(pos=(0.0, 0.0, 0.32))
    step(state, forces, stance, feet, PARAMS, 0.002)
    bad = [stance[:3], [True] * 5, np.ones(3, dtype=bool), np.ones((2, 2), dtype=bool),
           np.ones((4, 1), dtype=bool), [[True, False]] * 4]
    for flags in bad:
        with pytest.raises(ValueError):
            step(state, forces, flags, feet, PARAMS, 0.002)


@pytest.mark.parametrize("form", ["arrays", "floats"])
def test_step_rejects_forces_or_feet_that_are_not_four_by_three(form):
    forces, stance, feet = _stance_contact()[form]
    state = _state(pos=(0.0, 0.0, 0.32))
    for name, good in (("forces", forces), ("feet", feet)):
        rows = np.asarray(good, dtype=float)
        bad = [good[:3], [*good, good[0]], [tuple(r[:2]) for r in rows.tolist()],
               rows.reshape(12), rows.reshape(2, 6), rows[:, :2]]
        for value in bad:
            args = (value, feet) if name == "forces" else (forces, value)
            with pytest.raises(ValueError):
                step(state, args[0], stance, args[1], PARAMS, 0.002)


def test_gyroscopic_term_active():
    # spinning about two axes with unequal inertia precesses even with no moment
    s0 = _state(omega=(2.0, 3.0, 0.0))
    s1 = step(s0, *_no_contact(), PARAMS, 0.001)
    assert not np.allclose(s1.omega, s0.omega)


# -- leg torques --------------------------------------------------------------

def test_stance_torque_zero_force():
    q = np.array([0.1, 0.4, -0.9])
    tau = np.asarray(stance_torques(np.zeros(3), q, LegId.RF, PARAMS))
    assert np.all(tau == 0.0)


def test_stance_torque_virtual_work():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.8, 0.8), rng.uniform(-2.2, -0.3)])
        f = rng.uniform(-60, 60, size=3)
        tau = stance_torques(f, q, LegId.LH, PARAMS)
        dq = rng.uniform(-1, 1, size=3) * 1e-6
        from gaitkit.robot import leg_fk

        dp = leg_fk(q + dq, LegId.LH, PARAMS) - leg_fk(q, LegId.LH, PARAMS)
        assert tau @ dq == pytest.approx(-(f @ dp), rel=1e-4, abs=1e-9)


def test_swing_torque_gravity_hold():
    q = np.array([0.0, 0.5, -1.2])
    g_vec = np.array([0.0, 0.0, -PARAMS.gravity])
    tau = swing_torques(q, -g_vec, LegId.RF, PARAMS)
    from gaitkit.robot import leg_jacobian

    expected = np.asarray(leg_jacobian(q, LegId.RF, PARAMS)).T @ (
        PARAMS.foot_mass * np.array([0.0, 0.0, PARAMS.gravity])
    )
    assert np.allclose(tau, expected)


def test_swing_torque_zero_foot_mass():
    light = dataclasses.replace(PARAMS, foot_mass=0.0)
    tau = np.asarray(
        swing_torques(np.array([0.0, 0.5, -1.2]), np.array([1.0, 2.0, 3.0]), LegId.RF, light)
    )
    assert np.all(tau == 0.0)


# -- closed-loop trials -------------------------------------------------------

def test_standing_trot_stays_put():
    terrain = terrain_preset("flat")
    res = run_trial(
        standard_gait(GaitName.TROT), 0.0, terrain, 2.0, QUIET, PARAMS,
        rng=np.random.default_rng(0),
    )
    assert not res.failed
    for log in res.strides:
        if log.complete:
            assert log.delta_s <= 0.02


def test_trot_tracks_commanded_velocity():
    terrain = terrain_preset("flat")
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain, 10.0, SimConfig(), PARAMS,
        rng=np.random.default_rng(0),
    )
    assert not res.failed
    steady = [s.delta_s for s in res.strides[3:] if s.complete]
    assert np.mean(steady) == pytest.approx(0.4, rel=0.10)


def test_trot_stable_at_1ms_for_25_strides():
    terrain = terrain_preset("flat")
    cfg = dataclasses.replace(SimConfig(), dt=0.001)
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain, 10.4, cfg, PARAMS,
        rng=np.random.default_rng(1),
    )
    assert not res.failed
    assert sum(1 for s in res.strides if s.complete) >= 25


def test_forced_pitch_failure():
    # 0.5 rad pitch offset plus a fast nose-down tumble while already dropping
    terrain = terrain_preset("flat")
    bad = TrunkState(
        position=(0.0, 0.0, 0.25),
        velocity=(1.0, 0.0, -1.0),
        euler=(0.0, 0.5, 0.0),
        omega=(0.0, 8.0, 0.0),
    )
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain, 4.0, QUIET, PARAMS,
        rng=np.random.default_rng(0), initial_state=bad,
    )
    assert res.failed
    assert res.strides[-1].failed
    # the body drops under the height floor before the pitch passes its bound
    assert res.end == "height"


@pytest.mark.parametrize("start, end", [
    (_state(pos=(0.0, 0.0, 0.32), euler=(0.7, 0.0, 0.0)), "roll"),
    (_state(pos=(0.0, 0.0, 0.32), euler=(0.0, -0.7, 0.0)), "pitch"),
    (_state(pos=(0.0, 0.0, 0.1)), "height"),
    # the checks run in this order: roll, pitch, height
    (_state(pos=(0.0, 0.0, 0.1), euler=(0.7, 0.7, 0.0)), "roll"),
    (_state(pos=(0.0, 0.0, 0.1), euler=(0.0, 0.7, 0.0)), "pitch"),
], ids=["roll", "pitch", "height", "roll-before-pitch", "pitch-before-height"])
def test_a_start_state_past_a_bound_ends_the_trial_on_it(start, end):
    # max_roll and max_pitch are 0.6 rad, the height floor 0.4 x 0.32 m
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 1.2, QUIET, PARAMS,
        rng=np.random.default_rng(0), initial_state=start,
    )
    assert res.end == end and res.failed and not res.finished_course
    assert res.end_time == pytest.approx(QUIET.dt)
    assert res.strides[-1].failed and not res.strides[-1].complete


@pytest.mark.parametrize("finish_x, end", [(1.0, "finish"), (50.0, "out-of-time"),
                                           (None, "duration")])
def test_a_trial_that_does_not_fall_ends_on_its_finish_line_or_its_time(finish_x, end):
    res = run_trial(standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.5, QUIET,
                    PARAMS, finish_x=finish_x)
    assert res.end == end and not res.failed
    assert res.finished_course == (end != "out-of-time")
    assert not any(s.failed for s in res.strides)
    last = res.strides[-1]
    assert res.end_time == pytest.approx(last.time[-1] + QUIET.dt)
    if end == "finish":
        # the step that carries the body past the line, its row logged before it
        assert last.position[-1, 0] < 1.0 and res.end_time < 1.5
    else:
        assert res.end_time == pytest.approx(1.5)


def _nan_position_after_each_step(monkeypatch, axis):
    """Make the rigid-body step return its body position with coordinate
    ``axis`` NaN: a state that turns NaN inside a trial."""
    integrate = simulation.step

    def nan_step(*args, **kwargs):
        state = integrate(*args, **kwargs)
        position = list(state.position)
        position[axis] = math.nan
        return state._replace(position=tuple(position))

    monkeypatch.setattr(simulation, "step", nan_step)


def test_nan_state_ends_the_trial_as_a_fall(monkeypatch):
    # a NaN body position is outside every terrain, so the first post-step
    # ground sample ends the trial instead of simulating on from NaN
    _nan_position_after_each_step(monkeypatch, 0)
    start = _state(pos=(0.0, 0.0, 0.32), vel=(1.0, 0.0, 0.0))
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 2.0, QUIET, PARAMS,
        rng=np.random.default_rng(0), initial_state=start,
    )
    assert res.end == "terrain-bounds" and not res.finished_course
    assert res.end_time == pytest.approx(QUIET.dt)
    assert res.strides[-1].failed


def test_nan_height_ends_the_trial_as_a_fall(monkeypatch):
    # a NaN height passes every terrain query; the height check itself must
    # fail it, or the trial ran on with NaN heights to the end of its time
    _nan_position_after_each_step(monkeypatch, 2)
    start = _state(pos=(0.0, 0.0, 0.32), vel=(1.0, 0.0, 0.0))
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 1.2, QUIET, PARAMS,
        rng=np.random.default_rng(0), initial_state=start,
    )
    assert res.end == "height" and not res.finished_course
    assert res.end_time == pytest.approx(QUIET.dt)
    assert res.strides[-1].failed


@pytest.mark.parametrize("field, start", [
    ("position", _state(pos=(math.nan, 0.0, 0.32), vel=(1.0, 0.0, 0.0))),
    ("velocity", _state(pos=(0.0, 0.0, 0.32), vel=(math.inf, 0.0, 0.0))),
], ids=["nan-position", "inf-velocity"])
def test_run_trial_rejects_a_non_finite_initial_state(monkeypatch, field, start):
    # the start state is checked before the start pose queries the terrain,
    # so the error names the state's field, not a terrain extent
    steps = []
    monkeypatch.setattr(simulation, "step", lambda *args, **kwargs: steps.append(1))
    with pytest.raises(ValueError, match=f"initial_state {field} .* is not finite"):
        run_trial(standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 1.2, QUIET,
                  PARAMS, rng=np.random.default_rng(0), initial_state=start)
    assert steps == []


@pytest.mark.parametrize(
    "gait, v_cmd, falls",
    [
        (GaitName.WALK, 0.7, False),
        (GaitName.TROT, 1.3, False),
        (GaitName.BOUND, 1.7, True),
        (GaitName.RUN, 1.7, True),
        (GaitName.TROT_RUN, 1.3, False),
    ],
    ids=["walk", "trot", "bound-falls", "run-falls", "trot_run"],
)
def test_logged_forces_respect_cone_and_swing_zero(gait, v_cmd, falls):
    # step does not check swing forces: the logged forces are the ones
    # integrated, so swing rows must hold exactly zero here
    terrain = terrain_preset("flat")
    res = run_trial(
        standard_gait(gait), v_cmd, terrain, 2.8, SimConfig(), PARAMS,
        rng=np.random.default_rng(8),
    )
    assert res.failed == falls
    mu = 0.7
    for log in res.strides:
        stance = log.stance
        forces = log.forces
        assert np.all(forces[~stance] == 0.0)
        fn = forces[..., 2][stance]
        assert np.all(fn >= -1e-9)
        assert np.all(np.abs(forces[..., 0][stance]) <= mu * fn + 1e-9)
        assert np.all(np.abs(forces[..., 1][stance]) <= mu * fn + 1e-9)


def _cone_violation(force, normal, mu, f_max):
    """Largest excess of one foot force over its pyramid faces and normal bounds."""
    n = normal / np.linalg.norm(normal)
    helper = np.array([0.0, 1.0, 0.0]) if abs(n[0]) > 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(n, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    fn = force @ n
    return max(-fn, fn - f_max, abs(force @ t1) - mu * fn, abs(force @ t2) - mu * fn)


class _DistributionLog:
    """Wraps the simulator's distribute_forces and keeps inputs and results."""

    def __init__(self, monkeypatch):
        self.calls = []
        distribute = simulation.distribute_forces

        def recorded(wrench, feet, stance, com, mu, f_max, normals, working_set=()):
            dist = distribute(
                wrench, feet, stance, com, mu, f_max, normals, working_set=working_set
            )
            self.calls.append((dist, np.array(normals), mu, f_max))
            return dist

        monkeypatch.setattr(simulation, "distribute_forces", recorded)


def test_degenerate_working_sets_keep_forces_in_the_cone(monkeypatch):
    # a falling run trial whose QP met faces dependent on its working set:
    # at x = 0 the pyramid faces and f_n >= 0 of a foot all pass through the
    # origin, and adding them made the KKT matrix singular (forces 103 N
    # outside the cone)
    log = _DistributionLog(monkeypatch)
    run_trial(standard_gait(GaitName.RUN), 0.7, KINK_AHEAD, 1.5, SimConfig(seed=3))
    assert len(log.calls) > 100
    worst = max(
        _cone_violation(dist.forces[leg], normals[leg], mu, f_max)
        for dist, normals, mu, f_max in log.calls
        for leg in np.flatnonzero(dist.stance)
    )
    assert worst <= 1e-9

    # the map-sweep cells: 5 gaits x 0.7/1.7 m/s on flat and slope12, one
    # trial each (a bound trial on slope12 ran into max_iter)
    log.calls.clear()
    cfg = MapConfig(v_min=0.7, v_max=1.7, v_step=1.0, trials=1, strides=1,
                    warmup_strides=1)
    for name in ("flat", "slope12"):
        build_map(terrain_preset(name), cfg, seed=931000)
    max_iter = inspect.signature(forces.solve_qp).parameters["max_iter"].default
    assert len(log.calls) > 1000
    assert max(dist.iterations for dist, *_ in log.calls) < max_iter


def test_threaded_working_set_needs_fewer_kkt_solves_than_cold_starts(monkeypatch):
    # a walk across the flat-slope kink, whose 3- and 2-foot QPs bind cone
    # faces; each step's QP starts from the previous step's working set
    distribute = simulation.distribute_forces
    solves = {"hot": [], "cold": []}

    def counted(mode):
        def recorded(wrench, feet, stance, com, mu, f_max, normals, working_set=()):
            seed = working_set if mode == "hot" else ()
            dist = distribute(wrench, feet, stance, com, mu, f_max, normals,
                              working_set=seed)
            solves[mode].append(dist.iterations)
            return dist

        return recorded

    for mode in ("hot", "cold"):
        monkeypatch.setattr(simulation, "distribute_forces", counted(mode))
        result = run_trial(
            standard_gait(GaitName.WALK), 0.7, KINK_AHEAD, 1.2, SimConfig(seed=3),
        )
        assert not result.failed and result.strides[-1].position[-1, 0] > 0.6
    assert len(solves["hot"]) == len(solves["cold"]) == round(1.2 / SimConfig().dt)
    assert sum(solves["hot"]) < 0.6 * sum(solves["cold"])


def test_determinism_bit_identical():
    terrain = terrain_preset("flat")
    runs = []
    for _ in range(2):
        res = run_trial(
            standard_gait(GaitName.TROT), 1.0, terrain, 2.0, SimConfig(), PARAMS,
            rng=np.random.default_rng(42),
        )
        runs.append(res)
    a, b = runs
    assert len(a.strides) == len(b.strides)
    for sa, sb in zip(a.strides, b.strides):
        assert np.array_equal(sa.torques, sb.torques)
        assert np.array_equal(sa.position, sb.position)
        assert np.array_equal(sa.forces, sb.forces)
        assert sa.delta_s == sb.delta_s


def test_run_trial_validates_inputs():
    terrain = terrain_preset("flat")
    with pytest.raises(ValueError):
        run_trial(standard_gait(GaitName.TROT), 9.9, terrain, 4.0, QUIET, PARAMS)
    with pytest.raises(ValueError):
        run_trial(standard_gait(GaitName.TROT), 1.0, terrain, 0.5, QUIET, PARAMS)
    # a config is checked when it is built, so a bad dt never reaches a trial
    with pytest.raises(ValueError, match="dt must lie"):
        dataclasses.replace(QUIET, dt=0.01)


def test_fsm_source_transition_completes_in_motion():
    terrain = terrain_preset("flat")
    fsm = GaitFsm(GaitName.TROT)

    def on_stride(idx, body, t):
        if idx == 2:
            fsm.request(GaitName.TROT_RUN)

    res = run_trial(
        fsm, 1.3, terrain, 6.0, SimConfig(), PARAMS,
        rng=np.random.default_rng(3), on_stride=on_stride,
    )
    assert not res.failed
    assert [e.chain for e in res.events] == [("a14",)]
    assert fsm.current is GaitName.TROT_RUN
    assert len(res.action_windows) == 1
    win = res.action_windows[0]
    assert win.end - win.start == pytest.approx(0.5, abs=0.01)


def test_on_stride_is_called_at_every_boundary_of_a_pattern():
    # a steady pattern reports its stride boundaries like a machine does
    calls = []
    res = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 2.0, SimConfig(), PARAMS,
        rng=np.random.default_rng(3), on_stride=lambda idx, body, t: calls.append((idx, t)),
    )
    assert not res.failed
    # one call after each complete stride, with the index of the next one
    complete = [s for s in res.strides if s.complete]
    assert len(complete) == 5
    assert [idx for idx, _ in calls] == list(range(1, len(complete) + 1))
    for (_, t), stride in zip(calls, complete):
        assert t == stride.time[-1] + SimConfig().dt
    assert res.events == [] and res.action_windows == []


def test_run_trial_rejects_other_gait_sources():
    with pytest.raises(TypeError):
        run_trial(GaitName.TROT, 1.0, terrain_preset("flat"), 2.0, QUIET, PARAMS)


# -- checkpoints and resumed trials --------------------------------------------

_STRIDE_ARRAYS = ("time", "torques", "joint_velocities", "forces", "stance", "position",
                  "velocity", "euler", "omega", "euler_rates", "foot_positions")
_STRIDE_SCALARS = ("v_cmd", "delta_s", "t_f", "failed", "complete", "slip_events",
                   "torque_flags")


def _assert_same_trial(got, want):
    """Every stride array byte for byte, every stride scalar, and the trial's
    end, failure and finish."""
    assert len(got.strides) == len(want.strides)
    for a, b in zip(got.strides, want.strides):
        for name in _STRIDE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        for name in _STRIDE_SCALARS:
            assert getattr(a, name) == getattr(b, name), name
    assert (got.end_time, got.failed, got.finished_course) == (
        want.end_time, want.failed, want.finished_course)


def _every_boundary(idx, body, t):
    """An ``on_stride`` that asks for a checkpoint at every boundary."""
    return True


def _checkpoint_bits(c):
    """A checkpoint's loop state, with its strides by identity."""
    return (c.steps, c.t, c.phase, c.stride_idx, c.carrot_x, c.state, c.foot_pos,
            c.lift_pos, c.normals, c.swing_entry_s, c.was_swing, c.touchdown_scatter,
            c.q, c.working_set, c.rng_state, tuple(map(id, c.strides)))


@pytest.mark.parametrize(
    "gait, v_cmd, terrain, duration, finish_x",
    [
        (GaitName.TROT, 1.4, "flat-slope", 4.0, 5.0),  # finishes across the kink
        (GaitName.TROT_RUN, 2.0, "flat-slope", 4.0, 6.0),
        (GaitName.WALK, 0.7, "slope12", 2.0, None),  # survives its duration
    ],
    ids=["trot-finishes", "trot-run", "walk-survives"],
)
def test_a_pattern_trial_resumed_from_each_checkpoint_is_the_uninterrupted_trial(
    gait, v_cmd, terrain, duration, finish_x
):
    terrain = terrain_preset(terrain)
    pattern = standard_gait(gait)

    def trial(rng, resume=None):
        return run_trial(pattern, v_cmd, terrain, duration, SimConfig(), PARAMS, rng=rng,
                         finish_x=finish_x, resume=resume, on_stride=_every_boundary)

    full = trial(np.random.default_rng(8))
    # one checkpoint per stride boundary, each holding the strides closed so far
    assert [c.stride_idx for c in full.checkpoints] == list(
        range(1, len(full.checkpoints) + 1))
    assert len(full.checkpoints) >= 4
    for c in full.checkpoints:
        assert list(map(id, c.strides)) == list(map(id, full.strides[:c.stride_idx]))
        assert c.steps == sum(len(s.time) for s in c.strides)
        # the stream is the checkpoint's, whatever the generator held before
        resumed = trial(np.random.default_rng(1234), resume=c)
        _assert_same_trial(resumed, full)
        assert list(map(id, resumed.strides[:c.stride_idx])) == list(map(id, c.strides))
        later = [cc for cc in full.checkpoints if cc.steps > c.steps]
        assert list(map(_checkpoint_bits, resumed.checkpoints)) == [
            (*_checkpoint_bits(cc)[:-1], tuple(map(id, resumed.strides[:cc.stride_idx])))
            for cc in later
        ]


def test_an_idle_machine_trial_resumed_from_each_checkpoint_is_the_uninterrupted_trial():
    # the machine holds trot until a switch to trot-run at the third boundary;
    # checkpoints stop at the first event, and a resumed trial dispatches it
    terrain = terrain_preset("flat")

    def trial(resume=None):
        fsm = GaitFsm(GaitName.TROT)
        if resume is not None:
            fsm.time = resume.t
        calls = []

        def on_stride(idx, body, t):
            calls.append((idx, t, body.position))
            if idx == 3:
                fsm.request(GaitName.TROT_RUN)
            return True

        res = run_trial(fsm, 1.3, terrain, 3.0, SimConfig(), PARAMS,
                        rng=np.random.default_rng(3), on_stride=on_stride, resume=resume)
        return res, calls

    full, calls = trial()
    assert [e.chain for e in full.events] == [("a14",)] and len(full.action_windows) == 1
    assert [c.stride_idx for c in full.checkpoints] == [1, 2, 3]
    for c in full.checkpoints:
        resumed, resumed_calls = trial(c)
        _assert_same_trial(resumed, full)
        assert resumed.events == full.events
        assert resumed.action_windows == full.action_windows
        # on_stride runs for the checkpoint's boundary and every later one
        assert resumed_calls == calls[c.stride_idx - 1:]
        assert [cc.stride_idx for cc in resumed.checkpoints] == [
            cc.stride_idx for cc in full.checkpoints[c.stride_idx:]]


def test_a_trial_resumed_at_the_boundary_it_finishes_on_runs_no_step(monkeypatch):
    terrain = terrain_preset("flat")
    pattern = standard_gait(GaitName.TROT)
    c = run_trial(pattern, 1.2, terrain, 3.0, QUIET, PARAMS,
                  on_stride=_every_boundary).checkpoints[2]
    finish_x = c.state.position[0]
    full = run_trial(pattern, 1.2, terrain, 3.0, QUIET, PARAMS, finish_x=finish_x,
                     on_stride=_every_boundary)
    assert full.finished_course and full.end_time == c.t
    assert full.checkpoints[-1].steps == c.steps
    steps = []
    monkeypatch.setattr(simulation, "step", lambda *args, **kwargs: steps.append(1))
    calls = []
    resumed = run_trial(pattern, 1.2, terrain, 3.0, QUIET, PARAMS, finish_x=finish_x,
                        resume=c, on_stride=lambda *args: calls.append(args))
    assert steps == [] and calls == [(3, c.state, c.t)]
    _assert_same_trial(resumed, full)
    assert resumed.checkpoints == []


def test_a_trial_keeps_the_checkpoints_its_on_stride_asks_for():
    terrain, pattern = terrain_preset("flat"), standard_gait(GaitName.TROT)

    def trial(on_stride=None):
        return run_trial(pattern, 1.2, terrain, 3.0, QUIET, PARAMS, on_stride=on_stride)

    assert trial().checkpoints == []
    assert trial(lambda idx, body, t: None).checkpoints == []
    asked = trial(lambda idx, body, t: idx in (2, 5))
    assert [c.stride_idx for c in asked.checkpoints] == [2, 5]
    # the checkpoints of those boundaries in a trial that asks at every one
    every = trial(_every_boundary)
    assert len(every.checkpoints) > 5
    assert [_checkpoint_bits(c)[:-1] for c in asked.checkpoints] == [
        _checkpoint_bits(c)[:-1] for c in every.checkpoints if c.stride_idx in (2, 5)]


_REJECTED_RESUMES = {
    "dt": (dict(config=dataclasses.replace(QUIET, dt=0.001)), "dt=0.002, not 0.001"),
    "v_cmd": (dict(v_cmd=1.3), "v_cmd=1.2, not 1.3"),
    "period": (dict(gait=standard_gait(GaitName.TROT, 0.5)), "period=0.5"),
    "terrain": (dict(terrain=terrain_preset("slope12")), "terrain 'flat', not 'slope12'"),
    "gait": (dict(gait=standard_gait(GaitName.TROT_RUN)), "beta=0.3"),
    "machine-clock": (dict(gait=GaitFsm(GaitName.TROT)), "machine must be idle"),  # time 0
    # 600 steps; the checkpoint is at step 800
    "duration": (dict(duration=1.2), "step 800 lies past the trial's 600 steps"),
    "initial-state": (dict(initial_state=TrunkState((0.0, 0.0, 0.32), (0.0,) * 3, (0.0,) * 3,
                                                     (0.0,) * 3)), "checkpoint's state"),
}


@pytest.mark.parametrize("change", list(_REJECTED_RESUMES))
def test_a_checkpoint_of_another_trial_is_rejected(change):
    terrain = terrain_preset("flat")
    c = run_trial(standard_gait(GaitName.TROT), 1.2, terrain, 2.0, QUIET, PARAMS,
                  on_stride=_every_boundary).checkpoints[3]
    call = dict(gait=standard_gait(GaitName.TROT), v_cmd=1.2, terrain=terrain_preset("flat"),
                duration=2.0, config=QUIET)
    # the same trial, on an equal terrain built again, resumes
    run_trial(**call, params=PARAMS, resume=c)
    other, message = _REJECTED_RESUMES[change]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_trial(**{**call, **other}, params=PARAMS, resume=c)


def test_the_carrot_starts_at_the_initial_state():
    # a trot started at x = 2: the position reference starts at the body; a
    # carrot left at x = 0 held the body back to 0.73 m/s, ending at x = 4.92
    start = TrunkState((2.0, 0.0, 0.32), (1.2, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3)
    result = run_trial(standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 4.0,
                       SimConfig(seed=1), PARAMS, rng=np.random.default_rng(3),
                       initial_state=start)
    assert not result.failed and result.strides[-1].position[-1, 0] > 6.5
