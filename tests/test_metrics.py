import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaitkit.metrics import (
    COT_BOUND,
    STB_BOUND,
    InvalidLogError,
    MetricsConfig,
    StrideMetrics,
    UndefinedDisplacementError,
    clamp_failed,
    cot,
    j_e,
    stb,
    stb_samples,
    stride_energy,
    stride_metrics,
)
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.robot import RobotParams, TerrainBoundsError, terrain_preset
from gaitkit.simulation import SimConfig, run_trial


@dataclasses.dataclass
class FakeLog:
    time: np.ndarray
    torques: np.ndarray
    joint_velocities: np.ndarray
    position: np.ndarray = None
    velocity: np.ndarray = None
    euler: np.ndarray = None
    euler_rates: np.ndarray = None
    delta_s: float = 0.5
    failed: bool = False


def _flat_motion_log(n=200, dt=0.002, v=1.0, roll=0.0, pitch=0.0):
    t = np.arange(n) * dt
    return FakeLog(
        time=t,
        torques=np.zeros((n, 12)),
        joint_velocities=np.zeros((n, 12)),
        position=np.column_stack([v * t, np.zeros(n), np.full(n, 0.32)]),
        velocity=np.tile([v, 0.0, 0.0], (n, 1)),
        euler=np.tile([roll, pitch, 0.0], (n, 1)),
        euler_rates=np.zeros((n, 3)),
    )


# -- stride energy ------------------------------------------------------------

def test_zero_torques_zero_energy():
    log = FakeLog(
        time=np.linspace(0, 0.4, 201),
        torques=np.zeros((201, 12)),
        joint_velocities=np.ones((201, 12)),
    )
    assert stride_energy(log) == 0.0


def test_constant_power_energy():
    n = 201
    torques = np.zeros((n, 12))
    omegas = np.zeros((n, 12))
    torques[:, 0] = 5.0
    omegas[:, 0] = 2.0  # 10 W on one joint
    log = FakeLog(time=np.linspace(0, 0.4, n), torques=torques, joint_velocities=omegas)
    assert stride_energy(log) == pytest.approx(4.0)


def test_negative_power_dissipates():
    n = 101
    torques = np.full((n, 12), 1.0)
    omegas = np.full((n, 12), -1.0)
    log = FakeLog(time=np.linspace(0, 0.4, n), torques=torques, joint_velocities=omegas)
    assert stride_energy(log) == 0.0


def test_trapezoid_vs_refined_riemann():
    # sinusoidal joint traces integrated on the stride grid vs a 100x grid
    t_f, dt = 0.4, 0.002
    n = int(t_f / dt) + 1

    def series(tt):
        u = np.zeros((tt.size, 12))
        w = np.zeros((tt.size, 12))
        for j in range(12):
            u[:, j] = 8 * np.sin(2 * np.pi * (tt / t_f) + j)
            w[:, j] = 3 * np.cos(2 * np.pi * (tt / t_f) + 0.5 * j)
        return u, w

    t = np.linspace(0, t_f, n)
    u, w = series(t)
    coarse = stride_energy(FakeLog(time=t, torques=u, joint_velocities=w))

    fine_t = np.linspace(0, t_f, (n - 1) * 100 + 1)
    fu, fw = series(fine_t)
    power = np.clip(fu * fw, 0.0, None).sum(axis=1)
    fine = float(np.sum(0.5 * (power[1:] + power[:-1]) * np.diff(fine_t)))
    assert coarse == pytest.approx(fine, rel=0.005)


def test_energy_monotone_in_appended_samples():
    rng = np.random.default_rng(0)
    n = 100
    t = np.linspace(0, 0.4, n)
    u = rng.uniform(0, 5, size=(n, 12))
    w = rng.uniform(0, 3, size=(n, 12))
    full = stride_energy(FakeLog(time=t, torques=u, joint_velocities=w))
    part = stride_energy(FakeLog(time=t[:50], torques=u[:50], joint_velocities=w[:50]))
    assert full >= part


def test_misaligned_series_rejected():
    with pytest.raises(InvalidLogError):
        stride_energy(
            FakeLog(
                time=np.linspace(0, 1, 10),
                torques=np.zeros((9, 12)),
                joint_velocities=np.zeros((9, 12)),
            )
        )
    with pytest.raises(InvalidLogError):
        stride_energy(
            FakeLog(
                time=np.linspace(0, 1, 10),
                torques=np.zeros((10, 6)),
                joint_velocities=np.zeros((10, 6)),
            )
        )


# -- cot ----------------------------------------------------------------------

def test_cot_identity():
    assert cot(12.0 * 9.81 * 0.5, 12.0, 0.5) == pytest.approx(1.0)


def test_cot_zero_work():
    assert cot(0.0, 12.0, 0.5) == 0.0


def test_cot_example_value():
    assert cot(23.5, 12.0, 0.5) == pytest.approx(23.5 / (12.0 * 9.81 * 0.5))
    assert cot(23.5, 12.0, 0.5) == pytest.approx(0.3992519, rel=1e-5)


def test_cot_undefined_for_standing():
    with pytest.raises(UndefinedDisplacementError):
        cot(1.0, 12.0, 0.0005)


@pytest.mark.parametrize("mass", [float("nan"), 0.0, -12.0])
def test_cot_rejects_a_mass_that_is_not_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        cot(1.0, mass, 1.0)


# -- stb ----------------------------------------------------------------------

def test_stb_zero_for_clean_motion():
    terrain = terrain_preset("flat")
    assert stb(_flat_motion_log(), terrain) == 0.0


def test_stb_single_roll_term():
    terrain = terrain_preset("flat")
    value = stb(_flat_motion_log(roll=0.1), terrain)
    assert value == pytest.approx(0.1)


def test_stb_matches_hand_recomputation():
    terrain = terrain_preset("flat")
    rng = np.random.default_rng(4)
    n = 50
    log = _flat_motion_log(n=n)
    log.velocity = rng.uniform(-1, 1, size=(n, 3)) + np.array([1.5, 0, 0])
    log.euler = rng.uniform(-0.2, 0.2, size=(n, 3))
    log.euler_rates = rng.uniform(-1, 1, size=(n, 3))
    w1, w2, w3, w4 = MetricsConfig().weights
    expected = np.mean(
        [
            w1 * abs(log.velocity[i, 2] / log.velocity[i, 0])
            + w2 * abs(log.euler[i, 1])
            + w3 * abs(log.euler[i, 0])
            + w4 * (abs(log.euler_rates[i, 1]) + abs(log.euler_rates[i, 0]))
            for i in range(n)
        ]
    )
    assert stb(log, terrain) == pytest.approx(expected)
    assert stb(log, terrain, MetricsConfig()) == pytest.approx(expected)


def test_stb_guard_at_zero_speed():
    terrain = terrain_preset("flat")
    log = _flat_motion_log(v=0.0)
    assert stb(log, terrain) == 0.0  # v_bn also ~ 0 -> term zero, not inf
    log.velocity[:, 2] = 0.5  # vertical motion while v_b ~ 0 -> clamp to 1
    assert stb(log, terrain) == pytest.approx(MetricsConfig().weights[0] * 1.0)


PRESETS = ("flat", "slope12", "flat-slope", "continuous-slope", "up-down-slope")


def _reference_stb_samples(log, terrain, weights):
    """STB per sample with one terrain query per sample: the loop that
    stb_samples vectorises per segment."""
    w1, w2, w3, w4 = weights
    pos = np.asarray(log.position, dtype=float)
    vel = np.asarray(log.velocity, dtype=float)
    euler = np.asarray(log.euler, dtype=float)
    rates = np.asarray(log.euler_rates, dtype=float)
    n = pos.shape[0]
    values = np.zeros(n)
    guards = 0
    for i in range(n):
        samp = terrain.query(min(max(pos[i, 0], terrain.start_x), terrain.end_x))
        tangent = np.array([np.cos(samp.incline), 0.0, np.sin(samp.incline)])
        v_n = float(vel[i] @ samp.normal)
        v_b = float(vel[i] @ tangent)
        if abs(v_b) <= 1e-3:
            guards += 1
            ratio = 0.0 if abs(v_n) <= 1e-3 else 1.0
        else:
            ratio = abs(v_n / v_b)
        values[i] = (
            w1 * ratio
            + w2 * abs(euler[i, 1] - samp.incline)
            + w3 * abs(euler[i, 0])
            + w4 * (abs(rates[i, 1]) + abs(rates[i, 0]))
        )
    return values, guards


def _segment_straddling_log(terrain, rng):
    """Samples on every segment, at and next to every join, beyond both
    terrain ends (clamped), with guard rows whose speed along the terrain is
    at most 1e-3 m/s, some of them also at most 1e-3 m/s off it."""
    xs = [terrain.start_x - 5.0, terrain.start_x, terrain.end_x, terrain.end_x + 5.0]
    for seg in terrain.segments:
        j = seg.start_x
        xs += [np.nextafter(j, -np.inf), j, np.nextafter(j, np.inf), j - 0.4, j + 0.4]
    xs += list(rng.uniform(terrain.start_x, terrain.segments[-1].start_x + 3.0, 60))
    n = len(xs)
    vel = rng.normal(0.0, 1.0, (n, 3))
    for i in range(0, n, 3):
        samp = terrain.query(min(max(xs[i], terrain.start_x), terrain.end_x))
        tangent = np.array([np.cos(samp.incline), 0.0, np.sin(samp.incline)])
        off = rng.choice([0.0, rng.uniform(-1e-3, 1e-3), 0.5])
        vel[i] = rng.uniform(-1e-3, 1e-3) * tangent + off * samp.normal
    # column views of a wider array, as a stride's log fields are
    rows = np.zeros((n, 12))
    rows[:, 0:3] = np.column_stack([xs, rng.normal(0.0, 0.1, n), np.full(n, 0.32)])
    rows[:, 3:6] = vel
    rows[:, 6:9] = rng.uniform(-0.4, 0.4, (n, 3))
    rows[:, 9:12] = rng.normal(0.0, 1.0, (n, 3))
    return FakeLog(
        time=np.arange(n) * 0.002,
        torques=np.zeros((n, 12)),
        joint_velocities=np.zeros((n, 12)),
        position=rows[:, 0:3],
        velocity=rows[:, 3:6],
        euler=rows[:, 6:9],
        euler_rates=rows[:, 9:12],
    )


@pytest.mark.parametrize("name", PRESETS)
def test_stb_samples_match_per_sample_loop(name):
    terrain = terrain_preset(name)
    rng = np.random.default_rng(16)
    weights = MetricsConfig().weights
    checked_guards = 0
    for _ in range(5):
        log = _segment_straddling_log(terrain, rng)
        values, guards = stb_samples(log, terrain, weights)
        want, want_guards = _reference_stb_samples(log, terrain, weights)
        assert values.dtype == want.dtype and values.tobytes() == want.tobytes()
        assert guards == want_guards
        checked_guards += guards
    assert checked_guards > 0
    # integer weights, as a JSON config may give them
    values, _ = stb_samples(log, terrain, (1, 2, 0, 3))
    want, _ = _reference_stb_samples(log, terrain, (1, 2, 0, 3))
    assert values.tobytes() == want.tobytes()


def test_stb_samples_match_per_sample_loop_across_the_kink():
    # trot and walk strides over the flat -> 12 deg join of flat-slope
    terrain = terrain_preset("flat-slope")
    weights = MetricsConfig().weights
    kinked = 0
    for gait, v_cmd in ((GaitName.TROT, 1.2), (GaitName.WALK, 0.7)):
        result = run_trial(standard_gait(gait), v_cmd, terrain, 1.5, SimConfig(seed=3),
                           start_x=2.5)
        for log in result.strides:
            values, guards = stb_samples(log, terrain, weights)
            want, want_guards = _reference_stb_samples(log, terrain, weights)
            assert values.tobytes() == want.tobytes() and guards == want_guards
            kinked += log.position[0, 0] < 3.0 < log.position[-1, 0]
    assert kinked > 0


def test_stb_samples_raise_on_a_nan_position_like_the_loop():
    terrain = terrain_preset("flat-slope")
    log = _segment_straddling_log(terrain, np.random.default_rng(2))
    log.position[7, 0] = np.nan
    with pytest.raises(TerrainBoundsError) as want:
        _reference_stb_samples(log, terrain, MetricsConfig().weights)
    with pytest.raises(TerrainBoundsError) as got:
        stb_samples(log, terrain, MetricsConfig().weights)
    assert str(got.value) == str(want.value)


def test_stb_weights_validation():
    for weights in [
        (-0.1, 1.0, 1.0, 0.3),
        (float("nan"), 1.0, 1.0, 0.3),
        (0.7, 1.0, float("inf"), 0.3),
        (0.7, 1.0, 1.0),
        (0.7, 1.0, 1.0, 0.3, 0.1),
    ]:
        with pytest.raises(ValueError):
            MetricsConfig(weights=weights)
    assert MetricsConfig(weights=(0.0, 0.0, 0.0, 0.0)).weights == (0.0,) * 4


@pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["cot_bound", "stb_bound"])
def test_metrics_config_rejects_bad_bounds(name, bound):
    with pytest.raises(ValueError):
        MetricsConfig(**{name: bound})


# -- j_e and clamping ---------------------------------------------------------

def test_j_e_endpoints_and_blend():
    assert j_e(0.4, 0.2, 0.0) == 0.4
    assert j_e(0.4, 0.2, 1.0) == 0.2
    assert j_e(0.4, 0.2, 0.5) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        j_e(0.4, 0.2, 1.5)


@given(
    cot_v=st.floats(0.0, 2.0),
    stb_v=st.floats(0.0, 2.0),
    c=st.floats(0.0, 1.0),
)
def test_j_e_affine_in_c(cot_v, stb_v, c):
    assert j_e(cot_v, stb_v, c) - j_e(cot_v, stb_v, 0.0) == pytest.approx(
        c * (stb_v - cot_v), abs=1e-12
    )


def test_clamp_failed_pins_bounds():
    m = StrideMetrics(work=10.0, cot=0.3, stb=0.2, j_e={0.5: 0.25}, failed=True)
    out = clamp_failed(m)
    assert out.cot == COT_BOUND
    assert out.stb == STB_BOUND
    assert out.j_e[0.5] == pytest.approx(0.5 * STB_BOUND + 0.5 * COT_BOUND)


def test_clamp_unfailed_cases():
    ok = StrideMetrics(work=1.0, cot=0.3, stb=0.2, j_e={})
    assert clamp_failed(ok).cot == 0.3
    big = StrideMetrics(work=1.0, cot=1.9, stb=2.0, j_e={})
    clamped = clamp_failed(big)
    assert clamped.cot == COT_BOUND
    assert clamped.stb == STB_BOUND
    unclamped = clamp_failed(big, MetricsConfig(clamp_unfailed=False))
    assert unclamped.cot == 1.9


def test_clamp_idempotent():
    m = StrideMetrics(work=1.0, cot=1.9, stb=0.2, j_e={0.1: 0.0}, failed=True)
    once = clamp_failed(m)
    twice = clamp_failed(once)
    assert once == twice


def test_argmin_consistency_with_c_extremes():
    # on any metrics table, argmin of J_e at c=0 equals argmin of CoT and at
    # c=1 equals argmin of STB
    rng = np.random.default_rng(9)
    table = {g: (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)) for g in "abcde"}
    by_cot = min(table, key=lambda g: table[g][0])
    by_stb = min(table, key=lambda g: table[g][1])
    assert min(table, key=lambda g: j_e(*table[g], 0.0)) == by_cot
    assert min(table, key=lambda g: j_e(*table[g], 1.0)) == by_stb


def test_stride_metrics_full_pipeline():
    terrain = terrain_preset("flat")
    log = _flat_motion_log(roll=0.05)
    log.delta_s = 0.4
    m = stride_metrics(log, terrain, RobotParams(mass=12.0), c_values=(0.0, 0.5, 1.0))
    assert m.cot == 0.0
    assert m.stb == pytest.approx(0.05)
    assert m.j_e[1.0] == pytest.approx(0.05)
    assert not m.failed


def test_stride_metrics_failed_log():
    terrain = terrain_preset("flat")
    log = _flat_motion_log()
    log.failed = True
    m = stride_metrics(log, terrain, RobotParams(mass=12.0), c_values=(0.5,))
    assert m.cot == COT_BOUND
    assert m.stb == STB_BOUND
