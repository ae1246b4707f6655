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
    stride_energy,
    stride_metrics,
)
from gaitkit.robot import RobotParams, terrain_preset


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
