"""The per-step caches and scalar kernels give the same bits as plain numpy.

Each test keeps the straightforward per-call computation as its reference and
requires exact equality, because the hot path only avoids recomputation and
numpy call overhead; it changes no arithmetic.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaitkit.forces import _cone_block, _cross
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.robot import RobotParams, terrain_preset
from gaitkit.simulation import (
    BodyState,
    ContactForceSet,
    SimConfig,
    omega_to_euler_rates,
    rotation_matrix,
    run_trial,
    step,
)

PRESETS = ("flat", "slope12", "flat-slope", "continuous-slope", "up-down-slope")


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    same_layout = got.dtype == want.dtype and got.shape == want.shape
    return same_layout and got.tobytes() == want.tobytes()


def _reference_cone_rows(normal, mu):
    n = normal / np.linalg.norm(normal)
    n2 = n / np.linalg.norm(n)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n2 @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n2, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n2, t1)
    return np.array(
        [t1 - mu * n, -t1 - mu * n, t2 - mu * n, -t2 - mu * n, -n, n]
    )


def _reference_query(terrain, x):
    """Height, normal and incline as computed per call, without any cache."""
    seg = terrain.segment_at(x)
    idx = terrain.segments.index(seg)
    height = terrain._heights[idx] + math.tan(seg.incline) * (x - seg.start_x)
    normal = np.array([-math.sin(seg.incline), 0.0, math.cos(seg.incline)])
    return height, normal, seg.incline


def _reference_step(state, contact, params, dt):
    f_total = contact.forces.sum(axis=0)
    moment = np.zeros(3)
    for leg in range(4):
        if contact.stance[leg]:
            moment += np.cross(
                contact.foot_positions[leg] - state.position, contact.forces[leg]
            )
    accel = params.gravity * np.array([0.0, 0.0, -1.0]) + f_total / params.mass
    rot = rotation_matrix(state.euler)
    inertia_w = rot @ np.diag(params.inertia_diag) @ rot.T
    gyro = np.cross(state.omega, inertia_w @ state.omega)
    omega_dot = np.linalg.solve(inertia_w, moment - gyro)
    velocity = state.velocity + accel * dt
    position = state.position + velocity * dt
    omega = state.omega + omega_dot * dt
    euler = state.euler + omega_to_euler_rates(state.euler, omega) * dt
    return position, velocity, euler, omega


_finite = st.floats(allow_nan=False, allow_infinity=False)
_vec3 = st.lists(_finite, min_size=3, max_size=3).map(np.array)


@given(_vec3, _vec3)
def test_cross_matches_numpy_bits(a, b):
    with np.errstate(all="ignore"):
        got, want = _cross(a, b), np.cross(a, b)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def test_cone_block_matches_per_call_rows_for_every_preset():
    normals = [np.array([0.0, 0.0, 1.0])]
    for name in PRESETS:
        terrain = terrain_preset(name)
        normals += [terrain.query(seg.start_x + 0.5).normal for seg in terrain.segments]
    for normal in normals:
        for mu in (0.3, 0.7, 1.1):
            block = _cone_block(normal.tobytes(), mu)
            assert _same_bits(block, _reference_cone_rows(normal, mu))


@pytest.mark.parametrize(
    "copy",
    [lambda obj: obj, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["same", "pickled"],
)
def test_shared_arrays_are_read_only(copy):
    # pickled copies are what build_map's worker processes receive
    block = _cone_block(np.array([0.0, 0.0, 1.0]).tobytes(), 0.7)
    normal = copy(terrain_preset("flat-slope")).query(4.0).normal
    params = RobotParams()
    params.inertia  # filled before pickling, so a copied cache would show
    inertia = copy(params).inertia
    for shared in (block, normal, inertia):
        with pytest.raises(ValueError):
            shared[0, ...] = 1.0


@pytest.mark.parametrize("name", ["continuous-slope", "up-down-slope"])
def test_query_matches_per_call_values_at_joins(name):
    terrain = terrain_preset(name)
    for seg in terrain.segments[1:]:
        join = seg.start_x
        xs = (
            join - 1e-9,
            np.nextafter(join, -np.inf),
            join,
            np.nextafter(join, np.inf),
            join + 1e-9,
        )
        for x in xs:
            got = terrain.query(x)
            height, normal, incline = _reference_query(terrain, x)
            assert got.height == height
            assert _same_bits(got.normal, normal)
            assert got.incline == incline


def test_step_matches_per_call_reference():
    rng = np.random.default_rng(11)
    params = RobotParams()
    for _ in range(200):
        state = BodyState(
            position=rng.normal(0.0, 1.0, 3),
            velocity=rng.normal(0.0, 1.0, 3),
            euler=rng.uniform(-0.5, 0.5, 3),
            omega=rng.normal(0.0, 2.0, 3),
        )
        stance = rng.random(4) < 0.6
        forces = rng.normal(0.0, 40.0, (4, 3)) * stance[:, None]
        contact = ContactForceSet(
            forces=forces, stance=stance, foot_positions=rng.normal(0.0, 0.3, (4, 3))
        )
        got = step(state, contact, params, 0.002)
        want = _reference_step(state, contact, params, 0.002)
        for g, w in zip((got.position, got.velocity, got.euler, got.omega), want):
            assert _same_bits(g, w)


def _trot_on(terrain_name, start_x, duration):
    return run_trial(
        standard_gait(GaitName.TROT),
        1.2,
        terrain_preset(terrain_name),
        duration,
        SimConfig(seed=3),
        start_x=start_x,
    )


def test_trial_bits_do_not_depend_on_cone_cache_state():
    # the flat-slope trial crosses its flat -> 12 deg join; the
    # continuous-slope trial crosses flat -> 8 deg -> 12 deg first, so the
    # second flat-slope trial finds every cone block it needs already cached
    _cone_block.cache_clear()
    cold = _trot_on("flat-slope", 2.4, 1.2)
    _cone_block.cache_clear()
    _trot_on("continuous-slope", 1.2, 2.4)
    misses = _cone_block.cache_info().misses
    warm = _trot_on("flat-slope", 2.4, 1.2)
    assert _cone_block.cache_info().misses == misses
    assert len(cold.strides) == len(warm.strides)
    for a, b in zip(cold.strides, warm.strides):
        for f in dataclasses.fields(a):
            assert _same_bits(getattr(a, f.name), getattr(b, f.name)), f.name
