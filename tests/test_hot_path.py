"""The per-step caches and scalar kernels against plain numpy references.

Each test keeps the straightforward per-call computation as its reference.
Where the hot path only avoids recomputation and numpy call overhead it
changes no arithmetic, and the test requires exact equality. The rigid-body
step and the Euler-rate inverse replace linear solves by closed forms, and
the control step replaces numpy's 3x3 products by scalar sums; these round
differently, so their tests require agreement with the numpy references
within 1e-12 relative (plus 1e-12 absolute where a value may be zero).
"""

import csv
import dataclasses
import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gaitkit.forces as forces
import gaitkit.simulation as simulation

from gaitkit.forces import _cone_block, _independent
from gaitkit.gaits import GaitName, LegId, standard_gait
from gaitkit.io import stride_logs_to_csv
from gaitkit.robot import (
    OutOfWorkspaceError,
    RobotParams,
    Terrain,
    TerrainBoundsError,
    TerrainSegment,
    leg_fk,
    leg_ik,
    leg_jacobian,
    terrain_preset,
)
from gaitkit.simulation import (
    SimConfig,
    euler_rate_to_omega,
    omega_to_euler_rates,
    rotation_matrix,
    StrideLog,
    TrunkState,
    run_trial,
    stance_torques,
    step,
    swing_acceleration,
    swing_torques,
    swing_trajectory,
)
from gaitkit.stridelog import StrideAccumulator
from gaitkit.transitions import GaitFsm

PRESETS = ("flat", "slope12", "flat-slope", "continuous-slope", "up-down-slope")
# flat-slope and continuous-slope with their joins 0.6 m and 0.3 m ahead of
# x = 0, where a trial starts
FLAT_SLOPE_AHEAD = Terrain("flat-slope", (
    TerrainSegment(-100.0, 0.0, 0.7, "flat"),
    TerrainSegment(0.6, math.radians(12.0), 0.7, "slope12"),
))
CONTINUOUS_SLOPE_AHEAD = Terrain("continuous-slope", (
    TerrainSegment(-100.0, 0.0, 0.7, "flat"),
    TerrainSegment(0.3, math.radians(8.0), 0.7, "slope8"),
    TerrainSegment(2.3, math.radians(12.0), 0.7, "slope12"),
    TerrainSegment(4.3, math.radians(18.0), 0.7, "slope18"),
))


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    same_layout = got.dtype == want.dtype and got.shape == want.shape
    return same_layout and got.tobytes() == want.tobytes()


def _close(got, want) -> bool:
    """Same layout and equal within 1e-12 relative plus 1e-12 absolute."""
    got, want = np.asarray(got), np.asarray(want)
    same_layout = got.dtype == want.dtype and got.shape == want.shape
    return same_layout and np.allclose(got, want, rtol=1e-12, atol=1e-12)


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


def _reference_step(state, forces, stance, foot_positions, params, dt):
    """Reference step: world inertia built per call and solved against, and
    Euler rates from a solve."""
    position, velocity, euler, omega = (np.array(v) for v in state)
    f_total = forces.sum(axis=0)
    moment = np.zeros(3)
    for leg in range(4):
        if stance[leg]:
            moment += np.cross(foot_positions[leg] - position, forces[leg])
    accel = params.gravity * np.array([0.0, 0.0, -1.0]) + f_total / params.mass
    rot = np.asarray(rotation_matrix(euler))
    inertia_w = rot @ np.diag(params.inertia_diag) @ rot.T
    gyro = np.cross(omega, inertia_w @ omega)
    omega_dot = np.linalg.solve(inertia_w, moment - gyro)
    velocity = velocity + accel * dt
    position = position + velocity * dt
    new_omega = omega + omega_dot * dt
    euler = euler + _reference_euler_rates(euler, new_omega) * dt
    return position, velocity, euler, new_omega


_finite = st.floats(allow_nan=False, allow_infinity=False)


def test_cone_block_matches_per_call_rows_for_every_preset():
    normals = [np.array([0.0, 0.0, 1.0])]
    for name in PRESETS:
        terrain = terrain_preset(name)
        normals += [terrain.query(seg.start_x + 0.5).normal for seg in terrain.segments]
    for normal in normals:
        for mu in (0.3, 0.7, 1.1):
            block = _cone_block(normal.tobytes(), mu)
            assert _same_bits(block, _reference_cone_rows(normal, mu))


def test_independence_test_matches_matrix_rank():
    # two feet with different normals; every independent working set of up to
    # three rows of the second foot against every other row of that foot
    normals = [np.array([0.0, 0.0, 1.0]), terrain_preset("slope12").query(1.0).normal]
    G = np.zeros((12, 6))
    for j, normal in enumerate(normals):
        G[6 * j : 6 * j + 6, 3 * j : 3 * j + 3] = _cone_block(normal.tobytes(), 0.7)
    dependent = 0
    for size in range(4):
        for basis in itertools.combinations(range(6, 12), size):
            rows = G[list(basis)]
            if size and np.linalg.matrix_rank(rows) < size:
                continue
            for i in set(range(6, 12)) - set(basis):
                # rows of the first foot never count against the second's
                active = [0, 4, *basis]
                rank = np.linalg.matrix_rank(np.vstack([rows, G[i]]))
                assert _independent(G.tolist(), i, active, 6) == (rank == size + 1)
                dependent += rank == size
    # e.g. {+-t1 faces, -n}, {+-t2 faces, n}, {n, -n} and any 4th row
    assert dependent > 0


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
    # filled before pickling, so a copied cache would show
    params.hip_offsets
    params = copy(params)
    for leg in LegId:
        assert _same_bits(params.hip_offsets[leg], params.hip_position(leg))
    for shared in (block, normal, params.hip_offsets):
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


def _random_state(rng):
    return TrunkState(
        position=tuple(rng.normal(0.0, 1.0, 3).tolist()),
        velocity=tuple(rng.normal(0.0, 1.0, 3).tolist()),
        euler=tuple(rng.uniform(-0.5, 0.5, 3).tolist()),
        omega=tuple(rng.normal(0.0, 2.0, 3).tolist()),
    )


def _is_float_state(state) -> bool:
    """A TrunkState whose four fields are tuples of three Python floats."""
    return type(state) is TrunkState and all(
        type(v) is tuple and len(v) == 3 and all(type(x) is float for x in v)
        for v in state
    )


def test_step_matches_per_call_reference():
    rng = np.random.default_rng(11)
    params = RobotParams()
    for _ in range(200):
        state = _random_state(rng)
        stance = rng.random(4) < 0.6
        forces = rng.normal(0.0, 40.0, (4, 3)) * stance[:, None]
        feet = rng.normal(0.0, 0.3, (4, 3))
        got = step(state, forces, stance, feet, params, 0.002)
        want = _reference_step(state, forces, stance, feet, params, 0.002)
        # position and velocity take no inverse: still the same bits
        assert _same_bits(got.position, want[0])
        assert _same_bits(got.velocity, want[1])
        assert _close(got.euler, want[2])
        assert _close(got.omega, want[3])


def test_step_takes_float_rows_and_a_rotation_with_the_array_bits():
    # run_trial hands step float rows and the rotation it built for the step
    rng = np.random.default_rng(12)
    params = RobotParams()
    for _ in range(200):
        state = _random_state(rng)
        stance = rng.random(4) < 0.6
        forces_in = rng.normal(0.0, 40.0, (4, 3)) * stance[:, None]
        feet = rng.normal(0.0, 0.3, (4, 3))
        want = step(state, forces_in, stance, feet, params, 0.002)
        assert _is_float_state(want)
        rows = (forces_in.tolist(), stance.tolist(), [tuple(r) for r in feet.tolist()])
        rotation = rotation_matrix(state.euler)
        for got in (
            step(state, *rows, params, 0.002),
            step(state, forces_in, stance, feet, params, 0.002, rotation=rotation),
            step(state, *rows, params, 0.002, rotation=rotation),
        ):
            assert _is_float_state(got)
            for f, value in zip(TrunkState._fields, got):
                assert _same_bits(value, getattr(want, f)), f


def _trot_on(terrain, duration):
    return run_trial(standard_gait(GaitName.TROT), 1.2, terrain, duration, SimConfig(seed=3))


def _force_caches():
    """Every bounded cache of the forces module, by name."""
    return {name: fn for name, fn in vars(forces).items() if hasattr(fn, "cache_info")}


def test_trial_bits_do_not_depend_on_cone_cache_state():
    # the flat-slope trial crosses its flat -> 12 deg join; the
    # continuous-slope trial crosses flat -> 8 deg -> 12 deg first, so the
    # second flat-slope trial finds every cone block it needs already cached,
    # and the constraint sets of its stance sets and the reused workspaces
    # of its stance counts, left as the other trial's last solves wrote them
    caches = _force_caches()
    assert {"_cone_block", "_constraints", "_workspace"} <= set(caches)
    for cache in caches.values():
        cache.cache_clear()
    cold = _trot_on(FLAT_SLOPE_AHEAD, 1.2)
    assert cold.strides[-1].position[-1, 0] > 0.6
    for cache in caches.values():
        cache.cache_clear()
    assert _trot_on(CONTINUOUS_SLOPE_AHEAD, 2.4).strides[-1].position[-1, 0] > 2.3
    misses = _cone_block.cache_info().misses
    warm = _trot_on(FLAT_SLOPE_AHEAD, 1.2)
    assert _cone_block.cache_info().misses == misses
    assert len(cold.strides) == len(warm.strides)
    for a, b in zip(cold.strides, warm.strides):
        for f in dataclasses.fields(a):
            assert _same_bits(getattr(a, f.name), getattr(b, f.name)), f.name


def test_force_caches_hold_no_more_entries_than_stance_sets(monkeypatch):
    # a stance set is the legs in stance with their contact normals, the
    # constraints of one QP; the caches are keyed on stance sets or stance
    # counts, never on the working set, of which a stance set sees many
    caches = _force_caches()
    for cache in caches.values():
        cache.cache_clear()
    stance_sets, working_sets = set(), set()
    distribute = simulation.distribute_forces

    def recorded(wrench, feet, stance, com, mu, f_max, normals, working_set=()):
        dist = distribute(wrench, feet, stance, com, mu, f_max, normals,
                          working_set=working_set)
        legs = tuple(np.flatnonzero(dist.stance).tolist())
        if legs:
            key = (legs, tuple(np.asarray(normals)[leg].tobytes() for leg in legs))
            stance_sets.add(key)
            working_sets.add((key, dist.working_set))
        return dist

    monkeypatch.setattr(simulation, "distribute_forces", recorded)
    for gait in (GaitName.WALK, GaitName.TROT, GaitName.BOUND, GaitName.RUN):
        for terrain in (terrain_preset("flat"), FLAT_SLOPE_AHEAD):
            run_trial(standard_gait(gait), 0.9, terrain, 1.5, SimConfig(seed=3))
    assert len(working_sets) > 2 * len(stance_sets)
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert max(sizes.values()) <= len(stance_sets), (sizes, len(stance_sets))


def _reference_euler_rates(euler, omega):
    m = euler_rate_to_omega(euler)
    if abs(np.linalg.det(m)) < 1e-8:
        return np.zeros(3)
    return np.linalg.solve(m, omega)


_angle = st.floats(min_value=-math.pi, max_value=math.pi)
_rate = st.floats(min_value=-50.0, max_value=50.0)


@given(_angle, st.floats(min_value=-1.5, max_value=1.5), _angle, _rate, _rate, _rate)
def test_euler_rates_match_det_guarded_solve(roll, pitch, yaw, wx, wy, wz):
    euler, omega = np.array([roll, pitch, yaw]), np.array([wx, wy, wz])
    got = omega_to_euler_rates(euler, omega)
    assert _close(got, _reference_euler_rates(euler, omega))


@pytest.mark.parametrize("pitch", [math.pi / 2, -math.pi / 2])
def test_euler_rates_are_zero_at_the_pitch_singularity(pitch):
    euler = np.array([0.2, pitch, -0.4])
    got = omega_to_euler_rates(euler, np.array([1.0, -2.0, 3.0]))
    assert _same_bits(got, np.zeros(3))


def _reference_rotation(euler):
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), each elementary rotation an array."""
    (cr, cp, cy), (sr, sp, sy) = np.cos(euler), np.sin(euler)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, -sp], [0.0, 1.0, 0.0], [sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def test_rotation_matrix_matches_elementary_rotation_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        euler = rng.uniform(-0.6, 0.6, 3)
        assert _close(np.asarray(rotation_matrix(euler)), _reference_rotation(euler))


@pytest.mark.parametrize("size", [3, 6, 9])
@given(data=st.data())
def test_sqrt_dot_matches_numpy_norm(size, data):
    v = np.array(data.draw(st.lists(_finite, min_size=size, max_size=size)))
    with np.errstate(over="ignore"):
        got, want = math.sqrt(v.dot(v)), np.linalg.norm(v)
    assert _same_bits(np.float64(got), want)


def _reference_leg_ik(foot, leg, params):
    """leg_ik on numpy scalars, as it was computed before the float rewrite."""
    rel = np.asarray(foot, dtype=float) - params.hip_position(leg)
    px, py, pz = rel
    d = params.link_hip * params.side_sign(leg)
    l1, l2 = params.link_thigh, params.link_shank
    clamped = False
    planar_sq = py * py + pz * pz - d * d
    if planar_sq < 0.0:
        planar_sq = 0.0
        clamped = True
    w = math.sqrt(planar_sq)
    length = math.hypot(px, w)
    lo, hi = abs(l1 - l2), l1 + l2
    if length < lo or length > hi:
        target_len = min(max(length, lo), hi)
        if length > 1e-12:
            scale = target_len / length
            px, w = px * scale, w * scale
        else:
            px, w = 0.0, target_len
        length = target_len
        clamped = True
    cos_knee = (length * length - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    q3 = -math.acos(min(1.0, max(-1.0, cos_knee)))
    q2 = math.atan2(-px, w) - math.atan2(l2 * math.sin(q3), l1 + l2 * math.cos(q3))
    q1 = math.atan2(pz, py) - math.atan2(-w, d)
    return np.array([q1, q2, q3]), clamped


@pytest.mark.parametrize("link_hip", [0.0, 0.05])
def test_leg_ik_matches_numpy_scalar_reference(link_hip):
    params = RobotParams(link_hip=link_hip)
    rng = np.random.default_rng(7)
    clamps = 0
    for _ in range(300):
        leg = LegId(int(rng.integers(4)))
        foot = params.hip_position(leg) + rng.normal([0.0, 0.0, -0.3], 0.15)
        want, clamped = _reference_leg_ik(foot, leg, params)
        try:
            got = leg_ik(foot, leg, params)
        except OutOfWorkspaceError as err:
            assert clamped
            clamps += 1
            assert _same_bits(err.clamped_angles, want)
            assert _same_bits(err.clamped_point, leg_fk(want, leg, params))
        else:
            assert not clamped
            assert _same_bits(got, want)
    assert 0 < clamps < 300


class _QueryLog:
    """Wraps Terrain.query and records each x and whether it raised."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[float, bool]] = []
        query = Terrain.query

        def counted(terrain, x):
            try:
                sample = query(terrain, x)
            except TerrainBoundsError:
                self.calls.append((x, True))
                raise
            self.calls.append((x, False))
            return sample

        monkeypatch.setattr(Terrain, "query", counted)


def test_trot_step_makes_at_most_eight_terrain_queries(monkeypatch):
    log = _QueryLog(monkeypatch)
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert not result.failed
    n_steps = round(1.2 / SimConfig().dt)
    assert len(log.calls) / n_steps <= 8.0


def test_trot_step_makes_one_solve_no_lstsq_and_one_euler_rate_map(monkeypatch):
    counts = {"direct": 0, "solve": 0, "lstsq": 0, "rate_map": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(forces, "_lapack_solve", counted("direct", forces._lapack_solve))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(
        simulation, "euler_rate_to_omega", counted("rate_map", euler_rate_to_omega)
    )
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert not result.failed
    n_steps = round(1.2 / SimConfig().dt)
    # the 2-foot QP's one augmented-system solve, by the LAPACK gufunc with
    # no np.linalg.solve fallback; omega_dot and the Euler rates are closed
    # forms, and the forces need no least-squares clean-up
    assert 0 < counts["direct"] / n_steps <= 1.0
    assert counts["solve"] == 0
    assert counts["lstsq"] == 0
    assert counts["rate_map"] / n_steps <= 1.0


class _IntegratorLog:
    """Wraps run_trial's rigid-body integrator and keeps a copy of the state,
    applied forces, stance flags and foot points of every step."""

    FIELDS = ("position", "velocity", "euler", "omega", "forces", "stance", "foot_positions")

    def __init__(self, monkeypatch):
        self.rows = []
        self.monkeypatch = monkeypatch
        integrate = simulation.step

        def recorded(state, forces, stance, feet, params, dt, **kwargs):
            self.rows.append(
                tuple(
                    np.array(a)
                    for a in (state.position, state.velocity, state.euler, state.omega,
                              forces, stance, feet)
                )
            )
            return integrate(state, forces, stance, feet, params, dt, **kwargs)

        monkeypatch.setattr(simulation, "step", recorded)


def _steady_trot(log):
    return _trot_on(terrain_preset("flat"), 1.2)


def _falling_bound(log):
    result = run_trial(
        standard_gait(GaitName.BOUND), 1.7, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert result.failed and not result.strides[-1].complete
    return result


def _fsm_trot_to_walk(log):
    fsm = GaitFsm(GaitName.TROT)

    def on_stride(idx, body, t):
        if idx == 2:
            fsm.request(GaitName.WALK)

    result = run_trial(
        fsm, 0.8, terrain_preset("flat"), 3.0,
        SimConfig(seed=2), on_stride=on_stride,
    )
    assert result.events and not result.failed
    return result


def _finish_on_stride_boundary(log):
    # the body reaches finish_x in the step that closes the second stride
    free = _trot_on(terrain_preset("flat"), 1.2)
    finish_x = float(free.strides[2].position[0, 0])
    log.rows.clear()
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3),
        finish_x=finish_x,
    )
    assert result.finished_course and len(result.strides) == 2
    assert all(s.complete for s in result.strides)
    return result


def _one_step_nan_fall(log):
    # the first step returns a NaN body position, as a state gone NaN
    integrate = simulation.step

    def nan_step(*args, **kwargs):
        state = integrate(*args, **kwargs)
        return state._replace(position=(math.nan, *state.position[1:]))

    log.monkeypatch.setattr(simulation, "step", nan_step)
    start = TrunkState(
        position=(0.0, 0.0, 0.32),
        velocity=(1.0, 0.0, 0.0),
        euler=(0.0, 0.0, 0.0),
        omega=(0.0, 0.0, 0.0),
    )
    quiet = dataclasses.replace(SimConfig(), attitude_jitter=0.0, velocity_jitter=0.0)
    result = run_trial(
        standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 2.0, quiet,
        rng=np.random.default_rng(0), initial_state=start,
    )
    assert result.failed and len(log.rows) == 1
    return result


@pytest.mark.parametrize(
    "trial",
    [_steady_trot, _falling_bound, _fsm_trot_to_walk, _finish_on_stride_boundary,
     _one_step_nan_fall],
    ids=["steady-trot", "falling-bound", "fsm-trot-walk", "finish-on-boundary", "nan-fall"],
)
def test_stride_logs_are_the_rows_the_integrator_received(monkeypatch, trial):
    log = _IntegratorLog(monkeypatch)
    result = trial(log)
    strides = result.strides
    # the strides partition the steps run: each step's row once, in order
    assert strides and all(s.time.shape[0] > 0 for s in strides)
    assert sum(s.time.shape[0] for s in strides) == len(log.rows)
    want = dict(zip(_IntegratorLog.FIELDS, (np.stack(col) for col in zip(*log.rows))))
    for name, rows in want.items():
        assert _same_bits(np.concatenate([getattr(s, name) for s in strides]), rows), name
    rates = [omega_to_euler_rates(e, w) for e, w in zip(want["euler"], want["omega"])]
    assert _same_bits(np.concatenate([s.euler_rates for s in strides]), np.stack(rates))
    times, t = [], 0.0
    for _ in log.rows:
        times.append(t)
        t += SimConfig().dt
    assert _same_bits(np.concatenate([s.time for s in strides]), np.array(times))
    assert result.end_time == t
    for s in strides:
        assert s.torques.shape == s.joint_velocities.shape == (s.time.shape[0], 12)
    arrays = _IntegratorLog.FIELDS + ("time", "torques", "joint_velocities", "euler_rates")
    for a, b in itertools.combinations(strides, 2):
        for name in arrays:
            assert not np.shares_memory(getattr(a, name), getattr(b, name)), name


def test_on_stride_gets_the_body_state_that_opens_the_next_stride():
    bodies = []
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3),
        on_stride=lambda idx, body, t: bodies.append((idx, body, t)),
    )
    assert [idx for idx, _, _ in bodies] == list(range(1, len(bodies) + 1))
    assert len(bodies) >= len(result.strides) - 1 >= 2
    for idx, body, t in bodies:
        assert _is_float_state(body)
        if idx == len(result.strides):
            continue  # the trial ended on this boundary
        stride = result.strides[idx]
        assert stride.time[0] == t
        for name, value in zip(TrunkState._fields, body):
            assert _same_bits(value, getattr(stride, name)[0]), name


@pytest.mark.parametrize("preset", PRESETS)
def test_the_default_start_state_is_the_first_log_row(preset):
    # v_cmd along the terrain tangent at x = 0 plus the velocity jitter,
    # roll and pitch jitter on the terrain incline, from the trial's rng: two
    # attitude draws, then two velocity draws
    terrain = terrain_preset(preset)
    config = SimConfig(attitude_jitter=0.04, velocity_jitter=0.06)
    v_cmd = 1.1
    result = run_trial(
        standard_gait(GaitName.TROT), v_cmd, terrain, 1.2, config,
        rng=np.random.default_rng(41),
    )
    rng = np.random.default_rng(41)
    att = rng.uniform(-1.0, 1.0, size=2) * config.attitude_jitter
    jit = rng.uniform(-1.0, 1.0, size=2) * config.velocity_jitter
    samp = terrain.query(0.0)
    tangent = np.array([math.cos(samp.incline), 0.0, math.sin(samp.incline)])
    first = result.strides[0]
    want = {
        "position": np.array([0.0, 0.0, samp.height + config.nominal_height]),
        "velocity": v_cmd * tangent + np.array([jit[0], jit[1], 0.0]),
        "euler": np.array([att[0], samp.incline + att[1], 0.0]),
        "omega": np.zeros(3),
    }
    for name, value in want.items():
        assert _same_bits(getattr(first, name)[0], value), name


class _AngleLog:
    """Wraps the leg IK that run_trial calls and keeps, in call order, the
    angles each call gave it: the solution, or the clamped angles of an
    out-of-workspace foot."""

    def __init__(self, monkeypatch):
        self.angles = []
        ik = simulation.leg_ik

        def recorded(*args):
            try:
                q = ik(*args)
            except OutOfWorkspaceError as err:
                self.angles.append(err.clamped_angles.tolist())
                raise
            self.angles.append(q)
            return q

        monkeypatch.setattr(simulation, "leg_ik", recorded)

    def rates(self, dt: float) -> np.ndarray:
        """(q - q_prev) / dt per step in Python floats, from the start pose's
        four calls and each step's four."""
        steps = [[a for leg in self.angles[i : i + 4] for a in leg]
                 for i in range(0, len(self.angles), 4)]
        return np.array([[(a - b) / dt for a, b in zip(q, prev)]
                         for prev, q in zip(steps, steps[1:])])


@pytest.mark.parametrize(
    "trial", [_steady_trot, _falling_bound], ids=["steady-trot", "falling-bound"]
)
def test_joint_velocities_are_the_differenced_ik_angles(monkeypatch, trial):
    angles = _AngleLog(monkeypatch)
    result = trial(None)
    got = np.concatenate([s.joint_velocities for s in result.strides])
    assert result.strides and len(angles.angles) % 4 == 0
    assert _same_bits(got, angles.rates(SimConfig().dt))


@pytest.mark.parametrize("width", [0, 1, 63, 65, 128])
def test_stride_accumulator_rejects_a_row_that_is_not_64_floats(width):
    acc = StrideAccumulator(0.002, np.zeros(12))
    acc.reset(0.0, (0.0, 0.0, 0.3))
    acc.write(tuple(range(64)), [True] * 4)
    with pytest.raises(ValueError, match="64"):
        acc.write(tuple(range(width)), [True] * 4)
    # the rejected row leaves nothing behind in the open stride
    acc.write(tuple(range(64, 128)), [False] * 4)
    log = acc.close(0.004, (0.0, 0.0, 0.3), 1.0, failed=False, complete=True)
    assert log.time.tolist() == [0.0, 64.0]
    assert log.stance.tolist() == [[True] * 4, [False] * 4]


def _nan_with_payload(payload):
    return struct.unpack("d", struct.pack("Q", 0x7FF8000000000000 | payload))[0]


def test_stride_accumulator_rows_keep_every_bit():
    dt = 0.002
    specials = [-0.0, _nan_with_payload(0xABC), math.inf, -math.inf, 5e-324, 7,
                np.float64(2.5), _nan_with_payload(0x5)]
    rng = np.random.default_rng(4)
    # specials in every column, the joint-angle columns included, over two
    # strides so that the second differences against the first's last row
    rows = [list(rng.normal(0.0, 1.0, 64)) for _ in range(9)]
    for i, row in enumerate(rows):
        for col in range(i % 7, 64, 7):
            row[col] = specials[(i + col) % len(specials)]
    q0 = rng.normal(0.0, 1.0, 12)
    acc = StrideAccumulator(dt, q0)
    acc.reset(0.0, (0.0, 0.0, 0.3))
    strides = []
    for cut in ((0, 5), (5, 9)):
        for row in rows[cut[0]:cut[1]]:
            acc.write(tuple(row), [True, False, True, False])
        strides.append(acc.close(0.1, (0.5, 0.0, 0.3), 1.2, failed=False, complete=True))
        acc.reset(0.1, (0.5, 0.0, 0.3))
    want = np.array(rows, dtype=float)
    q = want[:, 13:25]
    rates = np.empty_like(q)
    np.subtract(q, np.concatenate((q0[None], q[:-1])), out=rates)
    np.divide(rates, dt, out=rates)
    columns = {
        "time": want[:, 0], "torques": want[:, 1:13], "joint_velocities": rates,
        "forces": want[:, 25:37].reshape(-1, 4, 3), "position": want[:, 37:40],
        "velocity": want[:, 40:43], "euler": want[:, 43:46], "omega": want[:, 46:49],
        "euler_rates": want[:, 49:52], "foot_positions": want[:, 52:64].reshape(-1, 4, 3),
    }
    for name, col in columns.items():
        got = np.concatenate([getattr(s, name) for s in strides])
        assert _same_bits(got, col), name


class _ControlLog:
    """Wraps the force QP, the contact schedule and the swing accelerations
    that run_trial calls, and keeps, in call order, each QP's wrench and
    forces, each contact query and each swing leg's touchdown target and
    world-frame foot acceleration."""

    def __init__(self, monkeypatch):
        self.wrenches, self.qp_forces, self.contacts, self.swing_acc = [], [], [], []
        distribute = simulation.distribute_forces
        contact = simulation.leg_contact
        swing_acceleration = simulation.swing_acceleration

        def recorded_qp(wrench, *args, **kwargs):
            self.wrenches.append(np.array(wrench))
            dist = distribute(wrench, *args, **kwargs)
            self.qp_forces.append(dist.forces.copy())
            return dist

        def recorded_contact(pattern, phase, leg):
            swing_phase = contact(pattern, phase, leg)
            self.contacts.append((pattern, swing_phase))
            return swing_phase

        def recorded_acc(s, lift, target, *args):
            acc = swing_acceleration(s, lift, target, *args)
            self.swing_acc.append((np.array(target), np.array(acc)))
            return acc

        monkeypatch.setattr(simulation, "distribute_forces", recorded_qp)
        monkeypatch.setattr(simulation, "leg_contact", recorded_contact)
        monkeypatch.setattr(simulation, "swing_acceleration", recorded_acc)


def _reference_wrench(pos, vel, euler, omega, beta, incline_ref, carrot_x, v_cmd,
                      terrain, config, params):
    """The body wrench of one control step, with numpy arrays throughout."""
    tangent = np.array([math.cos(incline_ref), 0.0, math.sin(incline_ref)])
    v_des = v_cmd * tangent
    carrot_samp = terrain.query(min(max(carrot_x, terrain.start_x), terrain.end_x))
    p_des = np.array([carrot_x, 0.0, carrot_samp.height + config.nominal_height])
    p_err = p_des - pos
    p_err[0] = min(max(p_err[0], -config.carrot_clamp), config.carrot_clamp)
    support_scale = 1.0 / min(1.0, 2.0 * beta)
    f_des = (
        np.asarray(config.kp_lin) * p_err
        + np.asarray(config.kd_lin) * (v_des - vel)
        + np.array([0.0, 0.0, params.mass * params.gravity * support_scale])
    )
    euler_des = np.array([0.0, incline_ref, 0.0])
    m_des = euler_rate_to_omega(euler) @ (
        np.asarray(config.kp_ang) * (euler_des - euler)
    ) - np.asarray(config.kd_ang) * omega
    return np.concatenate([f_des, m_des])


def _reference_torques(pos, euler, feet, stance, qp_forces, swing_acc, config, params):
    """Joint torques and applied forces of one control step, with numpy 3x3
    products: tau = -J^T f_body in stance, J^T m (a - g)_body otherwise, each
    leg scaled down together with its force when a joint exceeds the limit."""
    rot = _reference_rotation(euler)
    body_targets = (feet - pos) @ rot
    forces_body = qp_forces @ rot
    acc_body = (swing_acc - params.gravity * np.array([0.0, 0.0, -1.0])) @ rot
    torques, applied = np.zeros((4, 3)), qp_forces.copy()
    for leg in LegId:
        try:
            q = leg_ik(body_targets[leg], leg, params)
        except OutOfWorkspaceError as err:
            q = err.clamped_angles
        j = np.asarray(leg_jacobian(q, leg, params))
        if stance[leg]:
            tau = -j.T @ forces_body[leg]
        else:
            tau = j.T @ (params.foot_mass * acc_body[leg])
        peak = np.abs(tau).max()
        if peak > config.joint_torque_limit:
            scale = config.joint_torque_limit / peak
            tau = tau * scale
            if stance[leg]:
                applied[leg] = qp_forces[leg] * scale
        torques[leg] = tau
    return torques, applied


def _reference_target(pos, vel, euler, pattern, swing_phase, incline_ref, v_cmd, leg,
                      scatter, config, params):
    """A swing leg's touchdown x and y, with numpy arrays throughout: the hip
    moved on with the velocity for the rest of the swing, plus the stance
    lead, the clamped capture correction and the swing's landing scatter."""
    rot = _reference_rotation(euler)
    v_des_flat = np.array([v_cmd * math.cos(incline_ref), 0.0, 0.0])
    v_flat = np.array([vel[0], vel[1], 0.0])
    lead = v_flat * (0.5 * pattern.beta * pattern.period)
    correction = config.capture_gain * (v_flat - v_des_flat)
    c_norm = np.linalg.norm(correction)
    if c_norm > config.capture_clamp:
        correction *= config.capture_clamp / c_norm
    t_rem = (1.0 - swing_phase) * ((1.0 - pattern.beta) * pattern.period)
    target = pos + rot @ params.hip_offsets[leg] + v_flat * t_rem + lead + correction
    return target[:2] + scatter


def _rel_close(got, want, tiny=1e-12) -> bool:
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want) + tiny


def _falling_run(log):
    result = run_trial(
        standard_gait(GaitName.RUN), 1.7, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert result.failed
    return result


@pytest.mark.parametrize(
    "trial, v_cmd, seed, covers",
    [
        (_steady_trot, 1.2, 3, None),
        (_fsm_trot_to_walk, 0.8, 2, None),
        # stance feet out of reach drop to swing with zero foot acceleration
        (_falling_bound, 1.7, 3, "dropped"),
        # joints over the torque limit scale their leg's torques and force
        (_falling_run, 1.7, 3, "saturated"),
    ],
    ids=["steady-trot", "fsm-trot-walk", "falling-bound", "falling-run"],
)
def test_control_step_matches_numpy_reference(monkeypatch, trial, v_cmd, seed, covers):
    log = _ControlLog(monkeypatch)
    result = trial(None)
    config, params, terrain = SimConfig(), RobotParams(), terrain_preset("flat")
    # the trial's random stream: the initial attitude and velocity jitter,
    # then one landing scatter per swing, drawn as the swing starts
    rng = np.random.default_rng(seed)
    rng.uniform(-1.0, 1.0, size=2)
    rng.uniform(-1.0, 1.0, size=2)
    was_swing, scatter = [False] * 4, [None] * 4
    rows = {
        name: np.concatenate([getattr(s, name) for s in result.strides])
        for name in ("position", "velocity", "euler", "omega", "foot_positions",
                     "stance", "forces", "torques")
    }
    n = rows["position"].shape[0]
    assert len(log.wrenches) == n and len(log.contacts) == 4 * n
    half = 0.5 * params.hip_length
    carrot_x = 0.0
    swing_acc = iter(log.swing_acc)
    seen = {"dropped": 0, "saturated": 0}
    for i in range(n):
        pos, vel, euler, omega = (rows[k][i] for k in ("position", "velocity", "euler", "omega"))
        contacts = log.contacts[4 * i : 4 * i + 4]
        incline_ref = 0.5 * (
            terrain.query(pos[0] + half).incline + terrain.query(pos[0] - half).incline
        )
        carrot_x += v_cmd * math.cos(incline_ref) * config.dt
        want = _reference_wrench(pos, vel, euler, omega, contacts[0][0].beta, incline_ref,
                                 carrot_x, v_cmd, terrain, config, params)
        got = log.wrenches[i]
        # force and moment rows differ in scale by two orders of magnitude
        assert _rel_close(got[:3], want[:3]) and _rel_close(got[3:], want[3:]), i
        acc_world = np.zeros((4, 3))
        for leg, (pattern, swing_phase) in zip(LegId, contacts):
            is_swing = swing_phase is not None
            if is_swing and not was_swing[leg]:
                scatter[leg] = rng.normal(0.0, config.touchdown_noise, size=2)
            was_swing[leg] = is_swing
            if is_swing:
                target, acc_world[leg] = next(swing_acc)
                want = _reference_target(pos, vel, euler, pattern, swing_phase,
                                         incline_ref, v_cmd, leg, scatter[leg], config,
                                         params)
                assert _rel_close(target[:2], want), (i, leg)
                assert target[2] == terrain.query(target[0]).height
        torques, applied = _reference_torques(
            pos, euler, rows["foot_positions"][i], rows["stance"][i], log.qp_forces[i],
            acc_world, config, params,
        )
        for leg in LegId:
            assert _rel_close(rows["torques"][i].reshape(4, 3)[leg], torques[leg]), (i, leg)
            assert _rel_close(rows["forces"][i, leg], applied[leg]), (i, leg)
        seen["saturated"] += not np.array_equal(applied, log.qp_forces[i])
        seen["dropped"] += sum(
            s is None and not on for (_, s), on in zip(contacts, rows["stance"][i])
        )
    assert next(swing_acc, None) is None
    if covers:
        assert seen[covers] > 0


def _reference_swing_trajectory(s, lift_point, target_point, apex):
    s = min(1.0, max(0.0, float(s)))
    lift = np.asarray(lift_point, dtype=float)
    target = np.asarray(target_point, dtype=float)
    sigma = s - math.sin(2.0 * math.pi * s) / (2.0 * math.pi)
    pos = lift + sigma * (target - lift)
    pos[2] += apex * math.sin(math.pi * s)
    return pos


def _reference_swing_acceleration(s, lift_point, target_point, apex, swing_time):
    s = min(1.0, max(0.0, float(s)))
    lift = np.asarray(lift_point, dtype=float)
    target = np.asarray(target_point, dtype=float)
    d2 = 2.0 * math.pi * math.sin(2.0 * math.pi * s) * (target - lift)
    d2[2] += -apex * math.pi * math.pi * math.sin(math.pi * s)
    return d2 / (swing_time * swing_time)


_coord = st.floats(min_value=-100.0, max_value=100.0)
_point = st.lists(_coord, min_size=3, max_size=3).map(np.array)


@given(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    _point,
    _point,
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_swing_arcs_match_numpy_array_reference(s, lift, target, apex, swing_time):
    assert _same_bits(
        swing_trajectory(s, lift, target, apex),
        _reference_swing_trajectory(s, lift, target, apex),
    )
    assert _same_bits(
        swing_acceleration(s, lift, target, apex, swing_time),
        _reference_swing_acceleration(s, lift, target, apex, swing_time),
    )


def _array_jacobian(q_leg, leg, params):
    """leg_jacobian's formula as it was built into an array."""
    q1, q2, q3 = np.asarray(q_leg, dtype=float)
    d = params.link_hip * params.side_sign(leg)
    l1, l2 = params.link_thigh, params.link_shank
    s2, c2 = math.sin(q2), math.cos(q2)
    s23, c23 = math.sin(q2 + q3), math.cos(q2 + q3)
    c1, s1 = math.cos(q1), math.sin(q1)
    zp = -l1 * c2 - l2 * c23
    dzp_dq2, dzp_dq3 = l1 * s2 + l2 * s23, l2 * s23
    return np.array(
        [
            [0.0, -l1 * c2 - l2 * c23, -l2 * c23],
            [-(s1 * d + c1 * zp), -s1 * dzp_dq2, -s1 * dzp_dq3],
            [c1 * d - s1 * zp, c1 * dzp_dq2, c1 * dzp_dq3],
        ]
    )


def _array_rotation(euler):
    """rotation_matrix's closed form as it was built into an array."""
    roll, pitch, yaw = np.asarray(euler, dtype=float)
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, -cy * sp * sr - sy * cr, sy * sr - cy * sp * cr],
            [sy * cp, cy * cr - sy * sp * sr, -sy * sp * cr - cy * sr],
            [sp, cp * sr, cp * cr],
        ]
    )


def _array_rate_map(euler):
    _, pitch, yaw = np.asarray(euler, dtype=float)
    cp, sp, cy, sy = math.cos(pitch), math.sin(pitch), math.cos(yaw), math.sin(yaw)
    return np.array([[cy * cp, sy, 0.0], [sy * cp, -cy, 0.0], [sp, 0.0, 1.0]])


def _array_euler_rates(euler, omega):
    _, pitch, yaw = np.asarray(euler, dtype=float)
    cp = math.cos(pitch)
    if abs(cp) < 1e-8:
        return np.zeros(3)
    cy, sy = math.cos(yaw), math.sin(yaw)
    w = np.asarray(omega, dtype=float)
    roll_rate = (cy * w[0] + sy * w[1]) / cp
    return np.array([roll_rate, sy * w[0] - cy * w[1], w[2] - math.sin(pitch) * roll_rate])


def _array_stance_torques(force_body, q_leg, leg, params):
    """-J^T f as the sum of J's rows scaled by the force, in row order."""
    j, f = _array_jacobian(q_leg, leg, params), np.asarray(force_body, dtype=float)
    return -j[0] * f[0] - j[1] * f[1] - j[2] * f[2]


def _array_swing_torques(q_leg, foot_accel_body, leg, params):
    """J^T m a as the sum of J's rows scaled by m a, in row order."""
    j = _array_jacobian(q_leg, leg, params)
    a = params.foot_mass * np.asarray(foot_accel_body, dtype=float)
    return j[0] * a[0] + j[1] * a[1] + j[2] * a[2]


def _is_float_tuple(value, depth=1) -> bool:
    """A tuple of three Python floats, or (depth 2) of three such tuples."""
    if type(value) is not tuple or len(value) != 3:
        return False
    if depth == 1:
        return all(type(v) is float for v in value)
    return all(_is_float_tuple(row) for row in value)


def _helper_results(rng, params):
    """Each per-step helper and its array formula on one random draw of
    Python float inputs: {name: (result, array reference, depth)}."""
    leg = LegId(int(rng.integers(4)))
    q = [rng.uniform(-0.6, 0.6), rng.uniform(-0.9, 0.9), rng.uniform(-2.4, -0.25)]
    foot = leg_fk(q, leg, params).tolist()
    euler = [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(-math.pi, math.pi)]
    omega, force = rng.normal(0.0, 2.0, 3).tolist(), rng.normal(0.0, 60.0, 3).tolist()
    lift, target = rng.normal(0.0, 0.3, 3).tolist(), rng.normal(0.0, 0.3, 3).tolist()
    s, apex, swing_time = rng.uniform(), rng.uniform(0.0, 0.1), rng.uniform(0.05, 0.4)
    ik_want, clamped = _reference_leg_ik(foot, leg, params)
    assert not clamped
    return {
        "leg_ik": (leg_ik(foot, leg, params), ik_want, 1),
        "leg_jacobian": (leg_jacobian(q, leg, params), _array_jacobian(q, leg, params), 2),
        "rotation_matrix": (rotation_matrix(euler), _array_rotation(euler), 2),
        "euler_rate_to_omega": (euler_rate_to_omega(euler), _array_rate_map(euler), 2),
        "omega_to_euler_rates": (
            omega_to_euler_rates(euler, omega), _array_euler_rates(euler, omega), 1
        ),
        "swing_trajectory": (
            swing_trajectory(s, lift, target, apex),
            _reference_swing_trajectory(s, lift, target, apex),
            1,
        ),
        "swing_acceleration": (
            swing_acceleration(s, lift, target, apex, swing_time),
            _reference_swing_acceleration(s, lift, target, apex, swing_time),
            1,
        ),
        "stance_torques": (
            stance_torques(force, q, leg, params),
            _array_stance_torques(force, q, leg, params),
            1,
        ),
        "swing_torques": (
            swing_torques(q, force, leg, params),
            _array_swing_torques(q, force, leg, params),
            1,
        ),
    }


STEP_HELPERS = (
    "leg_ik", "leg_jacobian", "rotation_matrix", "euler_rate_to_omega",
    "omega_to_euler_rates", "swing_trajectory", "swing_acceleration",
    "stance_torques", "swing_torques",
)
_MATRIX_HELPERS = ("leg_jacobian", "rotation_matrix", "euler_rate_to_omega")


@pytest.mark.parametrize("link_hip", [0.0, 0.05])
def test_step_helpers_return_float_tuples_with_the_array_bits(link_hip):
    params = RobotParams(link_hip=link_hip)
    rng = np.random.default_rng(21)
    for _ in range(200):
        results = _helper_results(rng, params)
        assert tuple(results) == STEP_HELPERS
        for name, (got, want, depth) in results.items():
            assert _is_float_tuple(got, depth), name
            assert _same_bits(np.array(got), want), name
    # the guard at the pitch singularity
    singular = omega_to_euler_rates([0.2, math.pi / 2, -0.4], [1.0, -2.0, 3.0])
    assert _is_float_tuple(singular) and singular == (0.0, 0.0, 0.0)


def test_unreachable_leg_ik_target_raises_with_arrays():
    params = RobotParams()
    for leg in LegId:
        hx, hy, hz = params.hip_offsets[leg].tolist()
        for target in ((hx, hy, hz - 2.0), (hx + 0.5, hy, hz)):
            with pytest.raises(OutOfWorkspaceError) as err:
                leg_ik(target, leg, params)
            for arr in (err.value.target, err.value.clamped_point, err.value.clamped_angles):
                assert type(arr) is np.ndarray and arr.dtype == np.float64
                assert arr.shape == (3,)
            assert _same_bits(
                err.value.clamped_point, leg_fk(err.value.clamped_angles, leg, params)
            )


def test_control_loop_helpers_hand_it_no_arrays(monkeypatch):
    # every helper run_trial and step call per step, looked up through the
    # simulation module's globals, returns tuples of floats (clamped IK
    # targets raise instead)
    seen = {name: 0 for name in STEP_HELPERS}
    arrays = []

    def recorded(name, fn):
        def wrapper(*args):
            result = fn(*args)
            seen[name] += 1
            if not _is_float_tuple(result, 2 if name in _MATRIX_HELPERS else 1):
                arrays.append((name, result))
            return result

        return wrapper

    for name in STEP_HELPERS:
        monkeypatch.setattr(simulation, name, recorded(name, getattr(simulation, name)))
    _steady_trot(None)
    _falling_run(None)
    assert all(seen.values()), seen
    assert not arrays, arrays[:3]


def test_post_step_bounds_error_ends_the_trial_as_a_fall(monkeypatch):
    terrain = Terrain("short", (TerrainSegment(-1.0, 0.0),), end_x=0.7)
    log = _QueryLog(monkeypatch)
    result = run_trial(standard_gait(GaitName.TROT), 1.2, terrain, 2.0, SimConfig(seed=3))
    # the trial ends on the ground sample under the body, which left the end
    x, raised = log.calls[-1]
    assert raised and x > terrain.end_x
    last = result.strides[-1]
    assert x == pytest.approx(last.position[-1, 0] + 0.002 * last.velocity[-1, 0], abs=1e-3)
    assert result.end == "terrain-bounds" and result.failed and not result.finished_course
    assert last.failed and not last.complete
    assert result.end_time < 2.0


def _reference_csv(strides, header, path):
    """stride_logs_to_csv's rows, converted one element at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for si, log in enumerate(strides):
            for i in range(log.time.shape[0]):
                writer.writerow(
                    [si, repr(float(log.time[i]))]
                    + [repr(float(x)) for x in log.torques[i]]
                    + [repr(float(x)) for x in log.joint_velocities[i]]
                    + [repr(float(x)) for x in log.forces[i].reshape(12)]
                    + [int(x) for x in log.stance[i]]
                    + [repr(float(x)) for x in log.position[i]]
                    + [repr(float(x)) for x in log.velocity[i]]
                    + [repr(float(x)) for x in log.euler[i]]
                    + [repr(float(x)) for x in log.omega[i]]
                    + [repr(float(log.foot_positions[i, leg, 2])) for leg in LegId]
                    + [repr(float(log.v_cmd))]
                )


@pytest.mark.parametrize(
    "gait, v_cmd, falls", [(GaitName.TROT, 1.2, False), (GaitName.BOUND, 1.7, True)]
)
def test_stride_csv_matches_per_element_writer(tmp_path, gait, v_cmd, falls):
    result = run_trial(
        standard_gait(gait), v_cmd, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    # a fall leaves a partial final stride
    assert result.failed == falls
    assert result.strides[-1].complete != falls
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    stride_logs_to_csv(result.strides, got)
    with open(got, newline="") as fh:
        header = next(csv.reader(fh))
    _reference_csv(result.strides, header, want)
    assert got.read_bytes() == want.read_bytes()


def _synthetic_stride(n, rng):
    """A StrideLog of ``n`` random samples (no simulation behind it)."""
    return StrideLog(
        time=np.arange(n) * 0.002,
        torques=rng.normal(0.0, 10.0, (n, 12)),
        joint_velocities=rng.normal(0.0, 3.0, (n, 12)),
        forces=rng.normal(0.0, 50.0, (n, 4, 3)),
        stance=rng.random((n, 4)) < 0.5,
        position=rng.normal(0.0, 1.0, (n, 3)),
        velocity=rng.normal(0.0, 1.0, (n, 3)),
        euler=rng.normal(0.0, 0.1, (n, 3)),
        omega=rng.normal(0.0, 1.0, (n, 3)),
        euler_rates=rng.normal(0.0, 1.0, (n, 3)),
        foot_positions=rng.normal(0.0, 0.3, (n, 4, 3)),
        v_cmd=1.2,
        delta_s=0.5,
        t_f=0.4,
        failed=False,
        complete=True,
    )


def _special_stride(rng):
    log = _synthetic_stride(3, rng)
    log.torques[0, :4] = (math.nan, math.inf, -math.inf, -0.0)
    log.forces[1, 2] = (-0.0, math.nan, math.inf)
    log.position[2] = (-math.inf, -0.0, math.nan)
    log.euler[0, 1] = -0.0
    log.foot_positions[1, :, 2] = (math.nan, -0.0, math.inf, -math.inf)
    log.time[2] = math.nan
    return log


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: [_synthetic_stride(4, rng), _special_stride(rng)],
        lambda rng: [_synthetic_stride(2, rng), _synthetic_stride(0, rng), _synthetic_stride(3, rng)],
        lambda rng: [],
    ],
    ids=["nan-inf-negzero", "empty-stride", "no-strides"],
)
def test_stride_csv_edge_cases_match_per_element_writer(tmp_path, make):
    strides = make(np.random.default_rng(9))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    stride_logs_to_csv(strides, got)
    with open(got, newline="") as fh:
        rows = list(csv.reader(fh))
    _reference_csv(strides, rows[0], want)
    assert got.read_bytes() == want.read_bytes()
    assert len(rows) == 1 + sum(log.time.shape[0] for log in strides)
