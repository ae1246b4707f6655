"""Single-rigid-body quadruped simulation with force-distribution control.

The trunk is a rigid body driven by contact forces solved per control step;
legs are massless kinematic chains except for a point mass at each foot,
which makes swing effort (and hence the duty factor) show up in the energy
accounting. Swing feet follow a cycloidal arch toward a capture-style
touchdown point; stance feet are pinned to the terrain.

A trial's gait comes from one of two sources: a :class:`GaitPattern` held for
the whole trial, or a :class:`GaitFsm` advanced once per step, which switches
gaits when it is asked to at a stride boundary. Every step ends in one call of
the rigid-body integrator :func:`step`.

The control step runs on Python floats. Its vectors have three entries, so a
numpy call costs far more in dispatch than in arithmetic: the trunk state is a
:class:`TrunkState` of float triples everywhere, from a trial's
``initial_state`` through every :func:`step` to the state ``on_stride``
receives. :func:`run_trial` works out the reference, touchdown targets, frame
changes and leg torques on scalars. It hands the force QP the wrench, feet,
stance and centre of mass as Python sequences, and :func:`step` the state,
the saturated forces as float rows and the rotation it built for the step, so
the integrator neither converts them nor rebuilds the rotation; :func:`step`
integrates on scalars and returns a new :class:`TrunkState`. Each step is
logged as one tuple of floats, appended to its stride's own float64
buffer, and its stance flags; each stride views that buffer as one array of
its rows (and builds one bool array of its flags), whose column views are
the :class:`~gaitkit.stridelog.StrideLog` fields
(:mod:`gaitkit.stridelog` holds the log). The helpers they call once or
more per step (:func:`~gaitkit.robot.leg_ik`,
:func:`~gaitkit.robot.leg_jacobian`, :func:`rotation_matrix`,
:func:`euler_rate_to_omega`, :func:`omega_to_euler_rates`, the swing arc and
its acceleration, and the stance and swing torques) take sequences of floats
and return a tuple of three floats, or for a 3x3 matrix a tuple of three such
rows; they are looked up through this module's globals on every call, so a
tracer can wrap them here. The scalar sums round differently
from the BLAS 3x3 products they replace (which may fuse multiply and add), so
a trial's bits differ from those of a numpy build, by about 1e-16 relative
per operation; sums that numpy adds in a fixed order (the force total, the
moment, the position and velocity updates) keep that order and their bits.

Angle convention: euler = (roll, pitch, yaw) with pitch positive nose-up, so
a body aligned to an uphill slope has pitch equal to the terrain inclination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .forces import _four_bools, _four_flags, _leg_rows, distribute_forces
from .gaits import GaitPattern, LegId, leg_contact, standard_gait
from .robot import (
    OutOfWorkspaceError,
    Matrix3,
    RobotParams,
    Terrain,
    TerrainBoundsError,
    Vector3,
    leg_ik,
    leg_jacobian,
)
from .stridelog import StrideAccumulator, StrideLog, TrialResult
from .transitions import GaitFsm

_LEGS = tuple(LegId)

# the highest commanded speed a trial accepts [m/s]; commands lie in [0, this]
MAX_COMMAND_VELOCITY = 3.0


class TrunkState(NamedTuple):
    """Trunk pose and rates, each a tuple of three Python floats: position
    and velocity, euler angles and world angular velocity.

    The one form of the trunk state: a trial's ``initial_state``, the state
    :func:`run_trial` hands :func:`step` and gets back on every control step,
    and the state its ``on_stride`` receives. An immutable record, so a step
    costs no array and a state handed out is never changed.
    """

    position: Vector3
    velocity: Vector3
    euler: Vector3  # (roll, pitch, yaw), pitch positive nose-up
    omega: Vector3  # world frame


def _trunk_state(state: TrunkState) -> TrunkState:
    """The four vectors of ``state`` (sequences or arrays of three numbers)
    as float triples with the same bits."""
    return TrunkState(*(
        tuple(np.asarray(v, dtype=float).tolist())
        for v in (state.position, state.velocity, state.euler, state.omega)
    ))


@dataclass(frozen=True, eq=False)
class TrialCheckpoint:
    """What :func:`run_trial`'s loop carries across one stride boundary, taken
    after the stride closes, where ``on_stride`` asks for it.

    Every trial starts from one: a fresh trial from its step-0 checkpoint (no
    step run, no stride closed, lift points at the feet, no leg in swing, no
    landing scatter, an empty working set, the carrot at the state's x).

    ``run_trial(..., resume=checkpoint)`` continues the trial from here, bit
    for bit. ``dt``, ``v_cmd``, ``pattern`` (the gait of the stride that
    closed, at step 0 the start gait) and ``terrain`` are the trial's, and a
    resume must match them. ``strides`` are the strides closed so far; the
    joint angles ``q`` are also those of the last logged step, from which the
    next stride's joint rates are differenced.
    """

    dt: float
    v_cmd: float
    pattern: GaitPattern
    terrain: Terrain
    steps: int  # control steps run
    t: float
    phase: float
    stride_idx: int  # the index of the stride that starts here
    carrot_x: float
    state: TrunkState
    foot_pos: tuple[Vector3, ...]
    lift_pos: tuple[Vector3, ...]
    normals: tuple[Vector3, ...]
    swing_entry_s: tuple[float, ...]
    was_swing: tuple[bool, ...]
    touchdown_scatter: tuple[tuple[float, float], ...]
    q: tuple[Vector3, ...]
    working_set: tuple[int, ...]
    rng_state: dict
    strides: tuple[StrideLog, ...]


def _check_resume(resume: TrialCheckpoint, source: GaitPattern, fsm: GaitFsm | None,
                  v_cmd: float, terrain: Terrain, dt: float, n_steps: int) -> None:
    """A ValueError unless the trial ``resume`` was taken in is the one this
    call runs: the same step, command, gait and period (``source``) and
    terrain, and a machine idle in that gait with its clock at its time."""
    if resume.dt != dt:
        raise ValueError(f"checkpoint taken at dt={resume.dt}, not {dt}")
    if resume.v_cmd != v_cmd:
        raise ValueError(f"checkpoint taken at v_cmd={resume.v_cmd}, not {v_cmd}")
    # a pattern holds its period, so this also compares the periods
    if source != resume.pattern:
        raise ValueError(f"checkpoint taken under {resume.pattern}, not {source}")
    if fsm is not None and (fsm.busy or fsm.time != resume.t):
        raise ValueError("a resumed machine must be idle, its time at the checkpoint's")
    mine, theirs = resume.terrain, terrain
    if mine is not theirs and (mine.segments, mine.end_x, mine.base_height) != (
        theirs.segments, theirs.end_x, theirs.base_height
    ):
        raise ValueError(f"checkpoint taken on terrain {mine.name!r}, not {theirs.name!r}")
    if resume.steps > n_steps:
        raise ValueError(f"checkpoint at step {resume.steps} lies past the trial's "
                         f"{n_steps} steps")


def rotation_matrix(euler) -> Matrix3:
    """Body-to-world rotation for (roll, pitch, yaw), pitch nose-up positive.

    The product Rz(yaw) Ry(pitch) Rx(roll) in closed form, with
    Ry = [[cp, 0, -sp], [0, 1, 0], [sp, 0, cp]]; ``euler`` is a sequence of
    three floats, and the rows come back as a tuple of three tuples of three
    floats.
    """
    roll, pitch, yaw = euler
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return (
        (cy * cp, -cy * sp * sr - sy * cr, sy * sr - cy * sp * cr),
        (sy * cp, cy * cr - sy * sp * sr, -sy * sp * cr - cy * sr),
        (sp, cp * sr, cp * cr),
    )


def euler_rate_to_omega(euler) -> Matrix3:
    """Matrix mapping (roll, pitch, yaw) rates to the world angular velocity,
    as a tuple of three rows of three floats."""
    _, pitch, yaw = euler
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return ((cy * cp, sy, 0.0), (sy * cp, -cy, 0.0), (sp, 0.0, 1.0))


def omega_to_euler_rates(euler, omega) -> Vector3:
    """Euler-angle rates giving the world angular velocity ``omega``.

    The closed-form inverse of :func:`euler_rate_to_omega`; returns a tuple
    of three floats.
    """
    _, pitch, yaw = euler
    cp = math.cos(pitch)
    # guard the pitch singularity (the map's determinant is -cos(pitch));
    # failure thresholds sit well inside it
    if abs(cp) < 1e-8:
        return (0.0, 0.0, 0.0)
    cy, sy = math.cos(yaw), math.sin(yaw)
    wx, wy, wz = omega
    roll_rate = (cy * wx + sy * wy) / cp
    return (roll_rate, sy * wx - cy * wy, wz - math.sin(pitch) * roll_rate)


def _rotate(rot, v) -> Vector3:
    """``rot @ v`` for a 3x3 rotation given as nested sequences of floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    x, y, z = v
    return (
        r00 * x + r01 * y + r02 * z,
        r10 * x + r11 * y + r12 * z,
        r20 * x + r21 * y + r22 * z,
    )


def _unrotate(rot, v) -> Vector3:
    """``v @ rot``, i.e. ``rot.T @ v``, for nested sequences of floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    x, y, z = v
    return (
        x * r00 + y * r10 + z * r20,
        x * r01 + y * r11 + z * r21,
        x * r02 + y * r12 + z * r22,
    )


@dataclass(frozen=True)
class SimConfig:
    """Control gains, swing geometry, failure thresholds, and seeding;
    checked when built, so a trial never checks it again."""

    dt: float = 0.002
    kp_lin: tuple[float, float, float] = (400.0, 400.0, 400.0)
    kd_lin: tuple[float, float, float] = (40.0, 40.0, 40.0)
    kp_ang: tuple[float, float, float] = (60.0, 60.0, 60.0)
    kd_ang: tuple[float, float, float] = (8.0, 8.0, 8.0)
    swing_apex: float = 0.06
    nominal_height: float = 0.32
    max_roll: float = 0.6
    max_pitch: float = 0.6
    min_height_ratio: float = 0.4
    seed: int = 0
    attitude_jitter: float = 0.03  # uniform +/- [rad] on initial roll/pitch
    velocity_jitter: float = 0.05  # uniform +/- [m/s] on initial velocity
    f_max_scale: float = 2.0  # per-foot normal bound as multiple of m*g
    carrot_clamp: float = 0.2  # [m] cap on the position-reference lead/lag
    capture_gain: float = 0.18  # [s] touchdown shift per unit velocity error
    capture_clamp: float = 0.5  # [m] cap on the touchdown velocity correction
    touchdown_noise: float = 0.01  # [m] std of per-swing landing scatter
    joint_torque_limit: float = 33.5  # [N*m] actuator saturation per joint

    def __post_init__(self) -> None:
        # numpy's seeding takes a non-negative int; a bool is not a seed
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"sim.seed must be a non-negative int, got {self.seed!r}")
        for name in ("kp_lin", "kd_lin", "kp_ang", "kd_ang"):
            gains = getattr(self, name)
            if len(gains) != 3:
                raise ValueError(f"sim.{name} must have 3 entries, got {gains}")
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(math.isfinite(v) for v in np.ravel(value)):
                raise ValueError(f"sim.{f.name} must be finite, got {value}")
        if self.dt <= 0.0 or self.dt > 0.002 + 1e-12:
            raise ValueError("dt must lie in (0, 2 ms]")
        gains = (*self.kp_lin, *self.kd_lin, *self.kp_ang, *self.kd_ang)
        if any(g < 0.0 for g in gains):
            raise ValueError("PD gains must be non-negative")
        if self.swing_apex <= 0.0:
            raise ValueError("swing apex must be positive")
        if self.nominal_height <= 0.0:
            raise ValueError("nominal height must be positive")
        # a bound at or below zero would score every trial as a fall or
        # stall its actuators; a negative clamp or noise scale has no meaning
        for name in ("joint_torque_limit", "f_max_scale", "max_roll", "max_pitch"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"sim.{name} must be positive")
        if not 0.0 < self.min_height_ratio < 1.0:
            raise ValueError("sim.min_height_ratio must lie in (0, 1)")
        for name in ("touchdown_noise", "carrot_clamp", "capture_clamp"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"sim.{name} must be non-negative")


def swing_trajectory(s: float, lift_point, target_point, apex: float) -> Vector3:
    """Swing foot position at swing phase ``s`` in [0, 1].

    Cycloidal progress along the lift->target chord with a sinusoidal arch
    peaking ``apex`` above the chord midpoint; both endpoints are exact. The
    points are sequences of three floats; returns a tuple of three floats.
    """
    s = min(1.0, max(0.0, float(s)))
    lx, ly, lz = lift_point
    tx, ty, tz = target_point
    sigma = s - math.sin(2.0 * math.pi * s) / (2.0 * math.pi)
    return (
        lx + sigma * (tx - lx),
        ly + sigma * (ty - ly),
        lz + sigma * (tz - lz) + apex * math.sin(math.pi * s),
    )


def swing_acceleration(
    s: float, lift_point, target_point, apex: float, swing_time: float
) -> Vector3:
    """Second time derivative of :func:`swing_trajectory` at phase ``s``, as a
    tuple of three floats."""
    s = min(1.0, max(0.0, float(s)))
    lx, ly, lz = lift_point
    tx, ty, tz = target_point
    chord = 2.0 * math.pi * math.sin(2.0 * math.pi * s)
    arch = -apex * math.pi * math.pi * math.sin(math.pi * s)
    t2 = swing_time * swing_time
    return (
        chord * (tx - lx) / t2,
        chord * (ty - ly) / t2,
        (chord * (tz - lz) + arch) / t2,
    )


def step(
    state: TrunkState,
    forces,
    stance,
    foot_positions,
    params: RobotParams,
    dt: float,
    *,
    rotation: Matrix3 | None = None,
) -> TrunkState:
    """Semi-implicit Euler update of the trunk rigid-body dynamics: the
    :class:`TrunkState` one ``dt`` after ``state``.

    ``forces`` are the world-frame foot forces and ``foot_positions`` the
    world foot points, each four rows of three (an array or nested
    sequences of floats), and ``stance`` holds four flags; any other shape
    is a ValueError; a list of four Python bools, the form :func:`run_trial`
    passes, is read without building an array. Only stance feet add a
    moment. Swing legs are expected to carry zero force: in :func:`run_trial`
    they do by construction (the force QP returns zero rows off stance, and
    torque saturation only scales rows). ``rotation`` is
    ``rotation_matrix(state.euler)``, for a caller that has built it already;
    by default it is built here.

    The update runs on Python floats. The force total, the moment sum and the
    position and velocity updates add in numpy's order (rows in leg order,
    each cross product in ``np.cross``'s formula and operand order), so
    position and velocity are the bits a numpy build gives; the rotations are
    scalar sums.
    """
    if not 0.0 < dt <= 0.002 + 1e-12:  # also rejects NaN
        raise ValueError("integration step must lie in (0, 2 ms]")
    f = _leg_rows(forces, "forces")
    feet = _leg_rows(foot_positions, "foot positions")
    if not _four_bools(stance):
        stance = _four_flags(stance).tolist()
    px, py, pz = state.position
    (f0x, f0y, f0z), (f1x, f1y, f1z), (f2x, f2y, f2z), (f3x, f3y, f3z) = f
    fx = f0x + f1x + f2x + f3x
    fy = f0y + f1y + f2y + f3y
    fz = f0z + f1z + f2z + f3z
    mx = my = mz = 0.0
    for on, (ux, uy, uz), (x, y, z) in zip(stance, f, feet):
        if on:
            lx, ly, lz = x - px, y - py, z - pz
            mx += ly * uz - lz * uy
            my += lz * ux - lx * uz
            mz += lx * uy - ly * ux

    # gravity * (0, 0, -1) + f_total / m; the 0.0 terms keep numpy's sign of zero
    mass, gravity = params.mass, params.gravity
    ax, ay, az = 0.0 + fx / mass, 0.0 + fy / mass, fz / mass - gravity
    # the body inertia I is diagonal, so the world inertia R diag(I) R^T has
    # the inverse R diag(1/I) R^T
    roll, pitch, yaw = state.euler
    rot = rotation_matrix((roll, pitch, yaw)) if rotation is None else rotation
    i0, i1, i2 = params.inertia_diag
    wx, wy, wz = state.omega
    u0, u1, u2 = _unrotate(rot, (wx, wy, wz))
    hx, hy, hz = _rotate(rot, (u0 * i0, u1 * i1, u2 * i2))
    gx, gy, gz = wy * hz - wz * hy, wz * hx - wx * hz, wx * hy - wy * hx
    e0, e1, e2 = _unrotate(rot, (mx - gx, my - gy, mz - gz))
    dx, dy, dz = _rotate(rot, (e0 / i0, e1 / i1, e2 / i2))

    vx, vy, vz = state.velocity
    vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
    omega = (wx + dx * dt, wy + dy * dt, wz + dz * dt)
    r0, r1, r2 = omega_to_euler_rates((roll, pitch, yaw), omega)
    return TrunkState(
        (px + vx * dt, py + vy * dt, pz + vz * dt),
        (vx, vy, vz),
        (roll + r0 * dt, pitch + r1 * dt, yaw + r2 * dt),
        omega,
    )


def stance_torques(force_body, q_leg, leg: LegId, params: RobotParams) -> Vector3:
    """Joint torques balancing a body-frame ground reaction force: tau = -J^T f.

    ``force_body`` and ``q_leg`` are sequences of three floats; returns a
    tuple of three floats.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = leg_jacobian(q_leg, leg, params)
    f0, f1, f2 = force_body
    return (
        -j00 * f0 - j10 * f1 - j20 * f2,
        -j01 * f0 - j11 * f1 - j21 * f2,
        -j02 * f0 - j12 * f1 - j22 * f2,
    )


def swing_torques(q_leg, foot_accel_body, leg: LegId, params: RobotParams) -> Vector3:
    """Joint torques driving the swing foot point mass: tau = J^T m (a - g).

    ``foot_accel_body`` is the demanded foot acceleration with gravity already
    subtracted, (a - g), in the body frame; only J^T m is applied here.
    ``q_leg`` and ``foot_accel_body`` are sequences of three floats; returns a
    tuple of three floats.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = leg_jacobian(q_leg, leg, params)
    m = params.foot_mass
    a0, a1, a2 = foot_accel_body
    a0, a1, a2 = m * a0, m * a1, m * a2
    return (
        j00 * a0 + j10 * a1 + j20 * a2,
        j01 * a0 + j11 * a1 + j21 * a2,
        j02 * a0 + j12 * a1 + j22 * a2,
    )


def _start(pattern: GaitPattern, v_cmd: float, terrain: Terrain, config: SimConfig,
           params: RobotParams, rng: np.random.Generator, start_x: float,
           initial_state: TrunkState | None, hips) -> TrialCheckpoint:
    """A fresh trial's step-0 :class:`TrialCheckpoint`. Without
    ``initial_state`` the body stands at ``start_x`` at the nominal height,
    moving at ``v_cmd`` along the terrain, with ``rng`` jitter on roll, pitch
    and the horizontal velocity, drawn before the checkpoint takes the stream
    state. A state with a non-finite entry is a ValueError naming its field."""
    if initial_state is None:
        samp0 = terrain.query(start_x)
        roll0, pitch0 = (rng.uniform(-1.0, 1.0, size=2) * config.attitude_jitter).tolist()
        vx0, vy0 = (rng.uniform(-1.0, 1.0, size=2) * config.velocity_jitter).tolist()
        # v_cmd along the terrain tangent plus the jitter; the 0.0 terms keep
        # the sign of zero of the vector sum
        initial_state = TrunkState(
            (start_x, 0.0, samp0.height + config.nominal_height),
            (v_cmd * math.cos(samp0.incline) + vx0, 0.0 + vy0,
             v_cmd * math.sin(samp0.incline) + 0.0),
            (roll0, samp0.incline + pitch0, 0.0),
            (0.0, 0.0, 0.0),
        )
    state = _trunk_state(initial_state)
    for name, v in zip(state._fields, state):
        if not all(map(math.isfinite, v)):
            raise ValueError(f"initial_state {name} {v} is not finite")

    (px, py, pz), _, euler, _ = state
    rot = rotation_matrix(euler)
    # foot points, contact normals and joint angles in LegId order
    feet, normals, q = [], [], []
    for leg in _LEGS:
        hx, hy, _ = _rotate(rot, hips[leg])
        samp = terrain.query(px + hx)
        feet.append((px + hx, py + hy, samp.height))
        normals.append(tuple(samp.normal.tolist()))
        fx, fy, fz = feet[leg]
        try:
            q.append(leg_ik(_unrotate(rot, (fx - px, fy - py, fz - pz)), leg, params))
        except OutOfWorkspaceError as err:
            q.append(tuple(err.clamped_angles.tolist()))
    feet = tuple(feet)
    return TrialCheckpoint(
        config.dt, v_cmd, pattern, terrain, 0, 0.0, 0.0, 0, px, state, feet, feet,
        tuple(normals), (0.0,) * 4, (False,) * 4, ((0.0, 0.0),) * 4, tuple(q), (),
        rng.bit_generator.state, (),
    )


def run_trial(
    gait: GaitPattern | GaitFsm,
    v_cmd: float,
    terrain: Terrain,
    duration: float,
    config: SimConfig | None = None,
    params: RobotParams | None = None,
    *,
    rng: np.random.Generator | None = None,
    start_x: float = 0.0,
    finish_x: float | None = None,
    initial_state: TrunkState | None = None,
    on_stride=None,
    resume: TrialCheckpoint | None = None,
) -> TrialResult:
    """Closed-loop trial: track ``v_cmd`` along the terrain under ``gait``.

    ``gait`` is a :class:`GaitPattern`, held for the whole trial, or a
    :class:`GaitFsm`, advanced by one ``dt`` per step; the trial's events and
    action windows are the machine's (none for a pattern). Any other source
    is a :class:`TypeError`. A fresh trial starts from its step-0
    :class:`TrialCheckpoint`, built from ``initial_state``, a
    :class:`TrunkState` whose vectors are turned into float triples once
    here, with the position reference (the carrot) at its x. ``start_x``
    places only the default start state, which stands there at the nominal
    height, moving at ``v_cmd`` along the terrain, with ``rng`` jitter on
    roll, pitch and the horizontal velocity; beside an ``initial_state`` it
    has no part. ``duration`` must be finite and cover three strides.
    ``on_stride(stride_idx, state, t)``, when given, is called at every
    stride boundary with the index of the stride that starts, the loop's own
    :class:`TrunkState` and the time; it may request a gait from a machine it
    holds, and it asks for a checkpoint of the boundary by returning a truthy
    value. Logs are segmented per stride; the trial ends early on failure
    (attitude or height threshold) or when the body passes ``finish_x``.

    Every step logs one row, and each returned :class:`StrideLog` holds
    column views of one array of the rows of its stride: the strides
    partition the steps run, in order, with no gap, no overlap and no empty
    stride.

    At a stride boundary where ``on_stride`` asks for one, the trial records
    a :class:`TrialCheckpoint`, if the machine has had no event before that
    call (a pattern never has one); a trial that asks for none keeps none.
    The checkpoint holds the loop's state at the boundary, and the stream
    state of ``rng`` after ``on_stride`` returns, so a hook that asks must
    not draw from ``rng``. ``resume=checkpoint`` continues the trial from one
    instead of its step-0 checkpoint: ``on_stride`` is called for the
    checkpoint's boundary (what it returns there is ignored), the finish line
    is checked, and the remaining steps of ``duration`` run, with ``rng`` set
    to the checkpoint's stream state (``start_x`` has no part, and an
    ``initial_state`` is a ValueError). With the same config and robot, the
    result is the uninterrupted trial's, to the last bit, its strides
    beginning with the checkpoint's own; its checkpoints are those asked for
    at the later boundaries. A checkpoint
    of another ``dt``, ``v_cmd``, gait, period or terrain is a ValueError; a
    machine must be idle, its ``time`` at the checkpoint's.
    """
    config = config or SimConfig()
    params = params or RobotParams()
    if not 0.0 <= v_cmd <= MAX_COMMAND_VELOCITY:
        raise ValueError(
            f"commanded velocity {v_cmd} outside the supported "
            f"[0, {MAX_COMMAND_VELOCITY:g}] m/s"
        )

    if isinstance(gait, GaitFsm):
        fsm = gait
    elif isinstance(gait, GaitPattern):
        fsm = None
    else:
        raise TypeError(f"gait must be a GaitPattern or a GaitFsm, not {type(gait)}")
    # the pattern the trial starts in; a pattern holds its period
    source = gait if fsm is None else standard_gait(fsm.current, fsm.timing.period)
    period = source.period

    # NaN and inf fail the test
    if not 3.0 * period - 1e-9 <= duration < math.inf:
        raise ValueError(
            f"trial duration {duration} s must be finite and cover at least three strides"
        )

    dt = config.dt
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    n_steps = int(round(duration / dt))
    hips = params.hip_offsets.tolist()

    if resume is None:
        start = _start(source, v_cmd, terrain, config, params, rng, start_x, initial_state,
                       hips)
    else:
        _check_resume(resume, source, fsm, v_cmd, terrain, dt, n_steps)
        if initial_state is not None:
            raise ValueError("a resumed trial starts from its checkpoint's state")
        start = resume
    rng.bit_generator.state = start.rng_state
    state, t, phase, stride_idx = start.state, start.t, start.phase, start.stride_idx
    # the force QP's final working set seeds the next step's QP
    carrot_x, working_set = start.carrot_x, start.working_set
    # a foot point is replaced, never changed in place, so a lift point can share it
    foot_pos, lift_pos = list(start.foot_pos), list(start.lift_pos)
    # a stance foot keeps its x, so its contact normal is sampled at the start and
    # at every touchdown; distribute_forces reads the rows of stance feet only
    normals = np.array(start.normals)
    swing_entry_s, was_swing = list(start.swing_entry_s), list(start.was_swing)
    touchdown_scatter, q = list(start.touchdown_scatter), list(start.q)
    strides = list(start.strides)
    (px, py, pz), (vx, vy, vz), euler, omega = state
    acc = StrideAccumulator(dt, q)
    acc.reset(t, state.position)
    checkpoints: list[TrialCheckpoint] = []

    kpx, kpy, kpz = config.kp_lin
    kdx, kdy, kdz = config.kd_lin
    kp_roll, kp_pitch, kp_yaw = config.kp_ang
    kd_roll, kd_pitch, kd_yaw = config.kd_ang
    f_max = config.f_max_scale * params.mass * params.gravity
    weight = params.mass * params.gravity
    gravity = params.gravity
    apex = config.swing_apex
    limit = config.joint_torque_limit
    half = 0.5 * params.hip_length
    x_lo, x_hi = terrain.start_x, terrain.end_x
    min_height = config.min_height_ratio * config.nominal_height

    # the ground under the body; after each step it is resampled for the
    # failure check and serves the next step
    body_samp = terrain.query(px)
    failed = False
    # a resumed trial re-enters the loop at its checkpoint's boundary, after
    # its stride closed
    finished = resume is not None and finish_x is not None and px >= finish_x
    if resume is not None and on_stride is not None:
        on_stride(stride_idx, state, t)
    for k in range(start.steps, start.steps if finished else n_steps):
        pattern = gait if fsm is None else fsm.advance(dt)
        beta = pattern.beta
        swing_time_full = (1.0 - beta) * period
        rot = rotation_matrix(euler)

        # the body spans terrain kinks: blend the reference incline over
        # the fore and hind hip footprint instead of stepping at the kink
        incline_ref = 0.5 * (
            terrain.query(min(max(px + half, x_lo), x_hi)).incline
            + terrain.query(min(max(px - half, x_lo), x_hi)).incline
        )
        cos_ref = math.cos(incline_ref)
        vdx, vdz = v_cmd * cos_ref, v_cmd * math.sin(incline_ref)

        # Raibert touchdown: symmetric stepping on the actual velocity plus a
        # capture correction toward the commanded one (using the commanded
        # velocity alone leaves lateral sway undamped); both terms but the
        # hip's own prediction are the same for every swing leg
        lead_time = 0.5 * beta * period
        lead_x, lead_y = vx * lead_time, vy * lead_time
        corr_x, corr_y = config.capture_gain * (vx - vdx), config.capture_gain * vy
        c_norm = math.sqrt(corr_x * corr_x + corr_y * corr_y)
        if c_norm > config.capture_clamp:
            c_scale = config.capture_clamp / c_norm
            corr_x, corr_y = corr_x * c_scale, corr_y * c_scale

        eff_stance = [False] * 4
        foot_acc = [(0.0, 0.0, 0.0)] * 4
        for leg in _LEGS:
            s = leg_contact(pattern, phase, leg)
            if s is not None:
                if not was_swing[leg]:
                    lift_pos[leg] = foot_pos[leg]
                    swing_entry_s[leg] = s
                    was_swing[leg] = True
                    # landing scatter drawn once per swing (sensing and
                    # terrain irregularity stand-in); one source of the
                    # trial-to-trial variance the repeated tests average over
                    touchdown_scatter[leg] = rng.normal(
                        0.0, config.touchdown_noise, size=2
                    ).tolist()
                s0 = swing_entry_s[leg]
                local = (s - s0) / (1.0 - s0) if s0 < 1.0 - 1e-9 else 1.0
                t_rem = (1.0 - s) * swing_time_full
                hx, hy, _ = _rotate(rot, hips[leg])
                scatter_x, scatter_y = touchdown_scatter[leg]
                target_x = px + hx + vx * t_rem + lead_x + corr_x + scatter_x
                target_y = py + hy + vy * t_rem + lead_y + corr_y + scatter_y
                try:
                    target_z = terrain.query(target_x).height
                except TerrainBoundsError:
                    target_z = foot_pos[leg][2]
                target = (target_x, target_y, target_z)
                foot_pos[leg] = swing_trajectory(local, lift_pos[leg], target, apex)
                eff_swing_time = max((1.0 - s0) * swing_time_full, 1e-6)
                foot_acc[leg] = swing_acceleration(
                    local, lift_pos[leg], target, apex, eff_swing_time
                )
            else:
                if was_swing[leg]:
                    was_swing[leg] = False
                    fx, fy, _ = foot_pos[leg]
                    try:
                        samp = terrain.query(fx)
                        foot_pos[leg] = (fx, fy, samp.height)
                        normals[leg] = samp.normal
                    except TerrainBoundsError:
                        normals[leg] = (0.0, 0.0, 1.0)
                eff_stance[leg] = True

            # a stance foot out of reach is dropped from stance
            fx, fy, fz = foot_pos[leg]
            try:
                q[leg] = leg_ik(_unrotate(rot, (fx - px, fy - py, fz - pz)), leg, params)
            except OutOfWorkspaceError as err:
                q[leg] = err.clamped_angles.tolist()
                eff_stance[leg] = False
                acc.slips += 1

        # body tracking wrench; gravity feedforward scaled so flight gaits
        # receive the stride-averaged weight support during their stance phases
        carrot_x += v_cmd * cos_ref * dt
        carrot_samp = terrain.query(min(max(carrot_x, x_lo), x_hi))
        # anti-windup on the error, not the reference: surging gaits lead and
        # lag the constant-velocity plan within a stride without stealing it
        err_x = min(max(carrot_x - px, -config.carrot_clamp), config.carrot_clamp)
        err_z = carrot_samp.height + config.nominal_height - pz
        support = weight * (1.0 / min(1.0, 2.0 * beta))
        roll, pitch, yaw = euler
        wx, wy, wz = omega
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = euler_rate_to_omega(euler)
        # force rows kp (p_des - p) + kd (v_des - v) + support, moment rows
        # E(euler) kp (euler_des - euler) - kd omega, for the reference
        # p_des = (carrot, 0, ground + nominal height), euler_des = (0, incline, 0)
        ang_x = kp_roll * (0.0 - roll)
        ang_y = kp_pitch * (incline_ref - pitch)
        ang_z = kp_yaw * (0.0 - yaw)
        wrench = (
            kpx * err_x + kdx * (vdx - vx),
            kpy * (0.0 - py) + kdy * (0.0 - vy),
            kpz * err_z + kdz * (vdz - vz) + support,
            e00 * ang_x + e01 * ang_y + e02 * ang_z - kd_roll * wx,
            e10 * ang_x + e11 * ang_y + e12 * ang_z - kd_pitch * wy,
            e20 * ang_x + e21 * ang_y + e22 * ang_z - kd_yaw * wz,
        )

        dist = distribute_forces(
            wrench, foot_pos, eff_stance, (px, py, pz), body_samp.friction, f_max,
            normals, working_set=working_set,
        )
        working_set = dist.working_set

        # the forces the integrator applies: the QP's, less saturation
        applied = dist.forces.tolist()
        taus = []
        for leg, in_stance in zip(_LEGS, eff_stance):
            if in_stance:
                tau = stance_torques(_unrotate(rot, applied[leg]), q[leg], leg, params)
            else:
                # the demanded acceleration less gravity (0, 0, -g)
                ax, ay, az = foot_acc[leg]
                tau = swing_torques(
                    q[leg], _unrotate(rot, (ax, ay, az + gravity)), leg, params
                )
            # actuator saturation: when a joint exceeds its torque limit the
            # whole leg effort scales down; a stance leg's force scales with
            # it and the commanded wrench is no longer met, which is the
            # controller limitation that drops the violent gaits
            t0, t1, t2 = tau
            peak = max(abs(t0), abs(t1), abs(t2))
            if peak > limit:
                scale = limit / peak
                tau = (t0 * scale, t1 * scale, t2 * scale)
                if in_stance:
                    applied[leg] = [f * scale for f in applied[leg]]
                acc.flags += 1
            taus.append(tau)

        # the step's log row, in _LOG_FIELDS order: what the force QP and
        # the integrator read, and the joint angles, which the stride log
        # turns into joint rates when the stride closes
        (u0, u1, u2, u3), (f0, f1, f2, f3), (p0, p1, p2, p3) = taus, applied, foot_pos
        q0, q1, q2, q3 = q
        acc.write((
            t, *u0, *u1, *u2, *u3, *q0, *q1, *q2, *q3,
            *f0, *f1, *f2, *f3, px, py, pz, vx, vy, vz, *euler, *omega,
            *omega_to_euler_rates(euler, omega), *p0, *p1, *p2, *p3,
        ), eff_stance)

        state = step(state, applied, eff_stance, foot_pos, params, dt, rotation=rot)
        t += dt
        (px, py, pz), (vx, vy, vz), euler, omega = state

        try:
            body_samp = terrain.query(px)
        except TerrainBoundsError:
            failed = True
            break
        # written as "not x <= limit" so that a NaN attitude or height fails
        if (
            not abs(euler[0]) <= config.max_roll
            or not abs(euler[1]) <= config.max_pitch
            or not pz - body_samp.height >= min_height
        ):
            failed = True
            break

        phase += dt / period
        if phase >= 1.0 - 1e-9:
            phase -= 1.0
            log = acc.close(t, state.position, v_cmd, failed=False, complete=True)
            if log is not None:
                strides.append(log)
            acc.reset(t, state.position)
            stride_idx += 1
            if on_stride is not None:
                # read before on_stride, which may dispatch the machine's first
                # event: a checkpoint resumes an idle machine only
                idle = fsm is None or not fsm.events
                if on_stride(stride_idx, state, t) and idle:
                    checkpoints.append(TrialCheckpoint(
                        dt, v_cmd, pattern, terrain, k + 1, t, phase, stride_idx, carrot_x,
                        state, tuple(foot_pos), tuple(lift_pos),
                        tuple(map(tuple, normals.tolist())), tuple(swing_entry_s),
                        tuple(was_swing), tuple(map(tuple, touchdown_scatter)),
                        tuple(map(tuple, q)), working_set, rng.bit_generator.state,
                        tuple(strides),
                    ))

        if finish_x is not None and px >= finish_x:
            finished = True
            break

    log = acc.close(t, state.position, v_cmd, failed=failed, complete=False)
    if log is not None:
        strides.append(log)

    return TrialResult(
        strides=strides,
        events=[] if fsm is None else list(fsm.events),
        action_windows=[] if fsm is None else list(fsm.action_windows),
        failed=failed,
        finished_course=finished or (finish_x is None and not failed),
        end_time=t,
        checkpoints=checkpoints,
    )
