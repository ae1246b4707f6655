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

Angle convention: euler = (roll, pitch, yaw) with pitch positive nose-up, so
a body aligned to an uphill slope has pitch equal to the terrain inclination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .forces import _cross, distribute_forces
from .gaits import GaitPattern, LegId, leg_contact
from .robot import (
    OutOfWorkspaceError,
    RobotParams,
    Terrain,
    TerrainBoundsError,
    leg_ik,
    leg_jacobian,
)
from .transitions import GaitFsm

_GRAV_DIR = np.array([0.0, 0.0, -1.0])


@dataclass(frozen=True, eq=False)
class BodyState:
    """Trunk pose and rates: position/velocity, euler angles, world angular velocity.

    The arrays are never modified in place once a state exists (a new step
    builds a new state), so quantities derived from them are cached.
    """

    position: np.ndarray
    velocity: np.ndarray
    euler: np.ndarray  # (roll, pitch, yaw), pitch positive nose-up
    omega: np.ndarray  # world frame

    @cached_property
    def rotation(self) -> np.ndarray:
        """Body-to-world rotation of ``euler``; built once, read-only."""
        rot = rotation_matrix(self.euler)
        rot.flags.writeable = False
        return rot

    @property
    def roll(self) -> float:
        return float(self.euler[0])

    @property
    def pitch(self) -> float:
        return float(self.euler[1])

    @property
    def yaw(self) -> float:
        return float(self.euler[2])


def rotation_matrix(euler) -> np.ndarray:
    """Body-to-world rotation for (roll, pitch, yaw), pitch nose-up positive."""
    roll, pitch, yaw = float(euler[0]), float(euler[1]), float(euler[2])
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, -sp], [0.0, 1.0, 0.0], [sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def euler_rate_to_omega(euler) -> np.ndarray:
    """Matrix mapping (roll, pitch, yaw) rates to the world angular velocity."""
    _, pitch, yaw = float(euler[0]), float(euler[1]), float(euler[2])
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [[cy * cp, sy, 0.0], [sy * cp, -cy, 0.0], [sp, 0.0, 1.0]]
    )


def omega_to_euler_rates(euler, omega) -> np.ndarray:
    """Euler-angle rates giving the world angular velocity ``omega``.

    The closed-form inverse of :func:`euler_rate_to_omega`.
    """
    pitch, yaw = float(euler[1]), float(euler[2])
    cp = math.cos(pitch)
    # guard the pitch singularity (the map's determinant is -cos(pitch));
    # failure thresholds sit well inside it
    if abs(cp) < 1e-8:
        return np.zeros(3)
    cy, sy = math.cos(yaw), math.sin(yaw)
    wx, wy, wz = np.asarray(omega, dtype=float).tolist()
    roll_rate = (cy * wx + sy * wy) / cp
    return np.array([roll_rate, sy * wx - cy * wy, wz - math.sin(pitch) * roll_rate])


@dataclass(frozen=True)
class SimConfig:
    """Control gains, swing geometry, failure thresholds, and seeding."""

    dt: float = 0.002
    kp_lin: tuple[float, float, float] = (400.0, 400.0, 400.0)
    kd_lin: tuple[float, float, float] = (40.0, 40.0, 40.0)
    kp_ang: tuple[float, float, float] = (60.0, 60.0, 60.0)
    kd_ang: tuple[float, float, float] = (8.0, 8.0, 8.0)
    swing_apex: float = 0.06
    ground_clearance: float = 0.02
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

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(math.isfinite(v) for v in np.ravel(value)):
                raise ValueError(f"sim.{f.name} must be finite, got {value}")
        if self.dt <= 0.0 or self.dt > 0.002 + 1e-12:
            raise ValueError("dt must lie in (0, 2 ms]")
        gains = (*self.kp_lin, *self.kd_lin, *self.kp_ang, *self.kd_ang)
        if any(g < 0.0 for g in gains):
            raise ValueError("PD gains must be non-negative")
        if self.ground_clearance <= 0.0 or self.swing_apex <= 0.0:
            raise ValueError("swing clearance and apex must be positive")
        if self.nominal_height <= 0.0:
            raise ValueError("nominal height must be positive")


def swing_trajectory(s: float, lift_point, target_point, apex: float) -> np.ndarray:
    """Swing foot position at swing phase ``s`` in [0, 1].

    Cycloidal progress along the lift->target chord with a sinusoidal arch
    peaking ``apex`` above the chord midpoint; both endpoints are exact.
    """
    s = min(1.0, max(0.0, float(s)))
    lx, ly, lz = np.asarray(lift_point, dtype=float).tolist()
    tx, ty, tz = np.asarray(target_point, dtype=float).tolist()
    sigma = s - math.sin(2.0 * math.pi * s) / (2.0 * math.pi)
    return np.array(
        [
            lx + sigma * (tx - lx),
            ly + sigma * (ty - ly),
            lz + sigma * (tz - lz) + apex * math.sin(math.pi * s),
        ]
    )


def swing_acceleration(
    s: float, lift_point, target_point, apex: float, swing_time: float
) -> np.ndarray:
    """Second time derivative of :func:`swing_trajectory` at phase ``s``."""
    s = min(1.0, max(0.0, float(s)))
    lx, ly, lz = np.asarray(lift_point, dtype=float).tolist()
    tx, ty, tz = np.asarray(target_point, dtype=float).tolist()
    chord = 2.0 * math.pi * math.sin(2.0 * math.pi * s)
    arch = -apex * math.pi * math.pi * math.sin(math.pi * s)
    t2 = swing_time * swing_time
    return np.array(
        [
            chord * (tx - lx) / t2,
            chord * (ty - ly) / t2,
            (chord * (tz - lz) + arch) / t2,
        ]
    )


def step(
    state: BodyState, forces, stance, foot_positions, params: RobotParams, dt: float
) -> BodyState:
    """Semi-implicit Euler update of the trunk rigid-body dynamics.

    ``forces`` are the world-frame foot forces (4, 3), ``stance`` the stance
    flags (4,) and ``foot_positions`` the world foot points (4, 3); only
    stance feet add a moment. Swing legs are expected to carry zero force:
    in :func:`run_trial` they do by construction (the force QP returns zero
    rows off stance, and torque saturation only scales rows).
    """
    if dt <= 0.0 or dt > 0.002 + 1e-12:
        raise ValueError("integration step must lie in (0, 2 ms]")
    f_total = forces.sum(axis=0)
    lever = foot_positions - state.position
    moment = np.zeros(3)
    for leg in range(4):
        if stance[leg]:
            moment += _cross(lever[leg], forces[leg])

    accel = params.gravity * _GRAV_DIR + f_total / params.mass
    # the body inertia I is diagonal, so the world inertia R diag(I) R^T has
    # the inverse R diag(1/I) R^T; v @ rot is R^T v
    rot = state.rotation
    inertia = params.inertia.diagonal()
    gyro = _cross(state.omega, rot @ ((state.omega @ rot) * inertia))
    omega_dot = rot @ (((moment - gyro) @ rot) / inertia)

    velocity = state.velocity + accel * dt
    position = state.position + velocity * dt
    omega = state.omega + omega_dot * dt
    rates = omega_to_euler_rates(state.euler, omega)
    euler = state.euler + rates * dt
    return BodyState(position=position, velocity=velocity, euler=euler, omega=omega)


def stance_torques(force_body, q_leg, leg: LegId, params: RobotParams) -> np.ndarray:
    """Joint torques balancing a body-frame ground reaction force: tau = -J^T f."""
    return -leg_jacobian(q_leg, leg, params).T @ np.asarray(force_body, dtype=float)


def swing_torques(
    q_leg, foot_accel_body, leg: LegId, params: RobotParams
) -> np.ndarray:
    """Joint torques driving the swing foot point mass: tau = J^T m (a - g).

    ``foot_accel_body`` is the demanded foot acceleration with gravity already
    subtracted, (a - g), in the body frame; only J^T m is applied here.
    """
    j = leg_jacobian(q_leg, leg, params)
    return j.T @ (params.foot_mass * np.asarray(foot_accel_body, dtype=float))


@dataclass
class StrideLog:
    """Sampled time series over one stride plus per-stride aggregates.

    In the strides :func:`run_trial` returns, each array is a view of one
    buffer per field that holds every step of the trial, not a copy; the
    strides of one trial are disjoint row ranges of those buffers, so they
    never overlap, and writing into one stride changes no other. A stride
    keeps its trial's whole buffer alive.
    """

    time: np.ndarray  # (n,)
    torques: np.ndarray  # (n, 12) per-leg (abduction, hip, knee), LegId order
    joint_velocities: np.ndarray  # (n, 12)
    forces: np.ndarray  # (n, 4, 3) world frame
    stance: np.ndarray  # (n, 4) bool
    position: np.ndarray  # (n, 3)
    velocity: np.ndarray  # (n, 3)
    euler: np.ndarray  # (n, 3)
    omega: np.ndarray  # (n, 3)
    euler_rates: np.ndarray  # (n, 3)
    foot_positions: np.ndarray  # (n, 4, 3)
    v_cmd: float
    delta_s: float
    t_f: float
    failed: bool
    complete: bool
    slip_events: int = 0
    torque_flags: int = 0


@dataclass
class TrialResult:
    """Strides and events of one trial; ``finished_course`` means the body
    passed ``finish_x`` or, without a finish line, survived the duration."""

    strides: list[StrideLog]
    events: list
    action_windows: list
    failed: bool
    finished_course: bool
    end_time: float


class _StrideAccumulator:
    """Step rows of one trial, written in place into buffers sized once per
    trial, with the counters of the open stride; a stride is the row range
    ``[start, end)``."""

    def __init__(self, n: int) -> None:
        self.time = np.empty(n)
        self.torques = np.empty((n, 4, 3))
        self.joint_velocities = np.empty((n, 4, 3))
        self.forces = np.empty((n, 4, 3))
        self.stance = np.empty((n, 4), dtype=bool)
        self.position = np.empty((n, 3))
        self.velocity = np.empty((n, 3))
        self.euler = np.empty((n, 3))
        self.omega = np.empty((n, 3))
        self.euler_rates = np.empty((n, 3))
        self.foot_positions = np.empty((n, 4, 3))
        self.start = 0
        self.start_time = 0.0
        self.start_pos: np.ndarray | None = None
        self.slips = 0
        self.flags = 0

    def reset(self, row: int, t: float, pos: np.ndarray) -> None:
        self.start = row
        self.start_time = t
        self.start_pos = pos.copy()
        self.slips = 0
        self.flags = 0

    def close(
        self, end: int, t: float, pos: np.ndarray, v_cmd: float, failed: bool, complete: bool
    ) -> StrideLog | None:
        """The stride of rows ``[start, end)`` as views of the trial buffers."""
        if end <= self.start:
            return None
        rows = slice(self.start, end)
        return StrideLog(
            time=self.time[rows],
            torques=self.torques[rows].reshape(-1, 12),
            joint_velocities=self.joint_velocities[rows].reshape(-1, 12),
            forces=self.forces[rows],
            stance=self.stance[rows],
            position=self.position[rows],
            velocity=self.velocity[rows],
            euler=self.euler[rows],
            omega=self.omega[rows],
            euler_rates=self.euler_rates[rows],
            foot_positions=self.foot_positions[rows],
            v_cmd=v_cmd,
            delta_s=float(np.linalg.norm(pos - self.start_pos)),
            t_f=t - self.start_time,
            failed=failed,
            complete=complete,
            slip_events=self.slips,
            torque_flags=self.flags,
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
    initial_state: BodyState | None = None,
    on_stride=None,
) -> TrialResult:
    """Closed-loop trial: track ``v_cmd`` along the terrain under ``gait``.

    ``gait`` is a :class:`GaitPattern`, held for the whole trial, or a
    :class:`GaitFsm`, advanced by one ``dt`` per step; the trial's events and
    action windows are the machine's (none for a pattern). Any other source
    is a :class:`TypeError`. ``on_stride(stride_idx, state, t)``, when given,
    is called at every stride boundary with the index of the stride that
    starts, the body state and the time; it may request a gait from a machine
    it holds. Logs are segmented per stride; the trial ends early on failure
    (attitude or height threshold) or when the body passes ``finish_x``.

    Every step writes one row of per-trial buffers sized for ``duration``,
    and each returned :class:`StrideLog` holds views of the rows of its
    stride: the strides partition the steps run, in order, with no gap, no
    overlap and no empty stride.
    """
    config = config or SimConfig()
    params = params or RobotParams()
    config.validate()
    if not 0.0 <= v_cmd <= 3.0:
        raise ValueError(f"commanded velocity {v_cmd} outside the supported [0, 3] m/s")

    if isinstance(gait, GaitFsm):
        fsm = gait
    elif isinstance(gait, GaitPattern):
        fsm = None
    else:
        raise TypeError(f"gait must be a GaitPattern or a GaitFsm, not {type(gait)}")
    period = gait.period

    if duration < 3.0 * period - 1e-9:
        raise ValueError("trial duration must cover at least three strides")

    dt = config.dt
    rng = rng if rng is not None else np.random.default_rng(config.seed)

    samp0 = terrain.query(start_x)
    if initial_state is None:
        jit_att = rng.uniform(-1.0, 1.0, size=2) * config.attitude_jitter
        jit_vel = rng.uniform(-1.0, 1.0, size=2) * config.velocity_jitter
        tangent = terrain.tangent(start_x)
        state = BodyState(
            position=np.array(
                [start_x, 0.0, samp0.height + config.nominal_height]
            ),
            velocity=v_cmd * tangent + np.array([jit_vel[0], jit_vel[1], 0.0]),
            euler=np.array([jit_att[0], samp0.incline + jit_att[1], 0.0]),
            omega=np.zeros(3),
        )
    else:
        state = initial_state

    hips = params.hip_offsets
    rot = state.rotation
    foot_pos = np.zeros((4, 3))
    # contact normal under each foot; a stance foot keeps its x, so this is
    # sampled at the start and at every touchdown. distribute_forces reads the
    # rows of stance feet only.
    normals = np.zeros((4, 3))
    for leg in LegId:
        hip_w = state.position + rot @ hips[leg]
        samp = terrain.query(hip_w[0])
        foot_pos[leg] = [hip_w[0], hip_w[1], samp.height]
        normals[leg] = samp.normal
    lift_pos = foot_pos.copy()
    swing_entry_s = np.zeros(4)
    was_swing = np.zeros(4, dtype=bool)
    touchdown_scatter = np.zeros((4, 2))

    q = np.zeros((4, 3))
    body_targets = (foot_pos - state.position) @ rot
    for leg in LegId:
        try:
            q[leg] = leg_ik(body_targets[leg], leg, params)
        except OutOfWorkspaceError as err:
            q[leg] = err.clamped_angles
    q_prev = q.copy()

    kp_lin = np.asarray(config.kp_lin)
    kd_lin = np.asarray(config.kd_lin)
    kp_ang = np.asarray(config.kp_ang)
    kd_ang = np.asarray(config.kd_ang)
    f_max = config.f_max_scale * params.mass * params.gravity
    g_vec = params.gravity * _GRAV_DIR
    apex = max(config.swing_apex, config.ground_clearance)
    limit = config.joint_torque_limit

    carrot_x = start_x
    phase = 0.0
    stride_idx = 0
    failed = False
    finished = False
    strides: list[StrideLog] = []
    n_steps = int(round(duration / dt))
    acc = _StrideAccumulator(n_steps)
    acc.reset(0, 0.0, state.position)

    # the ground under the body; after each step it is resampled for the
    # failure check and serves the next step
    body_samp = terrain.query(state.position[0])
    # the force QP's final working set seeds the next step's QP
    working_set: tuple[int, ...] = ()
    t = 0.0
    rows = 0  # steps run, each logged in its row
    for row in range(n_steps):
        pattern = gait if fsm is None else fsm.advance(dt)
        beta = pattern.beta
        swing_time_full = (1.0 - beta) * period
        rot = state.rotation

        # the body spans terrain kinks: blend the reference incline over
        # the fore and hind hip footprint instead of stepping at the kink
        half = 0.5 * params.hip_length
        incline_ref = 0.5 * (
            terrain.query(
                min(max(state.position[0] + half, terrain.start_x), terrain.end_x)
            ).incline
            + terrain.query(
                min(max(state.position[0] - half, terrain.start_x), terrain.end_x)
            ).incline
        )
        tangent = np.array([math.cos(incline_ref), 0.0, math.sin(incline_ref)])
        v_des = v_cmd * tangent
        v_des_flat = np.array([v_des[0], 0.0, 0.0])

        # Raibert touchdown: symmetric stepping on the actual velocity plus a
        # capture correction toward the commanded one (using the commanded
        # velocity alone leaves lateral sway undamped); both terms but the
        # hip's own prediction are the same for every swing leg
        v_flat = np.array([state.velocity[0], state.velocity[1], 0.0])
        lead = v_flat * (0.5 * beta * period)
        correction = config.capture_gain * (v_flat - v_des_flat)
        c_norm = math.sqrt(correction.dot(correction))
        if c_norm > config.capture_clamp:
            correction *= config.capture_clamp / c_norm

        eff_stance = np.zeros(4, dtype=bool)
        foot_acc_world = np.zeros((4, 3))
        for leg in LegId:
            cs = leg_contact(pattern, phase, leg)
            if cs.is_swing:
                s = cs.swing_phase
                if not was_swing[leg]:
                    lift_pos[leg] = foot_pos[leg].copy()
                    swing_entry_s[leg] = s
                    was_swing[leg] = True
                    # landing scatter drawn once per swing (sensing and
                    # terrain irregularity stand-in); one source of the
                    # trial-to-trial variance the repeated tests average over
                    touchdown_scatter[leg] = rng.normal(
                        0.0, config.touchdown_noise, size=2
                    )
                s0 = swing_entry_s[leg]
                local = (s - s0) / (1.0 - s0) if s0 < 1.0 - 1e-9 else 1.0
                t_rem = (1.0 - s) * swing_time_full
                hip_pred = state.position + rot @ hips[leg] + v_flat * t_rem
                target = hip_pred + lead + correction
                target[0] += touchdown_scatter[leg, 0]
                target[1] += touchdown_scatter[leg, 1]
                try:
                    target[2] = terrain.query(target[0]).height
                except TerrainBoundsError:
                    target[2] = foot_pos[leg][2]
                foot_pos[leg] = swing_trajectory(local, lift_pos[leg], target, apex)
                eff_swing_time = max((1.0 - s0) * swing_time_full, 1e-6)
                foot_acc_world[leg] = swing_acceleration(
                    local, lift_pos[leg], target, apex, eff_swing_time
                )
            else:
                if was_swing[leg]:
                    was_swing[leg] = False
                    try:
                        samp = terrain.query(foot_pos[leg][0])
                        foot_pos[leg][2] = samp.height
                        normals[leg] = samp.normal
                    except TerrainBoundsError:
                        normals[leg] = (0.0, 0.0, 1.0)
                eff_stance[leg] = True

        # a stance foot out of reach is dropped from stance
        body_targets = (foot_pos - state.position) @ rot
        for leg in LegId:
            try:
                q[leg] = leg_ik(body_targets[leg], leg, params)
            except OutOfWorkspaceError as err:
                q[leg] = err.clamped_angles
                eff_stance[leg] = False
                acc.slips += 1

        # body tracking wrench; gravity feedforward scaled so flight gaits
        # receive the stride-averaged weight support during their stance phases
        carrot_x += v_cmd * math.cos(incline_ref) * dt
        carrot_samp = terrain.query(min(max(carrot_x, terrain.start_x), terrain.end_x))
        p_des = np.array(
            [carrot_x, 0.0, carrot_samp.height + config.nominal_height]
        )
        # anti-windup on the error, not the reference: surging gaits lead and
        # lag the constant-velocity plan within a stride without stealing it
        p_err = p_des - state.position
        p_err[0] = min(max(p_err[0], -config.carrot_clamp), config.carrot_clamp)
        support_scale = 1.0 / min(1.0, 2.0 * beta)
        f_des = (
            kp_lin * p_err
            + kd_lin * (v_des - state.velocity)
            + np.array([0.0, 0.0, params.mass * params.gravity * support_scale])
        )
        euler_des = np.array([0.0, incline_ref, 0.0])
        m_des = euler_rate_to_omega(state.euler) @ (
            kp_ang * (euler_des - state.euler)
        ) - kd_ang * state.omega
        wrench = np.concatenate([f_des, m_des])

        mu = body_samp.friction
        dist = distribute_forces(
            wrench, foot_pos, eff_stance, state.position, mu, f_max, normals,
            working_set=working_set,
        )
        working_set = dist.working_set

        qdot = (q - q_prev) / dt
        q_prev = q.copy()
        applied_forces = dist.forces.copy()
        forces_body = dist.forces @ rot
        acc_body = (foot_acc_world - g_vec) @ rot
        torques = acc.torques[row]
        for leg, in_stance in zip(LegId, eff_stance.tolist()):
            if in_stance:
                tau = stance_torques(forces_body[leg], q[leg], leg, params)
            else:
                tau = swing_torques(q[leg], acc_body[leg], leg, params)
            # actuator saturation: when a joint exceeds its torque limit the
            # whole leg effort scales down; a stance leg's force scales with
            # it and the commanded wrench is no longer met, which is the
            # controller limitation that drops the violent gaits
            t0, t1, t2 = tau.tolist()
            peak = max(abs(t0), abs(t1), abs(t2))
            if peak > limit:
                scale = limit / peak
                tau *= scale
                if in_stance:
                    applied_forces[leg] = dist.forces[leg] * scale
                acc.flags += 1
            torques[leg] = tau

        acc.time[row] = t
        acc.joint_velocities[row] = qdot
        acc.forces[row] = applied_forces
        acc.stance[row] = eff_stance
        acc.position[row] = state.position
        acc.velocity[row] = state.velocity
        acc.euler[row] = state.euler
        acc.omega[row] = state.omega
        acc.euler_rates[row] = omega_to_euler_rates(state.euler, state.omega)
        acc.foot_positions[row] = foot_pos
        rows = row + 1

        state = step(state, applied_forces, eff_stance, foot_pos, params, dt)
        t += dt

        try:
            body_samp = terrain.query(state.position[0])
        except TerrainBoundsError:
            failed = True
            break
        if (
            abs(state.roll) > config.max_roll
            or abs(state.pitch) > config.max_pitch
            or state.position[2] - body_samp.height
            < config.min_height_ratio * config.nominal_height
        ):
            failed = True
            break

        phase += dt / period
        if phase >= 1.0 - 1e-9:
            phase -= 1.0
            log = acc.close(rows, t, state.position, v_cmd, failed=False, complete=True)
            if log is not None:
                strides.append(log)
            acc.reset(rows, t, state.position)
            stride_idx += 1
            if on_stride is not None:
                on_stride(stride_idx, state, t)

        if finish_x is not None and state.position[0] >= finish_x:
            finished = True
            break

    log = acc.close(rows, t, state.position, v_cmd, failed=failed, complete=False)
    if log is not None:
        strides.append(log)
    if failed and strides:
        strides[-1].failed = True

    return TrialResult(
        strides=strides,
        events=[] if fsm is None else list(fsm.events),
        action_windows=[] if fsm is None else list(fsm.action_windows),
        failed=failed,
        finished_course=finished or (finish_x is None and not failed),
        end_time=t,
    )
