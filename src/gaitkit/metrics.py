"""Stride-level evaluation: positive mechanical work, CoT, STB, and their blend.

Energy counts only positive joint power (negative power dissipates in the
drivetrain); CoT normalizes it by weight and travel distance. STB is a
weighted stability index combining the normal-velocity ratio, attitude error
against the local terrain, and attitude rates, time-averaged over a stride.
Failed strides are clamped to fixed worst-case values so sweeps stay bounded.
:class:`MetricsConfig` is the one scoring policy: STB weights, failure bounds
and the clamping rule, read whole by :func:`stride_metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .robot import RobotParams, Terrain

COT_BOUND = 1.25
STB_BOUND = 1.36

_DISPLACEMENT_EPS = 1e-3  # [m]
_SPEED_EPS = 1e-3  # [m/s]


class InvalidLogError(ValueError):
    pass


class UndefinedDisplacementError(ValueError):
    """Standing trials have no defined cost of transport."""


@dataclass(frozen=True)
class MetricsConfig:
    """STB term weights (normal-velocity ratio, pitch error, roll, attitude
    rates), the failure bounds, and whether unfailed strides are capped at
    them too; a failed stride scores the bounds either way."""

    weights: tuple[float, float, float, float] = (0.7, 1.0, 1.0, 0.3)
    cot_bound: float = COT_BOUND
    stb_bound: float = STB_BOUND
    clamp_unfailed: bool = True

    def __post_init__(self) -> None:
        # comparisons written so that NaN (from a JSON config) is rejected
        if len(self.weights) != 4 or not all(0.0 <= w < math.inf for w in self.weights):
            raise ValueError(f"need four non-negative finite STB weights: {self.weights}")
        if not all(0.0 < b < math.inf for b in (self.cot_bound, self.stb_bound)):
            raise ValueError("failure bounds must be positive and finite")


@dataclass
class StrideMetrics:
    """Per-stride scalars; ``j_e`` holds one value per requested blend ratio."""

    work: float
    cot: float
    stb: float
    j_e: dict[float, float] = field(default_factory=dict)
    failed: bool = False
    guard_events: int = 0


def stride_energy(log) -> float:
    """Positive mechanical work over one stride (trapezoidal integration)."""
    torques = np.asarray(log.torques, dtype=float)
    omegas = np.asarray(log.joint_velocities, dtype=float)
    time = np.asarray(log.time, dtype=float)
    if torques.shape != omegas.shape or torques.shape[0] != time.shape[0]:
        raise InvalidLogError("torque/velocity series are misaligned")
    if torques.ndim != 2 or torques.shape[1] != 12:
        raise InvalidLogError("expected 12 joint channels")
    power = np.clip(torques * omegas, 0.0, None).sum(axis=1)
    if time.size < 2:
        return 0.0
    return float(np.trapezoid(power, time))


def cot(work: float, mass: float, delta_s: float, gravity: float = 9.81) -> float:
    """Cost of transport: work per unit weight per unit travel distance."""
    if not mass > 0.0:  # NaN fails the test
        raise ValueError("mass must be positive")
    if delta_s <= _DISPLACEMENT_EPS:
        raise UndefinedDisplacementError(
            f"stride displacement {delta_s} m too small for a defined CoT"
        )
    return work / (mass * gravity * delta_s)


def stb_samples(log, terrain: Terrain, weights: tuple) -> tuple[np.ndarray, int]:
    """Per-sample stability index values and the division-guard event count.

    Each sample is scored against the terrain segment under its clamped x,
    one segment at a time: the samples on a segment share its normal,
    incline and tangent, and their terms are the per-sample scalar formulas
    applied elementwise, so every value has the bits a loop over the samples
    gives. A stride whose lowest and highest x lie on one segment takes
    every row at once; one across a join is split into the rows of each
    segment it touches.
    """
    w1, w2, w3, w4 = weights
    pos = np.asarray(log.position, dtype=float)
    vel = np.asarray(log.velocity, dtype=float)
    euler = np.asarray(log.euler, dtype=float)
    rates = np.asarray(log.euler_rates, dtype=float)
    xs = np.clip(pos[:, 0], terrain.start_x, terrain.end_x)
    values = np.zeros(pos.shape[0])
    guards = 0
    # row groups by segment; a NaN x has no segment and raises, as a query
    # of it would
    groups: dict[int, slice | list[int]] = {}
    if xs.size:
        first = terrain.segment_index(float(xs.min()))
        if first == terrain.segment_index(float(xs.max())):
            groups[first] = slice(None)
        else:
            for i, x in enumerate(xs.tolist()):
                groups.setdefault(terrain.segment_index(x), []).append(i)
    for rows in groups.values():
        samp = terrain.query(float(xs[rows][0]))
        tangent = np.array([np.cos(samp.incline), 0.0, np.sin(samp.incline)])
        v = vel[rows]
        v_n = v @ samp.normal
        v_b = v @ tangent
        # the ratio of every row; a guard row's (possibly a division by
        # zero) is replaced below, and only a stride with guard rows (NaN
        # speeds included) looks for them
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(v_n / v_b)
        speed = np.abs(v_b)
        if not speed.min() > _SPEED_EPS:
            for i, (s, n) in enumerate(zip(speed.tolist(), v_n.tolist())):
                if s <= _SPEED_EPS:
                    guards += 1
                    ratio[i] = 0.0 if abs(n) <= _SPEED_EPS else 1.0
        e = euler[rows]
        r = rates[rows]
        values[rows] = (
            w1 * ratio
            + w2 * np.abs(e[:, 1] - samp.incline)
            + w3 * np.abs(e[:, 0])
            + w4 * (np.abs(r[:, 1]) + np.abs(r[:, 0]))
        )
    return values, guards


def stb(log, terrain: Terrain, metrics: MetricsConfig | None = None) -> float:
    """Stride-averaged stability index."""
    values, _ = stb_samples(log, terrain, (metrics or MetricsConfig()).weights)
    return float(values.mean()) if values.size else 0.0


def j_e(cot_value: float, stb_value: float, c: float) -> float:
    """Blend of the two indexes: c*STB + (1-c)*CoT."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"blend ratio c must lie in [0, 1], got {c}")
    return c * stb_value + (1.0 - c) * cot_value


def clamp_failed(m: StrideMetrics, config: MetricsConfig | None = None) -> StrideMetrics:
    """Apply the policy's failure bounds; failed strides pin to the worst case.

    Idempotent: re-clamping a clamped record is a no-op.
    """
    config = config or MetricsConfig()
    if m.failed:
        new_cot, new_stb = config.cot_bound, config.stb_bound
    elif config.clamp_unfailed:
        new_cot = min(m.cot, config.cot_bound)
        new_stb = min(m.stb, config.stb_bound)
    else:
        new_cot, new_stb = m.cot, m.stb
    return replace(
        m,
        cot=new_cot,
        stb=new_stb,
        j_e={c: j_e(new_cot, new_stb, c) for c in m.j_e},
    )


def stride_metrics(
    log,
    terrain: Terrain,
    params: RobotParams,
    metrics: MetricsConfig | None = None,
    c_values=(),
) -> StrideMetrics:
    """Full per-stride evaluation, clamped under the policy ``metrics``;
    :func:`clamp_failed` fills the blend of each ``c_values`` entry."""
    metrics = metrics or MetricsConfig()
    work = stride_energy(log)
    if log.failed:
        cot_value, stb_value, guards = metrics.cot_bound, metrics.stb_bound, 0
    else:
        cot_value = cot(work, params.mass, log.delta_s, params.gravity)
        values, guards = stb_samples(log, terrain, metrics.weights)
        stb_value = float(values.mean()) if values.size else 0.0
    out = StrideMetrics(
        work=work,
        cot=cot_value,
        stb=stb_value,
        j_e=dict.fromkeys(c_values),
        failed=bool(log.failed),
        guard_events=guards,
    )
    return clamp_failed(out, metrics)
