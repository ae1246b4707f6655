"""Stride-level evaluation: positive mechanical work, CoT, STB, and their blend.

Energy counts only positive joint power (negative power dissipates in the
drivetrain); CoT normalizes it by weight and travel distance. STB is a
weighted stability index combining the normal-velocity ratio, attitude error
against the local terrain, and attitude rates, time-averaged over a stride.
Failed strides are clamped to fixed worst-case values so sweeps stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .robot import Terrain

COT_BOUND = 1.25
STB_BOUND = 1.36

_DISPLACEMENT_EPS = 1e-3  # [m]
_SPEED_EPS = 1e-3  # [m/s]


class InvalidLogError(ValueError):
    pass


class UndefinedDisplacementError(ValueError):
    """Standing trials have no defined cost of transport."""


@dataclass(frozen=True)
class StbWeights:
    """Term weights: normal-velocity ratio, pitch error, roll, attitude rates."""

    w1: float = 0.7
    w2: float = 1.0
    w3: float = 1.0
    w4: float = 0.3

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3, self.w4) < 0.0:
            raise ValueError("STB weights must be non-negative")


@dataclass(frozen=True)
class MetricsConfig:
    """STB weights and the failure bounds every scored trial uses."""

    weights: tuple[float, float, float, float] = (0.7, 1.0, 1.0, 0.3)
    cot_bound: float = COT_BOUND
    stb_bound: float = STB_BOUND
    clamp_unfailed: bool = True

    def stb_weights(self) -> StbWeights:
        return StbWeights(*self.weights)


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
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    if delta_s <= _DISPLACEMENT_EPS:
        raise UndefinedDisplacementError(
            f"stride displacement {delta_s} m too small for a defined CoT"
        )
    return work / (mass * gravity * delta_s)


def stb_samples(log, terrain: Terrain, weights: StbWeights) -> tuple[np.ndarray, int]:
    """Per-sample stability index values and the division-guard event count."""
    pos = np.asarray(log.position, dtype=float)
    vel = np.asarray(log.velocity, dtype=float)
    euler = np.asarray(log.euler, dtype=float)
    rates = np.asarray(log.euler_rates, dtype=float)
    n = pos.shape[0]
    values = np.zeros(n)
    guards = 0
    for i in range(n):
        samp = terrain.query(min(max(pos[i, 0], terrain.start_x), terrain.end_x))
        tangent = np.array(
            [np.cos(samp.incline), 0.0, np.sin(samp.incline)]
        )
        v_n = float(vel[i] @ samp.normal)
        v_b = float(vel[i] @ tangent)
        if abs(v_b) <= _SPEED_EPS:
            guards += 1
            ratio = 0.0 if abs(v_n) <= _SPEED_EPS else 1.0
        else:
            ratio = abs(v_n / v_b)
        values[i] = (
            weights.w1 * ratio
            + weights.w2 * abs(euler[i, 1] - samp.incline)
            + weights.w3 * abs(euler[i, 0])
            + weights.w4 * (abs(rates[i, 1]) + abs(rates[i, 0]))
        )
    return values, guards


def stb(log, terrain: Terrain, weights: StbWeights | None = None) -> float:
    """Stride-averaged stability index."""
    values, _ = stb_samples(log, terrain, weights or StbWeights())
    return float(values.mean()) if values.size else 0.0


def j_e(cot_value: float, stb_value: float, c: float) -> float:
    """Blend of the two indexes: c*STB + (1-c)*CoT."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"blend ratio c must lie in [0, 1], got {c}")
    return c * stb_value + (1.0 - c) * cot_value


def clamp_failed(
    metrics: StrideMetrics,
    cot_bound: float = COT_BOUND,
    stb_bound: float = STB_BOUND,
    clamp_unfailed: bool = True,
) -> StrideMetrics:
    """Apply the failure bounds; failed strides pin to the worst case.

    Idempotent: re-clamping a clamped record is a no-op.
    """
    if metrics.failed:
        new_cot, new_stb = cot_bound, stb_bound
    elif clamp_unfailed:
        new_cot = min(metrics.cot, cot_bound)
        new_stb = min(metrics.stb, stb_bound)
    else:
        new_cot, new_stb = metrics.cot, metrics.stb
    return replace(
        metrics,
        cot=new_cot,
        stb=new_stb,
        j_e={c: j_e(new_cot, new_stb, c) for c in metrics.j_e},
    )


def stride_metrics(
    log,
    terrain: Terrain,
    mass: float,
    c_values=(),
    weights: StbWeights | None = None,
    gravity: float = 9.81,
    clamp: bool = True,
    cot_bound: float = COT_BOUND,
    stb_bound: float = STB_BOUND,
) -> StrideMetrics:
    """Full per-stride evaluation with optional failure clamping."""
    weights = weights or StbWeights()
    work = stride_energy(log)
    if log.failed:
        cot_value, stb_value, guards = cot_bound, stb_bound, 0
    else:
        cot_value = cot(work, mass, log.delta_s, gravity)
        values, guards = stb_samples(log, terrain, weights)
        stb_value = float(values.mean()) if values.size else 0.0
    out = StrideMetrics(
        work=work,
        cot=cot_value,
        stb=stb_value,
        j_e={c: j_e(cot_value, stb_value, c) for c in c_values},
        failed=bool(log.failed),
        guard_events=guards,
    )
    if clamp:
        out = clamp_failed(out, cot_bound, stb_bound)
    return out
