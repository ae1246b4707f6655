"""Quadruped morphology, 3-DoF leg kinematics, and piecewise-planar terrain.

Conventions: body frame x forward, y left, z up; world frame shares the axes
with z against gravity. Each leg is an abduction joint rotating the leg plane
about the body x-axis at the hip, followed by thigh and shank pitch joints.
Joint angles (0, 0, 0) put the foot straight below the hip at full extension.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaits import LegId

GRAVITY = 9.81

# the per-step kinematics hand vectors and 3x3 matrices (as rows) around as
# tuples of Python floats
Vector3 = tuple[float, float, float]
Matrix3 = tuple[Vector3, Vector3, Vector3]


def _rebuild(obj):
    """Pickle a frozen dataclass through its constructor.

    Unpickled arrays come back writeable, so the read-only arrays derived in
    ``__post_init__`` or a ``cached_property`` are rebuilt instead of copied
    (worker processes of ``build_map(jobs=...)`` receive pickled copies).
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj) if f.init)


@dataclass(frozen=True, eq=False)
class RobotParams:
    """Morphology and mass properties of the simulated quadruped."""

    mass: float = 12.0
    inertia_diag: tuple[float, float, float] = (0.05, 0.15, 0.18)
    hip_length: float = 0.38  # fore-aft hip spacing [m]
    hip_width: float = 0.30  # lateral hip spacing [m]
    link_hip: float = 0.0  # abduction link lateral offset [m]
    link_thigh: float = 0.22
    link_shank: float = 0.22
    foot_mass: float = 0.3  # effective swing foot mass [m]
    gravity: float = GRAVITY

    def __post_init__(self) -> None:
        # written as "not 0 < x < inf" so that NaN (from a JSON config) is rejected
        for name in ("mass", "link_thigh", "link_shank", "gravity", "hip_length", "hip_width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"robot.{name} must be positive and finite")
        for name in ("foot_mass", "link_hip"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"robot.{name} must be non-negative and finite")
        inertia = self.inertia_diag
        if len(inertia) != 3 or not all(0.0 < i < math.inf for i in inertia):
            raise ValueError(
                f"robot.inertia_diag must be three finite positive numbers, got {inertia}"
            )

    __reduce__ = _rebuild

    @property
    def leg_reach(self) -> float:
        return self.link_thigh + self.link_shank

    def side_sign(self, leg: LegId) -> float:
        """+1 for left legs (+y side), -1 for right legs."""
        return 1.0 if leg in (LegId.LF, LegId.LH) else -1.0

    def hip_position(self, leg: LegId) -> np.ndarray:
        x = 0.5 * self.hip_length if leg in (LegId.RF, LegId.LF) else -0.5 * self.hip_length
        y = 0.5 * self.hip_width * self.side_sign(leg)
        return np.array([x, y, 0.0])

    @cached_property
    def hip_offsets(self) -> np.ndarray:
        """(4, 3) body-frame hip positions in LegId order; built once, read-only."""
        hips = np.stack([self.hip_position(leg) for leg in LegId])
        hips.flags.writeable = False
        return hips

    @cached_property
    def _leg_geometry(self) -> tuple[tuple[float, float, float, float], ...]:
        """Per leg in LegId order: the hip point and the signed abduction
        offset ``link_hip * side_sign``, as Python floats for the per-step
        kinematics."""
        return tuple(
            (*self.hip_offsets[leg].tolist(), self.link_hip * self.side_sign(leg))
            for leg in LegId
        )


class OutOfWorkspaceError(ValueError):
    """IK target outside the leg workspace; carries the nearest reachable point."""

    def __init__(self, target, clamped_point, clamped_angles):
        super().__init__(
            f"foot target {np.asarray(target).round(4).tolist()} outside workspace"
        )
        self.target = np.asarray(target, dtype=float)
        self.clamped_point = np.asarray(clamped_point, dtype=float)
        self.clamped_angles = np.asarray(clamped_angles, dtype=float)


def leg_fk(q_leg, leg: LegId, params: RobotParams) -> np.ndarray:
    """Body-frame foot position for (abduction, hip pitch, knee) angles."""
    q1, q2, q3 = q_leg
    hx, hy, hz, d = params._leg_geometry[leg]
    xp = -params.link_thigh * math.sin(q2) - params.link_shank * math.sin(q2 + q3)
    zp = -params.link_thigh * math.cos(q2) - params.link_shank * math.cos(q2 + q3)
    c1, s1 = math.cos(q1), math.sin(q1)
    return np.array([hx + xp, hy + c1 * d - s1 * zp, hz + s1 * d + c1 * zp])


def leg_ik(foot, leg: LegId, params: RobotParams) -> Vector3:
    """Knee-backward joint angles reaching a body-frame foot position.

    ``foot`` is any sequence of three floats; returns a tuple of three floats
    (the control step calls this per leg and step). Raises
    :class:`OutOfWorkspaceError` for unreachable targets; the error carries
    the angles and position of the nearest reachable point (radial clamp onto
    the workspace annulus) as arrays.
    """
    fx, fy, fz = foot
    hx, hy, hz, d = params._leg_geometry[leg]
    px, py, pz = fx - hx, fy - hy, fz - hz
    l1, l2 = params.link_thigh, params.link_shank

    clamped = False
    planar_sq = py * py + pz * pz - d * d
    if planar_sq < 0.0:
        planar_sq = 0.0
        clamped = True
    w = math.sqrt(planar_sq)  # in-plane drop below the hip axis

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
    q2 = math.atan2(-px, w) - math.atan2(
        l2 * math.sin(q3), l1 + l2 * math.cos(q3)
    )
    q1 = math.atan2(pz, py) - math.atan2(-w, d)
    q = (q1, q2, q3)

    if clamped:
        raise OutOfWorkspaceError(foot, leg_fk(q, leg, params), q)
    return q


def leg_jacobian(q_leg, leg: LegId, params: RobotParams) -> Matrix3:
    """3x3 Jacobian of :func:`leg_fk` with respect to the joint angles.

    ``q_leg`` is any sequence of three floats; returns the rows as a tuple of
    three tuples of three floats.
    """
    q1, q2, q3 = q_leg
    d = params._leg_geometry[leg][3]
    l1, l2 = params.link_thigh, params.link_shank
    s2, c2 = math.sin(q2), math.cos(q2)
    s23, c23 = math.sin(q2 + q3), math.cos(q2 + q3)
    c1, s1 = math.cos(q1), math.sin(q1)

    xp = -l1 * s2 - l2 * s23
    zp = -l1 * c2 - l2 * c23
    rel_y = c1 * d - s1 * zp
    rel_z = s1 * d + c1 * zp

    dxp_dq2 = -l1 * c2 - l2 * c23
    dzp_dq2 = l1 * s2 + l2 * s23
    dxp_dq3 = -l2 * c23
    dzp_dq3 = l2 * s23

    return (
        (0.0, dxp_dq2, dxp_dq3),
        (-rel_z, -s1 * dzp_dq2, -s1 * dzp_dq3),
        (rel_y, c1 * dzp_dq2, c1 * dzp_dq3),
    )


class TerrainBoundsError(ValueError):
    pass


@dataclass(frozen=True)
class TerrainSegment:
    start_x: float
    incline: float = 0.0  # [rad], positive rises with x
    friction: float = 0.7
    kind: str = "flat"


class TerrainSample(NamedTuple):
    """Terrain at one x; ``normal`` is its segment's shared read-only array,
    and ``segment`` the index of that segment.

    An immutable record; a named tuple because the control loop samples the
    terrain several times per step.
    """

    height: float
    normal: np.ndarray
    incline: float
    friction: float
    kind: str
    segment: int


@dataclass(frozen=True, eq=False)
class Terrain:
    """Contiguous piecewise-linear terrain profile along world x.

    Height is continuous across segment joins by construction; each segment
    extends to the start of the next (the last one to ``end_x``).
    """

    name: str
    segments: tuple[TerrainSegment, ...]
    end_x: float = 1000.0
    base_height: float = 0.0
    course_end: float | None = None  # finish line for strategy runs
    _starts: tuple[float, ...] = field(init=False, repr=False)
    _heights: tuple[float, ...] = field(init=False, repr=False)
    _tans: tuple[float, ...] = field(init=False, repr=False)
    _normals: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("terrain needs at least one segment")
        starts = [s.start_x for s in self.segments]
        for key, values in (("start_x", starts), ("end_x", (self.end_x,)),
                            ("base_height", (self.base_height,))):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"terrain {self.name!r}: {key} must be finite")
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ValueError("segments must be ordered by start_x without overlap")
        if not self.end_x > starts[-1]:
            raise ValueError(
                f"terrain {self.name!r}: end_x {self.end_x:g} must lie past the last "
                f"segment's start_x {starts[-1]:g}"
            )
        # NaN fails the test
        if self.course_end is not None and not starts[0] < self.course_end <= self.end_x:
            raise ValueError(
                f"terrain {self.name!r}: course_end {self.course_end:g} must lie in "
                f"({starts[0]:g}, {self.end_x:g}]"
            )
        # NaN fails both tests (a JSON config may hold NaN)
        if not all(s.friction > 0.0 for s in self.segments):
            raise ValueError("friction coefficients must be positive")
        if not all(math.isfinite(s.incline) for s in self.segments):
            raise ValueError("segment inclines must be finite")
        tans = tuple(math.tan(s.incline) for s in self.segments)
        heights = [self.base_height]
        for tan, prev, cur in zip(tans, self.segments, self.segments[1:]):
            heights.append(heights[-1] + tan * (cur.start_x - prev.start_x))
        normals = []
        for seg in self.segments:
            normal = np.array([-math.sin(seg.incline), 0.0, math.cos(seg.incline)])
            normal.flags.writeable = False
            normals.append(normal)
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_heights", tuple(heights))
        object.__setattr__(self, "_tans", tans)
        object.__setattr__(self, "_normals", tuple(normals))

    __reduce__ = _rebuild

    @property
    def start_x(self) -> float:
        return self.segments[0].start_x

    @property
    def kinds(self) -> tuple[str, ...]:
        seen: list[str] = []
        for seg in self.segments:
            if seg.kind not in seen:
                seen.append(seg.kind)
        return tuple(seen)

    def query(self, x: float) -> TerrainSample:
        """The terrain at ``x``: the segment that starts last at or before
        ``x``; :class:`TerrainBoundsError` outside the extent, NaN included.

        The only place the extent is checked: the control loop calls this
        several times per step, so it does its own lookup.
        """
        starts = self._starts
        if not starts[0] <= x <= self.end_x:
            raise TerrainBoundsError(
                f"x={x} outside terrain extent [{self.start_x}, {self.end_x}]"
            )
        # x >= starts[0], so the index is at least 0
        idx = bisect.bisect_right(starts, x) - 1
        seg = self.segments[idx]
        height = self._heights[idx] + self._tans[idx] * (x - seg.start_x)
        return TerrainSample(
            height, self._normals[idx], seg.incline, seg.friction, seg.kind, idx
        )

    def segment_index(self, x: float) -> int:
        """The index of the segment :meth:`query` samples for ``x``;
        :class:`TerrainBoundsError` outside the extent, NaN included."""
        return self.query(x).segment

    def segment_at(self, x: float) -> TerrainSegment:
        return self.segments[self.query(x).segment]


_DEG = math.pi / 180.0


def terrain_preset(name: str, friction: float = 0.7) -> Terrain:
    """Named terrain profiles used throughout the experiments."""
    key = name.strip().lower().replace("_", "-")
    if key == "flat":
        return Terrain(
            "flat", (TerrainSegment(-100.0, 0.0, friction, "flat"),), end_x=1000.0
        )
    if key == "slope12":
        return Terrain(
            "slope12",
            (TerrainSegment(-100.0, 12.0 * _DEG, friction, "slope12"),),
            end_x=1000.0,
        )
    if key == "flat-slope":
        return Terrain(
            "flat-slope",
            (
                TerrainSegment(-100.0, 0.0, friction, "flat"),
                TerrainSegment(3.0, 12.0 * _DEG, friction, "slope12"),
            ),
            end_x=1000.0,
            course_end=6.0,
        )
    if key == "continuous-slope":
        return Terrain(
            "continuous-slope",
            (
                TerrainSegment(-100.0, 0.0, friction, "flat"),
                TerrainSegment(1.5, 8.0 * _DEG, friction, "slope8"),
                TerrainSegment(3.5, 12.0 * _DEG, friction, "slope12"),
                TerrainSegment(5.5, 18.0 * _DEG, friction, "slope18"),
            ),
            end_x=1000.0,
            course_end=7.5,
        )
    if key == "up-down-slope":
        return Terrain(
            "up-down-slope",
            (
                TerrainSegment(-100.0, 0.0, friction, "flat"),
                TerrainSegment(1.5, 12.0 * _DEG, friction, "slope12"),
                TerrainSegment(4.5, -12.0 * _DEG, friction, "down12"),
                TerrainSegment(7.5, 0.0, friction, "flat"),
            ),
            end_x=1000.0,
            course_end=9.0,
        )
    raise ValueError(f"unknown terrain preset: {name!r}")
