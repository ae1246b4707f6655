"""Gait patterns and per-leg contact scheduling.

A gait is fully described by its duty factor (stance fraction of the stride),
one lift-off phase offset per leg in the order (RF, RH, LF, LH), and the
stride period. Five named patterns cover the walk / trot / bound / run /
trot-run repertoire; everything downstream consumes the generic
:class:`GaitPattern`, so morphing parameters mid-stride works the same way as
steady gaits.

Phase arithmetic is modulo 1 everywhere. A leg sitting exactly at its offset
is at the lift-off instant and counts as swing, which makes every per-leg
schedule a half-open partition of the stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

DEFAULT_PERIOD = 0.4  # stride duration [s]


class LegId(IntEnum):
    """Leg indices; the order matches the offset vector (RF, RH, LF, LH)."""

    RF = 0
    RH = 1
    LF = 2
    LH = 3


class GaitName(IntEnum):
    """Named gaits, numbered as the FSM state codes."""

    WALK = 0
    TROT = 1
    BOUND = 2
    RUN = 3
    TROT_RUN = 4

    @classmethod
    def parse(cls, text: str) -> "GaitName":
        key = text.strip().lower().replace("-", "_")
        aliases = {
            "walk": cls.WALK,
            "walking": cls.WALK,
            "trot": cls.TROT,
            "trotting": cls.TROT,
            "bound": cls.BOUND,
            "bounding": cls.BOUND,
            "run": cls.RUN,
            "running": cls.RUN,
            "trot_run": cls.TROT_RUN,
            "trotrun": cls.TROT_RUN,
            "trot_running": cls.TROT_RUN,
        }
        if key not in aliases:
            raise ValueError(f"unknown gait name: {text!r}")
        return aliases[key]

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


@dataclass(frozen=True)
class GaitPattern:
    """Duty factor, per-leg lift-off offsets (RF, RH, LF, LH), stride period."""

    beta: float
    offsets: tuple[float, float, float, float]
    period: float = DEFAULT_PERIOD

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"duty factor must lie in (0, 1), got {self.beta}")
        if not self.period > 0.0:  # NaN fails the test
            raise ValueError(f"stride period must be positive, got {self.period}")
        if len(self.offsets) != 4:
            raise ValueError("expected one phase offset per leg")
        object.__setattr__(self, "offsets", tuple(x % 1.0 for x in self.offsets))


# Canonical parameters: duty factor and offsets (RF, RH, LF, LH). The walk
# values are the walk-side endpoints of the walk<->trot morph; the others are
# the shared endpoints of their respective switching processes.
_CANONICAL: dict[GaitName, tuple[float, tuple[float, float, float, float]]] = {
    GaitName.WALK: (0.75, (0.75, 0.25, 0.0, 0.5)),
    GaitName.TROT: (0.5, (0.5, 0.0, 0.0, 0.5)),
    GaitName.BOUND: (0.5, (0.0, 0.5, 0.0, 0.5)),
    GaitName.RUN: (0.3, (0.0, 0.5, 0.0, 0.5)),
    GaitName.TROT_RUN: (0.3, (0.5, 0.0, 0.0, 0.5)),
}


@lru_cache(maxsize=64)
def standard_gait(name: GaitName, period: float = DEFAULT_PERIOD) -> GaitPattern:
    """Canonical parameters for one of the five named gaits.

    Memoized: a :class:`GaitPattern` is frozen, and the gait machine asks for
    the pattern in effect on every control step.
    """
    if not period > 0.0:  # NaN fails the test
        raise ValueError(f"stride period must be positive, got {period}")
    beta, offsets = _CANONICAL[name]
    return GaitPattern(beta=beta, offsets=offsets, period=period)


def leg_contact(pattern: GaitPattern, phase: float, leg: LegId) -> float | None:
    """Swing phase in [0, 1) of ``leg`` at stride phase ``phase``, or None
    in stance.

    The swing window starts at the leg's lift-off offset and spans the swing
    fraction ``1 - beta`` of the stride; the remainder is stance.
    """
    local = (phase - pattern.offsets[leg]) % 1.0
    swing = 1.0 - pattern.beta
    if local < swing:
        return local / swing
    return None


def stance_count(pattern: GaitPattern, phase: float) -> int:
    """Number of legs in stance at the given stride phase."""
    return sum(leg_contact(pattern, phase, leg) is None for leg in LegId)


def _swing_arcs(pattern: GaitPattern, leg: LegId) -> list[tuple[Fraction, Fraction]]:
    # Half-open swing arcs on the unit circle, split at the wrap point.
    start = Fraction(pattern.offsets[leg])
    length = 1 - Fraction(pattern.beta)
    end = start + length
    if end <= 1:
        return [(start, end)]
    return [(start, Fraction(1)), (Fraction(0), end - 1)]


def _intersect_arcs(
    a: list[tuple[Fraction, Fraction]], b: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return out


def flight_fraction(pattern: GaitPattern) -> float:
    """Fraction of the stride during which all four feet are airborne.

    Computed by exact interval intersection of the per-leg swing arcs
    (rational arithmetic), so there is no sampling error.
    """
    arcs = _swing_arcs(pattern, LegId.RF)
    for leg in (LegId.RH, LegId.LF, LegId.LH):
        arcs = _intersect_arcs(arcs, _swing_arcs(pattern, leg))
        if not arcs:
            return 0.0
    return float(sum(hi - lo for lo, hi in arcs))


def stance_measure(pattern: GaitPattern) -> float:
    """Total per-leg stance measure over one stride (exact; equals 4*beta)."""
    total = Fraction(0)
    for leg in LegId:
        swung = sum(hi - lo for lo, hi in _swing_arcs(pattern, leg))
        total += 1 - swung
    return float(total)
