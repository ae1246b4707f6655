"""Single JSON configuration for the whole toolkit.

Every numeric parameter lives here; CLI flags override individual fields.
The schema mirrors the dataclasses section by section (see README for the
documented schema):

    {"robot": {...}, "sim": {...}, "gait": {...}, "metrics": {...},
     "map": {...}, "terrains": {...}}

The optional ``terrains`` section defines custom piecewise-planar profiles by
name (inclinations in degrees); they resolve exactly like the built-in
presets everywhere a terrain name is accepted. Unknown keys are rejected so
typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .gaits import GaitName
from .mapping import MapConfig
from .metrics import MetricsConfig
from .robot import RobotParams, Terrain, TerrainSegment, terrain_preset
from .simulation import SimConfig
from .transitions import GaitTimingConfig


@dataclass
class ToolkitConfig:
    robot: RobotParams = field(default_factory=RobotParams)
    sim: SimConfig = field(default_factory=SimConfig)
    gait: GaitTimingConfig = field(default_factory=GaitTimingConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    map: MapConfig = field(default_factory=MapConfig)
    terrains: dict[str, Terrain] = field(default_factory=dict)

    def terrain(self, name: str) -> Terrain:
        """Resolve a terrain by name: config-defined first, then presets."""
        if name in self.terrains:
            return self.terrains[name]
        return terrain_preset(name)


_SECTIONS = {
    "robot": RobotParams,
    "sim": SimConfig,
    "gait": GaitTimingConfig,
    "metrics": MetricsConfig,
    "map": MapConfig,
}

_TUPLE_FIELDS = {
    "inertia_diag",
    "kp_lin",
    "kd_lin",
    "kp_ang",
    "kd_ang",
    "weights",
    "c_values",
}


def _coerce(cls, name: str, value):
    if name == "gaits":
        return tuple(GaitName.parse(g) for g in value)
    if name in _TUPLE_FIELDS:
        return tuple(value)
    return value


def _terrain_from_dict(name: str, data: dict) -> Terrain:
    segments = tuple(
        TerrainSegment(
            start_x=float(seg["start_x"]),
            incline=math.radians(float(seg.get("incline_deg", 0.0))),
            friction=float(seg.get("friction", 0.7)),
            kind=str(seg.get("kind", "flat")),
        )
        for seg in data["segments"]
    )
    return Terrain(
        name=name,
        segments=segments,
        end_x=float(data.get("end_x", 1000.0)),
        base_height=float(data.get("base_height", 0.0)),
        course_end=data.get("course_end"),
    )


def config_from_dict(data: dict) -> ToolkitConfig:
    cfg = ToolkitConfig()
    unknown = set(data) - set(_SECTIONS) - {"terrains"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    sections = {}
    for section, cls in _SECTIONS.items():
        defaults = getattr(cfg, section)
        overrides = data.get(section, {})
        names = {f.name for f in dataclasses.fields(cls)}
        bad = set(overrides) - names
        if bad:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        kwargs = {k: _coerce(cls, k, v) for k, v in overrides.items()}
        # each section's own checks run here, so a bad value fails at load
        sections[section] = dataclasses.replace(defaults, **kwargs)
    sections["sim"].validate()
    sections["map"].validate()
    terrains = {
        name: _terrain_from_dict(name, block)
        for name, block in data.get("terrains", {}).items()
    }
    return ToolkitConfig(**sections, terrains=terrains)


def load_config(path: str | None) -> ToolkitConfig:
    """Load the toolkit config, falling back to defaults when path is None."""
    if path is None:
        return ToolkitConfig()
    with open(path) as fh:
        return config_from_dict(json.load(fh))
