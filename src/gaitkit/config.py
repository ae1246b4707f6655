"""Single JSON configuration for the whole toolkit.

Every numeric parameter lives here; CLI flags override individual fields.
The JSON mirrors the dataclasses, which are its only schema (see README):

    {"robot": {...}, "sim": {...}, "gait": {...}, "metrics": {...},
     "map": {...}, "terrains": {...}}

One loader builds every section, custom terrain and terrain segment, taking
the keys and defaults from the record's fields: a list becomes a tuple where
the default is one, ``gaits`` holds gait names, and a segment's inclination
is ``incline_deg``, in degrees. An unknown key, a missing one or a value of
the wrong JSON type is a :class:`ValueError` that names the key; each record
runs its own checks as it is built. Custom terrains resolve by name exactly
like the built-in presets.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field

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


# the one field given in other units: a segment's inclination, in degrees
_JSON_KEYS = {"incline": "incline_deg"}


def _expect(where: str, value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{where or 'the config'} must be {what}, got {value!r}")
    return value


def _scalar(where: str, value, default):
    """``value`` if it has the JSON type of ``default``: a number for a
    number, a missing default or None (which also takes null)."""
    if isinstance(default, (bool, str)):
        return _expect(where, value, type(default), f"a {type(default).__name__}")
    if value is None and default is None:
        return value
    return _expect(where, value, (int, float), "a number")


def _field_value(where: str, f: dataclasses.Field, value):
    """The value of field ``f`` for the JSON ``value`` found at ``where``."""
    default = f.default if f.default_factory is MISSING else f.default_factory()
    if f.name == "terrains":
        return {name: _record(Terrain, block, f"{where}.{name}", name=name)
                for name, block in _expect(where, value, dict, "an object").items()}
    if f.name == "segments":
        return tuple(_record(TerrainSegment, seg, f"{where}[{i}]")
                     for i, seg in enumerate(_expect(where, value, list, "a list")))
    if dataclasses.is_dataclass(default):
        return _record(type(default), value, where)
    if f.name == "gaits":
        return tuple(GaitName.parse(_scalar(f"{where}[{i}]", name, ""))
                     for i, name in enumerate(_expect(where, value, list, "a list")))
    if isinstance(default, tuple):
        return tuple(_scalar(f"{where}[{i}]", v, default[0])
                     for i, v in enumerate(_expect(where, value, list, "a list")))
    if f.name == "incline":
        return math.radians(_scalar(where, value, default))
    return _scalar(where, value, default)


def _record(cls, data, where: str, **given):
    """``cls`` built from the JSON object ``data`` found at ``where``.

    The keys are the init fields of ``cls`` other than those ``given``; a
    key left out takes its field's default.
    """
    _expect(where, data, dict, "an object")
    fields = {_JSON_KEYS.get(f.name, f.name): f
              for f in dataclasses.fields(cls) if f.init and f.name not in given}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"unknown keys in {where or 'the config'}: {unknown}")
    kwargs = dict(given)
    for key, f in fields.items():
        path = f"{where}.{key}" if where else key
        if key in data:
            kwargs[f.name] = _field_value(path, f, data[key])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {key!r} in {where}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> ToolkitConfig:
    return _record(ToolkitConfig, data, "")


def load_config(path: str | None) -> ToolkitConfig:
    """Load the toolkit config, falling back to defaults when path is None."""
    if path is None:
        return ToolkitConfig()
    with open(path) as fh:
        return config_from_dict(json.load(fh))
