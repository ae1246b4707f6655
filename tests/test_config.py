import dataclasses
import json
import math
import re
from pathlib import Path

from gaitkit.config import ToolkitConfig, config_from_dict
from gaitkit.robot import Terrain, TerrainSegment

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_config_examples():
    """The JSON blocks of README's "Configuration file" section, in order."""
    section = README.read_text().split("## Configuration file", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def _assert_same(a, b, where="config"):
    """``a`` and ``b`` hold equal values of the same types, field by field:
    RobotParams and Terrain compare by identity, so ``==`` cannot tell."""
    assert type(a) is type(b), (where, a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.init:
                _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, (where, a, b)


def test_readme_config_examples_load_to_the_documented_records():
    defaults, hill = _readme_config_examples()
    _assert_same(config_from_dict(defaults), ToolkitConfig())
    expected = Terrain(
        "gentle-hill",
        (TerrainSegment(-20.0, 0.0, 0.7, "flat"),
         TerrainSegment(2.0, math.radians(6.0), 0.7, "slope6")),
        end_x=100.0,
        course_end=5.0,
    )
    _assert_same(config_from_dict(hill), ToolkitConfig(terrains={"gentle-hill": expected}))


def test_terrain_keys_left_out_take_the_record_defaults():
    cfg = config_from_dict({"terrains": {"t": {"segments": [{"start_x": -1.0}]}}})
    _assert_same(cfg.terrains, {"t": Terrain("t", (TerrainSegment(-1.0),))})
