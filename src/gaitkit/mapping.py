"""Velocity-gait map construction and selection queries.

For every (gait, velocity) cell the builder runs a batch of independent
trials and averages per-trial mean CoT/STB with failure clamping into the
map's ``gait_table``, its one record of its cells. The winning gait of a
(terrain, c, velocity) bin is derived from that table whenever it is asked
for: lowest J_e at c, then most successes, then the duty factor closest to
0.5, then the gait code. Because the blend is affine in c, one table serves
every c value.

The map file also carries the winners as ``cells``, for readers and for the
map CSV. Loading reads the table and refuses a file that contradicts itself:
a terrain listed twice, a ``c`` list unlike the first terrain's, a
``gait_table`` row off its ``v_grid`` or given twice, a velocity bin with no
row, or stored ``cells`` that are not the winners the table gives.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from types import MappingProxyType

import numpy as np

from .gaits import GaitName, standard_gait
from .io import write_csv, write_json
from .metrics import MetricsConfig, UndefinedDisplacementError, j_e, stride_metrics
from .robot import RobotParams, Terrain
from .simulation import MAX_COMMAND_VELOCITY, SimConfig, TrialResult, run_trial
from .transitions import GaitTimingConfig

ALL_GAITS = tuple(GaitName)
# the keys of a winning cell in the map JSON, which are also the map CSV's
# columns after its terrain column
_CELL_KEYS = ("c", "v", "gait", "j_e", "cot", "stb", "success", "trials")
# the speed margin [m/s] hysteretic selection keeps before it leaves the gait
# it is in
HYSTERESIS_BAND = 0.1
# the gait codes in the order that breaks a tie of J_e and successes between
# map winners: the duty factor closest to 0.5 first, then the lower code
_TIE_ORDER = tuple(int(g) for g in sorted(
    GaitName, key=lambda g: (abs(standard_gait(g).beta - 0.5), int(g))))


@dataclass(frozen=True)
class MapConfig:
    """Sweep grid and batch sizes for map construction; checked when built."""

    v_min: float = 0.3
    v_max: float = 2.7
    v_step: float = 0.2
    c_values: tuple[float, ...] = (0.1, 0.5, 0.9)
    trials: int = 5
    strides: int = 10  # metered strides per trial (after warm-up)
    warmup_strides: int = 3
    gaits: tuple[GaitName, ...] = ALL_GAITS

    def velocity_grid(self) -> tuple[float, ...]:
        if self.v_max < self.v_min or self.v_step <= 0.0:
            raise ValueError("malformed velocity grid")
        count = int(round((self.v_max - self.v_min) / self.v_step)) + 1
        return tuple(self.v_min + i * self.v_step for i in range(count))

    def __post_init__(self) -> None:
        """Reject a config that :func:`build_map` could not run to the end."""
        if not self.gaits:
            raise ValueError("candidate gait set must not be empty")
        repeated = sorted({g.label for g in self.gaits if self.gaits.count(g) > 1})
        if repeated:
            raise ValueError(f"map.gaits holds a gait twice: {repeated}")
        for name, least in (("trials", 1), ("strides", 1), ("warmup_strides", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        if not self.c_values:
            raise ValueError("map.c_values must not be empty")
        if any(not 0.0 <= c <= 1.0 for c in self.c_values):
            raise ValueError("c values must lie in [0, 1]")
        if len(set(self.c_values)) != len(self.c_values):
            raise ValueError(f"map.c_values holds a value twice: {list(self.c_values)}")
        for name in ("v_min", "v_max", "v_step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"map.{name} must be finite, got {value}")
        grid = self.velocity_grid()
        # the grid rises, so its ends bound it; NaN fails the test
        if not (0.0 <= grid[0] and grid[-1] <= MAX_COMMAND_VELOCITY):
            raise ValueError(
                f"velocity grid {grid[0]:g}..{grid[-1]:g} m/s leaves the supported "
                f"[0, {MAX_COMMAND_VELOCITY:g}] m/s"
            )

    # a built config has passed its checks; checking it again is harmless
    validate = __post_init__


@dataclass
class GaitCellStats:
    """Across-trial means for one (gait, velocity) cell."""

    cot: float
    stb: float
    successes: int
    trials: int

    def j_e(self, c: float) -> float:
        return j_e(self.cot, self.stb, c)


def summarize_trials(records) -> GaitCellStats:
    """Mean CoT, mean STB, successes and count of ``(cot, stb, failed)`` trial
    records: one map cell of :func:`build_map`, or one strategy's row of
    :func:`~gaitkit.strategy.compare`."""
    cots, stbs, failed = zip(*records)
    return GaitCellStats(float(np.mean(cots)), float(np.mean(stbs)),
                         sum(not f for f in failed), len(records))


@dataclass(frozen=True)
class MapCell:
    """Winning gait and its statistics for one (terrain, c, velocity) bin."""

    gait: GaitName
    j_e: float
    cot: float
    stb: float
    successes: int
    trials: int


def _cell_text(cell: dict) -> str:
    """A map JSON cell as text, each number in one type, so that two cells
    holding the same values give the same text, NaN included."""
    return json.dumps([
        float(cell["c"]), float(cell["v"]), GaitName.parse(cell["gait"]).label,
        float(cell["j_e"]), float(cell["cot"]), float(cell["stb"]),
        int(cell["success"]), int(cell["trials"]),
    ])


@dataclass
class VelocityGaitMap:
    """Lookup from (terrain id, c, velocity bin) to the selected gait.

    ``gait_table`` holds the per-gait means of every bin, keyed by (terrain
    id, gait code, velocity bin); the winning cells are derived from it.
    """

    c_values: tuple[float, ...]
    v_grids: dict[str, tuple[float, ...]] = field(default_factory=dict)
    gait_table: dict[tuple[str, int, int], GaitCellStats] = field(default_factory=dict)
    # raw per-trial metric records keyed by (terrain, gait, velocity, trial);
    # not persisted in the map file, exported separately on request
    trial_records: list[dict] = field(default_factory=list)

    @property
    def terrain_ids(self) -> tuple[str, ...]:
        return tuple(self.v_grids.keys())

    def covers(self, terrain_id: str) -> bool:
        return terrain_id in self.v_grids

    def merge(self, other: "VelocityGaitMap") -> "VelocityGaitMap":
        if tuple(other.c_values) != tuple(self.c_values):
            raise ValueError("cannot merge maps with different c grids")
        shared = [tid for tid in other.terrain_ids if self.covers(tid)]
        if shared:
            raise ValueError(f"cannot merge maps that both cover terrains {shared}")
        return VelocityGaitMap(
            c_values=self.c_values,
            v_grids={**self.v_grids, **other.v_grids},
            gait_table={**self.gait_table, **other.gait_table},
            trial_records=self.trial_records + other.trial_records,
        )

    def _winner(self, terrain_id: str, c: float, idx: int) -> MapCell:
        """The winning cell of one bin, from its gait rows in ``gait_table``:
        lowest J_e at ``c``, then most successes, then the first gait of
        :data:`_TIE_ORDER`."""
        rows = [(gait, stats) for gait in _TIE_ORDER
                if (stats := self.gait_table.get((terrain_id, gait, idx))) is not None]
        gait, stats = min(rows, key=lambda row: (row[1].j_e(c), -row[1].successes))
        return MapCell(GaitName(gait), stats.j_e(c), stats.cot, stats.stb, stats.successes,
                       stats.trials)

    @property
    def cells(self) -> Mapping[tuple[str, float, int], MapCell]:
        """Read-only view of every bin's winning cell, derived from
        ``gait_table`` and keyed by (terrain id, c, velocity bin)."""
        return MappingProxyType({
            (tid, c, i): self._winner(tid, c, i)
            for tid, grid in self.v_grids.items()
            for c in self.c_values
            for i in range(len(grid))
        })

    def bin_index(self, terrain_id: str, velocity: float) -> tuple[int, bool]:
        """Nearest bin (round half up); flags when the query was clamped. A
        non-finite velocity is a ValueError."""
        if terrain_id not in self.v_grids:
            raise ValueError(f"map does not cover terrain {terrain_id!r}")
        if not math.isfinite(velocity):
            raise ValueError(f"velocity must be finite, got {velocity}")
        grid = self.v_grids[terrain_id]
        if len(grid) == 1:
            idx = 0
        else:
            step = grid[1] - grid[0]
            idx = int(np.floor((velocity - grid[0]) / step + 0.5))
        clamped = idx < 0 or idx >= len(grid)
        return min(max(idx, 0), len(grid) - 1), clamped

    def cell(self, terrain_id: str, velocity: float, c: float) -> tuple[MapCell, bool]:
        if c not in self.c_values:
            raise ValueError(f"c={c} not present in the map (has {self.c_values})")
        idx, clamped = self.bin_index(terrain_id, velocity)
        return self._winner(terrain_id, c, idx), clamped

    def _terrain_cells(self, terrain_id: str) -> list[dict]:
        """The winning cells of one terrain as map JSON cells, c by c."""
        cells = []
        for c in self.c_values:
            for i, v in enumerate(self.v_grids[terrain_id]):
                cell = self._winner(terrain_id, c, i)
                cells.append(dict(zip(_CELL_KEYS, (
                    c, v, cell.gait.label, cell.j_e, cell.cot, cell.stb,
                    cell.successes, cell.trials,
                ))))
        return cells

    def to_json_dict(self) -> dict:
        terrains = []
        for tid in self.terrain_ids:
            grid = self.v_grids[tid]
            table = []
            for gait in GaitName:
                for i, v in enumerate(grid):
                    key = (tid, int(gait), i)
                    if key not in self.gait_table:
                        continue
                    stats = self.gait_table[key]
                    table.append(
                        {
                            "gait": gait.label,
                            "v": v,
                            "cot": stats.cot,
                            "stb": stats.stb,
                            "success": stats.successes,
                            "trials": stats.trials,
                        }
                    )
            terrains.append(
                {"terrain": tid, "c": list(self.c_values), "v_grid": list(grid),
                 "cells": self._terrain_cells(tid), "gait_table": table}
            )
        return {"terrains": terrains}

    @classmethod
    def from_json_dict(cls, data: dict) -> "VelocityGaitMap":
        """The map of a map JSON dict, read from its ``gait_table``s.

        A file that contradicts itself is a :class:`ValueError` naming the
        terrain: a terrain listed twice, a ``c`` list unlike the first
        terrain's, a ``gait_table`` row whose ``v`` is not on the ``v_grid``
        or whose (gait, v) came before, a velocity bin with no row, or stored
        ``cells`` that are not the winners the table gives.
        """
        terrains = data["terrains"]
        if not terrains:
            raise ValueError("the map covers no terrain")
        out = cls(c_values=tuple(terrains[0]["c"]))
        for block in terrains:
            tid = block["terrain"]
            if out.covers(tid):
                raise ValueError(f"the map lists terrain {tid!r} twice")
            if tuple(block["c"]) != out.c_values:
                raise ValueError(f"terrain {tid!r} has c values {block['c']}, where the "
                                 f"map's first terrain has {list(out.c_values)}")
            if "gait_table" not in block:
                raise ValueError(f"terrain {tid!r} has no gait_table")
            grid = tuple(float(v) for v in block["v_grid"])
            out.v_grids[tid] = grid
            index = {v: i for i, v in enumerate(grid)}
            for row in block["gait_table"]:
                gait, v = GaitName.parse(row["gait"]), float(row["v"])
                if v not in index:
                    raise ValueError(f"terrain {tid!r}: the gait_table row of {gait.label} "
                                     f"at v={v} is not on its v_grid")
                key = (tid, int(gait), index[v])
                if key in out.gait_table:
                    raise ValueError(f"terrain {tid!r}: the gait_table lists {gait.label} "
                                     f"at v={v} twice")
                out.gait_table[key] = GaitCellStats(
                    cot=float(row["cot"]),
                    stb=float(row["stb"]),
                    successes=int(row["success"]),
                    trials=int(row["trials"]),
                )
            for i, v in enumerate(grid):
                if not any((tid, int(gait), i) in out.gait_table for gait in GaitName):
                    raise ValueError(f"terrain {tid!r} has no gait_table row at v={v}")
            derived = out._terrain_cells(tid)
            if len(block["cells"]) != len(derived):
                raise ValueError(f"terrain {tid!r} stores {len(block['cells'])} cells, "
                                 f"where its c values and v_grid make {len(derived)}")
            for stored, want in zip(block["cells"], derived):
                if _cell_text(stored) != _cell_text(want):
                    raise ValueError(
                        f"terrain {tid!r}: the stored cell at c={want['c']}, "
                        f"v={want['v']} is not the winner of its gait_table"
                    )
        return out

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path) -> "VelocityGaitMap":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def to_csv(self, path) -> None:
        """The winning cells of :meth:`to_json_dict`, one row each, with the
        terrain in front."""
        write_csv(path, ["terrain", *_CELL_KEYS], [
            [tid, *cell.values()]
            for tid in self.terrain_ids
            for cell in self._terrain_cells(tid)
        ])


def fan_out(fn, *iterables, jobs: int = 1) -> list:
    """``list(map(fn, *iterables))``: the results in input order. ``jobs`` > 1
    makes the calls in that many worker processes, so ``fn`` and the items
    must pickle; ``jobs`` below 1 is a :class:`ValueError`, raised before any
    call."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return list(map(fn, *iterables))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *iterables))


def trial_outcome(
    result: TrialResult,
    terrain: Terrain,
    params: RobotParams,
    metrics: MetricsConfig | None = None,
    warmup_strides: int = 3,
    strides: int | None = None,
) -> tuple[float, float, bool]:
    """Per-trial (mean CoT, mean STB, failed) over at most ``strides`` usable strides.

    A trial fails when it fell, missed its finish line, left no complete
    stride after the warm-up or has a usable stride without displacement (no
    displacement, no CoT); a failed trial scores the configured bounds.
    """
    metrics = metrics or MetricsConfig()
    usable = [
        s for s in result.strides[warmup_strides:] if s.complete and not s.failed
    ][:strides]
    if result.failed or not result.finished_course or not usable:
        return metrics.cot_bound, metrics.stb_bound, True
    cots, stbs = [], []
    for log in usable:
        try:
            m = stride_metrics(log, terrain, params, metrics)
        except UndefinedDisplacementError:
            return metrics.cot_bound, metrics.stb_bound, True
        cots.append(m.cot)
        stbs.append(m.stb)
    return float(np.mean(cots)), float(np.mean(stbs)), False


def _simulated_trial(
    terrain: Terrain,
    map_cfg: MapConfig,
    sim_cfg: SimConfig,
    params: RobotParams,
    seed: int,
    timing: GaitTimingConfig,
    metrics: MetricsConfig,
    gait: GaitName,
    velocity: float,
    trial_idx: int,
) -> tuple[float, float, bool]:
    """Default trial runner: one simulated trial, seeded by its cell key."""
    rng = np.random.default_rng((seed, int(gait), int(round(velocity * 1000)), trial_idx))
    duration = (map_cfg.warmup_strides + map_cfg.strides + 1) * timing.period
    result = run_trial(standard_gait(gait, timing.period), velocity, terrain, duration,
                       sim_cfg, params, rng=rng)
    return trial_outcome(result, terrain, params, metrics, map_cfg.warmup_strides,
                         map_cfg.strides)


def _cell_stats(
    trial_runner, trials: int, gait: GaitName, velocity: float
) -> tuple[GaitCellStats, list[tuple[float, float, bool]]]:
    records = [trial_runner(gait, velocity, trial) for trial in range(trials)]
    return summarize_trials(records), records


def build_map(
    terrain: Terrain,
    map_cfg: MapConfig,
    sim_cfg: SimConfig | None = None,
    params: RobotParams | None = None,
    *,
    seed: int = 0,
    trial_runner=None,
    jobs: int = 1,
    timing: GaitTimingConfig | None = None,
    metrics: MetricsConfig | None = None,
) -> VelocityGaitMap:
    """Sweep (gait, velocity) cells into the ``gait_table`` of a map keyed by
    ``terrain.name``, from which every c value's winning gait is derived.

    ``trial_runner(gait, velocity, trial_idx) -> (cot, stb, failed)`` may be
    injected for testing; the default runs the simulator. ``jobs`` is at
    least 1 (a :class:`ValueError` otherwise); ``jobs`` > 1 fans the
    independent cells out to worker processes through :func:`fan_out` (the
    runner must then pickle); per-trial seeding depends only on the cell key,
    so the result is identical either way.
    """
    if trial_runner is None:
        trial_runner = partial(
            _simulated_trial, terrain, map_cfg, sim_cfg or SimConfig(),
            params or RobotParams(), seed, timing or GaitTimingConfig(),
            metrics or MetricsConfig(),
        )
    tid = terrain.name
    grid = map_cfg.velocity_grid()
    gaits = [gait for gait in map_cfg.gaits for _ in grid]
    bins = [i for _ in map_cfg.gaits for i in range(len(grid))]
    results = fan_out(partial(_cell_stats, trial_runner, map_cfg.trials), gaits,
                      [grid[i] for i in bins], jobs=jobs)

    out = VelocityGaitMap(c_values=tuple(map_cfg.c_values), v_grids={tid: grid})
    for gait, i, (stats, records) in zip(gaits, bins, results):
        out.gait_table[(tid, int(gait), i)] = stats
        out.trial_records += [
            {"terrain": tid, "gait": gait.label, "v": grid[i], "trial": trial,
             "cot": c_val, "stb": s_val, "failed": bool(failed)}
            for trial, (c_val, s_val, failed) in enumerate(records)
        ]
    return out


def select_gait(
    map_: VelocityGaitMap, terrain_id: str, velocity: float, c: float
) -> GaitName:
    """Gait of the nearest velocity bin; clamped queries resolve to the edge."""
    cell, _ = map_.cell(terrain_id, velocity, c)
    return cell.gait


@dataclass(frozen=True)
class HysteresisState:
    """Memory for hysteretic selection: last gait, switch velocity, terrain."""

    previous: GaitName
    anchor_velocity: float
    terrain_id: str | None = None


def select_gait_hysteretic(
    map_: VelocityGaitMap,
    terrain_id: str,
    velocity: float,
    c: float,
    state: HysteresisState,
    band: float = HYSTERESIS_BAND,
) -> tuple[GaitName, HysteresisState]:
    """Selection with a velocity hysteresis band to suppress chattering.

    Within one terrain the selection only changes when the query velocity
    differs from the velocity of the last switch by more than ``band``; a
    terrain change is a discrete trigger that bypasses the band.
    """
    candidate = select_gait(map_, terrain_id, velocity, c)
    if state.terrain_id is not None and terrain_id != state.terrain_id:
        return candidate, HysteresisState(candidate, velocity, terrain_id)
    if candidate == state.previous:
        return state.previous, replace(state, terrain_id=terrain_id)
    if abs(velocity - state.anchor_velocity) > band:
        return candidate, HysteresisState(candidate, velocity, terrain_id)
    return state.previous, replace(state, terrain_id=terrain_id)
