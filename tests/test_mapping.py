import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaitkit.gaits import GaitName, standard_gait
from gaitkit.mapping import (
    GaitCellStats,
    HysteresisState,
    MapConfig,
    VelocityGaitMap,
    build_map,
    select_gait,
    select_gait_hysteretic,
)
from gaitkit.metrics import COT_BOUND, STB_BOUND
from gaitkit.robot import terrain_preset
from gaitkit.simulation import MAX_COMMAND_VELOCITY, SimConfig, run_trial

FLAT = terrain_preset("flat")


def _synthetic_runner(table):
    """table: {gait: (cot_fn(v), stb_fn(v))} -> deterministic trial metrics."""

    def runner(gait, velocity, trial_idx):
        cot_fn, stb_fn, fail_fn = table[gait]
        return cot_fn(velocity), stb_fn(velocity), fail_fn(velocity)

    return runner


def _simple_table():
    # trot cheap and stable at low speed; trot-run cheap at high speed;
    # bound always fails; walk stable but expensive; run mid
    never = lambda v: False
    return {
        GaitName.WALK: (lambda v: 0.8 + 0.2 * v, lambda v: 0.05, never),
        GaitName.TROT: (lambda v: 0.2 + 0.25 * v, lambda v: 0.05 + 0.01 * v, never),
        GaitName.BOUND: (lambda v: COT_BOUND, lambda v: STB_BOUND, lambda v: True),
        GaitName.RUN: (lambda v: 0.6 - 0.1 * v, lambda v: 0.6 - 0.1 * v, never),
        GaitName.TROT_RUN: (lambda v: 0.55 - 0.12 * v, lambda v: 0.5 - 0.12 * v, never),
    }


def _build(c_values=(0.0, 0.5, 1.0), **kw):
    cfg = MapConfig(v_min=0.3, v_max=2.7, v_step=0.4, c_values=c_values, trials=3,
                    strides=5, **kw)
    return build_map(FLAT, cfg, trial_runner=_synthetic_runner(_simple_table())), cfg


def test_single_candidate_always_selected():
    cfg = MapConfig(v_min=0.3, v_max=0.7, v_step=0.2, c_values=(0.5,), trials=2,
                    strides=3, gaits=(GaitName.TROT,))
    m = build_map(FLAT, cfg, trial_runner=_synthetic_runner(_simple_table()))
    for i in range(3):
        assert m.cells[("flat", 0.5, i)].gait is GaitName.TROT


def test_argmin_matches_hand_computation():
    m, cfg = _build()
    table = _simple_table()
    for c in cfg.c_values:
        for i, v in enumerate(cfg.velocity_grid()):
            expected = min(
                GaitName,
                key=lambda g: c * table[g][1](v) + (1 - c) * table[g][0](v),
            )
            assert m.cells[("flat", c, i)].gait is expected


def test_failed_gait_records_clamped_means():
    m, _ = _build()
    stats = m.gait_table[("flat", int(GaitName.BOUND), 0)]
    assert stats.cot == COT_BOUND
    assert stats.stb == STB_BOUND
    assert stats.successes == 0
    assert stats.trials == 3


def test_all_failing_cell_ties_break_conservatively():
    always = lambda v: True
    table = {
        g: (lambda v: COT_BOUND, lambda v: STB_BOUND, always)
        for g in GaitName
    }
    cfg = MapConfig(v_min=0.5, v_max=0.5, v_step=0.1, c_values=(0.5,), trials=2,
                    strides=3)
    m = build_map(FLAT, cfg, trial_runner=_synthetic_runner(table))
    # equal J_e and success everywhere: duty factor closest to trot, then the
    # enum order, which lands on trot itself
    assert m.cells[("flat", 0.5, 0)].gait is GaitName.TROT
    cell = m.cells[("flat", 0.5, 0)]
    assert (cell.cot, cell.stb) == (COT_BOUND, STB_BOUND)
    assert cell.successes == 0


def test_selection_queries_and_binning():
    m, cfg = _build()
    grid = cfg.velocity_grid()
    # exact bin center
    g0 = m.cells[("flat", 0.5, 1)].gait
    assert select_gait(m, "flat", grid[1], 0.5) is g0
    # round-half-up between bins 1 and 2
    midpoint = 0.5 * (grid[1] + grid[2])
    assert select_gait(m, "flat", midpoint + 1e-9, 0.5) is m.cells[("flat", 0.5, 2)].gait
    # clamped outside the grid
    lo = select_gait(m, "flat", -1.0, 0.5)
    assert lo is m.cells[("flat", 0.5, 0)].gait
    hi = select_gait(m, "flat", 99.0, 0.5)
    assert hi is m.cells[("flat", 0.5, len(grid) - 1)].gait
    with pytest.raises(ValueError):
        select_gait(m, "flat", 1.0, 0.123)
    with pytest.raises(ValueError):
        select_gait(m, "slope12", 1.0, 0.5)


def test_c_zero_matches_cot_only_argmin():
    m, cfg = _build(c_values=(0.0,))
    table = _simple_table()
    for i, v in enumerate(cfg.velocity_grid()):
        by_cot = min(GaitName, key=lambda g: table[g][0](v) if not table[g][2](v) else COT_BOUND)
        assert m.cells[("flat", 0.0, i)].gait is by_cot


def test_map_json_round_trip(tmp_path):
    m, _ = _build()
    path = tmp_path / "map.json"
    m.save(path)
    loaded = VelocityGaitMap.load(path)
    assert loaded.c_values == m.c_values
    assert loaded.v_grids == m.v_grids
    assert set(loaded.cells) == set(m.cells)
    for key in m.cells:
        assert loaded.cells[key].gait is m.cells[key].gait
        assert loaded.cells[key].j_e == m.cells[key].j_e
    # deterministic rebuild produces an identical file
    m2, _ = _build()
    path2 = tmp_path / "map2.json"
    m2.save(path2)
    assert path.read_bytes() == path2.read_bytes()


_DEMO_MAP = Path(__file__).resolve().parent.parent / "maps" / "demo-map.json"


def test_shipped_demo_map_reproduces_its_json_and_csv(tmp_path):
    data = json.loads(_DEMO_MAP.read_text())
    del data["manifest"]
    loaded = VelocityGaitMap.load(_DEMO_MAP)
    assert loaded.to_json_dict() == data
    csv_path = tmp_path / "demo-map.csv"
    loaded.to_csv(csv_path)
    assert csv_path.read_bytes() == _DEMO_MAP.with_suffix(".csv").read_bytes()


def test_cells_are_derived_from_the_gait_table():
    m, _ = _build(c_values=(0.5,))
    key = ("flat", 0.5, 0)
    assert m.cells[key].gait is GaitName.TROT
    with pytest.raises(TypeError):
        m.cells[key] = m.cells[("flat", 0.5, 1)]
    # a walk row better than every other gait there wins the bin
    m.gait_table[("flat", int(GaitName.WALK), 0)] = GaitCellStats(0.01, 0.01, 3, 3)
    assert m.cells[key].gait is GaitName.WALK
    assert m.cell("flat", 0.3, 0.5)[0] == m.cells[key]
    assert m.to_json_dict()["terrains"][0]["cells"][0]["gait"] == "walk"


def test_a_map_with_non_finite_means_loads_back(tmp_path):
    # the load check compares stored and derived cells as JSON text, where
    # NaN equals NaN
    table = {g: (lambda v: math.nan, lambda v: math.inf, lambda v: True) for g in GaitName}
    cfg = MapConfig(v_min=0.5, v_max=0.9, v_step=0.4, c_values=(0.0, 0.5), trials=1,
                    strides=1)
    m = build_map(FLAT, cfg, trial_runner=_synthetic_runner(table))
    path = tmp_path / "map.json"
    m.save(path)
    loaded = VelocityGaitMap.load(path)
    assert json.dumps(loaded.to_json_dict()) == json.dumps(m.to_json_dict())
    assert math.isnan(loaded.cells[("flat", 0.5, 1)].j_e)


def test_map_csv_export(tmp_path):
    m, cfg = _build()
    path = tmp_path / "map.csv"
    m.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "terrain,c,v,gait,j_e,cot,stb,success,trials"
    assert len(lines) == 1 + len(cfg.c_values) * len(cfg.velocity_grid())


def test_success_counts_bounded():
    m, cfg = _build()
    for stats in m.gait_table.values():
        assert 0 <= stats.successes <= stats.trials


def test_selection_change_in_c_implies_order_flip():
    # affine blends: two c values pick different gaits only when the CoT and
    # STB orderings of the two winners disagree (recomputed from the table)
    m, cfg = _build()
    cs = sorted(cfg.c_values)
    for i in range(len(cfg.velocity_grid())):
        for c1, c2 in zip(cs, cs[1:]):
            g1 = m.cells[("flat", c1, i)].gait
            g2 = m.cells[("flat", c2, i)].gait
            if g1 is g2:
                continue
            s1 = m.gait_table[("flat", int(g1), i)]
            s2 = m.gait_table[("flat", int(g2), i)]
            d_cot = s1.cot - s2.cot
            d_stb = s1.stb - s2.stb
            assert d_cot * d_stb <= 0.0


def test_trial_records_keyed_per_trial():
    m, cfg = _build()
    keys = {(r["terrain"], r["gait"], r["v"], r["trial"]) for r in m.trial_records}
    expected = len(GaitName) * len(cfg.velocity_grid()) * cfg.trials
    assert len(m.trial_records) == expected
    assert len(keys) == expected


def test_parallel_build_matches_sequential():
    cfg = MapConfig(v_min=0.5, v_max=1.0, v_step=0.5, c_values=(0.5,), trials=1,
                    strides=3, gaits=(GaitName.TROT, GaitName.WALK))
    seq = build_map(FLAT, cfg, seed=9, jobs=1)
    par = build_map(FLAT, cfg, seed=9, jobs=2)
    assert seq.v_grids == par.v_grids
    for key in seq.cells:
        assert seq.cells[key].gait is par.cells[key].gait
        assert seq.cells[key].j_e == par.cells[key].j_e
    for key in seq.gait_table:
        assert seq.gait_table[key].cot == par.gait_table[key].cot


@pytest.mark.parametrize(
    "gaits, named",
    [((GaitName.TROT, GaitName.TROT), "['trot']"),
     ((GaitName.WALK, GaitName.RUN, GaitName.WALK, GaitName.RUN), "['run', 'walk']")],
    ids=["twice", "two-gaits-twice"],
)
def test_map_config_rejects_a_repeated_gait(gaits, named):
    # build_map would simulate each of the gait's cells twice and keep two
    # trial records under one (terrain, gait, v, trial) key
    with pytest.raises(ValueError, match=re.escape(f"map.gaits holds a gait twice: {named}")):
        MapConfig(gaits=gaits)


def test_map_config_validation():
    # the checks run when the config is built
    with pytest.raises(ValueError):
        MapConfig(gaits=())
    with pytest.raises(ValueError):
        MapConfig(trials=0)
    with pytest.raises(ValueError):
        MapConfig(c_values=(1.5,))
    with pytest.raises(ValueError):
        MapConfig(v_min=2.0, v_max=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(MapConfig(), v_max=3.5)
    for overrides in (
        # trial_outcome would score strides[-1:]
        {"warmup_strides": -1},
        {"warmup_strides": 1.5},
        {"trials": 2.0},
        {"strides": 0},
        # run_trial rejects every cell above its velocity limit
        {"v_max": 3.5},
        {"v_min": -0.1},
        # v_max lies inside the limit, but the grid's last point rounds past it
        {"v_min": 0.3, "v_max": 3.0, "v_step": 0.2},
        {"v_min": math.nan},
    ):
        with pytest.raises(ValueError):
            MapConfig(**overrides)


def test_map_config_grid_may_span_the_whole_command_range():
    cfg = MapConfig(v_min=0.0, v_max=MAX_COMMAND_VELOCITY, v_step=0.5, warmup_strides=0)
    cfg.validate()
    assert cfg.velocity_grid()[-1] == MAX_COMMAND_VELOCITY
    # the same limit run_trial applies to a command
    with pytest.raises(ValueError, match="commanded velocity"):
        run_trial(standard_gait(GaitName.TROT), math.nextafter(MAX_COMMAND_VELOCITY, 4.0),
                  FLAT, 1.2, SimConfig())


def _no_trial(gait, velocity, trial_idx):
    raise AssertionError("build_map must reject the job count before any trial")


@pytest.mark.parametrize("jobs", [0, -1])
def test_build_map_rejects_jobs_below_one(jobs):
    cfg = MapConfig(v_min=0.5, v_max=0.5, c_values=(0.5,), trials=1, strides=1)
    with pytest.raises(ValueError, match="jobs"):
        build_map(FLAT, cfg, trial_runner=_no_trial, jobs=jobs)


def test_merge_maps():
    m1, _ = _build()
    slope = terrain_preset("slope12")
    cfg = MapConfig(v_min=0.3, v_max=2.7, v_step=0.4, c_values=(0.0, 0.5, 1.0),
                    trials=3, strides=5)
    m2 = build_map(slope, cfg, trial_runner=_synthetic_runner(_simple_table()))
    merged = m1.merge(m2)
    assert set(merged.terrain_ids) == {"flat", "slope12"}
    assert select_gait(merged, "slope12", 0.3, 0.5) is not None


def test_merge_rejects_a_terrain_both_maps_cover():
    # a merge of two maps of one terrain would keep one copy of its cells
    # but both copies of its trial records
    m1, _ = _build()
    m2, _ = _build()
    with pytest.raises(ValueError, match="flat"):
        m1.merge(m2)


# -- hysteresis ---------------------------------------------------------------

def _two_zone_map(boundary=1.5):
    """Trot below the boundary, trot-run above, single c=0.5."""
    table = {
        g: (lambda v: 9.9, lambda v: 9.9, lambda v: False) for g in GaitName
    }
    table[GaitName.TROT] = (lambda v: 0.1 if v < boundary else 0.6, lambda v: 0.1, lambda v: False)
    table[GaitName.TROT_RUN] = (lambda v: 0.6 if v < boundary else 0.1, lambda v: 0.1, lambda v: False)
    cfg = MapConfig(v_min=0.3, v_max=2.7, v_step=0.1, c_values=(0.5,), trials=1,
                    strides=1)
    return build_map(FLAT, cfg, trial_runner=_synthetic_runner(table))


def test_hysteresis_suppresses_chatter():
    m = _two_zone_map()
    state = HysteresisState(GaitName.TROT, 1.46, "flat")
    for v in [1.46, 1.54, 1.46, 1.54, 1.46, 1.54]:
        gait, state = select_gait_hysteretic(m, "flat", v, 0.5, state)
        assert gait is GaitName.TROT  # oscillation stays inside the band


def test_hysteresis_single_switch_on_ramp():
    m = _two_zone_map()
    state = HysteresisState(GaitName.TROT, 1.4, "flat")
    switches = 0
    prev = GaitName.TROT
    for v in np.arange(1.4, 1.62, 0.02):
        gait, state = select_gait_hysteretic(m, "flat", float(v), 0.5, state)
        if gait is not prev:
            switches += 1
            prev = gait
    assert prev is GaitName.TROT_RUN
    assert switches == 1


def test_hysteresis_identity_when_selection_matches():
    m = _two_zone_map()
    state = HysteresisState(GaitName.TROT, 1.0, "flat")
    gait, new_state = select_gait_hysteretic(m, "flat", 1.0, 0.5, state)
    assert gait is GaitName.TROT
    assert new_state.anchor_velocity == 1.0


def test_hysteresis_terrain_change_bypasses_band():
    m = _two_zone_map()
    slope_cfg = MapConfig(v_min=0.3, v_max=2.7, v_step=0.1, c_values=(0.5,),
                          trials=1, strides=1)
    table = {g: (lambda v: 9.9, lambda v: 9.9, lambda v: False) for g in GaitName}
    table[GaitName.TROT_RUN] = (lambda v: 0.05, lambda v: 0.05, lambda v: False)
    slope_map = build_map(
        terrain_preset("slope12"), slope_cfg,
        trial_runner=_synthetic_runner(table),
    )
    merged = _two_zone_map().merge(slope_map)
    state = HysteresisState(GaitName.TROT, 1.0, "flat")
    gait, state = select_gait_hysteretic(merged, "slope12", 1.0, 0.5, state)
    assert gait is GaitName.TROT_RUN  # same velocity, new terrain: switch allowed
