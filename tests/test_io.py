"""The byte layout of the CSV tables that every command writes through
:func:`gaitkit.io.write_csv`, checked against ``csv.writer`` with an explicit
``repr`` per float cell."""

import csv
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gaitkit.cli import _write_demo_series
from gaitkit.config import config_from_dict
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.mapping import GaitCellStats, TrialOutcome, build_map
from gaitkit.robot import terrain_preset
from gaitkit.strategy import ComparisonRow, rows_to_csv
from gaitkit.transitions import write_transition_trace

NAN, INF = math.nan, math.inf
# cells whose text a float formatter could change
EDGE = (NAN, INF, -INF, -0.0, 1e-05, 1e16, 0.1 + 0.2)
ODD_NAME = 'hill, "north"'


def _reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _map_case(path):
    # integer c values, as a config file gives them
    cfg = config_from_dict({"map": {"c_values": [0, 1], "v_min": 0.5, "v_max": 1.3,
                                    "v_step": 0.4, "trials": 2, "strides": 1,
                                    "gaits": ["trot", "walk"]}})
    assert cfg.map.c_values == (0, 1)
    terrain = dataclasses.replace(terrain_preset("flat"), name=ODD_NAME)
    m = build_map(terrain, cfg.map, trial_runner=lambda gait, velocity, i: TrialOutcome(0.5, 0.5))
    # per-gait means holding the edge floats (a trial mean is never -0.0, so
    # they go into the table); the winners carry them, and their J_e, to the CSV
    for (gait, i), (cot, stb, successes) in {
        (GaitName.TROT, 0): (1e-05, 1e16, 2), (GaitName.WALK, 0): (1e16, -0.0, 0),
        (GaitName.TROT, 1): (INF, 0.1 + 0.2, 2), (GaitName.WALK, 1): (-INF, 1e-05, 0),
        (GaitName.TROT, 2): (NAN, NAN, 0), (GaitName.WALK, 2): (0.1 + 0.2, INF, 2),
    }.items():
        m.gait_table[(ODD_NAME, int(gait), i)] = GaitCellStats(cot, stb, successes, 2)
    m.to_csv(path)
    rows = []
    for c in m.c_values:
        for i, v in enumerate(m.v_grids[ODD_NAME]):
            cell = m.cells[(ODD_NAME, c, i)]
            rows.append([ODD_NAME, repr(c), repr(v), cell.gait.label, repr(cell.j_e),
                         repr(cell.cot), repr(cell.stb), cell.successes, cell.trials])
    return ["terrain", "c", "v", "gait", "j_e", "cot", "stb", "success", "trials"], rows


def _comparison_case(path):
    rows = [
        ComparisonRow("fixed:trot", NAN, INF, 0, 3),
        ComparisonRow(ODD_NAME, -INF, -0.0, 1, 3),
        ComparisonRow("multi:c=0.5", 1e-05, 1e16, 3, 3),
        ComparisonRow("per-velocity:c=0.1", 0.1 + 0.2, 0.383, 2, 3),
    ]
    rows_to_csv(rows, path)
    return (["strategy", "cot", "stb", "success", "trials"],
            [[r.label, repr(r.cot), repr(r.stb), r.successes, r.trials] for r in rows])


def _trace_case(path):
    odd = SimpleNamespace(beta=NAN, offsets=(INF, -INF, -0.0, 1e16))
    rows = [
        (0.0, standard_gait(GaitName.TROT), GaitName.TROT, ""),
        (0.1 + 0.2, odd, GaitName.TROT, "a41"),
        (1e-05, SimpleNamespace(beta=0.1 + 0.2, offsets=(0.5, 0.0, 0.0, 0.5)),
         GaitName.WALK, ODD_NAME),
    ]
    write_transition_trace(path, rows)
    expected = [
        [repr(t), repr(p.beta), repr(p.offsets[0]), repr(p.offsets[1]),
         repr(p.offsets[2]), repr(p.offsets[3]), state.label, action]
        for t, p, state, action in rows
    ]
    return ["time_s", "beta", "phi_rf", "phi_rh", "phi_lf", "phi_lh", "state",
            "action"], expected


def _demo_series_case(path):
    n = len(EDGE)
    time = np.array([0.0, 1e-05, 0.1 + 0.2, 0.5, 1.0, 1e16, 2.0])
    euler = np.array([[v, EDGE[-1 - i], 0.0] for i, v in enumerate(EDGE)])
    feet = np.zeros((n, 4, 3))
    feet[:, :, 2] = np.array([np.roll(EDGE, k)[:4] for k in range(n)])
    log = SimpleNamespace(time=time, euler=euler, foot_positions=feet)
    windows = [SimpleNamespace(action=ODD_NAME, start=1e-05, end=0.5),
               SimpleNamespace(action="a10", start=0.5, end=2.0)]
    _write_demo_series(SimpleNamespace(strides=[log, log], action_windows=windows), path)
    rows = []
    for stride in (log, log):
        for i in range(n):
            t = float(stride.time[i])
            action = next((w.action for w in windows if w.start <= t <= w.end), "")
            rows.append([repr(t), repr(float(stride.euler[i, 0])),
                         repr(float(stride.euler[i, 1]))]
                        + [repr(float(stride.foot_positions[i, k, 2])) for k in range(4)]
                        + [action])
    return ["time_s", "roll", "pitch", "foot_rf_z", "foot_rh_z", "foot_lf_z",
            "foot_lh_z", "action"], rows


@pytest.mark.parametrize(
    "case",
    [_map_case, _comparison_case, _trace_case, _demo_series_case],
    ids=["map", "comparison", "transition-trace", "demo-series"],
)
def test_table_bytes_match_csv_writer_with_repr_cells(tmp_path, case):
    got = tmp_path / "got.csv"
    want = tmp_path / "want.csv"
    header, rows = case(got)
    _reference(want, header, rows)
    data = got.read_bytes()
    assert data == want.read_bytes()
    # the edge cells reached the file
    for text in (b"nan", b"inf", b"-0.0", b"1e-05", b"1e+16", b"0.30000000000000004"):
        assert text in data
    assert b'"hill, ""north"""' in data
