import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gaitkit import __version__, cli, mapping, strategy
from gaitkit.cli import main
from gaitkit.mapping import MapConfig, build_map
from gaitkit.robot import terrain_preset


def test_unknown_gait_exits_one(tmp_path):
    assert main(["simulate", "--gait", "gallop", "--velocity", "1.0",
                 "--out", str(tmp_path / "o")]) == 1


def test_out_of_range_velocity_exits_one(tmp_path):
    assert main(["simulate", "--gait", "trot", "--velocity", "9.9",
                 "--out", str(tmp_path / "o")]) == 1


def test_bad_subcommand_exits_one(tmp_path):
    assert main(["frobnicate"]) == 1


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--terrain", "flat",
        "--duration", "3", "--out", str(out), "--seed", "4",
    ])
    assert code == 0
    assert (out / "stride_log.csv").exists()
    assert (out / "manifest.json").exists()
    data = json.loads((out / "metrics.json").read_text())
    assert data["gait"] == "trot"
    assert not data["failed"]
    assert len(data["strides"]) >= 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["timestamp"]
    assert "timestamp" not in data["manifest"]


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    flags = ["simulate", "--gait", "trot", "--velocity", "0.8", "--duration", "2.0",
             "--out", str(out), "--seed", "11"]
    assert main(flags) == 0
    first_csv = (out / "stride_log.csv").read_bytes()
    first_json = (out / "metrics.json").read_bytes()
    assert main(flags) == 0
    assert (out / "stride_log.csv").read_bytes() == first_csv
    assert (out / "metrics.json").read_bytes() == first_json


def test_transition_demo_outputs_and_chain(tmp_path):
    out = tmp_path / "demo"
    code = main([
        "transition-demo", "--from", "trot", "--to", "walk", "--velocity", "1.0",
        "--out", str(out), "--seed", "2",
    ])
    assert code == 0
    events = json.loads((out / "events.json").read_text())
    assert events["events"][0]["chain"] == ["a10"]
    windows = events["action_windows"]
    assert len(windows) == 1
    assert windows[0]["end"] - windows[0]["start"] == pytest.approx(0.5, abs=0.01)
    head = (out / "sim_series.csv").read_text().splitlines()[0]
    assert head.split(",") == [
        "time_s", "roll", "pitch", "foot_rf_z", "foot_rh_z", "foot_lf_z",
        "foot_lh_z", "action",
    ]
    trace_head = (out / "transition_trace.csv").read_text().splitlines()[0]
    assert trace_head == "time_s,beta,phi_rf,phi_rh,phi_lf,phi_lh,state,action"


def test_transition_demo_trot_to_run_chain(tmp_path):
    # run is not sustainable in this simulator (exit 2), but the dispatched
    # chain must still follow the table and all files must be written
    out = tmp_path / "demo"
    code = main([
        "transition-demo", "--from", "trot", "--to", "run", "--velocity", "1.2",
        "--out", str(out), "--seed", "2",
    ])
    assert code == 2
    events = json.loads((out / "events.json").read_text())
    assert events["events"][0]["chain"] == ["a12", "a23"]
    assert (out / "sim_series.csv").exists()


def test_transition_demo_runs_a_derived_chain(tmp_path):
    # trot-run -> walk has no direct edge: it runs trot-run -> trot -> walk
    out = tmp_path / "demo"
    assert main(["transition-demo", "--from", "trot-run", "--to", "walk",
                 "--out", str(out)]) == 0
    with open(out / "transition_trace.csv", newline="") as fh:
        actions = [row["action"] for row in csv.DictReader(fh) if row["action"]]
    assert [a for i, a in enumerate(actions) if i == 0 or a != actions[i - 1]] == [
        "a41", "a10"
    ]


@pytest.mark.parametrize("target, code", [("walk", 0), ("run", 2)])
def test_transition_trace_is_the_schedule_that_ran(tmp_path, target, code):
    out = tmp_path / "demo"
    assert main([
        "transition-demo", "--from", "trot", "--to", target, "--velocity", "1.2",
        "--out", str(out), "--seed", "2",
    ]) == code
    with open(out / "transition_trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    with open(out / "sim_series.csv", newline="") as fh:
        series = list(csv.DictReader(fh))
    # one row per simulated step, the step of a fall included, none after it
    assert len(trace) == len(series)
    assert float(trace[-1]["time_s"]) == pytest.approx(float(series[-1]["time_s"]) + 0.002)
    # the switch starts after the stride boundary where it was requested
    event = json.loads((out / "events.json").read_text())["events"][0]
    first = next(row for row in trace if row["action"])
    assert float(first["time_s"]) >= event["time"]
    assert first["action"] == event["chain"][0]


def test_transition_demo_self_is_noop(tmp_path):
    out = tmp_path / "demo"
    assert main([
        "transition-demo", "--from", "trot", "--to", "trot", "--velocity", "1.0",
        "--out", str(out), "--seed", "2",
    ]) == 0
    events = json.loads((out / "events.json").read_text())
    assert events["events"][0]["chain"] == ["a11"]
    assert events["action_windows"] == []


def test_build_map_select_and_compare(tmp_path):
    import time

    map_path = tmp_path / "map.json"
    t0 = time.perf_counter()
    code = main([
        "build-map", "--terrain", "flat", "--v-min", "0.5", "--v-max", "1.0",
        "--v-step", "0.5", "--c", "0.1", "--trials", "1", "--strides", "3",
        "--out", str(map_path), "--csv", str(tmp_path / "map.csv"), "--seed", "5",
    ])
    assert code == 0
    assert time.perf_counter() - t0 < 60.0
    data = json.loads(map_path.read_text())
    block = data["terrains"][0]
    assert block["terrain"] == "flat"
    assert block["c"] == [0.1]
    assert len(block["cells"]) == 2
    assert (tmp_path / "map.csv").read_text().startswith("terrain,c,v,gait")

    code = main(["select", "--map", str(map_path), "--velocity", "0.5", "--c", "0.1"])
    assert code == 0
    # unknown c -> usage error
    assert main(["select", "--map", str(map_path), "--velocity", "0.5", "--c", "0.7"]) == 1


def test_select_prints_gait_and_cell_values(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    assert main([
        "build-map", "--terrain", "flat", "--v-min", "0.5", "--v-max", "0.5",
        "--v-step", "0.5", "--c", "0.1", "--trials", "1", "--strides", "3",
        "--out", str(map_path), "--seed", "5",
    ]) == 0
    assert main(["select", "--map", str(map_path), "--velocity", "0.5",
                 "--c", "0.1"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("trot ")
    assert "J_e=" in printed and "CoT=" in printed and "STB=" in printed

    cmp_path = tmp_path / "cmp.csv"
    code = main([
        "compare", "--terrain", "flat", "--map", str(map_path),
        "--strategy", "fixed:trot", "--strategy", "per-velocity:0.1",
        "--trials", "2", "--v-min", "0.5", "--v-max", "1.0", "--duration", "3",
        "--seed", "3", "--out", str(cmp_path),
    ])
    assert code == 0
    lines = cmp_path.read_text().strip().splitlines()
    assert lines[0] == "strategy,cot,stb,success,trials"
    assert len(lines) == 3


def test_shipped_demo_map_selects_trot_at_low_speed():
    from pathlib import Path

    from gaitkit.mapping import VelocityGaitMap, select_gait
    from gaitkit.gaits import GaitName

    demo = Path(__file__).resolve().parent.parent / "maps" / "demo-map.json"
    m = VelocityGaitMap.load(demo)
    for c in m.c_values:
        assert select_gait(m, "flat", 0.5, c) is GaitName.TROT


def test_compare_requires_map_for_multi(tmp_path):
    assert main([
        "compare", "--terrain", "flat", "--strategy", "multi:0.1",
        "--trials", "1", "--out", str(tmp_path / "c.csv"),
    ]) == 1


def test_config_file_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sim": {"dt": 0.001}, "gait": {"period": 0.5}}))
    out = tmp_path / "run"
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.0", "--duration", "2",
        "--out", str(out), "--seed", "1", "--config", str(cfg_path),
    ]) == 0
    data = json.loads((out / "metrics.json").read_text())
    assert data["strides"][0]["t_f"] == pytest.approx(0.5, abs=1e-6)


def test_config_defined_terrain(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "terrains": {
            "bump": {
                "segments": [
                    {"start_x": -20.0, "incline_deg": 0.0, "kind": "flat"},
                    {"start_x": 2.0, "incline_deg": 5.0, "kind": "slope5"},
                ],
                "end_x": 50.0,
            }
        }
    }))
    out = tmp_path / "run"
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.0", "--terrain", "bump",
        "--duration", "2", "--out", str(out), "--seed", "1",
        "--config", str(cfg_path),
    ]) == 0
    data = json.loads((out / "metrics.json").read_text())
    assert data["terrain"] == "bump"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    segment = {"start_x": -100.0, "friction": 0.1}
    for cfg, terrain, key in [
        ({"sim": {"dtt": 0.001}}, "flat", "dtt"),
        # a misspelled segment or terrain key used to be dropped: the run
        # exited 0 with friction 0.7
        ({"terrains": {"t": {"segments": [{"start_x": -100.0, "frction": 0.1}]}}},
         "t", "frction"),
        ({"terrains": {"t": {"segments": [segment], "endx": 50.0}}}, "t", "endx"),
        # a scalar where a list belongs used to end in a TypeError traceback
        ({"sim": {"kp_lin": 5}}, "flat", "kp_lin"),
        ({"terrains": {"t": {"segments": [segment, {"incline_deg": 5.0}]}}}, "t", "start_x"),
        # a gain list of another length, or a seed that is not an int, used
        # to end in an unpacking or TypeError traceback
        ({"sim": {"kp_lin": [400.0, 400.0]}}, "flat", "sim.kp_lin"),
        ({"sim": {"kd_ang": [8.0, 8.0, 8.0, 8.0]}}, "flat", "sim.kd_ang"),
        ({"sim": {"seed": 1.5}}, "flat", "sim.seed"),
        ({"sim": {"seed": True}}, "flat", "sim.seed"),
    ]:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([
            "simulate", "--gait", "trot", "--velocity", "1.0", "--terrain", terrain,
            "--out", str(tmp_path / "o"), "--config", str(cfg_path),
        ]) == 1, cfg
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and key in err, err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "cfg, terrain",
    [
        ({"terrains": {"slick": {"segments": [{"start_x": -100, "friction": math.nan}]}}},
         "slick"),
        ({"robot": {"mass": math.nan}}, "flat"),
        ({"robot": {"inertia_diag": [0.05, math.nan, 0.18]}}, "flat"),
        # a NaN gravity was scored as a fall (exit 2); a NaN foot mass exited 0
        ({"robot": {"gravity": math.nan}}, "flat"),
        ({"robot": {"foot_mass": math.nan}}, "flat"),
        ({"sim": {"kp_lin": [math.nan, 400.0, 400.0]}}, "flat"),
        # a NaN failure threshold would switch the failure check off
        ({"sim": {"max_roll": math.nan}}, "flat"),
        ({"sim": {"max_pitch": math.nan}}, "flat"),
        ({"sim": {"min_height_ratio": math.nan}}, "flat"),
        # a NaN under a misspelled key was dropped and the run exited 0
        ({"terrains": {"slick": {"segments": [{"start_x": -100, "frction": math.nan}]}}},
         "slick"),
        ({"terrains": {"slick": {"segments": [{"start_x": -100}], "endx": math.nan}}},
         "slick"),
        ({"sim": {"kp_lin": math.nan}}, "flat"),
        ({"terrains": {"slick": {"segments": [{"incline_deg": math.nan}]}}}, "slick"),
    ],
    ids=["friction", "mass", "inertia", "gravity", "foot_mass", "gain", "max_roll",
         "max_pitch", "min_height_ratio", "misspelled-segment-key",
         "misspelled-terrain-key", "scalar-gain", "segment-without-start-x"],
)
def test_nan_in_config_exits_one(tmp_path, capsys, cfg, terrain):
    # json.dumps writes NaN, which json.load accepts
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert "NaN" in cfg_path.read_text()
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--terrain", terrain,
        "--duration", "1.2", "--out", str(tmp_path / "o"), "--config", str(cfg_path),
    ]) == 1
    assert not (tmp_path / "o").exists()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


_EDGE = {"segments": [{"start_x": -100.0}], "end_x": 1000.0}


@pytest.mark.parametrize(
    "command, terrain, key",
    [
        # compare used to exit 0 with 0/1 successes, and simulate to exit 0
        (["compare", "--strategy", "fixed:trot", "--trials", "1"],
         {**_EDGE, "course_end": math.nan}, "course_end"),
        (["compare", "--strategy", "fixed:trot", "--trials", "1"],
         {**_EDGE, "course_end": math.inf}, "course_end"),
        (["compare", "--strategy", "fixed:trot", "--trials", "1"],
         {**_EDGE, "course_end": -5.0}, "course_end"),
        (["compare", "--strategy", "fixed:trot", "--trials", "1"],
         {**_EDGE, "course_end": 2000.0}, "course_end"),
        (["simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2"],
         {**_EDGE, "base_height": math.nan}, "base_height"),
    ],
    ids=["compare-nan-course-end", "compare-inf-course-end", "compare-course-end-behind-start",
         "compare-course-end-past-end", "simulate-nan-base-height"],
)
def test_bad_terrain_extent_exits_one_naming_the_key(tmp_path, monkeypatch, capsys, command,
                                                     terrain, key):
    monkeypatch.setattr(cli, "run_trial", _no_trial)
    monkeypatch.setattr(strategy, "run_trial", _no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"terrains": {"edge": terrain}}))
    assert main(command + ["--terrain", "edge", "--out", str(tmp_path / "o"),
                           "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and key in err, err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "robot, key",
    [
        # an infinite mass passed the load and the run was scored as a fall (exit 2)
        ({"mass": math.inf}, "robot.mass"),
        ({"link_thigh": math.inf}, "robot.link_thigh"),
        ({"link_shank": math.inf}, "robot.link_shank"),
        ({"inertia_diag": [0.05, math.inf, 0.18]}, "robot.inertia_diag"),
        ({"inertia_diag": [0.05, 0.15]}, "robot.inertia_diag"),
    ],
    ids=["inf-mass", "inf-thigh", "inf-shank", "inf-inertia", "two-inertia"],
)
def test_bad_robot_value_exits_one_naming_the_key(tmp_path, capsys, robot, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"robot": robot}))
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
        "--out", str(tmp_path / "o"), "--config", str(cfg_path),
    ]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and key in err, err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_bad_map_c_values_exit_one_before_any_output(tmp_path):
    # simulate reads map.c_values for its per-stride blends; a bad value
    # used to fail only after stride_log.csv was written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": {"c_values": [1.5]}}))
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
        "--out", str(tmp_path / "o"), "--config", str(cfg_path),
    ]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _no_trial(*args, **kwargs):
    raise AssertionError("the command must exit 1 before its first trial")


@pytest.mark.parametrize(
    "section",
    [
        {"weights": [math.nan, 1.0, 1.0, 0.3]},
        {"weights": [-0.1, 1.0, 1.0, 0.3]},
        {"weights": [0.7, 1.0, 1.0]},
        {"weights": [0.7, 1.0, 1.0, 0.3, 0.1]},
        {"cot_bound": math.nan},
        {"stb_bound": 0.0},
        {"cot_bound": math.inf},
    ],
    ids=["nan-weight", "negative-weight", "three-weights", "five-weights",
         "nan-bound", "zero-bound", "inf-bound"],
)
def test_bad_metrics_config_exits_one_before_simulating(tmp_path, monkeypatch, section):
    monkeypatch.setattr(cli, "run_trial", _no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"metrics": section}))
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
        "--out", str(tmp_path / "o"), "--config", str(cfg_path),
    ]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section",
    [
        # each of these ran: a torque limit, force bound or attitude bound at
        # or below zero scored the trial as a fall (exit 2), a negative noise
        # scale failed inside the trial, a negative clamp pinned the error
        {"joint_torque_limit": -5},
        {"joint_torque_limit": 0.0},
        {"f_max_scale": -1},
        {"f_max_scale": 0},
        {"max_roll": -0.1},
        {"max_pitch": -0.1},
        {"min_height_ratio": 0.0},
        {"min_height_ratio": 1.0},
        {"min_height_ratio": 1.5},
        {"touchdown_noise": -0.01},
        {"carrot_clamp": -0.2},
        {"capture_clamp": -0.5},
    ],
    ids=["negative-torque-limit", "zero-torque-limit", "negative-f-max", "zero-f-max",
         "negative-max-roll", "negative-max-pitch", "zero-height-ratio", "unit-height-ratio",
         "large-height-ratio", "negative-noise", "negative-carrot-clamp",
         "negative-capture-clamp"],
)
def test_out_of_domain_sim_value_exits_one_before_simulating(tmp_path, monkeypatch, section):
    monkeypatch.setattr(cli, "run_trial", _no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sim": section}))
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
        "--out", str(tmp_path / "o"), "--config", str(cfg_path),
    ]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "command, gait",
    [
        (["simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2"],
         {"period": math.nan}),
        (["transition-demo", "--from", "trot", "--to", "walk"], {"switch_time": math.nan}),
        (["transition-demo", "--from", "trot", "--to", "walk"], {"dwell_strides": -1}),
        (["transition-demo", "--from", "trot", "--to", "walk"], {"dwell_strides": 1.5}),
    ],
    ids=["nan-period", "nan-switch-time", "negative-dwell", "fractional-dwell"],
)
def test_bad_gait_timing_exits_one_at_load(tmp_path, monkeypatch, command, gait):
    monkeypatch.setattr(cli, "run_trial", _no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gait": gait}))
    assert main(command + ["--out", str(tmp_path / "o"), "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "o").exists()


_BUILD_MAP = ["build-map", "--v-min", "0.5", "--v-max", "0.5", "--c", "0.5",
              "--trials", "1", "--strides", "1"]


_SIMULATE = ["simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2"]


@pytest.mark.parametrize(
    "command, section, message",
    [
        (_SIMULATE, {"warmup_strides": -1}, "warmup_strides"),
        (_SIMULATE, {"v_max": 3.5}, "velocity grid"),
        # build-map used to simulate every cell up to 2.9 m/s and then exit 1
        (["build-map"], {"v_max": 3.5}, "velocity grid"),
        (["build-map"], {"warmup_strides": -1}, "warmup_strides"),
        # simulate used to exit 0 with no blend ratio scored
        (_SIMULATE, {"c_values": []}, "map.c_values"),
        # build-map used to write every map row and cell twice
        (["build-map"], {"c_values": [0.5, 0.5]}, "map.c_values"),
        # build-map used to simulate every cell of the gait twice
        (["build-map"], {"gaits": ["trot", "trot"]}, "map.gaits holds a gait twice: ['trot']"),
    ],
    ids=["simulate-negative-warmup", "simulate-v-max", "build-map-v-max",
         "build-map-negative-warmup", "simulate-empty-c-values", "build-map-repeated-c",
         "build-map-repeated-gait"],
)
def test_bad_map_section_exits_one_at_load(tmp_path, monkeypatch, capsys, command, section,
                                           message):
    monkeypatch.setattr(cli, "run_trial", _no_trial)
    monkeypatch.setattr(mapping, "run_trial", _no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": section}))
    out = tmp_path / "o"
    assert main(command + ["--out", str(out), "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "args",
    [
        ["--v-max", "3.5"],
        ["--jobs", "0"],
        ["--jobs", "-1"],
        ["--c", "0.5"],
    ],
    ids=["v-max-flag", "zero-jobs", "negative-jobs", "repeated-c"],
)
def test_build_map_bad_flag_exits_one_without_output(tmp_path, monkeypatch, args):
    monkeypatch.setattr(mapping, "run_trial", _no_trial)
    out = tmp_path / "maps" / "map.json"
    assert main(_BUILD_MAP + args + ["--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["--v-max", "3.5"], ["--v-min", "-0.2"], ["--v-min", "2.0", "--v-max", "1.0"],
     ["--jobs", "0"], ["--jobs", "-1"]],
    ids=["above-limit", "negative", "reversed", "zero-jobs", "negative-jobs"],
)
def test_compare_bad_velocity_range_exits_one_before_any_trial(tmp_path, monkeypatch, args):
    monkeypatch.setattr(strategy, "run_trial", _no_trial)
    out = tmp_path / "runs" / "comparison.csv"
    assert main(["compare", "--strategy", "fixed:trot", "--trials", "1", *args,
                 "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("duration", ["inf", "nan"])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--gait", "trot", "--velocity", "1.2", "--out"],
     ["compare", "--terrain", "flat", "--strategy", "fixed:trot", "--trials", "2", "--out"]],
    ids=["simulate", "compare"],
)
def test_non_finite_duration_exits_one_without_output(tmp_path, capsys, command, duration):
    # inf used to end in an OverflowError traceback, NaN in "cannot convert
    # float NaN to integer"
    out = tmp_path / "runs" / "out"
    assert main([*command, str(out), "--duration", duration]) == 1
    assert list(tmp_path.iterdir()) == []
    assert "duration" in capsys.readouterr().err


_DEMO_MAP = str(Path(__file__).resolve().parent.parent / "maps" / "demo-map.json")


@pytest.mark.parametrize("velocity", ["inf", "nan"])
def test_select_non_finite_velocity_exits_one_with_a_message(tmp_path, capsys, velocity):
    # inf used to end in an OverflowError traceback, NaN in "cannot convert
    # float NaN to integer"
    assert main(["select", "--map", _DEMO_MAP, "--velocity", velocity, "--c", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert f"velocity must be finite, got {velocity}" in err
    assert list(tmp_path.iterdir()) == []


def test_select_on_a_map_without_terrain_exits_one_with_a_message(tmp_path, capsys):
    # this used to end in an IndexError traceback
    map_path = tmp_path / "empty.json"
    map_path.write_text(json.dumps({"terrains": []}))
    assert main(["select", "--map", str(map_path), "--velocity", "1.0", "--c", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "no terrain" in err, err
    assert "Traceback" not in err


def _terrain_twice(data):
    data["terrains"].append({**data["terrains"][1], "terrain": "flat"})


def _other_c_list(data):
    data["terrains"][1]["c"] = [0.1, 0.5, 0.7]


def _row_off_the_grid(data):
    data["terrains"][0]["gait_table"][0]["v"] = 0.35


def _row_twice(data):
    table = data["terrains"][0]["gait_table"]
    table.append(dict(table[0]))


def _bin_without_a_row(data):
    block = data["terrains"][1]
    block["gait_table"] = [row for row in block["gait_table"] if row["v"] != 1.1]


def _stored_cell_not_the_winner(data):
    # bound's own row there: 0 of 2 successes at the bounds
    data["terrains"][0]["cells"][0]["gait"] = "bound"


def _no_gait_table(data):
    del data["terrains"][0]["gait_table"]


# each edit makes the demo map contradict itself, and names the terrain it
# touches and what the error names besides
_SELF_CONTRADICTING_MAPS = [
    (_terrain_twice, "'flat'", "twice"),
    (_other_c_list, "'slope12'", "[0.1, 0.5, 0.7]"),
    (_row_off_the_grid, "'flat'", "v=0.35"),
    (_row_twice, "'flat'", "walk at v=0.3 twice"),
    (_bin_without_a_row, "'slope12'", "v=1.1"),
    (_stored_cell_not_the_winner, "'flat'", "c=0.1, v=0.3"),
    (_no_gait_table, "'flat'", "no gait_table"),
]
_SELF_CONTRADICTING_IDS = ["terrain-twice", "other-c-list", "row-off-the-grid", "row-twice",
                           "bin-without-a-row", "stored-cell-not-the-winner",
                           "no-gait-table"]


def _edited_demo_map(tmp_path, edit):
    data = json.loads(Path(_DEMO_MAP).read_text())
    edit(data)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("edit, terrain, detail", _SELF_CONTRADICTING_MAPS,
                         ids=_SELF_CONTRADICTING_IDS)
def test_select_rejects_a_map_that_contradicts_itself(tmp_path, capsys, edit, terrain,
                                                      detail):
    # at load: the first three used to answer from the wrong copy or fail at
    # the query with a bare key, and a stored cell was printed as it stood
    map_path = _edited_demo_map(tmp_path, edit)
    assert main(["select", "--map", str(map_path), "--velocity", "0.3", "--c", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and terrain in err and detail in err, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_compare_rejects_a_map_that_contradicts_itself_before_any_trial(tmp_path,
                                                                       monkeypatch, capsys):
    def no_strategy_run(*args, **kwargs):
        raise AssertionError("compare must reject the map before any trial")

    monkeypatch.setattr(strategy, "run_strategy", no_strategy_run)
    map_path = _edited_demo_map(tmp_path, _stored_cell_not_the_winner)
    out = tmp_path / "runs" / "comparison.csv"
    assert main(["compare", "--terrain", "flat-slope", "--map", str(map_path),
                 "--strategy", "multi:0.1", "--trials", "1", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and "'flat'" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json"]


@pytest.mark.parametrize(
    "flag, value",
    [("--v-step", "nan"), ("--v-min", "nan"), ("--v-max", "nan"), ("--v-max", "inf")],
)
def test_build_map_non_finite_grid_exits_one_without_output(
    tmp_path, monkeypatch, capsys, flag, value
):
    monkeypatch.setattr(mapping, "run_trial", _no_trial)
    out = tmp_path / "maps" / "map.json"
    assert main(_BUILD_MAP + [flag, value, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "Traceback" not in err
    assert f"map.{flag[2:].replace('-', '_')} must be finite, got {value}" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_json_strides_keep_their_csv_numbers(tmp_path, monkeypatch):
    # stride 0 covers no distance, so it has no CoT and is left out of the
    # JSON; the strides after it keep the numbers the CSV gives them
    run_trial = cli.run_trial

    def first_stride_standing(*args, **kwargs):
        result = run_trial(*args, **kwargs)
        result.strides[0] = dataclasses.replace(result.strides[0], delta_s=0.0)
        return result

    monkeypatch.setattr(cli, "run_trial", first_stride_standing)
    out = tmp_path / "run"
    assert main([
        "simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
        "--out", str(out), "--seed", "4",
    ]) == 0
    with open(out / "stride_log.csv", newline="") as fh:
        csv_strides = sorted({int(row["stride"]) for row in csv.DictReader(fh)})
    json_strides = [s["stride"] for s in json.loads((out / "metrics.json").read_text())["strides"]]
    assert csv_strides[0] == 0 and len(csv_strides) >= 3
    assert json_strides == csv_strides[1:]


def _build_map_json(tmp_path, name, cfg, jobs):
    cfg_path = tmp_path / f"{name}.cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.json"
    assert main([
        "build-map", "--terrain", "flat", "--v-min", "0.5", "--v-max", "1.0",
        "--v-step", "0.5", "--c", "0.5", "--trials", "1", "--strides", "2",
        "--out", str(out), "--seed", "5", "--jobs", str(jobs),
        "--config", str(cfg_path),
    ]) == 0
    data = json.loads(out.read_text())
    data.pop("manifest")  # records the config path and --jobs
    return json.dumps(data, sort_keys=True)


def test_build_map_honours_config_gait_period(tmp_path):
    small = {"map": {"gaits": ["trot", "walk"], "warmup_strides": 1}}
    default = _build_map_json(tmp_path, "default", small, jobs=1)
    slow = {**small, "gait": {"period": 0.5}}
    serial = _build_map_json(tmp_path, "serial", slow, jobs=1)
    assert serial != default
    assert _build_map_json(tmp_path, "parallel", slow, jobs=2) == serial


def test_compare_jobs_two_writes_the_bytes_of_jobs_one(tmp_path, capsys):
    def run(jobs):
        out = tmp_path / f"jobs-{jobs}.csv"
        assert main([
            "compare", "--terrain", "flat-slope", "--map", _DEMO_MAP,
            "--strategy", "fixed:trot", "--strategy", "fixed:trot-run",
            "--strategy", "per-velocity:0.5", "--strategy", "multi:0.1",
            "--trials", "3", "--v-min", "1.2", "--v-max", "2.0", "--duration", "8",
            "--seed", "99", "--jobs", str(jobs), "--out", str(out),
        ]) == 0
        return out.read_bytes(), capsys.readouterr().out

    serial = run(1)
    assert run(2) == serial
    # some trials finish the course, so the rows hold more than the fall bounds
    with open(tmp_path / "jobs-1.csv", newline="") as fh:
        assert any(int(row["success"]) > 0 for row in csv.DictReader(fh))


def test_compare_honours_config_metrics_weights(tmp_path):
    def run(name, cfg):
        cfg_path = tmp_path / f"{name}.cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"{name}.csv"
        assert main([
            "compare", "--terrain", "flat", "--strategy", "fixed:trot",
            "--trials", "1", "--v-min", "0.8", "--v-max", "1.0", "--duration", "3",
            "--seed", "3", "--out", str(out), "--config", str(cfg_path),
        ]) == 0
        return out.read_text()

    default = run("default", {})
    weighted = run("weighted", {"metrics": {"weights": [2.0, 1.0, 1.0, 0.3]}})
    assert weighted != default
    assert default.splitlines()[1].endswith(",1,1")


def test_compare_exits_one_on_a_programming_error(tmp_path, monkeypatch):
    # a ValueError that is not a trial outcome must not be scored as a fall
    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(strategy, "run_strategy", broken)
    out = tmp_path / "cmp.csv"
    assert main([
        "compare", "--terrain", "flat", "--strategy", "fixed:trot", "--trials", "1",
        "--out", str(out),
    ]) == 1
    assert not out.exists()


def test_compare_rejects_an_uncovered_terrain_before_any_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(strategy, "run_trial", _no_trial)
    map_path = tmp_path / "flat-map.json"
    cfg = MapConfig(v_min=0.5, v_max=0.5, c_values=(0.5,), trials=1, strides=1)
    build_map(terrain_preset("flat"), cfg,
              trial_runner=lambda gait, velocity, i: (0.5, 0.5, False)).save(map_path)
    out = tmp_path / "runs" / "comparison.csv"
    assert main([
        "compare", "--terrain", "flat-slope", "--map", str(map_path),
        "--strategy", "fixed:trot", "--strategy", "multi:0.5", "--trials", "200",
        "--out", str(out),
    ]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flat-map.json"]


@pytest.mark.parametrize(
    "terrains",
    [["flat", "flat"], ["flat", "slope12", "FLAT"]],
    ids=["twice", "case-variant"],
)
def test_build_map_rejects_a_repeated_terrain(tmp_path, monkeypatch, terrains):
    monkeypatch.setattr(mapping, "run_trial", _no_trial)
    out = tmp_path / "maps" / "map.json"
    flags = [flag for name in terrains for flag in ("--terrain", name)]
    assert main(_BUILD_MAP + flags + ["--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
         "--out", "o"],
        ["transition-demo", "--from", "trot", "--to", "walk", "--out", "o"],
        ["build-map", "--out", "o/map.json"],
        ["compare", "--terrain", "flat", "--strategy", "fixed:trot", "--trials", "1",
         "--duration", "1.2", "--out", "o/comparison.csv"],
    ],
    ids=["simulate", "transition-demo", "build-map", "compare"],
)
def test_manifest_records_the_config_seed(tmp_path, monkeypatch, command):
    # with no --seed the run uses the config's seed, and its manifests say so
    monkeypatch.chdir(tmp_path)
    small_map = {"v_min": 0.5, "v_max": 0.5, "c_values": [0.5], "trials": 1,
                 "strides": 1, "warmup_strides": 1, "gaits": ["trot"]}
    (tmp_path / "cfg.json").write_text(json.dumps({"sim": {"seed": 5}, "map": small_map}))
    assert main(command + ["--config", "cfg.json"]) == 0
    manifests = []
    for path in sorted((tmp_path / "o").glob("*.json")):
        data = json.loads(path.read_text())
        manifests.append(data.get("manifest", data))
    # compare embeds no manifest in its CSV; every other command does in its JSON
    assert len(manifests) == (1 if command[0] == "compare" else 2)
    assert [m["seed"] for m in manifests] == [5] * len(manifests)


def test_the_package_version_is_read_from_gaitkit():
    # one version string: pyproject.toml names none of its own, so the
    # package metadata and the manifests' version cannot disagree
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    sections = re.split(r"^(\[[^\]\n]+\])$", pyproject, flags=re.M)
    tables = dict(zip(sections[1::2], sections[2::2]))
    assert not re.search(r"^version\s*=", tables["[project]"], re.M)
    assert re.search(r'^dynamic = \[[^\]]*"version"', tables["[project]"], re.M)
    assert re.search(r'^version = \{ ?attr = "gaitkit\.__version__" ?\}$',
                     tables["[tool.setuptools.dynamic]"], re.M)


def test_module_entry_point_is_the_console_script(tmp_path):
    # pyproject.toml installs main as the gaitkit command; python -m runs the
    # same main in a fresh interpreter, as the installed command does
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\ngaitkit = "gaitkit\.cli:main"$',
                     pyproject, re.M)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def gaitkit(*args):
        return subprocess.run([sys.executable, "-m", "gaitkit.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    version = gaitkit("--version")
    assert (version.returncode, version.stdout.strip()) == (0, __version__)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sim": {"kp_lin": 5}}))
    out = tmp_path / "o"
    bad = gaitkit("simulate", "--gait", "trot", "--velocity", "1.2", "--duration", "1.2",
                  "--out", str(out), "--config", str(cfg_path))
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert bad.stderr == "error: sim.kp_lin must be a list, got 5\n"
    assert not out.exists()
