"""Command-line entry point.

Subcommands: simulate, transition-demo, build-map, select, compare.
Exit codes: 0 success, 1 usage or configuration error, 2 the simulated robot
failed (outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ToolkitConfig, load_config
from .gaits import GaitName, standard_gait
from .io import RunManifest, stride_logs_to_csv, stride_summary, write_csv, write_json
from .mapping import VelocityGaitMap, build_map
from .metrics import UndefinedDisplacementError, stride_metrics
from .simulation import run_trial
from .strategy import (
    FixedGait,
    MultiGait,
    PerVelocityFixed,
    compare,
    rows_to_csv,
)
from .transitions import (
    TRANSITION_TABLE,
    GaitFsm,
    write_transition_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIM_FAILURE = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        raise CliError(message)


def _manifest(args, cfg: ToolkitConfig, command: str, outputs: list[str]) -> RunManifest:
    """The run's provenance; ``seed`` is the seed in effect, from ``--seed``
    or else from the config file."""
    arg_dict = {
        k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
    }
    return RunManifest(
        command=command,
        args={k: str(v) for k, v in arg_dict.items()},
        config_path=getattr(args, "config", None),
        seed=cfg.sim.seed,
        outputs=outputs,
        version=__version__,
    ).stamped()


def _sim_config(cfg: ToolkitConfig, args) -> ToolkitConfig:
    sim = cfg.sim
    if getattr(args, "seed", None) is not None:
        sim = dataclasses.replace(sim, seed=args.seed)
    if getattr(args, "dt", None) is not None:
        sim = dataclasses.replace(sim, dt=args.dt)
    return dataclasses.replace(cfg, sim=sim)


def cmd_simulate(args) -> int:
    cfg = _sim_config(load_config(args.config), args)
    gait = GaitName.parse(args.gait)
    terrain = cfg.terrain(args.terrain)
    pattern = standard_gait(gait, cfg.gait.period)
    rng = np.random.default_rng((cfg.sim.seed, 0))
    result = run_trial(
        pattern, args.velocity, terrain, args.duration, cfg.sim, cfg.robot, rng=rng
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "stride_log.csv"
    json_path = out / "metrics.json"
    stride_logs_to_csv(result.strides, csv_path)

    metrics_list = []
    for log in result.strides:
        try:
            metrics_list.append(
                stride_metrics(log, terrain, cfg.robot, cfg.metrics, cfg.map.c_values)
            )
        except UndefinedDisplacementError:
            metrics_list.append(None)

    manifest = _manifest(args, cfg, "simulate", [str(csv_path), str(json_path)])
    summary = stride_summary(result.strides, metrics_list)
    summary["failed"] = result.failed
    summary["v_cmd"] = args.velocity
    summary["gait"] = gait.label
    summary["terrain"] = args.terrain
    summary["manifest"] = manifest.embed_dict()
    write_json(summary, json_path)
    manifest.write(out / "manifest.json")
    return EXIT_SIM_FAILURE if result.failed else EXIT_OK


class _TracedFsm(GaitFsm):
    """A gait machine that keeps the parameter schedule it ran: one row of
    (time, pattern, current gait, active action id or "") per advance."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace: list = []

    def advance(self, dt: float):
        pattern = super().advance(dt)
        self.trace.append((self.time, pattern, self.current, self.active_action or ""))
        return pattern


def cmd_transition_demo(args) -> int:
    cfg = _sim_config(load_config(args.config), args)
    source = GaitName.parse(args.from_gait)
    target = GaitName.parse(args.to_gait)
    period = cfg.gait.period
    chain = TRANSITION_TABLE[(source, target)]
    settle = 2  # steady strides before and after the switch
    chain_time = len(chain) * (
        cfg.gait.switch_time + cfg.gait.dwell_strides * period
    )
    duration = (2 * settle) * period + chain_time + period

    fsm = _TracedFsm(source, cfg.gait)

    def on_stride(stride_idx, body, t):
        if stride_idx == settle:
            fsm.request(target)

    terrain = cfg.terrain("flat")
    rng = np.random.default_rng((cfg.sim.seed, 1))
    result = run_trial(
        fsm, args.velocity, terrain, duration, cfg.sim, cfg.robot, rng=rng,
        on_stride=on_stride,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series_path = out / "sim_series.csv"
    trace_path = out / "transition_trace.csv"
    events_path = out / "events.json"
    _write_demo_series(result, series_path)
    write_transition_trace(trace_path, fsm.trace)

    manifest = _manifest(
        args, cfg, "transition-demo",
        [str(series_path), str(trace_path), str(events_path)],
    )
    write_json(
        {
            "events": [
                {
                    "time": e.time,
                    "from": e.source.label,
                    "to": e.target.label,
                    "chain": list(e.chain),
                }
                for e in result.events
            ],
            "action_windows": [
                {"action": w.action, "start": w.start, "end": w.end}
                for w in result.action_windows
            ],
            "failed": result.failed,
            "manifest": manifest.embed_dict(),
        },
        events_path,
    )
    manifest.write(out / "manifest.json")
    return EXIT_SIM_FAILURE if result.failed else EXIT_OK


def _write_demo_series(result, path) -> None:
    windows = result.action_windows
    rows = []
    for log in result.strides:
        feet = log.foot_positions[:, :, 2].tolist()
        for t, (roll, pitch, _), z in zip(log.time.tolist(), log.euler.tolist(), feet):
            action = next((w.action for w in windows if w.start <= t <= w.end), "")
            rows.append([t, roll, pitch, *z, action])
    write_csv(
        path,
        ["time_s", "roll", "pitch", "foot_rf_z", "foot_rh_z", "foot_lf_z", "foot_lh_z",
         "action"],
        rows,
    )


def cmd_build_map(args) -> int:
    cfg = _sim_config(load_config(args.config), args)
    terrains = [cfg.terrain(t) for t in (args.terrain or ["flat"])]
    names = [terrain.name for terrain in terrains]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliError(f"terrain repeated in --terrain: {', '.join(repeated)}")
    # each flag named after a map field overrides it; repeated --c flags fill c_values
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cfg.map)
        if getattr(args, f.name, None) is not None
    }
    if args.c:
        overrides["c_values"] = tuple(args.c)
    map_cfg = dataclasses.replace(cfg.map, **overrides)

    result = None
    for terrain in terrains:
        built = build_map(
            terrain, map_cfg, cfg.sim, cfg.robot, seed=cfg.sim.seed, jobs=args.jobs,
            timing=cfg.gait, metrics=cfg.metrics,
        )
        result = built if result is None else result.merge(built)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    outputs = [str(out)] + ([args.csv] if args.csv else [])
    if args.trial_log:
        outputs.append(args.trial_log)
    manifest = _manifest(args, cfg, "build-map", outputs)
    data = result.to_json_dict()
    data["manifest"] = manifest.embed_dict()
    write_json(data, out)
    if args.csv:
        result.to_csv(args.csv)
    if args.trial_log:
        write_json({"records": result.trial_records,
                    "manifest": manifest.embed_dict()}, args.trial_log)
    manifest.write(out.with_suffix(".manifest.json"))
    return EXIT_OK


def cmd_select(args) -> int:
    map_ = VelocityGaitMap.load(args.map)
    terrain_id = args.terrain or map_.terrain_ids[0]
    cell, clamped = map_.cell(terrain_id, args.velocity, args.c)
    note = "  (velocity clamped to grid edge)" if clamped else ""
    print(
        f"{cell.gait.label} J_e={cell.j_e:.4f} CoT={cell.cot:.4f} "
        f"STB={cell.stb:.4f}{note}"
    )
    return EXIT_OK


def _parse_strategy(spec: str, map_: VelocityGaitMap | None):
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "fixed":
        return FixedGait(GaitName.parse(rest))
    value = rest.split("=")[-1]
    if kind in ("per-velocity", "pervelocity"):
        if map_ is None:
            raise CliError(f"strategy {spec!r} needs --map")
        return PerVelocityFixed(map_, float(value))
    if kind == "multi":
        if map_ is None:
            raise CliError(f"strategy {spec!r} needs --map")
        return MultiGait(map_, float(value))
    raise CliError(f"unknown strategy spec: {spec!r}")


def cmd_compare(args) -> int:
    cfg = _sim_config(load_config(args.config), args)
    terrain = cfg.terrain(args.terrain)
    map_ = VelocityGaitMap.load(args.map) if args.map else None
    strategies = [_parse_strategy(s, map_) for s in args.strategy]
    rows = compare(
        strategies,
        terrain,
        args.trials,
        (args.v_min, args.v_max),
        cfg.sim.seed,
        cfg.sim,
        cfg.robot,
        duration=args.duration,
        timing=cfg.gait,
        metrics=cfg.metrics,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows_to_csv(rows, out)
    manifest = _manifest(args, cfg, "compare", [str(out)])
    manifest.write(out.with_suffix(".manifest.json"))
    for row in rows:
        print(
            f"{row.label}: CoT={row.cot:.3f} STB={row.stb:.3f} "
            f"success={row.successes}/{row.trials}"
        )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gaitkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the flags of every command that simulates
    run = _Parser(add_help=False)
    run.add_argument("--seed", type=int)
    run.add_argument("--dt", type=float)
    run.add_argument("--config")

    p = sub.add_parser("simulate", parents=[run], help="run one steady-gait trial")
    p.add_argument("--gait", required=True)
    p.add_argument("--velocity", type=float, required=True)
    p.add_argument("--terrain", default="flat")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transition-demo", parents=[run],
                       help="switch gaits mid-run and log foot heights")
    p.add_argument("--from", dest="from_gait", required=True)
    p.add_argument("--to", dest="to_gait", required=True)
    p.add_argument("--velocity", type=float, default=1.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transition_demo)

    p = sub.add_parser("build-map", parents=[run],
                       help="sweep gaits x velocities into a gait map")
    p.add_argument("--terrain", action="append",
                   help="terrain preset; repeat to merge several into one map")
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--v-step", type=float)
    p.add_argument("--c", type=float, action="append")
    p.add_argument("--trials", type=int)
    p.add_argument("--strides", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trial-log", help="write per-trial metric records as JSON")
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("select", help="query a gait map")
    p.add_argument("--map", required=True)
    p.add_argument("--velocity", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--terrain")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compare", parents=[run], help="paired-trial strategy comparison")
    p.add_argument("--terrain", default="flat-slope")
    p.add_argument("--map")
    p.add_argument("--strategy", action="append", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--v-min", type=float, default=0.3)
    p.add_argument("--v-max", type=float, default=2.7)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each takes whole trial indices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
