"""Full multi-gait strategy execution and the baseline comparison harness.

Three strategy flavors: a fixed gait, a per-velocity fixed gait chosen from a
map at trial start (no in-run switching), and the full multi-gait strategy
that re-selects at stride boundaries from the terrain segment under the body
and fires FSM events to transition while moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gaits import GaitName, standard_gait
from .io import write_csv
from .mapping import (
    HysteresisState,
    VelocityGaitMap,
    select_gait,
    select_gait_hysteretic,
    summarize_trials,
    trial_outcome,
)
from .metrics import MetricsConfig
from .metrics import stride_metrics  # noqa: F401  (wrapped by perfbench/tracing.py)
from .robot import RobotParams, Terrain
from .simulation import MAX_COMMAND_VELOCITY, SimConfig, TrialResult, TrunkState, run_trial
from .transitions import GaitFsm, GaitTimingConfig


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class FixedGait:
    """Always the same gait, never switching."""

    gait: GaitName

    @property
    def label(self) -> str:
        return f"fixed:{self.gait.label}"


@dataclass(frozen=True)
class PerVelocityFixed:
    """Gait chosen once per trial from the map at the commanded velocity."""

    map: VelocityGaitMap
    c: float

    @property
    def label(self) -> str:
        return f"per-velocity:c={self.c:g}"


@dataclass(frozen=True)
class MultiGait:
    """Terrain-triggered selection with FSM transitions while moving."""

    map: VelocityGaitMap
    c: float
    hysteresis_band: float = 0.1

    @property
    def label(self) -> str:
        return f"multi:c={self.c:g}"


Strategy = FixedGait | PerVelocityFixed | MultiGait


def _check_coverage(strategy: Strategy, terrain: Terrain, start_x: float) -> None:
    """The map of ``strategy`` holds its blend ratio and covers the terrain
    its trials starting at ``start_x`` select from."""
    if isinstance(strategy, FixedGait):
        return
    if strategy.c not in strategy.map.c_values:
        raise StrategyError(
            f"c={strategy.c} not present in the map (has {strategy.map.c_values})"
        )
    if isinstance(strategy, PerVelocityFixed):
        start_kind = terrain.segment_at(start_x).kind
        if not strategy.map.covers(start_kind):
            raise StrategyError(f"map does not cover starting terrain {start_kind!r}")
        return
    missing = [k for k in terrain.kinds if not strategy.map.covers(k)]
    if missing:
        raise StrategyError(f"map does not cover terrain segment kinds {missing}")


def _standing_state(terrain: Terrain, start_x: float, sim_cfg: SimConfig,
                    rng: np.random.Generator) -> TrunkState:
    roll, pitch = (rng.uniform(-1.0, 1.0, size=2) * sim_cfg.attitude_jitter).tolist()
    samp = terrain.query(start_x)
    return TrunkState(
        (start_x, 0.0, samp.height + sim_cfg.nominal_height),
        (0.0, 0.0, 0.0),
        (roll, samp.incline + pitch, 0.0),
        (0.0, 0.0, 0.0),
    )


def run_strategy(
    strategy: Strategy,
    terrain: Terrain,
    v_cmd: float,
    sim_cfg: SimConfig | None = None,
    params: RobotParams | None = None,
    *,
    duration: float = 30.0,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    start_x: float = 0.0,
    finish_x: float | None = None,
    timing: GaitTimingConfig | None = None,
    standing_start: bool = True,
) -> TrialResult:
    """Run one full test under a strategy; returns strides plus the event trace.

    Trials begin from rest by default (the speed command then forces the
    robot forward); the multi-gait strategy re-selects at stride boundaries
    from the measured stride speed and the terrain segment under the body,
    so it walks the gait graph as the robot accelerates and the terrain
    changes.
    """
    sim_cfg = sim_cfg or SimConfig()
    params = params or RobotParams()
    _check_coverage(strategy, terrain, start_x)
    if finish_x is None:
        finish_x = terrain.course_end
    rng = rng if rng is not None else np.random.default_rng(seed)
    timing = timing or GaitTimingConfig()
    period = timing.period
    initial_state = (
        _standing_state(terrain, start_x, sim_cfg, rng) if standing_start else None
    )

    start_kind = terrain.segment_at(start_x).kind
    on_stride = None
    if isinstance(strategy, FixedGait):
        gait = standard_gait(strategy.gait, period)
    elif isinstance(strategy, PerVelocityFixed):
        gait = standard_gait(select_gait(strategy.map, start_kind, v_cmd, strategy.c), period)
    else:
        v0 = 0.0 if standing_start else v_cmd
        initial = select_gait(strategy.map, start_kind, v0, strategy.c)
        fsm = GaitFsm(initial, period=period, switch_time=timing.switch_time,
                      dwell_strides=timing.dwell_strides)
        hyst = HysteresisState(initial, v0, start_kind)
        prev_t = 0.0
        prev = (start_x, 0.0, terrain.query(start_x).height + sim_cfg.nominal_height)

        def on_stride(stride_idx, body, t):
            nonlocal hyst, prev_t, prev
            dt = t - prev_t
            v_meas = (
                float(np.linalg.norm(np.subtract(body.position, prev)) / dt) if dt > 0 else 0.0
            )
            prev_t, prev = t, body.position
            kind = terrain.segment_at(
                min(max(body.position[0], terrain.start_x), terrain.end_x)
            ).kind
            desired, hyst = select_gait_hysteretic(
                strategy.map, kind, min(v_meas, v_cmd), strategy.c, hyst,
                strategy.hysteresis_band,
            )
            if desired != fsm.current and not fsm.busy:
                fsm.request(desired)

        gait = fsm

    return run_trial(
        gait, v_cmd, terrain, duration, sim_cfg, params,
        rng=rng, start_x=start_x, finish_x=finish_x,
        initial_state=initial_state, on_stride=on_stride,
    )


@dataclass
class ComparisonRow:
    """Aggregated outcome of one strategy across paired trials."""

    label: str
    cot: float
    stb: float
    successes: int
    trials: int


def _strategy_trial(
    terrain: Terrain,
    sim_cfg: SimConfig,
    params: RobotParams,
    seed: int,
    duration: float,
    timing: GaitTimingConfig | None,
    metrics: MetricsConfig,
    strategy: Strategy,
    velocity: float,
    trial_idx: int,
) -> tuple[float, float, bool]:
    """Default trial of :func:`compare`: one simulated trial, seeded by its index."""
    rng = np.random.default_rng((seed, trial_idx, 11))
    result = run_strategy(strategy, terrain, velocity, sim_cfg, params,
                          duration=duration, rng=rng, timing=timing)
    return trial_outcome(result, terrain, params, metrics)


def compare(
    strategies: list[Strategy],
    terrain: Terrain,
    trials: int,
    velocity_range: tuple[float, float] = (0.3, 2.7),
    seed: int = 0,
    sim_cfg: SimConfig | None = None,
    params: RobotParams | None = None,
    *,
    duration: float = 30.0,
    trial_hook=None,
    timing: GaitTimingConfig | None = None,
    metrics: MetricsConfig | None = None,
) -> list[ComparisonRow]:
    """Paired-trial comparison: same velocity and initial-state randomness per
    trial index across all strategies; each trial is scored by
    :func:`~gaitkit.mapping.trial_outcome` and each strategy's trials are
    summarized by :func:`~gaitkit.mapping.summarize_trials`, as in
    :func:`~gaitkit.mapping.build_map`.

    ``trial_hook(strategy, velocity, trial_idx) -> (cot, stb, failed)`` can be
    injected for synthetic harnesses. The velocity range must lie in the
    commanded speeds a trial accepts, low end first, and the map of every
    strategy must cover the terrain; both are checked before the first trial.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    v_lo, v_hi = velocity_range
    # NaN fails the test
    if not 0.0 <= v_lo <= v_hi <= MAX_COMMAND_VELOCITY:
        raise ValueError(
            f"velocity range ({v_lo:g}, {v_hi:g}) m/s is not an interval in the "
            f"supported [0, {MAX_COMMAND_VELOCITY:g}] m/s"
        )
    for strategy in strategies:
        _check_coverage(strategy, terrain, 0.0)  # every trial starts at x = 0
    if trial_hook is None:
        trial_hook = partial(
            _strategy_trial, terrain, sim_cfg or SimConfig(), params or RobotParams(),
            seed, duration, timing, metrics or MetricsConfig(),
        )
    velocities = [
        float(np.random.default_rng((seed, i, 7)).uniform(v_lo, v_hi))
        for i in range(trials)
    ]

    rows = []
    for strategy in strategies:
        stats = summarize_trials(
            [trial_hook(strategy, velocity, i) for i, velocity in enumerate(velocities)]
        )
        rows.append(ComparisonRow(strategy.label, stats.cot, stats.stb,
                                  stats.successes, stats.trials))
    return rows


def rows_to_csv(rows: list[ComparisonRow], path) -> None:
    write_csv(path, ["strategy", "cot", "stb", "success", "trials"],
              [[row.label, row.cot, row.stb, row.successes, row.trials] for row in rows])
