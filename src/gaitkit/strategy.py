"""Full multi-gait strategy execution and the baseline comparison harness.

Three strategy flavors: a fixed gait, a per-velocity fixed gait chosen from a
map at trial start (no in-run switching), and the full multi-gait strategy
that re-selects at stride boundaries from the terrain segment under the body
and fires FSM events to transition while moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

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
from .simulation import (
    MAX_COMMAND_VELOCITY,
    SimConfig,
    TrialCheckpoint,
    TrialResult,
    TrunkState,
    run_trial,
)
from .transitions import GaitFsm, GaitTimingConfig


# the speed margin [m/s] a multi-gait trial's hysteretic selection keeps
# before it leaves the gait it is in
HYSTERESIS_BAND = 0.1


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


def _single_gait(
    strategy: FixedGait | PerVelocityFixed, terrain: Terrain, v_cmd: float, start_x: float
) -> GaitName:
    """The one gait of a fixed or per-velocity trial: the fixed gait, or the
    map's pick on the start segment at the commanded speed."""
    if isinstance(strategy, FixedGait):
        return strategy.gait
    return select_gait(strategy.map, terrain.segment_at(start_x).kind, v_cmd, strategy.c)


class _StrideLaw:
    """The multi-gait decision of one trial: the gait it starts in and the gait
    it asks for at each stride boundary.

    A trial starts from rest, in the map's pick on the start segment at
    0 m/s. At a boundary it selects, with hysteresis, for the segment under
    the body at the speed measured over the stride just ended, capped at the
    command. The decision reads only the boundary's position and time.
    """

    def __init__(self, strategy: MultiGait, terrain: Terrain, v_cmd: float,
                 sim_cfg: SimConfig, start_x: float = 0.0) -> None:
        self.strategy, self.terrain, self.v_cmd = strategy, terrain, v_cmd
        start_kind = terrain.segment_at(start_x).kind
        self.initial = select_gait(strategy.map, start_kind, 0.0, strategy.c)
        self.hyst = HysteresisState(self.initial, 0.0, start_kind)
        self.prev_t = 0.0
        self.prev = (start_x, 0.0, terrain.query(start_x).height + sim_cfg.nominal_height)

    def next_gait(self, position, t: float) -> GaitName:
        """The gait wanted at the boundary reached at ``position`` (three
        floats) and time ``t``."""
        dt = t - self.prev_t
        v_meas = (
            float(np.linalg.norm(np.subtract(position, self.prev)) / dt) if dt > 0 else 0.0
        )
        self.prev_t, self.prev = t, position
        terrain, strategy = self.terrain, self.strategy
        kind = terrain.segment_at(min(max(position[0], terrain.start_x), terrain.end_x)).kind
        desired, self.hyst = select_gait_hysteretic(
            strategy.map, kind, min(v_meas, self.v_cmd), strategy.c, self.hyst,
            HYSTERESIS_BAND,
        )
        return desired


def _boundaries(strides) -> tuple[tuple[float, tuple[float, float, float]], ...]:
    """The time and body position at each stride boundary that a stride
    follows: the first row of every stride but the first, which is what
    ``on_stride`` received there."""
    return tuple((float(s.time[0]), tuple(s.position[0].tolist())) for s in strides[1:])


def _first_switch(law: _StrideLaw, boundaries) -> int | None:
    """The index of the first of ``boundaries`` (counted from 1, the index of
    the stride that starts there) at which ``law`` asks to leave its start
    gait; None if it never does."""
    for j, (t, position) in enumerate(boundaries, 1):
        if law.next_gait(position, t) != law.initial:
            return j
    return None


def run_strategy(
    strategy: Strategy,
    terrain: Terrain,
    v_cmd: float,
    sim_cfg: SimConfig | None = None,
    params: RobotParams | None = None,
    *,
    duration: float = 30.0,
    rng: np.random.Generator | None = None,
    start_x: float = 0.0,
    finish_x: float | None = None,
    timing: GaitTimingConfig | None = None,
    resume: TrialCheckpoint | None = None,
) -> TrialResult:
    """Run one full test under a strategy; returns strides plus the event trace.

    Trials begin from rest (the speed command then forces the robot forward),
    with ``rng`` jitter on roll and pitch; without ``rng`` the stream is
    seeded by ``sim_cfg.seed``, as in :func:`run_trial`. The multi-gait
    strategy re-selects at stride boundaries from the measured stride speed
    and the terrain segment under the body, so it walks the gait graph as the
    robot accelerates and the terrain changes.

    ``resume`` continues the trial from a checkpoint of a trial in the same
    gait (see :func:`~gaitkit.simulation.run_trial`). A multi-gait trial may
    resume at a boundary up to which it holds its start gait: its stride law
    is replayed over the earlier boundaries, and its machine starts idle in
    that gait with its clock at the checkpoint's time; a law that asks to
    leave the gait before the checkpoint is a ValueError.
    """
    sim_cfg = sim_cfg or SimConfig()
    params = params or RobotParams()
    _check_coverage(strategy, terrain, start_x)
    if finish_x is None:
        finish_x = terrain.course_end
    rng = rng if rng is not None else np.random.default_rng(sim_cfg.seed)
    timing = timing or GaitTimingConfig()
    period = timing.period
    initial_state = None if resume else _standing_state(terrain, start_x, sim_cfg, rng)

    if isinstance(strategy, MultiGait):
        law = _StrideLaw(strategy, terrain, v_cmd, sim_cfg, start_x)
        fsm = GaitFsm(law.initial, period=period, switch_time=timing.switch_time,
                      dwell_strides=timing.dwell_strides)
        if resume is not None:
            if _first_switch(law, _boundaries(resume.strides)) is not None:
                raise ValueError("the stride law leaves its start gait before the checkpoint")
            fsm.time = resume.t

        def on_stride(stride_idx, body, t):
            desired = law.next_gait(body.position, t)
            if desired != fsm.current and not fsm.busy:
                fsm.request(desired)

        gait = fsm
    else:
        gait = standard_gait(_single_gait(strategy, terrain, v_cmd, start_x), period)
        on_stride = None

    return run_trial(
        gait, v_cmd, terrain, duration, sim_cfg, params,
        rng=rng, start_x=start_x, finish_x=finish_x,
        initial_state=initial_state, on_stride=on_stride, resume=resume,
    )


@dataclass
class ComparisonRow:
    """Aggregated outcome of one strategy across paired trials."""

    label: str
    cot: float
    stb: float
    successes: int
    trials: int


class _SharedTrial(NamedTuple):
    """What :func:`compare` keeps of a trial that ran one gait throughout:
    its outcome, the time and body position at each stride boundary that a
    later stride starts from, and its checkpoints at the boundaries where a
    multi-gait strategy listed later first asks to switch, by stride index."""

    outcome: tuple[float, float, bool]
    boundaries: tuple[tuple[float, tuple[float, float, float]], ...]
    checkpoints: dict[int, TrialCheckpoint]


def _strategy_trial(
    terrain: Terrain,
    sim_cfg: SimConfig,
    params: RobotParams,
    seed: int,
    duration: float,
    timing: GaitTimingConfig | None,
    metrics: MetricsConfig,
    shared: dict[tuple[int, GaitName], _SharedTrial],
    strategy: Strategy,
    velocity: float,
    trial_idx: int,
    *,
    strategies: Sequence[Strategy] = (),
) -> tuple[float, float, bool]:
    """Default trial of :func:`compare`: one simulated trial, seeded by its
    index, unless ``shared`` already holds the same trial or its start.

    ``shared`` maps (trial index, gait) to a trial that ran that gait
    throughout. A fixed or per-velocity trial is that trial. So is a
    multi-gait trial that starts in the gait and whose stride law, replayed
    over the shared boundaries, asks for no switch: until it asks, its state
    is the shared trial's, bit for bit. A boundary that ends a trial has no
    stride after it, so no request made there can change the outcome. A
    multi-gait trial that first asks at boundary j resumes from the shared
    trial's checkpoint j. ``strategies`` are the strategies of the call, in
    order: a trial kept in ``shared`` keeps the checkpoints that the
    multi-gait strategies listed after ``strategy`` resume from.
    """
    if isinstance(strategy, MultiGait):
        law = _StrideLaw(strategy, terrain, velocity, sim_cfg)
        gait = law.initial
    else:
        law = None
        gait = _single_gait(strategy, terrain, velocity, 0.0)
    entry = shared.get((trial_idx, gait))
    resume = None
    if entry is not None:
        switch = None if law is None else _first_switch(law, entry.boundaries)
        if switch is None:
            return entry.outcome
        resume = entry.checkpoints.get(switch)
    rng = np.random.default_rng((seed, trial_idx, 11))
    result = run_strategy(strategy, terrain, velocity, sim_cfg, params,
                          duration=duration, rng=rng, timing=timing, resume=resume)
    outcome = trial_outcome(result, terrain, params, metrics)
    if not result.events:
        boundaries = _boundaries(result.strides)
        later = next((strategies[i + 1:] for i, s in enumerate(strategies) if s is strategy), ())
        laws = [_StrideLaw(s, terrain, velocity, sim_cfg)
                for s in later if isinstance(s, MultiGait)]
        wanted = {_first_switch(other, boundaries) for other in laws if other.initial == gait}
        shared[trial_idx, gait] = _SharedTrial(outcome, boundaries, {
            c.stride_idx: c for c in result.checkpoints if c.stride_idx in wanted
        })
    return outcome


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

    Without a hook, each distinct trial is simulated once per call. Trial
    ``i`` of every strategy has the same velocity and random stream, so a
    per-velocity trial is the trial of the fixed gait it picks, and a
    multi-gait trial that never asks for a switch is the trial of the gait it
    starts in; such trials are served, to the last bit, from the same trial
    already run by another strategy, in whichever order the strategies are
    listed. A multi-gait trial that would switch resumes from that trial at
    the boundary of its first switch, so only the strides after it are
    simulated (when a strategy listed earlier ran the trial).

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
            seed, duration, timing, metrics or MetricsConfig(), {}, strategies=strategies,
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
