"""Full multi-gait strategy execution and the baseline comparison harness.

Three strategy flavors: a fixed gait, a per-velocity fixed gait chosen from a
map at trial start (no in-run switching), and the full multi-gait strategy
that re-selects at stride boundaries from the terrain segment under the body
and fires FSM events to transition while moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .gaits import GaitName, standard_gait
from .io import write_csv
from .mapping import (
    HysteresisState,
    VelocityGaitMap,
    fan_out,
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


# the x [m] where every strategy trial starts, from rest
START_X = 0.0


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


def _check_coverage(strategy: Strategy, terrain: Terrain) -> None:
    """The map of ``strategy`` holds its blend ratio and covers the terrain
    its trials select from."""
    if isinstance(strategy, FixedGait):
        return
    if strategy.c not in strategy.map.c_values:
        raise StrategyError(
            f"c={strategy.c} not present in the map (has {strategy.map.c_values})"
        )
    if isinstance(strategy, PerVelocityFixed):
        start_kind = terrain.segment_at(START_X).kind
        if not strategy.map.covers(start_kind):
            raise StrategyError(f"map does not cover starting terrain {start_kind!r}")
        return
    missing = [k for k in terrain.kinds if not strategy.map.covers(k)]
    if missing:
        raise StrategyError(f"map does not cover terrain segment kinds {missing}")


def _standing_state(terrain: Terrain, sim_cfg: SimConfig,
                    rng: np.random.Generator) -> TrunkState:
    roll, pitch = (rng.uniform(-1.0, 1.0, size=2) * sim_cfg.attitude_jitter).tolist()
    samp = terrain.query(START_X)
    return TrunkState(
        (START_X, 0.0, samp.height + sim_cfg.nominal_height),
        (0.0, 0.0, 0.0),
        (roll, samp.incline + pitch, 0.0),
        (0.0, 0.0, 0.0),
    )


def _single_gait(
    strategy: FixedGait | PerVelocityFixed, terrain: Terrain, v_cmd: float
) -> GaitName:
    """The one gait of a fixed or per-velocity trial: the fixed gait, or the
    map's pick on the start segment at the commanded speed."""
    if isinstance(strategy, FixedGait):
        return strategy.gait
    return select_gait(strategy.map, terrain.segment_at(START_X).kind, v_cmd, strategy.c)


class _StrideLaw:
    """The multi-gait decision of one trial: the gait it starts in and the gait
    it asks for at each stride boundary.

    A trial starts from rest, in the map's pick on the start segment at
    0 m/s. At a boundary it selects, with hysteresis, for the segment under
    the body at the speed measured over the stride just ended, capped at the
    command. The decision reads only the boundary's position and time.
    """

    def __init__(self, strategy: MultiGait, terrain: Terrain, v_cmd: float,
                 sim_cfg: SimConfig) -> None:
        self.strategy, self.terrain, self.v_cmd = strategy, terrain, v_cmd
        start = terrain.query(START_X)
        self.initial = select_gait(strategy.map, start.kind, 0.0, strategy.c)
        self.hyst = HysteresisState(self.initial, 0.0, start.kind)
        self.prev_t = 0.0
        self.prev = (START_X, 0.0, start.height + sim_cfg.nominal_height)

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
            strategy.map, kind, min(v_meas, self.v_cmd), strategy.c, self.hyst
        )
        return desired


def _boundaries(strides) -> tuple[tuple[float, tuple[float, float, float]], ...]:
    """The time and body position at each stride boundary that a stride
    follows: the first row of every stride but the first, which is what
    ``on_stride`` received there. A resumed multi-gait trial replays its law
    over these."""
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
    timing: GaitTimingConfig | None = None,
    resume: TrialCheckpoint | None = None,
    on_stride=None,
) -> TrialResult:
    """Run one full test under a strategy; returns strides plus the event trace.

    Trials begin from rest at x = 0 and finish at ``terrain.course_end``,
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

    ``on_stride`` is handed to :func:`~gaitkit.simulation.run_trial` for a
    fixed or per-velocity trial, to watch its boundaries and ask for
    checkpoints; a multi-gait trial has its own, and one given is a
    ValueError.
    """
    sim_cfg = sim_cfg or SimConfig()
    params = params or RobotParams()
    _check_coverage(strategy, terrain)
    rng = rng if rng is not None else np.random.default_rng(sim_cfg.seed)
    timing = timing or GaitTimingConfig()
    initial_state = None if resume else _standing_state(terrain, sim_cfg, rng)

    if isinstance(strategy, MultiGait):
        if on_stride is not None:
            raise ValueError("a multi-gait trial takes no on_stride")
        law = _StrideLaw(strategy, terrain, v_cmd, sim_cfg)
        fsm = GaitFsm(law.initial, timing)
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
        gait = standard_gait(_single_gait(strategy, terrain, v_cmd), timing.period)

    return run_trial(
        gait, v_cmd, terrain, duration, sim_cfg, params, rng=rng,
        finish_x=terrain.course_end, initial_state=initial_state, on_stride=on_stride,
        resume=resume,
    )


@dataclass
class ComparisonRow:
    """Aggregated outcome of one strategy across paired trials."""

    label: str
    cot: float
    stb: float
    successes: int
    trials: int


def _index_outcomes(
    strategies: Sequence[Strategy],
    terrain: Terrain,
    sim_cfg: SimConfig,
    params: RobotParams,
    seed: int,
    duration: float,
    timing: GaitTimingConfig | None,
    metrics: MetricsConfig,
    velocity: float,
    trial_idx: int,
) -> list[tuple[float, float, bool]]:
    """Default trials of :func:`compare`: the outcome of trial ``trial_idx``
    of every strategy, in listing order, each distinct trial simulated once.

    The fixed and per-velocity trials run first, one per gait. A multi-gait
    trial that starts in one of those gaits is that gait's trial, bit for
    bit, until its stride law asks for a switch. The law is fed each boundary
    of that trial as it runs, and the trial takes a checkpoint where the law
    first asks. If the law never asks before the trial's last stride, it is
    served that trial's outcome (a request on the boundary that ends a trial
    changes nothing); if it first asks at boundary j, it resumes from
    checkpoint j. Any other multi-gait trial runs from rest. A trial keeps
    only the checkpoints resumed from, and only for the call.
    """
    laws = [_StrideLaw(s, terrain, velocity, sim_cfg) if isinstance(s, MultiGait) else None
            for s in strategies]
    gaits = [_single_gait(s, terrain, velocity) if law is None else law.initial
             for s, law in zip(strategies, laws)]
    switches: dict[int, int] = {}  # first switch of each fed law, by position

    def simulate(s: Strategy, resume: TrialCheckpoint | None = None,
                 on_stride=None) -> TrialResult:
        rng = np.random.default_rng((seed, trial_idx, 11))
        return run_strategy(s, terrain, velocity, sim_cfg, params, duration=duration,
                            rng=rng, timing=timing, resume=resume, on_stride=on_stride)

    def shared_trial(s: Strategy, gait: GaitName):
        """The outcome of the trial of ``gait`` and, by stride index, the
        checkpoints the multi-gait trials starting in ``gait`` resume from."""
        served = [k for k, law in enumerate(laws) if law is not None and gaits[k] == gait]

        def on_stride(stride_idx, body, t):
            first = [k for k in served if k not in switches
                     and laws[k].next_gait(body.position, t) != laws[k].initial]
            switches.update(dict.fromkeys(first, stride_idx))
            return first

        result = simulate(s, on_stride=on_stride if served else None)
        # a switch on the boundary that ends the trial, which no stride
        # follows, is no switch
        last = len(result.strides)
        for k in served:
            if switches.get(k) == last:
                del switches[k]
        return trial_outcome(result, terrain, params, metrics), {
            c.stride_idx: c for c in result.checkpoints if c.stride_idx < last
        }

    shared = {}  # (outcome, checkpoints) by gait
    for s, gait, law in zip(strategies, gaits, laws):
        if law is None and gait not in shared:
            shared[gait] = shared_trial(s, gait)
    outcomes = []
    for k, s in enumerate(strategies):
        outcome, checkpoints = shared.get(gaits[k], (None, {}))
        switch = switches.get(k)
        if outcome is None or switch is not None:
            outcome = trial_outcome(simulate(s, checkpoints.get(switch)), terrain, params,
                                    metrics)
        outcomes.append(outcome)
    return outcomes


def _hook_outcomes(trial_hook, strategies, velocity: float, trial_idx: int) -> list:
    """The outcome of trial ``trial_idx`` of every strategy from
    ``trial_hook``, in listing order."""
    return [trial_hook(s, velocity, trial_idx) for s in strategies]


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
    jobs: int = 1,
) -> list[ComparisonRow]:
    """Paired-trial comparison: same velocity and initial-state randomness per
    trial index across all strategies; each trial is scored by
    :func:`~gaitkit.mapping.trial_outcome` and each strategy's trials are
    summarized by :func:`~gaitkit.mapping.summarize_trials`, as in
    :func:`~gaitkit.mapping.build_map`.

    The unit of work is one trial index. Without a hook, trial ``i`` of every
    strategy has the same velocity and random stream, so the trials of an
    index are shared, in any listing order (see :func:`_index_outcomes`):
    each distinct trial is simulated once, and a multi-gait trial that
    switches out of a gait some fixed or per-velocity strategy runs
    simulates only the strides after its first switch. Nothing of an index
    is kept past it. ``jobs`` > 1 runs the indices in that many worker
    processes (:func:`~gaitkit.mapping.fan_out`); every trial is seeded by
    its index, so the rows are the same, bit for bit, for any ``jobs``.

    ``trial_hook(strategy, velocity, trial_idx) -> (cot, stb, failed)`` can be
    injected for synthetic harnesses; with ``jobs`` > 1 it must pickle. Every
    trial starts from rest at x = 0 and finishes at ``course_end``, ahead of
    it. The velocity range must lie in the speeds a trial accepts, low end
    first, every strategy's map must cover the terrain, and ``jobs`` must be
    at least 1; all are checked before the first trial.
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
    if terrain.course_end is not None and terrain.course_end <= START_X:
        raise ValueError(f"terrain course_end {terrain.course_end:g} is not past x = 0")
    for strategy in strategies:
        _check_coverage(strategy, terrain)
    if trial_hook is None:
        index_outcomes = partial(
            _index_outcomes, strategies, terrain, sim_cfg or SimConfig(),
            params or RobotParams(), seed, duration, timing, metrics or MetricsConfig(),
        )
    else:
        index_outcomes = partial(_hook_outcomes, trial_hook, strategies)
    velocities = [float(np.random.default_rng((seed, i, 7)).uniform(v_lo, v_hi))
                  for i in range(trials)]
    outcomes = fan_out(index_outcomes, velocities, range(trials), jobs=jobs)
    rows = []
    for strategy, records in zip(strategies, zip(*outcomes)):
        stats = summarize_trials(records)
        rows.append(ComparisonRow(strategy.label, stats.cot, stats.stb,
                                  stats.successes, stats.trials))
    return rows


def rows_to_csv(rows: list[ComparisonRow], path) -> None:
    write_csv(path, ["strategy", "cot", "stb", "success", "trials"],
              [[row.label, row.cot, row.stb, row.successes, row.trials] for row in rows])
