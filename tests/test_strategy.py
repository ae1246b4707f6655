import dataclasses
import gc
import itertools
import math
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gaitkit import simulation, strategy
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.mapping import MapConfig, VelocityGaitMap, build_map
from gaitkit.metrics import COT_BOUND, STB_BOUND, MetricsConfig
from gaitkit.robot import RobotParams, Terrain, TerrainSegment, terrain_preset
from gaitkit.simulation import SimConfig, run_trial
from gaitkit.strategy import (
    ComparisonRow,
    FixedGait,
    MultiGait,
    PerVelocityFixed,
    StrategyError,
    compare,
    rows_to_csv,
    run_strategy,
    trial_outcome,
)
from gaitkit.transitions import TRANSITION_TABLE

QUIET = dataclasses.replace(
    SimConfig(), attitude_jitter=0.0, velocity_jitter=0.0, touchdown_noise=0.0
)


def _map_selecting(selection, c_values=(0.1, 0.5, 0.9)):
    """Build a map over given terrains where `selection[kind]` always wins."""
    merged = None
    for kind, winner in selection.items():
        # a map is keyed by its terrain's name
        terrain = dataclasses.replace(terrain_preset("flat"), name=kind)

        def runner(gait, velocity, trial_idx, _winner=winner):
            if gait is _winner:
                return 0.05, 0.05, False
            return 0.9, 0.9, False

        cfg = MapConfig(v_min=0.3, v_max=2.7, v_step=0.3, c_values=c_values,
                        trials=1, strides=1)
        m = build_map(terrain, cfg, trial_runner=runner)
        merged = m if merged is None else merged.merge(m)
    return merged


def test_fixed_gait_no_events():
    terrain = terrain_preset("flat")
    res = run_strategy(
        FixedGait(GaitName.TROT), terrain, 1.0, QUIET, duration=2.0,
    )
    assert res.events == []
    assert not res.failed


def _flat_slope_finishing_at(x):
    """flat-slope (slope12 from x = 3) with its finish line at ``x``."""
    return dataclasses.replace(terrain_preset("flat-slope"), course_end=x)


def test_multigait_terrain_switch_fires_table_chain():
    terrain = _flat_slope_finishing_at(5.0)
    m = _map_selecting({"flat": GaitName.TROT, "slope12": GaitName.TROT_RUN})
    strategy = MultiGait(m, 0.1)
    res = run_strategy(strategy, terrain, 1.8, QUIET, duration=12.0)
    chains = [e.chain for e in res.events]
    assert chains.count(("a14",)) == 1
    assert not res.failed
    assert res.finished_course


def test_run_to_trotrun_selection_chain_matches_table():
    # the flat-selects-run / slope-selects-trot-run scenario, checked at the
    # dispatch level (the desk simulator cannot keep the run gait upright)
    from gaitkit.transitions import GaitFsm
    from gaitkit.mapping import HysteresisState, select_gait_hysteretic

    m = _map_selecting({"flat": GaitName.RUN, "slope12": GaitName.TROT_RUN})
    fsm = GaitFsm(GaitName.RUN)
    state = HysteresisState(GaitName.RUN, 1.8, "flat")
    dispatched = []
    for kind in ["flat", "flat", "slope12", "slope12", "slope12"]:
        desired, state = select_gait_hysteretic(m, kind, 1.8, 0.1, state)
        if desired is not fsm.current and not fsm.busy:
            fsm.request(desired)
            dispatched.append(fsm.events[-1].chain)
        for _ in range(2000):
            fsm.advance(0.001)
    assert dispatched == [("a32", "a21", "a14")]
    assert fsm.current is GaitName.TROT_RUN


def test_run_strategy_seeds_from_the_sim_config():
    # without an rng the standing start's jitter comes from sim_cfg.seed
    terrain = terrain_preset("flat")
    starts = [
        run_strategy(FixedGait(GaitName.TROT), terrain, 1.0, SimConfig(seed=seed),
                     duration=1.2).strides[0].euler[0].tolist()
        for seed in (5, 6, 5)
    ]
    assert starts[0] != starts[1]
    assert starts[0] == starts[2]


def test_multigait_uniform_map_never_switches():
    terrain = _flat_slope_finishing_at(5.0)
    m = _map_selecting({"flat": GaitName.TROT, "slope12": GaitName.TROT})
    res = run_strategy(MultiGait(m, 0.5), terrain, 1.2, QUIET, duration=10.0)
    assert res.events == []


def test_multigait_requires_full_coverage():
    terrain = terrain_preset("flat-slope")
    m = _map_selecting({"flat": GaitName.TROT})  # slope12 missing
    with pytest.raises(StrategyError):
        run_strategy(MultiGait(m, 0.5), terrain, 1.0, QUIET, duration=4.0)


def test_per_velocity_fixed_checks_the_terrain_at_its_start(monkeypatch):
    # slope12 turns to flat at x = 3: a trial from x = 0 selects on slope12
    terrain = Terrain("slope-flat", (
        TerrainSegment(-100.0, math.radians(12.0), 0.7, "slope12"),
        TerrainSegment(3.0, 0.0, 0.7, "flat"),
    ))
    ran = []
    monkeypatch.setattr(strategy, "run_trial", lambda gait, *args, **kwargs: ran.append(gait))
    slope_only = _map_selecting({"slope12": GaitName.TROT})
    run_strategy(PerVelocityFixed(slope_only, 0.5), terrain, 0.5, QUIET)
    assert ran == [standard_gait(GaitName.TROT)]
    flat_only = _map_selecting({"flat": GaitName.TROT})
    with pytest.raises(StrategyError, match="slope12"):
        run_strategy(PerVelocityFixed(flat_only, 0.5), terrain, 0.5, QUIET)
    assert len(ran) == 1


def test_per_velocity_fixed_selects_once():
    terrain = terrain_preset("flat-slope")
    m = _map_selecting({"flat": GaitName.WALK, "slope12": GaitName.TROT_RUN})
    res = run_strategy(
        PerVelocityFixed(m, 0.5), terrain, 0.5, QUIET, duration=4.0,
    )
    assert res.events == []  # never switches even across the join


def test_event_chains_replay_against_table():
    terrain = _flat_slope_finishing_at(5.0)
    m = _map_selecting({"flat": GaitName.RUN, "slope12": GaitName.TROT_RUN})
    res = run_strategy(MultiGait(m, 0.1), terrain, 1.8, QUIET, duration=12.0)
    for event in res.events:
        assert TRANSITION_TABLE[(event.source, event.target)] == event.chain


def _synthetic_hook(cot_by_strategy):
    def hook(strategy, velocity, trial_idx):
        c, s = cot_by_strategy[strategy.label]
        return c, s, False

    return hook


def test_compare_paired_rows_identical_for_identical_strategies():
    terrain = terrain_preset("flat")
    rows = compare(
        [FixedGait(GaitName.TROT), FixedGait(GaitName.TROT)],
        terrain,
        trials=2,
        velocity_range=(0.3, 1.0),
        seed=11,
        sim_cfg=QUIET,
        duration=4.0,
    )
    assert rows[0].cot == rows[1].cot
    assert rows[0].stb == rows[1].stb
    assert rows[0].successes == rows[1].successes


def test_compare_deterministic_rerun():
    terrain = terrain_preset("flat")
    kwargs = dict(
        trials=2, velocity_range=(0.3, 1.0), seed=7, sim_cfg=QUIET, duration=4.0,
    )
    a = compare([FixedGait(GaitName.TROT)], terrain, **kwargs)
    b = compare([FixedGait(GaitName.TROT)], terrain, **kwargs)
    assert a == b


def test_compare_clamped_metrics_within_bounds():
    terrain = terrain_preset("flat")
    rows = compare(
        [FixedGait(GaitName.BOUND)],  # fails everywhere -> clamped rows
        terrain,
        trials=2,
        velocity_range=(0.5, 1.5),
        seed=3,
        sim_cfg=QUIET,
        duration=4.0,
    )
    assert rows[0].cot == pytest.approx(COT_BOUND)
    assert rows[0].stb == pytest.approx(STB_BOUND)
    assert rows[0].successes == 0


def test_multigait_c0_minimizes_cot_on_synthetic_harness():
    # by construction the multi-gait argmin at c=0 beats every fixed gait;
    # the map must hold c=0, or compare rejects the strategy
    terrain = terrain_preset("flat")
    hooks = {
        "fixed:trot": (0.5, 0.1),
        "fixed:walk": (0.8, 0.1),
        "multi:c=0": (0.3, 0.4),
    }
    rows = compare(
        [FixedGait(GaitName.TROT), FixedGait(GaitName.WALK),
         MultiGait(_map_selecting({"flat": GaitName.TROT}, c_values=(0.0, 0.5, 1.0)), 0.0)],
        terrain,
        trials=4,
        velocity_range=(0.3, 2.7),
        seed=1,
        trial_hook=_synthetic_hook(hooks),
    )
    multi = next(r for r in rows if r.label == "multi:c=0")
    for row in rows:
        assert multi.cot <= row.cot + 1e-12


@pytest.mark.parametrize(
    "velocity_range",
    [(0.3, 3.5), (-0.1, 1.0), (1.5, 1.0), (float("nan"), 1.0)],
    ids=["above-limit", "negative", "reversed", "nan"],
)
def test_compare_rejects_a_velocity_range_before_its_first_trial(velocity_range):
    def no_trial(strategy, velocity, trial_idx):
        raise AssertionError("compare must check its velocity range before any trial")

    with pytest.raises(ValueError, match="velocity range"):
        compare([FixedGait(GaitName.TROT)], terrain_preset("flat"), trials=2,
                velocity_range=velocity_range, trial_hook=no_trial)


def test_compare_checks_map_coverage_before_its_first_trial():
    # the flat-only map cannot serve the slope segment, so not even the
    # fixed:trot trials listed before multi:c=0.5 may run
    calls = []

    def hook(strategy, velocity, trial_idx):
        calls.append(strategy.label)
        raise AssertionError("compare must check map coverage before any trial")

    flat_only = _map_selecting({"flat": GaitName.TROT})
    with pytest.raises(StrategyError, match="slope12"):
        compare([FixedGait(GaitName.TROT), MultiGait(flat_only, 0.5)],
                terrain_preset("flat-slope"), trials=10, trial_hook=hook)
    assert calls == []


def test_rows_to_csv_layout(tmp_path):
    rows = [
        ComparisonRow("fixed:trot", 0.383, 0.145, 29, 30),
        ComparisonRow("multi:c=0.5", 0.330, 0.118, 30, 30),
    ]
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "strategy,cot,stb,success,trials"
    assert lines[1].startswith("fixed:trot,0.383,0.145,29,30")
    assert len(lines) == 3


def test_trial_outcome_failure_clamps():
    from gaitkit.robot import RobotParams

    class FakeResult:
        failed = True
        finished_course = False
        strides = []

    cot_v, stb_v, failed = trial_outcome(FakeResult(), terrain_preset("flat"), RobotParams())
    assert failed
    assert cot_v == COT_BOUND
    assert stb_v == STB_BOUND
    bounds = MetricsConfig(cot_bound=2.0, stb_bound=3.0)
    assert trial_outcome(FakeResult(), terrain_preset("flat"), RobotParams(),
                         bounds) == (2.0, 3.0, True)


def test_trial_outcome_scores_at_most_strides_usable_strides():
    from gaitkit.robot import RobotParams
    from gaitkit.metrics import stride_metrics

    terrain = terrain_preset("flat")
    res = run_trial(standard_gait(GaitName.TROT), 0.9, terrain, 3.0, QUIET,
                    rng=np.random.default_rng(1))
    assert not res.failed and res.finished_course
    first = next(s for s in res.strides[3:] if s.complete)
    expected = stride_metrics(first, terrain, RobotParams())
    cot_v, stb_v, failed = trial_outcome(res, terrain, RobotParams(), strides=1)
    assert not failed
    assert (cot_v, stb_v) == (expected.cot, expected.stb)
    assert trial_outcome(res, terrain, RobotParams())[:2] != (cot_v, stb_v)
    missed = dataclasses.replace(res, finished_course=False)
    assert trial_outcome(missed, terrain, RobotParams()) == (COT_BOUND, STB_BOUND, True)


def test_compare_on_terrain_without_course_end_scores_survivors():
    # flat has no finish line: a trial that survives its duration succeeds
    rows = compare([FixedGait(GaitName.TROT)], terrain_preset("flat"), 2, (0.8, 1.0),
                   seed=3, duration=3.0)
    assert rows[0].successes == 2
    assert rows[0].cot < COT_BOUND and rows[0].stb < STB_BOUND


def _standing_still(delta_s):
    """A finished flat trot trial whose every stride covered ``delta_s`` metres."""
    res = run_trial(standard_gait(GaitName.TROT), 1.0, terrain_preset("flat"), 2.0, QUIET)
    assert not res.failed and res.finished_course
    strides = [dataclasses.replace(s, delta_s=delta_s) for s in res.strides]
    return dataclasses.replace(res, strides=strides)


@pytest.mark.parametrize("delta_s", [0.0, 1e-3])
def test_trial_outcome_scores_a_trial_without_displacement_as_a_fall(delta_s):
    # no displacement, no CoT: the trial scores the configured bounds
    res = _standing_still(delta_s)
    bounds = MetricsConfig(cot_bound=2.0, stb_bound=3.0)
    assert trial_outcome(res, terrain_preset("flat"), RobotParams(), bounds,
                         warmup_strides=0) == (2.0, 3.0, True)


def test_compare_scores_undefined_displacement_as_a_fall(monkeypatch):
    # a trial without displacement has no CoT; it scores the configured bounds
    standing = _standing_still(0.0)
    monkeypatch.setattr(strategy, "run_strategy", lambda *args, **kwargs: standing)
    rows = compare([FixedGait(GaitName.TROT)], terrain_preset("flat"), 2, (0.8, 1.0),
                   metrics=MetricsConfig(cot_bound=2.0, stb_bound=3.0))
    assert (rows[0].cot, rows[0].stb, rows[0].successes) == (2.0, 3.0, 0)


def test_compare_propagates_other_value_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(strategy, "run_strategy", broken)
    with pytest.raises(ValueError, match="a programming error"):
        compare([FixedGait(GaitName.TROT)], terrain_preset("flat"), 1, (0.8, 1.0))


@pytest.mark.parametrize("flavor", [PerVelocityFixed, MultiGait], ids=["per-velocity", "multi"])
def test_compare_rejects_a_blend_ratio_missing_from_the_map_before_any_trial(
    monkeypatch, flavor
):
    # the map holds c = 0.1, 0.5 and 0.9; not even the fixed:trot trials
    # listed first may run
    calls = []
    monkeypatch.setattr(strategy, "run_strategy", lambda *args, **kwargs: calls.append(args))
    m = _map_selecting({"flat": GaitName.TROT})
    with pytest.raises(StrategyError, match="c=0.3 not present"):
        compare([FixedGait(GaitName.TROT), flavor(m, 0.3)], terrain_preset("flat"), 10)
    assert calls == []


# -- trials shared across strategies ------------------------------------------

DEMO_MAP = Path(__file__).resolve().parent.parent / "maps" / "demo-map.json"
SHARED_BANDS = {"1.62-1.68": (1.62, 1.68), "0.3-0.9": (0.3, 0.9)}
SHARED_SEED = 5


def _acceptance_strategies():
    demo = VelocityGaitMap.load(DEMO_MAP)
    return [
        FixedGait(GaitName.TROT), FixedGait(GaitName.TROT_RUN), PerVelocityFixed(demo, 0.5),
        MultiGait(demo, 0.1), MultiGait(demo, 0.5), MultiGait(demo, 0.9),
    ]


def _row_bits(row):
    return row.label, float.hex(row.cot), float.hex(row.stb), row.successes, row.trials


@pytest.fixture(scope="module", params=list(SHARED_BANDS))
def unshared_rows(request):
    """The acceptance strategies' rows on flat-slope with every (strategy,
    trial) simulated and scored by a hook of their own."""
    band = SHARED_BANDS[request.param]
    terrain, params = terrain_preset("flat-slope"), RobotParams()

    def every_trial(s, velocity, trial_idx):
        rng = np.random.default_rng((SHARED_SEED, trial_idx, 11))
        result = run_strategy(s, terrain, velocity, SimConfig(), params, rng=rng)
        return trial_outcome(result, terrain, params)

    rows = compare(_acceptance_strategies(), terrain, 2, band, seed=SHARED_SEED,
                   trial_hook=every_trial)
    return band, {row.label: _row_bits(row) for row in rows}


@pytest.mark.parametrize("order", ["acceptance", "reversed", "listed-twice"])
def test_compare_shares_trials_and_keeps_the_rows_of_the_unshared_path(
    monkeypatch, unshared_rows, order
):
    # a fixed, per-velocity or switch-free multi-gait trial is served from the
    # same trial of another strategy, in either listing order, bit for bit
    band, want = unshared_rows
    runs = []
    run = strategy.run_strategy
    monkeypatch.setattr(strategy, "run_strategy",
                        lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))
    strategies = _acceptance_strategies()
    listed = {
        "acceptance": strategies,
        "reversed": strategies[::-1],
        "listed-twice": [strategies[5], *strategies],
    }[order]
    rows = compare(listed, terrain_preset("flat-slope"), 2, band, seed=SHARED_SEED)
    assert [_row_bits(row) for row in rows] == [want[s.label] for s in listed]
    assert len(runs) < 2 * len(listed)


def test_compare_simulates_each_distinct_trial_once(monkeypatch):
    # per-velocity:0.5 picks trot-run and multi:0.9 keeps trot, so both are
    # served; multi:0.1 and multi:0.5 start in trot but switch, so they run
    # from the fixed:trot trial's checkpoint at their first switch
    runs = []
    run = strategy.run_strategy
    steps = []
    integrate = simulation.step
    monkeypatch.setattr(simulation, "step",
                        lambda *args, **kwargs: steps.append(1) or integrate(*args, **kwargs))

    def counted(s, terrain, velocity, *args, **kwargs):
        before = len(steps)
        result = run(s, terrain, velocity, *args, **kwargs)
        rows = sum(len(stride.time) for stride in result.strides)
        runs.append((s.label, velocity, [e.source for e in result.events],
                     len(steps) - before, rows))
        return result

    monkeypatch.setattr(strategy, "run_strategy", counted)
    compare(_acceptance_strategies(), terrain_preset("flat-slope"), 2,
            SHARED_BANDS["1.62-1.68"], seed=SHARED_SEED)
    assert sorted(Counter(velocity for _, velocity, *_ in runs).values()) == [4, 4]
    by_label = Counter(label for label, *_ in runs)
    assert by_label == {"fixed:trot": 2, "fixed:trot-run": 2, "multi:c=0.1": 2,
                        "multi:c=0.5": 2}
    # fixed:trot ran first, yet each multi:0.1 trial left trot and was simulated
    assert [sources for label, _, sources, *_ in runs if label == "multi:c=0.1"] == [
        [GaitName.TROT], [GaitName.TROT]
    ]
    # a trial logs one row per step: a fixed trial integrates every one, and
    # a switching multi-gait trial all but the 200 of each stride before its
    # first switch, at the first (multi:0.1) or second (multi:0.5) boundary
    skipped = {"fixed:trot": 0, "fixed:trot-run": 0, "multi:c=0.1": 200, "multi:c=0.5": 400}
    assert all(rows - stepped == skipped[label] for label, _, _, stepped, rows in runs)



def _synthetic_outcome(s, velocity, trial_idx):
    """A trial hook that pickles: a made-up outcome from the strategy's
    label, the velocity and the trial index."""
    return len(s.label) * velocity, 0.1 * trial_idx, trial_idx % 3 == 0


@pytest.mark.parametrize("hook", [None, _synthetic_outcome], ids=["simulated", "hook"])
def test_compare_rows_are_the_same_for_any_number_of_jobs(hook):
    # the worker processes take whole trial indices and return their
    # outcomes in index order
    def rows(jobs):
        return [_row_bits(row) for row in compare(
            _acceptance_strategies(), terrain_preset("flat-slope"), 3, (0.3, 2.7),
            seed=SHARED_SEED, trial_hook=hook, jobs=jobs)]

    serial = rows(1)
    assert rows(2) == serial
    assert any(successes for _, _, _, successes, _ in serial)


def _index_outcomes(listed, velocity, trial_idx):
    """The default outcomes of one trial index of a flat-slope comparison."""
    return strategy._index_outcomes(
        listed, terrain_preset("flat-slope"), SimConfig(), RobotParams(), SHARED_SEED, 30.0,
        None, MetricsConfig(), velocity, trial_idx,
    )


def test_a_served_multi_gait_law_is_fed_the_boundaries_on_stride_receives(monkeypatch):
    # multi:0.9 keeps trot, so it is served from the fixed:trot trial; its law
    # is fed the time and position of every boundary as that trial runs, and
    # the trial, asked for no checkpoint, keeps none
    seen, fed, results = [], [], []
    trial = strategy.run_trial
    next_gait = strategy._StrideLaw.next_gait

    def recording(*args, on_stride, **kwargs):
        def watched(idx, body, t):
            seen.append((t, body.position))
            return on_stride(idx, body, t)

        results.append(trial(*args, on_stride=watched, **kwargs))
        return results[-1]

    monkeypatch.setattr(strategy, "run_trial", recording)
    monkeypatch.setattr(strategy._StrideLaw, "next_gait", lambda law, position, t: (
        fed.append((t, position)) or next_gait(law, position, t)))
    strategies = _acceptance_strategies()
    served, shared = _index_outcomes([strategies[5], strategies[0]], 1.65, 0)
    assert served == shared
    assert len(fed) >= 5
    assert fed == seen
    assert [result.checkpoints for result in results] == [[]]


# -- multi-gait trials resumed at their first switch ----------------------------

def _assert_same_result(got, want, resumed_at):
    """Every field of two results of one trial, the strides byte for byte;
    ``got`` resumed at stride boundary ``resumed_at`` and holds only the
    checkpoints of the boundaries after it."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "strides":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                for f in dataclasses.fields(y):
                    u, v = getattr(x, f.name), getattr(y, f.name)
                    if isinstance(v, np.ndarray):
                        assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes())
                    else:
                        assert u == v, f.name
        elif field.name == "checkpoints":
            assert [(c.stride_idx, c.steps, c.t, c.state) for c in a] == [
                (c.stride_idx, c.steps, c.t, c.state) for c in b if c.stride_idx > resumed_at]
        else:
            assert a == b, field.name


def _resume_case(terrain_name, band, trial_idx):
    """The terrain, velocity, map and fixed start-gait trial of one compare
    trial; the demo map gains winners for the other segment kinds of
    continuous-slope and up-down-slope (trot-run on slope8)."""
    terrain = terrain_preset(terrain_name)
    demo = VelocityGaitMap.load(DEMO_MAP).merge(_map_selecting(
        {"slope8": GaitName.TROT_RUN, "slope18": GaitName.TROT, "down12": GaitName.TROT}))
    velocity = float(np.random.default_rng((SHARED_SEED, trial_idx, 7)).uniform(*band))
    start = run_strategy(FixedGait(GaitName.TROT), terrain, velocity, SimConfig(),
                         rng=np.random.default_rng((SHARED_SEED, trial_idx, 11)),
                         on_stride=lambda idx, body, t: True)
    return terrain, velocity, demo, start


# on flat-slope no trial of the 0.3-0.9 band leaves trot; on continuous-slope
# it switches at slope8, at the fifth boundary; trial 2 on up-down-slope falls
@pytest.mark.parametrize("terrain_name, band, trial_idx", [
    ("flat-slope", "1.62-1.68", 0),
    ("continuous-slope", "0.3-0.9", 1),
    ("continuous-slope", "1.62-1.68", 0),
    ("up-down-slope", "1.62-1.68", 2),
])
@pytest.mark.parametrize("c", [0.1, 0.5])
def test_a_multi_gait_trial_resumed_at_its_first_switch_is_the_trial_from_rest(
    terrain_name, band, trial_idx, c
):
    terrain, velocity, demo, start = _resume_case(terrain_name, SHARED_BANDS[band], trial_idx)
    multi = MultiGait(demo, c)
    law = strategy._StrideLaw(multi, terrain, velocity, SimConfig())
    assert law.initial is GaitName.TROT
    j = strategy._first_switch(law, strategy._boundaries(start.strides))
    assert j is not None
    checkpoint = start.checkpoints[j - 1]
    assert checkpoint.stride_idx == j

    def trial(resume=None):
        return run_strategy(multi, terrain, velocity, SimConfig(),
                            rng=np.random.default_rng((SHARED_SEED, trial_idx, 11)),
                            resume=resume)

    from_rest = trial()
    assert from_rest.events and from_rest.events[0].time == checkpoint.t
    _assert_same_result(trial(checkpoint), from_rest, j)
    # a checkpoint after the first switch is refused
    with pytest.raises(ValueError, match="before the checkpoint"):
        trial(start.checkpoints[j])


def test_a_multi_gait_trial_resumed_on_its_finish_boundary_is_the_trial_from_rest():
    # multi:0.5 asks to leave trot at the second boundary; with the finish
    # line at the body's x there, the trial ends on that boundary's step, with
    # the request dispatched and no stride after it
    _, velocity, demo, start = _resume_case("flat-slope", SHARED_BANDS["1.62-1.68"], 0)
    checkpoint = start.checkpoints[1]
    terrain = _flat_slope_finishing_at(checkpoint.state.position[0])
    multi = MultiGait(demo, 0.5)

    def trial(resume=None):
        return run_strategy(multi, terrain, velocity, SimConfig(),
                            rng=np.random.default_rng((SHARED_SEED, 0, 11)),
                            resume=resume)

    from_rest = trial()
    assert from_rest.finished_course and from_rest.end_time == checkpoint.t
    assert [e.time for e in from_rest.events] == [checkpoint.t]
    assert len(from_rest.strides) == 2
    _assert_same_result(trial(checkpoint), from_rest, 2)


def _watch_trials(monkeypatch):
    """Wrap ``strategy.run_strategy``: each call appends, after a garbage
    collection, the velocity, the resumed checkpoint's stride index, and the
    results and checkpoints of the earlier calls still alive."""
    calls, results, checkpoints = [], [], []
    run = strategy.run_strategy

    def watched(s, terrain, velocity, *args, resume=None, **kwargs):
        gc.collect()
        calls.append((velocity, None if resume is None else resume.stride_idx,
                      sum(ref() is not None for ref in results),
                      sorted(c.stride_idx for c in (ref() for ref in checkpoints) if c)))
        result = run(s, terrain, velocity, *args, resume=resume, **kwargs)
        results.append(weakref.ref(result))
        checkpoints.extend(map(weakref.ref, result.checkpoints))
        return result

    monkeypatch.setattr(strategy, "run_strategy", watched)
    return calls


def test_an_index_keeps_only_the_checkpoints_its_multi_gait_trials_resume_from(monkeypatch):
    # multi:0.1 switches at the first boundary and multi:0.5 at the second,
    # so the fixed:trot trial keeps checkpoints 1 and 2 in every listing order
    strategies = _acceptance_strategies()
    fixed_trot, multi_01 = strategies[0], strategies[3]
    calls = _watch_trials(monkeypatch)
    for listed in itertools.permutations([fixed_trot, multi_01, strategies[4]]):
        calls.clear()
        _index_outcomes(listed, 1.65, 0)
        resumed = [1 if s is multi_01 else 2 for s in listed if isinstance(s, MultiGait)]
        assert [(j, alive) for _, j, _, alive in calls] == [
            (None, []), (resumed[0], [1, 2]), (resumed[1], [1, 2])]
    # with no multi-gait strategy, the trials keep no checkpoint
    calls.clear()
    _index_outcomes(strategies[:2], 1.65, 0)
    assert [(j, alive) for _, j, _, alive in calls] == [(None, []), (None, [])]


def test_no_trial_result_or_checkpoint_outlives_its_index(monkeypatch):
    # a result dies before the next trial starts, and the checkpoints of
    # index 0 before the first trial of index 1
    strategies = _acceptance_strategies()
    calls = _watch_trials(monkeypatch)
    compare([strategies[0], strategies[3], strategies[4]], terrain_preset("flat-slope"), 2,
            SHARED_BANDS["1.62-1.68"], seed=SHARED_SEED)
    velocities = [velocity for velocity, *_ in calls]
    assert len(set(velocities)) == 2 and len(calls) == 6
    first_of_index_1 = velocities.index(velocities[-1])
    assert calls[first_of_index_1][3] == []
    assert [results for _, _, results, _ in calls] == [0] * 6


def test_compare_integrates_the_same_steps_in_any_listing_order(monkeypatch):
    # listed before fixed:trot, the multi-gait trials used to run from rest
    steps = []
    integrate = simulation.step
    monkeypatch.setattr(simulation, "step",
                        lambda *args, **kwargs: steps.append(1) or integrate(*args, **kwargs))
    s = _acceptance_strategies()
    counts, rows = [], []
    for listed in ([s[3], s[4], s[0]], [s[0], s[3], s[4]]):
        before = len(steps)
        rows.append({row.label: _row_bits(row) for row in compare(
            listed, terrain_preset("flat-slope"), 4, SHARED_BANDS["1.62-1.68"],
            seed=SHARED_SEED)})
        counts.append(len(steps) - before)
    assert counts[0] == counts[1]
    assert rows[0] == rows[1]
