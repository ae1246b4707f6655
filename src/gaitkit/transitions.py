"""Gait-parameter schedules for switching and the switching-order FSM.

The gait graph is data: the canonical patterns of :mod:`gaitkit.gaits` and
the neighbour pairs below. Every switch between neighbours is one affine
morph p(tau) = a + tau * (b - a), tau = t / T_s, from the source pattern a to
the target pattern b, applied to the duty factor and to each of the four
offsets over a fixed switching time T_s. The per-edge rates follow from the
canonical values: the duty factor ramps at 1/(4 T_s) between walk and trot
and at 1/(5 T_s) between trot and trot-run and between bound and run, while
phi_RF and phi_RH cross at 1/(2 T_s) between trot and bound. The left legs
hold (phi_LF, phi_LH) = (0.0, 0.5) throughout.

Direct switching between run and trot-run is denied (both are flight gaits).
The graph is a tree, so a five-state FSM sequences any request as the unique
path of at most three of the eight directed actions, with an optional settle
dwell between chain links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .gaits import DEFAULT_PERIOD, GaitName, GaitPattern, standard_gait
from .io import write_csv

DEFAULT_SWITCH_TIME = 0.5  # transition duration T_s [s]
DEFAULT_DWELL_STRIDES = 1

_TIME_EPS = 1e-9


@dataclass(frozen=True)
class GaitTimingConfig:
    """Stride period, switching time T_s and settle dwell of every gait source."""

    period: float = DEFAULT_PERIOD
    switch_time: float = DEFAULT_SWITCH_TIME
    dwell_strides: int = DEFAULT_DWELL_STRIDES

    def __post_init__(self) -> None:
        # comparisons written so that NaN (from a JSON config) is rejected
        if not (0.0 < self.period < math.inf and 0.0 < self.switch_time < math.inf):
            raise ValueError("gait period and switch_time must be positive and finite")
        if type(self.dwell_strides) is not int or self.dwell_strides < 0:
            raise ValueError(f"dwell_strides must be an int >= 0, got {self.dwell_strides!r}")


# Neighbouring gaits switch both ways; self loops are zero-duration no-ops.
_NEIGHBOURS = (
    (GaitName.WALK, GaitName.TROT),
    (GaitName.TROT, GaitName.BOUND),
    (GaitName.BOUND, GaitName.RUN),
    (GaitName.TROT, GaitName.TROT_RUN),
)
_DIRECT_EDGES: frozenset[tuple[GaitName, GaitName]] = frozenset(
    [(g, g) for g in GaitName] + [e for a, b in _NEIGHBOURS for e in ((a, b), (b, a))]
)


@dataclass(frozen=True)
class TransitionAction:
    """One directed edge a_ij of the gait graph with its switching time."""

    id: str
    source: GaitName
    target: GaitName
    duration: float

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target


def transition_action(
    source: GaitName, target: GaitName, duration: float = DEFAULT_SWITCH_TIME
) -> TransitionAction:
    """Build the action for a directed edge; self loops have zero duration."""
    if (source, target) not in _DIRECT_EDGES:
        raise ValueError(
            f"no direct switching action between {source.label} and {target.label}"
        )
    if source == target:
        duration = 0.0
    elif not duration > 0.0:  # NaN fails the test
        raise ValueError(f"switching time must be positive, got {duration}")
    return TransitionAction(
        id=f"a{source.value}{target.value}",
        source=source,
        target=target,
        duration=float(duration),
    )


def action_from_id(edge_id: str, duration: float = DEFAULT_SWITCH_TIME) -> TransitionAction:
    if len(edge_id) != 3 or edge_id[0] != "a":
        raise ValueError(f"malformed action id: {edge_id!r}")
    return transition_action(GaitName(int(edge_id[1])), GaitName(int(edge_id[2])), duration)


def transition_params(
    action: TransitionAction, t: float, period: float = DEFAULT_PERIOD
) -> GaitPattern:
    """Instantaneous gait parameters ``t`` seconds into a switching action.

    Endpoints are exact: t=0 reproduces the source gait and t=duration the
    target gait, bit for bit, because ``b - a`` is exact for the canonical
    values of every pair of neighbours.
    """
    # NaN fails the test
    if not 0.0 <= t <= action.duration:
        raise ValueError(
            f"time {t} outside the switching window [0, {action.duration}]"
        )
    if action.is_self_loop:
        return standard_gait(action.source, period)
    tau = t / action.duration
    a, b = standard_gait(action.source, period), standard_gait(action.target, period)
    return GaitPattern(
        beta=a.beta + tau * (b.beta - a.beta),
        offsets=tuple(x + tau * (y - x) for x, y in zip(a.offsets, b.offsets)),
        period=period,
    )


def _tree_path(
    source: GaitName, target: GaitName, came_from: GaitName | None = None
) -> tuple[str, ...] | None:
    """Action ids from ``source`` to ``target`` without stepping back to
    ``came_from``, or None; the graph is a tree, so a path found is the only one."""
    if source == target:
        return ()
    for a, b in sorted(_DIRECT_EDGES):
        if a == source and b not in (a, came_from):
            rest = _tree_path(b, target, a)
            if rest is not None:
                return (transition_action(a, b).id,) + rest
    return None


# Switching order table: (current state, requested state) -> action chain; a
# request for the current gait runs its self loop.
TRANSITION_TABLE: dict[tuple[GaitName, GaitName], tuple[str, ...]] = {
    (source, target): _tree_path(source, target) or (transition_action(source, source).id,)
    for source in GaitName
    for target in GaitName
}


@dataclass(frozen=True)
class GaitEvent:
    """Request to reach gait state ``target``."""

    target: GaitName


@dataclass(frozen=True)
class FsmState:
    current: GaitName
    queue: tuple[TransitionAction, ...] = ()
    in_progress: tuple[TransitionAction, float] | None = None
    dwell_remaining: float = 0.0

    @property
    def busy(self) -> bool:
        return (
            self.in_progress is not None
            or bool(self.queue)
            or self.dwell_remaining > _TIME_EPS
        )


def initial_state(gait: GaitName) -> FsmState:
    return FsmState(current=gait)


def fsm_dispatch(
    state: FsmState, event: GaitEvent, switch_time: float = DEFAULT_SWITCH_TIME
) -> FsmState:
    """Queue the table-driven action chain for ``event`` from an idle state.

    Events arriving while a chain is active must be deferred by the caller
    (see :class:`GaitFsm`), so dispatching from a busy state is an error.
    """
    if state.busy:
        raise ValueError("cannot dispatch while a transition chain is active")
    ids = TRANSITION_TABLE[(state.current, event.target)]
    actions = tuple(action_from_id(i, switch_time) for i in ids)
    return FsmState(current=state.current, queue=actions)


def advance(
    state: FsmState,
    dt: float,
    *,
    period: float = DEFAULT_PERIOD,
    dwell_strides: int = DEFAULT_DWELL_STRIDES,
) -> tuple[FsmState, GaitPattern]:
    """Progress the machine by ``dt``; returns the new state and the pattern
    in effect at the end of the step.

    Completing an action sets ``current`` to its target; if more actions are
    queued, the machine dwells for ``dwell_strides`` full strides at the
    intermediate gait before starting the next link.
    """
    if not dt > 0.0:  # NaN fails the test
        raise ValueError(f"dt must be positive, got {dt}")
    remaining = dt
    while True:
        if state.in_progress is not None:
            action, elapsed = state.in_progress
            left = action.duration - elapsed
            if remaining < left - _TIME_EPS:
                elapsed += remaining
                state = replace(state, in_progress=(action, elapsed))
                return state, transition_params(action, elapsed, period)
            remaining = max(0.0, remaining - left)
            dwell = dwell_strides * period if state.queue else 0.0
            state = replace(
                state, current=action.target, in_progress=None, dwell_remaining=dwell
            )
        elif state.dwell_remaining > _TIME_EPS:
            if remaining < state.dwell_remaining - _TIME_EPS:
                state = replace(state, dwell_remaining=state.dwell_remaining - remaining)
                break
            remaining = max(0.0, remaining - state.dwell_remaining)
            state = replace(state, dwell_remaining=0.0)
        elif state.queue:
            state = replace(state, queue=state.queue[1:], in_progress=(state.queue[0], 0.0))
            continue
        else:
            break
        # a finished action or dwell that used up the step ends it
        if remaining <= _TIME_EPS:
            break
    return state, standard_gait(state.current, period)


@dataclass
class EventRecord:
    """One dispatched switching request and the chain it produced."""

    time: float
    source: GaitName
    target: GaitName
    chain: tuple[str, ...]


@dataclass
class ActionWindow:
    """Execution interval of one chain link, for plot annotation."""

    action: str
    start: float
    end: float


class GaitFsm:
    """Stateful gait machine: owns an FsmState, its :class:`GaitTimingConfig`
    (checked when that is built), and a log.

    A request made while a chain is running is remembered and dispatched
    automatically once the machine returns to idle, from whatever state it
    landed in.
    """

    def __init__(
        self, initial: GaitName = GaitName.TROT, timing: GaitTimingConfig = GaitTimingConfig()
    ) -> None:
        self.state = initial_state(initial)
        self.timing = timing
        self.time = 0.0
        self.pending: GaitName | None = None
        self.events: list[EventRecord] = []
        self.action_windows: list[ActionWindow] = []

    @property
    def current(self) -> GaitName:
        return self.state.current

    @property
    def busy(self) -> bool:
        return self.state.busy

    @property
    def active_action(self) -> str | None:
        if self.state.in_progress is not None:
            return self.state.in_progress[0].id
        return None

    def request(self, target: GaitName) -> bool:
        """Dispatch a switching request, or defer it if a chain is running.

        Returns True when the event was dispatched immediately.
        """
        if self.state.busy:
            self.pending = target
            return False
        self._dispatch(target)
        return True

    def _dispatch(self, target: GaitName) -> None:
        source = self.state.current
        self.state = fsm_dispatch(self.state, GaitEvent(target), self.timing.switch_time)
        chain = tuple(action.id for action in self.state.queue)
        self.events.append(EventRecord(self.time, source, target, chain))

    def advance(self, dt: float) -> GaitPattern:
        before = self.active_action
        self.state, pattern = advance(self.state, dt, period=self.timing.period,
                                      dwell_strides=self.timing.dwell_strides)
        self.time += dt
        after = self.active_action
        # one action runs at a time, so its window is the last one appended
        if before is not None:
            self.action_windows[-1].end = self.time
        if after is not None and after != before:
            self.action_windows.append(ActionWindow(after, self.time, self.time))
        if not self.state.busy and self.pending is not None:
            target, self.pending = self.pending, None
            self._dispatch(target)
        return pattern


def write_transition_trace(path, rows) -> None:
    """CSV export of a parameter schedule: one row of (time, pattern, gait,
    active action id or "") per sample."""
    write_csv(
        path,
        ["time_s", "beta", "phi_rf", "phi_rh", "phi_lf", "phi_lh", "state", "action"],
        [[t, pattern.beta, *pattern.offsets, state.label, action]
         for t, pattern, state, action in rows],
    )
