"""The step log of a trial: one row per control step, cut into strides.

:func:`~gaitkit.simulation.run_trial` logs every step with one
:meth:`StrideAccumulator.write` of a tuple of floats into one float64 buffer
(the stance flags into a bool buffer beside it) and closes a
:class:`StrideLog` at each stride boundary; the log fields are column views
of those buffers, not copies. A step row carries the joint angles in the
``joint_velocities`` columns; :meth:`StrideAccumulator.close` turns the
stride's rows into joint rates in place, with one subtraction and one
division over the stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class StrideLog:
    """Sampled time series over one stride plus per-stride aggregates.

    In the strides :func:`~gaitkit.simulation.run_trial` returns, each float array is a column
    view of a float64 buffer of step rows, and ``stance`` a view of a bool
    buffer beside it, not copies; the strides of one trial are disjoint row
    ranges of those buffers, so they never overlap, and writing into one
    stride changes no other. A stride keeps its buffers alive.
    """

    time: np.ndarray  # (n,)
    torques: np.ndarray  # (n, 12) per-leg (abduction, hip, knee), LegId order
    # (n, 12) per-step joint rates (q - q_prev) / dt, q_prev the angles of
    # the step before (of the start pose for a trial's first step)
    joint_velocities: np.ndarray
    forces: np.ndarray  # (n, 4, 3) world frame
    stance: np.ndarray  # (n, 4) bool
    position: np.ndarray  # (n, 3)
    velocity: np.ndarray  # (n, 3)
    euler: np.ndarray  # (n, 3)
    omega: np.ndarray  # (n, 3)
    euler_rates: np.ndarray  # (n, 3)
    foot_positions: np.ndarray  # (n, 4, 3)
    v_cmd: float
    delta_s: float
    t_f: float
    failed: bool
    complete: bool
    slip_events: int = 0
    torque_flags: int = 0


@dataclass
class TrialResult:
    """Strides and events of one trial; ``finished_course`` means the body
    passed ``finish_x`` or, without a finish line, survived the duration."""

    strides: list[StrideLog]
    events: list
    action_windows: list
    failed: bool
    finished_course: bool
    end_time: float


# The float fields of a step's log row, in row order, with their shapes per
# step; run_trial writes them in this order as one row of one float64 buffer.
# A row's joint_velocities columns hold the step's joint angles until its
# stride closes.
_LOG_FIELDS = (
    ("time", ()),
    ("torques", (12,)),
    ("joint_velocities", (12,)),
    ("forces", (4, 3)),
    ("position", (3,)),
    ("velocity", (3,)),
    ("euler", (3,)),
    ("omega", (3,)),
    ("euler_rates", (3,)),
    ("foot_positions", (4, 3)),
)
_LOG_WIDTH = sum(math.prod(shape) for _, shape in _LOG_FIELDS)
# Rows per log buffer: 2 MiB of float rows, 8.2 s at 2 ms steps. numpy asks
# the kernel for huge pages for an array of 4 MiB or more, and a huge page is
# resident whole once touched, so a 30 s buffer of which an early finish
# writes a tenth would cost megabytes that the rows never use.
_LOG_BUFFER_ROWS = 4096


class StrideAccumulator:
    """Step rows of one trial, written in place into preallocated buffers,
    with the counters of the open stride; a stride is the buffer rows
    ``[start, count)``.

    Every float field of a step is one row of the float64 buffer ``rows``,
    written at once; the fields are column views of it, and the stance flags
    have a bool buffer of their own. The ``n`` steps of a trial go into
    buffers of at most ``_LOG_BUFFER_ROWS`` new rows each: a full buffer is
    replaced by one for the steps still to come, the open stride's rows move
    along, and the strides closed before stay views of the old one.

    Until its stride closes, a row holds the step's joint angles in the
    ``joint_velocities`` columns; :meth:`close` differences them against the
    angles of the row before, carried over from the last stride (the start
    pose's angles ``q0`` for the first), and divides by ``dt``. IEEE
    subtraction and division give numpy the bits that ``(q - q_prev) / dt``
    on Python floats gives, step by step.
    """

    def __init__(self, n: int, dt: float, q0) -> None:
        self.remaining = n
        self.dt = dt
        # the joint angles of the step before the open stride, 12 floats
        self.q_prev = np.array(q0, dtype=float).reshape(12)
        self.count = 0
        self.start = 0
        self._allocate(0)
        self.start_time = 0.0
        self.start_pos: np.ndarray | None = None
        self.slips = 0
        self.flags = 0

    def _allocate(self, carried: int) -> None:
        """New buffers for ``carried`` rows already written and at most
        ``_LOG_BUFFER_ROWS`` more."""
        n = carried + min(self.remaining, _LOG_BUFFER_ROWS)
        self.rows = np.empty((n, _LOG_WIDTH))
        self.stance = np.empty((n, 4), dtype=bool)
        self.fields = {}
        col = 0
        for name, shape in _LOG_FIELDS:
            size = math.prod(shape)
            # a column range of a C-ordered buffer reshapes without a copy
            self.fields[name] = self.rows[:, col : col + size].reshape(n, *shape)
            col += size

    def write(self, values, stance) -> None:
        """Log one step: its float fields in ``_LOG_FIELDS`` order, and its
        four stance flags."""
        if self.count == self.rows.shape[0]:
            rows, flags = self.rows[self.start :], self.stance[self.start :]
            self._allocate(rows.shape[0])
            self.rows[: rows.shape[0]] = rows
            self.stance[: rows.shape[0]] = flags
            self.count, self.start = rows.shape[0], 0
        self.rows[self.count] = values
        self.stance[self.count] = stance
        self.count += 1
        self.remaining -= 1

    def reset(self, t: float, pos) -> None:
        """Open a stride at the next step; ``pos`` is the body position, three
        floats."""
        self.start = self.count
        self.start_time = t
        self.start_pos = np.array(pos, dtype=float)
        self.slips = 0
        self.flags = 0

    def close(
        self, t: float, pos, v_cmd: float, failed: bool, complete: bool
    ) -> StrideLog | None:
        """The open stride as views of the buffers, its joint angles turned
        into joint rates; None if it has no step."""
        if self.count <= self.start:
            return None
        rows = slice(self.start, self.count)
        q = self.fields["joint_velocities"][rows]
        prev = np.concatenate((self.q_prev[None], q[:-1]))
        self.q_prev = q[-1].copy()
        np.subtract(q, prev, out=q)
        np.divide(q, self.dt, out=q)
        return StrideLog(
            **{name: view[rows] for name, view in self.fields.items()},
            stance=self.stance[rows],
            v_cmd=v_cmd,
            delta_s=float(np.linalg.norm(np.subtract(pos, self.start_pos))),
            t_f=t - self.start_time,
            failed=failed,
            complete=complete,
            slip_events=self.slips,
            torque_flags=self.flags,
        )
