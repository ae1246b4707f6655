"""The step log of a trial: one row per control step, cut into strides.

:func:`~gaitkit.simulation.run_trial` logs every step with one
:meth:`StrideAccumulator.write` of a tuple of floats and the step's four
stance flags, and closes a :class:`StrideLog` at each stride boundary. A
stride owns its rows: :meth:`StrideAccumulator.write` appends each step's
floats to the open stride's own ``array('d')``, and
:meth:`StrideAccumulator.close` views that buffer as one float64 array of
the stride's rows (and builds one bool array of its stance flags); the log
fields are column views of that array, not copies. A step row carries the
joint angles in the ``joint_velocities`` columns;
:meth:`StrideAccumulator.close` turns the stride's rows into joint rates in
place, with one subtraction and one division over the stride.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass
class StrideLog:
    """Sampled time series over one stride plus per-stride aggregates.

    In the strides :func:`~gaitkit.simulation.run_trial` returns, each float
    array is a column view of the stride's own float64 array of step rows,
    and ``stance`` is the stride's own bool array; no two strides share
    memory, so writing into one stride changes no other.
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
    passed ``finish_x`` or, without a finish line, survived the duration.
    ``checkpoints`` are the :class:`~gaitkit.simulation.TrialCheckpoint` of
    the stride boundaries at which the trial's ``on_stride`` asked for one
    before the trial's first gait event, in order; empty when it asked for
    none."""

    strides: list[StrideLog]
    events: list
    action_windows: list
    failed: bool
    finished_course: bool
    end_time: float
    checkpoints: list


# The float fields of a step's log row, in row order, with their shapes per
# step; run_trial writes them in this order as one tuple of floats. A row's
# joint_velocities columns hold the step's joint angles until its stride
# closes.
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


class StrideAccumulator:
    """Step rows of the open stride of one trial, with its counters.

    :meth:`write` appends each step's floats to the open stride's
    ``array('d')``, 8 bytes a float, and keeps its stance flags;
    :meth:`close` views that buffer as one float64 array of rows, whose
    column views are the float fields, and turns the flags into one bool
    array. :meth:`reset` opens a new buffer, so the closed stride keeps its
    own.

    Until its stride closes, a row holds the step's joint angles in the
    ``joint_velocities`` columns; :meth:`close` differences them against the
    angles of the row before, carried over from the last stride (the start
    pose's angles ``q0`` for the first), and divides by ``dt``. IEEE
    subtraction and division give numpy the bits that ``(q - q_prev) / dt``
    on Python floats gives, step by step.
    """

    def __init__(self, dt: float, q0) -> None:
        self.dt = dt
        # the joint angles of the step before the open stride, 12 floats
        self.q_prev = np.array(q0, dtype=float).reshape(12)
        self.rows = array("d")
        self.stance: list = []
        self.start_time = 0.0
        self.start_pos: np.ndarray | None = None
        self.slips = 0
        self.flags = 0

    def write(self, values, stance) -> None:
        """Log one step: its float fields in ``_LOG_FIELDS`` order, and its
        four stance flags."""
        self.rows.extend(values)
        self.stance.append(stance)

    def reset(self, t: float, pos) -> None:
        """Open a stride at the next step; ``pos`` is the body position, three
        floats."""
        self.rows = array("d")
        self.stance = []
        self.start_time = t
        self.start_pos = np.array(pos, dtype=float)
        self.slips = 0
        self.flags = 0

    def close(
        self, t: float, pos, v_cmd: float, failed: bool, complete: bool
    ) -> StrideLog | None:
        """The open stride as views of its own row array, its joint angles
        turned into joint rates; None if it has no step."""
        n = len(self.stance)
        if not n:
            return None
        # the buffer itself, no copy; the array holds it past the next reset
        rows = np.frombuffer(self.rows, dtype=float).reshape(n, -1)
        fields = {}
        col = 0
        for name, shape in _LOG_FIELDS:
            size = math.prod(shape)
            # a column range of a C-ordered array reshapes without a copy
            fields[name] = rows[:, col : col + size].reshape(n, *shape)
            col += size
        q = fields["joint_velocities"]
        prev = np.concatenate((self.q_prev[None], q[:-1]))
        self.q_prev = q[-1].copy()
        np.subtract(q, prev, out=q)
        np.divide(q, self.dt, out=q)
        return StrideLog(
            **fields,
            stance=np.array(self.stance, dtype=bool),
            v_cmd=v_cmd,
            delta_s=float(np.linalg.norm(np.subtract(pos, self.start_pos))),
            t_f=t - self.start_time,
            failed=failed,
            complete=complete,
            slip_events=self.slips,
            torque_flags=self.flags,
        )
