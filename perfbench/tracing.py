"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: wrappers are installed at
the names gaitkit's code actually looks up (module globals such as
``gaitkit.simulation.leg_ik`` and class attributes such as ``Terrain.query``)
and removed again afterwards, so no gaitkit source is edited. Every span keeps
(name, start, end, parent, op id) in compact arrays; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from workloads import Patches

# Functions of gaitkit.simulation that run_trial calls once or more per step
# besides the force QP, the leg kinematics and the rigid-body step.
KINEMATICS = (
    "rotation_matrix",
    "euler_rate_to_omega",
    "omega_to_euler_rates",
    "swing_trajectory",
    "swing_acceleration",
    "stance_torques",
    "swing_torques",
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.active = False  # spans opened through span() are kept only when set
        self._patches = Patches()
        # ForceDistribution fields, one entry per distribute_forces call
        self.qp_k = array("b")
        self.qp_iterations = array("i")
        self.qp_feasible = array("b")
        self.qp_rel_residual = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_span(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close_span(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        i = self.open_span(self.name_id(name))
        try:
            yield
        finally:
            self.close_span(i)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open_span, self.close_span

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def wrap_distribute(self, fn):
        """distribute_forces, with the span named by the stance count."""
        nids = [self.name_id(f"forces.distribute.k{k}") for k in range(5)]
        open_, close = self.open_span, self.close_span
        name = self.name
        qp_k, qp_it = self.qp_k, self.qp_iterations
        qp_ok, qp_rel = self.qp_feasible, self.qp_rel_residual

        def traced(*args, **kwargs):
            i = open_(nids[0])
            try:
                dist = fn(*args, **kwargs)
            finally:
                close(i)
            k = int(dist.stance.sum())
            name[i] = nids[k]
            qp_k.append(k)
            qp_it.append(dist.iterations)
            qp_ok.append(dist.feasible)
            qp_rel.append(dist.relative_residual)
            return dist

        return traced

    def install(self, gk) -> None:
        """Wrap every layer boundary of the ``gk`` module namespace."""
        self.active = True
        patch = self._patches.patch
        sim, forces, robot, transitions = gk.simulation, gk.forces, gk.robot, gk.transitions
        mapping, strategy, cli = gk.mapping, gk.strategy, gk.cli
        patch(sim, "distribute_forces", self.wrap_distribute(sim.distribute_forces))
        patch(forces, "solve_qp", self.wrap(forces.solve_qp, "forces.solve_qp"))
        patch(sim, "step", self.wrap(sim.step, "simulation.step"))
        for fn in KINEMATICS:
            patch(sim, fn, self.wrap(getattr(sim, fn), f"simulation.kin.{fn}"))
        for fn in ("leg_ik", "leg_jacobian"):
            patch(sim, fn, self.wrap(getattr(sim, fn), f"robot.{fn}"))
        patch(sim, "leg_contact", self.wrap(sim.leg_contact, "gaits.leg_contact"))
        patch(robot.Terrain, "query", self.wrap(robot.Terrain.query, "robot.terrain_query"))
        patch(transitions.GaitFsm, "advance",
              self.wrap(transitions.GaitFsm.advance, "transitions.fsm_advance"))
        for mod in (mapping, strategy, cli):
            patch(mod, "stride_metrics", self.wrap(mod.stride_metrics, "metrics.stride_metrics"))
        for mod in (mapping, strategy):
            patch(mod, "select_gait", self.wrap(mod.select_gait, "mapping.select_gait"))
        patch(strategy, "select_gait_hysteretic",
              self.wrap(strategy.select_gait_hysteretic, "mapping.select_gait_hysteretic"))
        patch(strategy, "trial_outcome",
              self.wrap(strategy.trial_outcome, "strategy.trial_outcome"))
        patch(cli, "stride_logs_to_csv",
              self.wrap(cli.stride_logs_to_csv, "io.stride_logs_to_csv"))
        patch(cli, "write_json", self.wrap(cli.write_json, "io.write_json"))

    def restore(self) -> None:
        self.active = False
        self._patches.restore()

    def table(self) -> dict[str, np.ndarray]:
        """Columns of all recorded spans, with self time computed."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": dur - child,
        }

    def save(self, path) -> None:
        cols = self.table()
        np.savez(path, names=np.array(self.names), **cols)


class SpanStats:
    """Per-name count, total duration and total self time of a span table."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.table()
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        n_names = len(tracer.names)
        name = cols["name"]
        dur = cols["end"] - cols["start"]
        self.count = np.bincount(name, minlength=n_names)
        self.total = np.bincount(name, weights=dur, minlength=n_names)
        self.self_time = np.bincount(name, weights=cols["self"], minlength=n_names)
        self.cols = cols

    def calls(self, *names: str) -> int:
        return int(sum(self.count[self._ids[n]] for n in names if n in self._ids))

    def dur(self, *names: str) -> float:
        return float(sum(self.total[self._ids[n]] for n in names if n in self._ids))

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_time[self._ids[n]] for n in names if n in self._ids))

    def mean_self(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls if calls else 0.0

    def mean_dur(self, name: str) -> float:
        calls = self.calls(name)
        return self.dur(name) / calls if calls else 0.0

    def calls_within(self, name: str, outer: str) -> int:
        """Spans named ``name`` that start inside some span named ``outer``."""
        if name not in self._ids or outer not in self._ids:
            return 0
        sel = self.cols["name"]
        starts = self.cols["start"][sel == self._ids[name]]
        o_start = self.cols["start"][sel == self._ids[outer]]
        o_end = self.cols["end"][sel == self._ids[outer]]
        order = np.argsort(o_start)
        o_start, o_end = o_start[order], o_end[order]
        idx = np.searchsorted(o_start, starts, side="right") - 1
        inside = (idx >= 0) & (starts < o_end[np.maximum(idx, 0)])
        return int(inside.sum())
