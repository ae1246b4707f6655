"""The writers of every output file: CSV tables, JSON documents, stride logs
and per-run manifests."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .gaits import LegId

JOINT_NAMES = [
    f"{leg.name.lower()}_{joint}"
    for leg in LegId
    for joint in ("abduction", "hip", "knee")
]


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    args: dict
    config_path: str | None
    seed: int | None
    version: str  # gaitkit.__version__
    outputs: list[str] = field(default_factory=list)
    timestamp: str = ""

    def stamped(self) -> "RunManifest":
        self.timestamp = datetime.now(timezone.utc).isoformat()
        return self

    def write(self, path) -> None:
        write_json(asdict(self), path)

    def embed_dict(self) -> dict:
        # embedded copies omit the timestamp so reruns stay byte-identical
        data = asdict(self)
        data.pop("timestamp")
        return data


def stride_logs_to_csv(strides, path) -> None:
    """One row per simulation sample across all strides of a trial.

    Every cell is an int or the ``repr`` of a float, none of which needs
    quoting, so rows are joined here in the csv module's default dialect
    (``,`` between cells, ``\r\n`` after each row) and written at once.
    """
    header = (
        ["stride", "time_s"]
        + [f"u_{n}" for n in JOINT_NAMES]
        + [f"w_{n}" for n in JOINT_NAMES]
        + [f"f_{leg.name.lower()}_{ax}" for leg in LegId for ax in "xyz"]
        + [f"stance_{leg.name.lower()}" for leg in LegId]
        + ["pos_x", "pos_y", "pos_z", "vel_x", "vel_y", "vel_z"]
        + ["roll", "pitch", "yaw", "omega_x", "omega_y", "omega_z"]
        + [f"foot_{leg.name.lower()}_z" for leg in LegId]
        + ["v_cmd"]
    )
    lines = [",".join(header)]
    for si, log in enumerate(strides):
        n = log.time.shape[0]
        if n == 0:
            continue
        # one joined string per sample and block, converted a stride at a
        # time: repr of Python floats is the text repr(float(x)) gives
        floats = [
            _float_cells(a, n)
            for a in (
                log.time,
                log.torques,
                log.joint_velocities,
                log.forces,
                log.position,
                log.velocity,
                log.euler,
                log.omega,
                log.foot_positions[:, :, 2],
            )
        ]
        stance = [",".join([str(int(x)) for x in row]) for row in log.stance.tolist()]
        v_cmd = repr(float(log.v_cmd))
        # the stance flags sit between the forces and the position
        rows = zip(*floats[:4], stance, *floats[4:])
        lines += [f"{si},{','.join(cells)},{v_cmd}" for cells in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _float_cells(values, n: int) -> list[str]:
    """``repr`` of every float of an (n, ...) array, one joined row per sample."""
    rows = np.asarray(values, dtype=float).reshape(n, -1).tolist()
    return [",".join(map(repr, row)) for row in rows]


def stride_summary(strides, metrics_list) -> dict:
    """Per-stride aggregate block for the metrics JSON export; a stride whose
    metrics are ``None`` (no CoT) is left out, and the others keep their index."""
    out = [
        {
            "stride": i,
            "t_f": float(log.t_f),
            "delta_s": float(log.delta_s),
            "work_j": float(m.work),
            "cot": float(m.cot),
            "stb": float(m.stb),
            "j_e": {repr(c): float(v) for c, v in m.j_e.items()},
            "failed": bool(log.failed),
            "complete": bool(log.complete),
        }
        for i, (log, m) in enumerate(zip(strides, metrics_list))
        if m is not None
    ]
    return {"strides": out}


def write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, allow_nan=True)


def write_csv(path, header, rows) -> None:
    """A table in the csv module's default dialect, header row first.

    Cells are Python floats, ints and strings: a float is written as
    ``str(x)``, which equals ``repr(x)`` (NaN as ``nan``, infinities as
    ``inf``/``-inf``), and a string is quoted only when it holds a comma, a
    quote or a line break.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
