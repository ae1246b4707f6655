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
    (``,`` between cells, ``\r\n`` after each row). The file is opened once
    and written a stride at a time. A stride's floats are converted as two
    float64 blocks, the 37 columns before the stance flags and the 16 after
    them, each built with one ``np.concatenate`` of the stride's fields,
    turned into Python floats with one ``tolist()`` and joined once per row,
    so a row is two joins of ``repr`` texts (the text ``repr(float(x))``
    gives) around its stance flags.
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for si, log in enumerate(strides):
            n = log.time.shape[0]
            if n == 0:
                continue
            # time, torques, joint rates and forces; then position,
            # velocity, euler, omega and foot z
            before = _joined_rows(n, log.time, log.torques, log.joint_velocities, log.forces)
            after = _joined_rows(
                n, log.position, log.velocity, log.euler, log.omega,
                log.foot_positions[:, :, 2],
            )
            stance = [",".join(map(str, row)) for row in log.stance.astype(int).tolist()]
            tail = f",{float(log.v_cmd)!r}\r\n"
            fh.write("".join([f"{si},{a},{s},{b}{tail}" for a, s, b in zip(before, stance, after)]))


def _joined_rows(n: int, *fields) -> list[str]:
    """The (n, ...) float fields side by side as one float64 block, one
    joined row of ``repr`` texts per sample.

    The block's Python floats are dropped as soon as its rows are joined, so
    a stride never holds the floats of both blocks; holding both raised the
    peak resident set of repeated ``simulate`` runs by about 1 MB.
    """
    block = np.concatenate([np.reshape(f, (n, -1)) for f in fields], axis=1, dtype=float)
    return [",".join(map(repr, row)) for row in block.tolist()]


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
