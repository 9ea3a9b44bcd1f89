"""JSON round-trip for profiles.

The paper's library writes recorded profiles "to disk after the
application completes" (Section III-D); these helpers provide that
persistence so offline training can run on saved characterization data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration
from repro.profiling.records import KernelProfile, ProfileDatabase

__all__ = ["database_to_json", "database_from_json", "save_database", "load_database"]


#: Version 2 writes each configuration's machine (``"arch"``).
_VERSION = 2


def _profile_to_dict(p: KernelProfile) -> dict[str, Any]:
    m = p.measurement
    return {
        "kernel_uid": p.kernel_uid,
        "iteration": p.iteration,
        "sampling_overhead_s": p.sampling_overhead_s,
        "config": m.config.to_dict(),
        "time_s": m.time_s,
        "cpu_plane_w": m.cpu_plane_w,
        "nbgpu_plane_w": m.nbgpu_plane_w,
        "counters": dict(m.counters),
    }


def database_to_json(db: ProfileDatabase) -> str:
    """Serialize a profile database to a JSON string."""
    return json.dumps(
        {"version": _VERSION, "profiles": [_profile_to_dict(p) for p in db]},
        indent=2,
        sort_keys=True,
    )


def database_from_json(text: str) -> ProfileDatabase:
    """Rebuild a profile database from :func:`database_to_json` output.

    Iteration numbers are reassigned in recording order, which matches
    the saved order for databases produced by this package.
    """
    data = json.loads(text)
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported profile database version: {data.get('version')!r}")
    db = ProfileDatabase()
    for d in data["profiles"]:
        m = Measurement(
            config=Configuration.from_dict(d["config"]),
            time_s=float(d["time_s"]),
            cpu_plane_w=float(d["cpu_plane_w"]),
            nbgpu_plane_w=float(d["nbgpu_plane_w"]),
            counters={k: float(v) for k, v in d["counters"].items()},
        )
        db.record(
            d["kernel_uid"], m, sampling_overhead_s=float(d["sampling_overhead_s"])
        )
    return db


def save_database(db: ProfileDatabase, path: str | Path) -> None:
    """Write a profile database to a JSON file."""
    Path(path).write_text(database_to_json(db), encoding="utf-8")


def load_database(path: str | Path) -> ProfileDatabase:
    """Read a profile database from a JSON file."""
    return database_from_json(Path(path).read_text(encoding="utf-8"))
