"""Deterministic fault schedules (the scenario files of the chaos suite).

A :class:`FaultPlan` is an immutable list of :class:`FaultEvent`\\ s,
each active over a half-open window of the machine's *measured-run
clock*: run ``i`` is the ``i``-th execution started through any injected
measurement path (``TrinityAPU.run`` or ``ProfilingLibrary.profile``),
counted per :class:`~repro.faults.injector.FaultInjector`.  Scheduling
on the run clock — not wall time — keeps scenarios perfectly
reproducible: the same seed and plan perturb exactly the same runs on
every replay, regardless of host speed.

Plans serialize to a small versioned JSON format (see
``docs/ROBUSTNESS.md``) so scenarios can be committed, replayed from the
CLI (``--fault-plan``), and swept in CI.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = ["FAULT_KINDS", "SENSOR_FAULT_KINDS", "PSTATE_FAULT_KINDS", "FaultEvent", "FaultPlan"]

#: Schema version of the fault-plan JSON format.
PLAN_FORMAT_VERSION = 1

#: Every supported fault kind (the taxonomy of docs/ROBUSTNESS.md).
FAULT_KINDS: tuple[str, ...] = (
    "power_dropout",
    "power_bias",
    "counter_nan",
    "counter_corrupt",
    "pstate_stuck",
    "pstate_unavailable",
    "thermal_throttle",
    "run_failure",
)

#: Kinds that corrupt the *readings* of an otherwise completed run.
SENSOR_FAULT_KINDS: frozenset[str] = frozenset(
    {"power_dropout", "power_bias", "counter_nan", "counter_corrupt"}
)

#: Kinds that change which P-state the hardware actually executes.
PSTATE_FAULT_KINDS: frozenset[str] = frozenset(
    {"pstate_stuck", "pstate_unavailable", "thermal_throttle"}
)

_DEVICES = (None, "cpu", "gpu")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault episode.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start, duration:
        The event is active for measured runs ``start <= i < start +
        duration`` on the injector's run clock.
    device:
        Scope: ``"cpu"`` targets the CPU frequency domain (including the
        host CPU of GPU configurations for P-state kinds, and the CPU
        power plane for sensor kinds), ``"gpu"`` the GPU domain, and
        ``None`` the run's own primary domain (sensor kinds: both
        planes).
    magnitude:
        Multiplicative factor for ``power_bias`` / ``counter_corrupt``
        (e.g. ``0.5`` halves the reading); ignored by other kinds.
    pstate_index:
        Ladder index for the P-state kinds: the index the domain is
        stuck at, unavailable at, or throttled down to.  Clamped to the
        targeted ladder's depth at apply time.
    """

    kind: str
    start: int
    duration: int = 1
    device: str | None = None
    magnitude: float = 1.0
    pstate_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.device not in _DEVICES:
            raise ValueError(f"device must be one of {_DEVICES}, got {self.device!r}")
        if not isfinite(self.magnitude) or self.magnitude <= 0:
            raise ValueError("magnitude must be finite and positive")
        # Imported here: repro.hardware.backend imports this package.
        from repro.hardware.backend import max_ladder_depth

        max_depth = max_ladder_depth()
        if not 0 <= self.pstate_index < max_depth:
            raise ValueError(f"pstate_index must be in [0, {max_depth})")

    @property
    def stop(self) -> int:
        """First run index the event is no longer active at."""
        return self.start + self.duration

    def active_at(self, run_index: int) -> bool:
        """Whether the event covers measured run ``run_index``."""
        return self.start <= run_index < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of fault events.

    Build one directly from events, deterministically with
    :meth:`random`, or load a committed scenario with :meth:`from_file`.
    """

    events: tuple[FaultEvent, ...] = ()
    name: str = "unnamed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(ev).__name__}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    @property
    def empty(self) -> bool:
        """Whether the plan schedules no events at all."""
        return not self.events

    @property
    def horizon(self) -> int:
        """First run index after which no event is ever active."""
        return max((ev.stop for ev in self.events), default=0)

    def active_events(self, run_index: int) -> tuple[FaultEvent, ...]:
        """Events covering measured run ``run_index``, in plan order."""
        return tuple(ev for ev in self.events if ev.active_at(run_index))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form of the plan (the JSON file's payload)."""
        return {
            "version": PLAN_FORMAT_VERSION,
            "name": self.name,
            "events": [asdict(ev) for ev in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (validates the schema version)."""
        version = payload.get("version")
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(
                f"unsupported fault-plan version {version!r} "
                f"(expected {PLAN_FORMAT_VERSION})"
            )
        events = tuple(FaultEvent(**ev) for ev in payload.get("events", ()))
        return cls(events=events, name=str(payload.get("name", "unnamed")))

    def to_file(self, path: str | Path) -> Path:
        """Write the plan as committed-scenario JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        """Load a scenario file written by :meth:`to_file`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- generators --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_events: int = 8,
        horizon: int = 2000,
        max_duration: int = 50,
        kinds: Iterable[str] = FAULT_KINDS,
        name: str | None = None,
        descriptor=None,
    ) -> "FaultPlan":
        """A deterministic pseudo-random plan (chaos-test generator).

        Pure function of its arguments: the same seed always yields the
        same plan, so any failure a chaos sweep finds is replayable from
        the seed alone.  P-state indices span the ladders of the machine
        ``descriptor`` (default Trinity's): secondary for ``"gpu"``
        events, primary for ``"cpu"``, the deeper for unscoped ones.
        """
        from repro.hardware.backend import TRINITY_DESCRIPTOR

        d = TRINITY_DESCRIPTOR if descriptor is None else descriptor
        depths = {"cpu": len(d.primary.freqs_ghz), "gpu": len(d.secondary.freqs_ghz)}
        depths[None] = max(depths.values())
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("kinds must be non-empty")
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if n_events < 0:
            raise ValueError("n_events must be >= 0")
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            device = _DEVICES[int(rng.integers(len(_DEVICES)))]
            events.append(
                FaultEvent(
                    kind=kind,
                    start=int(rng.integers(max(1, horizon))),
                    duration=int(rng.integers(1, max(2, max_duration + 1))),
                    device=device,
                    # Log-uniform in [1/4, 4): covers both optimistic and
                    # pessimistic sensor bias.
                    magnitude=float(4.0 ** rng.uniform(-1.0, 1.0)),
                    pstate_index=int(rng.integers(depths[device])),
                )
            )
        return cls(
            events=tuple(events),
            name=name if name is not None else f"random-{seed}",
        )
