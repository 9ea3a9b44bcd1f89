"""Power-performance Pareto frontiers.

"Power-performance Pareto frontiers play a key role in our modeling
process" (paper Section III-B): per kernel, a configuration is on the
frontier iff no other configuration delivers at least the same
performance for no more power.  Figure 2 / Table I show an example
frontier for LULESH's ``CalcFBHourglassForce``; Figure 7 shows LU
Small's.  Frontiers are consumed three ways:

* clustering — kernels are grouped by the *order* of configurations
  along their frontiers (:mod:`repro.core.dissimilarity`);
* the oracle — "the majority of configurations would never be selected"
  because frontier points dominate them;
* scheduling — a (predicted) frontier answers "best configuration under
  this power cap" in one binary search.

Construction is array-shaped: candidates are stable-lexsorted by
(power, -performance) and swept with a running performance maximum —
O(n log n) with the Python loop replaced by :func:`numpy.maximum.
accumulate`.  The kept points' power levels are strictly increasing, so
``best_under_cap`` bisects the stored power array, and a whole cap
sweep is one :func:`numpy.searchsorted` call over
:attr:`ParetoFrontier.powers`.  :class:`FrontierPoint` objects are
materialized lazily — hot paths (scheduling, node-frontier assembly)
read the arrays and never build them.

Many frontiers laid back to back answer their cap queries through one
:class:`CapSweepTable`: the scheduler's per-prediction sweeps, the
decision server's stacked tables and the fleet pool's per-node
operating points all resolve "last threshold <= scaled cap, else the
segment's fallback" with the same exact search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration

__all__ = ["CapSweepTable", "FrontierPoint", "ParetoFrontier", "pareto_staircase"]


def pareto_staircase(costs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of the ``(cost, value)`` points on the Pareto staircase,
    in ascending cost: a stable sort by (cost, -value), then a point is
    kept iff its value strictly exceeds every cheaper point's (the
    running-max sweep).  Of equal points the first is kept."""
    order = np.lexsort((-values, costs))
    v = values[order]
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] > np.maximum.accumulate(v)[:-1]
    return order[keep]


@dataclass(frozen=True)
class FrontierPoint:
    """One (configuration, power, performance) triple."""

    config: Configuration
    power_w: float
    performance: float

    def __post_init__(self) -> None:
        if self.power_w <= 0:
            raise ValueError(f"power_w={self.power_w} must be positive")
        if self.performance <= 0:
            raise ValueError(f"performance={self.performance} must be positive")


class ParetoFrontier:
    """The set of non-dominated (power, performance) configurations.

    Points are stored sorted by ascending power; along the frontier
    performance is strictly increasing (a point matching another's
    performance at higher power is dominated and removed).  Power levels
    are therefore strictly increasing too, which is what lets every
    query bisect.
    """

    __slots__ = ("_cfgs", "_powers", "_perfs", "_points")

    @classmethod
    def from_arrays(
        cls,
        configs: Sequence[Configuration],
        powers: np.ndarray,
        perfs: np.ndarray,
    ) -> "ParetoFrontier":
        """Derive a frontier from parallel arrays, one entry per
        candidate configuration (:class:`FrontierPoint` objects are not
        materialized)."""
        powers = np.asarray(powers, dtype=np.float64)
        perfs = np.asarray(perfs, dtype=np.float64)
        n = len(configs)
        if n == 0:
            raise ValueError("frontier needs at least one point")
        if powers.shape != (n,) or perfs.shape != (n,):
            raise ValueError("powers/performances must match configs in length")
        if np.any(powers <= 0):
            bad = float(powers[powers <= 0][0])
            raise ValueError(f"power_w={bad} must be positive")
        if np.any(perfs <= 0):
            bad = float(perfs[perfs <= 0][0])
            raise ValueError(f"performance={bad} must be positive")
        kept = pareto_staircase(powers, perfs)
        self = cls.__new__(cls)
        self._cfgs: tuple[Configuration, ...] = tuple(configs[i] for i in kept)
        self._powers: np.ndarray = powers[kept]
        self._perfs: np.ndarray = perfs[kept]
        self._points: tuple[FrontierPoint, ...] | None = None
        return self

    @staticmethod
    def from_measurements(measurements: Sequence[Measurement]) -> "ParetoFrontier":
        """Derive a frontier from measured executions of one kernel."""
        return ParetoFrontier.from_arrays(
            [m.config for m in measurements],
            np.array([m.total_power_w for m in measurements], dtype=np.float64),
            np.array([m.performance for m in measurements], dtype=np.float64),
        )

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._cfgs)

    def __iter__(self) -> Iterator[FrontierPoint]:
        return iter(self.points)

    def __getitem__(self, i: int) -> FrontierPoint:
        return self.points[i]

    @property
    def points(self) -> tuple[FrontierPoint, ...]:
        """Frontier points, ascending in power (materialized lazily)."""
        if self._points is None:
            self._points = tuple(
                FrontierPoint(config=c, power_w=float(pw), performance=float(pf))
                for c, pw, pf in zip(self._cfgs, self._powers, self._perfs)
            )
        return self._points

    def configs(self) -> list[Configuration]:
        """Frontier configurations, in ascending-power order — the
        ordering the clustering stage compares across kernels."""
        return list(self._cfgs)

    # -- array views -------------------------------------------------------------

    @property
    def powers(self) -> np.ndarray:
        """Frontier power levels (watts), strictly increasing."""
        return self._powers

    @property
    def performances(self) -> np.ndarray:
        """Frontier performance values, strictly increasing."""
        return self._perfs

    # -- queries ----------------------------------------------------------------

    @property
    def max_performance(self) -> float:
        """The frontier's best performance (its top point)."""
        return float(self._perfs[-1])

    @property
    def min_power_w(self) -> float:
        """The frontier's lowest power (its bottom point)."""
        return float(self._powers[0])

    def best_under_cap(self, power_cap_w: float) -> FrontierPoint | None:
        """Highest-performance frontier point with power <= the cap, or
        ``None`` if even the lowest-power point exceeds it."""
        i = int(self.indices_under_caps([power_cap_w])[0])
        return self.points[i] if i >= 0 else None

    def indices_under_caps(self, caps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`best_under_cap` over a cap sweep: the index
        of the best feasible point per cap, or ``-1`` where even the
        lowest-power point exceeds the cap."""
        return (
            np.searchsorted(self._powers, np.asarray(caps), side="right") - 1
        )

    def normalized(self) -> list[tuple[Configuration, float, float]]:
        """Frontier as (config, power_w, performance / max performance),
        the presentation of the paper's Table I."""
        top = self.max_performance
        return [
            (c, float(pw), float(pf) / top)
            for c, pw, pf in zip(self._cfgs, self._powers, self._perfs)
        ]


@dataclass(frozen=True)
class CapSweepTable:
    """Precomputed cap-sweep answers, one CSR segment per frontier.

    Each segment holds ascending thresholds; a cap resolves to the
    answer at the segment's last threshold ``<= cap * cap_scale``, or to
    the segment's fallback when none is.  :meth:`lookup` runs that
    search for a whole vector of (cap, segment) pairs at once, with two
    binary searches over exact integer keys.

    Two layouts build tables.  :meth:`Scheduler.sweep_table
    <repro.core.scheduler.Scheduler.sweep_table>` makes one segment per
    prediction (and :meth:`stack` concatenates many for the decision
    server); such a table bakes in the scheduler's goal, risk settings
    and quarantine state at build time, so consumers holding stale
    tables (see ``repro.server``'s snapshot swap) must rebuild after a
    quarantine.  The fleet pool (:mod:`repro.cluster.pool`) makes one
    segment per node, with the node's frontier caps as thresholds and
    ``cap_scale = 1 + CAP_EPSILON``, the tolerance of
    :func:`~repro.constants.respects_cap`.

    Attributes
    ----------
    sorted_power_w:
        Thresholds (watts), ascending (stable order) per segment.
    best_at:
        ``best_at[p]`` — the answer once the segment's thresholds up to
        position ``p`` are admitted (a prediction index, or a flat
        point index).
    offsets:
        Segment ``s`` holds positions ``offsets[s]:offsets[s + 1]``.
    fallback_index, cap_scale:
        Per segment: the answer when a cap admits nothing, and the
        factor applied to a cap before the search.
    """

    sorted_power_w: np.ndarray
    best_at: np.ndarray
    offsets: np.ndarray
    fallback_index: np.ndarray
    cap_scale: np.ndarray

    def __post_init__(self) -> None:
        # Rank every threshold among the sorted unique thresholds U and
        # key it segment * (|U| + 1) + rank + 1: keys ascend across the
        # whole table, and a cap keyed segment * (|U| + 1) + #(U <= cap)
        # lands after exactly the segment's thresholds <= cap (NaN sorts
        # last in U, so it is never <= a cap, as in a plain search).
        uniq = np.unique(self.sorted_power_w)
        segment = np.repeat(
            np.arange(self.offsets.size - 1), np.diff(self.offsets)
        )
        rank = np.searchsorted(uniq, self.sorted_power_w)
        object.__setattr__(self, "_thresholds", uniq)
        object.__setattr__(self, "_keys", segment * (uniq.size + 1) + rank + 1)

    @classmethod
    def stack(cls, tables: Sequence["CapSweepTable"]) -> "CapSweepTable":
        """Concatenate tables into one, segments in argument order."""
        if len(tables) == 1:
            return tables[0]

        def cat(name: str, dtype: type) -> np.ndarray:
            parts = [getattr(t, name) for t in tables]
            return np.concatenate(parts) if parts else np.empty(0, dtype)

        sizes = [t.sorted_power_w.size for t in tables]
        return cls(
            sorted_power_w=cat("sorted_power_w", np.float64),
            best_at=cat("best_at", np.intp),
            offsets=np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))),
            fallback_index=cat("fallback_index", np.intp),
            cap_scale=cat("cap_scale", np.float64),
        )

    def lookup(
        self,
        power_caps_w: Sequence[float] | np.ndarray,
        segments: np.ndarray | int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve caps, each in its segment, to ``(index, feasible)``
        arrays: the answer (``best_at`` entry or fallback) per cap, and
        whether any of the segment's thresholds admitted it.

        ``found - start`` is exactly the count of the segment's
        thresholds ``<= cap * cap_scale``, as one search per segment
        would give; zero means no threshold meets the cap.  A NaN cap
        admits every threshold, so callers that need "NaN admits
        nothing" map it to ``-inf`` first.
        """
        caps = np.asarray(power_caps_w, dtype=np.float64)
        seg = np.asarray(segments, dtype=np.intp)
        uniq = self._thresholds
        below = np.searchsorted(uniq, caps * self.cap_scale[seg], side="right")
        found = np.searchsorted(
            self._keys, seg * (uniq.size + 1) + below, side="right"
        )
        start = self.offsets[seg]
        feasible = found > start
        index = self.best_at[np.maximum(found - 1, start)]
        if not feasible.all():
            index = np.where(feasible, index, self.fallback_index[seg])
        return index, feasible
