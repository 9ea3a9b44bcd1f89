"""Cluster nodes and their application-level power-performance frontiers.

The paper's introduction frames the node-level model as "a key
ingredient to maximizing performance on a multi-node cluster": system-
wide power policies "filter down from the system level to individual
nodes", and each node must make the most of whatever budget it is
handed.  A :class:`ClusterNode` is one such node — its own simulated
APU, profiling library, application, and adaptive runtime — plus the
quantity the cluster-level allocator needs: an **application-level
frontier** built purely from the node's *predicted* kernel frontiers.

The application-level frontier answers: "if this node's cap were c,
what timestep rate would it sustain, and what average power would it
draw?"  It is assembled by sweeping candidate caps over the union of
per-kernel predicted power levels; at each cap every kernel contributes
its best predicted-feasible configuration's time and energy.  No
execution happens during assembly — exactly the property (Section
III-C) that makes model predictions suitable for higher-level
schedulers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.model import AdaptiveModel
from repro.core.predictor import KernelPrediction, OnlinePredictor
from repro.hardware.apu import TrinityAPU
from repro.hardware.backend import HardwareBackend
from repro.profiling.library import ProfilingLibrary
from repro.runtime.adaptive import AdaptiveRuntime
from repro.runtime.application import Application
from repro.runtime.trace import ApplicationTrace

__all__ = ["NodeFrontierPoint", "NodeFrontier", "ClusterNode"]


@dataclass(frozen=True)
class NodeFrontierPoint:
    """One feasible node operating point under some cap.

    Attributes
    ----------
    cap_w:
        The node cap that produces this operating point.
    expected_power_w:
        Predicted time-weighted average node power at that cap.
    rate:
        Predicted timestep throughput (timesteps per second).
    """

    cap_w: float
    expected_power_w: float
    rate: float


class NodeFrontier:
    """The node's predicted rate-vs-cap curve, sorted by cap ascending.

    Guaranteed monotone: raising the cap never lowers the predicted
    rate (the scheduler's feasible set only grows).
    """

    def __init__(self, points: list[NodeFrontierPoint]) -> None:
        if not points:
            raise ValueError("node frontier needs at least one point")
        pts = sorted(points, key=lambda p: p.cap_w)
        # Enforce rate monotonicity (guards against prediction jitter).
        cleaned: list[NodeFrontierPoint] = []
        best = -1.0
        for p in pts:
            if p.rate > best:
                cleaned.append(p)
                best = p.rate
        self.points: tuple[NodeFrontierPoint, ...] = tuple(cleaned)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def min_cap_w(self) -> float:
        """The node's floor: the smallest honourable cap."""
        return self.points[0].cap_w


class ClusterNode:
    """One node of the simulated cluster.

    Parameters
    ----------
    name:
        Node identifier.
    application:
        The application this node runs.
    model:
        The machine's trained adaptive model (shared across identical
        nodes — the offline stage runs once per machine type).
    apu:
        The node's machine, any backend (defaults to a fresh Trinity APU
        seeded by ``seed``).
    seed:
        Seed for this node's measurement streams.
    """

    def __init__(
        self,
        name: str,
        application: Application,
        model: AdaptiveModel,
        *,
        apu: HardwareBackend | None = None,
        seed: int = 0,
    ) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.application = application
        self.model = model
        self.apu = apu if apu is not None else TrinityAPU(seed=seed)
        self.library = ProfilingLibrary(self.apu, seed=seed)
        self.runtime = AdaptiveRuntime(model, self.library)
        self._predictions: dict[str, KernelPrediction] | None = None

    # -- prediction warmup -------------------------------------------------------

    def warm_up(self) -> None:
        """Run each kernel's two sample iterations and cache predictions
        (the first two application timesteps do this implicitly; the
        cluster manager calls it eagerly so allocation can precede the
        first scheduled timestep)."""
        if self._predictions is not None:
            return
        # The online stage's own protocol: failed sample runs are
        # retried, corrupt readings sanitised.
        predictor = OnlinePredictor(self.model, self.library)
        predictions = {
            kernel.uid: predictor.predict(kernel)
            for kernel in self.application.kernels
        }
        self._predictions = predictions
        # Share the sample runs with the runtime's own protocol.
        self.runtime._predictions.update(predictions)

    def predictions(self) -> dict[str, KernelPrediction]:
        """Cached per-kernel predictions (warming up if needed)."""
        self.warm_up()
        assert self._predictions is not None
        return self._predictions

    # -- application-level frontier -----------------------------------------------

    def frontier(self) -> NodeFrontier:
        """Assemble the node's predicted rate-vs-cap frontier.

        Candidate caps below the node's *floor* — the largest of the
        per-kernel minimum predicted powers — are excluded: under such a
        cap some kernel has no feasible configuration at all, so the
        node cannot honour it (every kernel must run somewhere,
        Section III-A).  Consequently every frontier point satisfies
        ``expected_power_w <= cap_w``.

        The whole sweep is array arithmetic: each kernel's predicted
        frontier is built once, every candidate cap resolves against it
        with one vectorized binary search, and the per-cap time/energy
        totals accumulate kernel-by-kernel over the cap axis.
        """
        predictions = self.predictions()
        floor = max(
            float(pred.power_array.min()) for pred in predictions.values()
        )
        # Round candidate caps *up*: rounding down could land a cap
        # between the floor and the power level that generated it,
        # making the floor kernel infeasible at its own candidate.
        caps = np.array(
            sorted(
                {
                    math.ceil(float(pw) * 1e6) / 1e6
                    for pred in predictions.values()
                    for pw in pred.power_array
                    if pw >= floor - 1e-9
                }
            )
        )
        total_time = np.zeros(caps.size)
        total_energy = np.zeros(caps.size)
        for pred in predictions.values():
            frontier = pred.predicted_frontier()
            # Best feasible frontier point per cap; infeasible caps fall
            # back to the lowest-power point (index 0), matching
            # ``best_under_cap(...) or frontier[0]``.
            idx = np.maximum(frontier.indices_under_caps(caps), 0)
            t = 1.0 / frontier.performances[idx]
            total_time += t
            total_energy += frontier.powers[idx] * t
        points = [
            NodeFrontierPoint(
                cap_w=float(cap),
                expected_power_w=float(e / t),
                rate=float(1.0 / t),
            )
            for cap, t, e in zip(caps, total_time, total_energy)
        ]
        return NodeFrontier(points)

    # -- execution --------------------------------------------------------------

    def run(self, n_timesteps: int, cap_w: float) -> ApplicationTrace:
        """Execute the node's application under its allocated cap."""
        self.warm_up()
        return self.runtime.run(self.application, n_timesteps, cap_w)
