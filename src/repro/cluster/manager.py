"""The cluster power manager: budget in, per-node caps out, epochs run.

Ties the pieces together into the paper's motivating scenario: a
system-level power budget is repeatedly divided among nodes ("power
constraints will be passed down through the machine hierarchy", paper
Section I), each node runs its application under its cap with the
adaptive runtime, and the manager accounts what actually happened.
Budgets may change between epochs; reallocation costs only frontier
arithmetic, never kernel executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping, Sequence

from repro.cluster.allocation import allocate_pool
from repro.cluster.node import ClusterNode, NodeFrontier
from repro.cluster.pool import FrontierPool
from repro.constants import respects_cap
from repro.runtime.trace import ApplicationTrace
from repro.telemetry import counter, gauge

__all__ = ["EpochResult", "ClusterReport", "ClusterPowerManager"]

AllocationPolicy = Literal["uniform", "greedy", "maxmin"]

_EPOCHS = counter("cluster.epochs")
_EPOCH_BUDGET = gauge("cluster.epoch.budget_w")
_EPOCH_POWER = gauge("cluster.epoch.power_w")
_EPOCH_RATE = gauge("cluster.epoch.rate")
_EPOCH_NODES = gauge("cluster.epoch.nodes")
_EPOCH_OVER_BUDGET = gauge("cluster.epoch.over_budget_w")


@dataclass(frozen=True)
class EpochResult:
    """Outcome of one manager epoch.

    Attributes
    ----------
    epoch:
        Epoch index.
    budget_w:
        The global budget this epoch.
    caps_w:
        Per-node caps the allocator produced.
    traces:
        Per-node execution traces for the epoch's timesteps.
    """

    epoch: int
    budget_w: float
    caps_w: Mapping[str, float]
    traces: Mapping[str, ApplicationTrace]

    @property
    def cluster_power_w(self) -> float:
        """Sum of the nodes' time-averaged powers during the epoch."""
        return sum(t.mean_power_w for t in self.traces.values())

    @property
    def within_budget(self) -> bool:
        """Whether realized cluster power met the epoch budget (shared
        :data:`repro.constants.CAP_EPSILON` tolerance)."""
        return respects_cap(self.cluster_power_w, self.budget_w)

    @property
    def aggregate_rate(self) -> float:
        """Sum of node timestep rates during the epoch (throughput view:
        nodes run concurrently, so their rates add)."""
        return sum(
            t.timesteps() / t.total_time_s for t in self.traces.values()
        )

    @property
    def makespan_s(self) -> float:
        """Epoch wall time: the slowest node's execution time (zero if
        no node ran)."""
        return max((t.total_time_s for t in self.traces.values()), default=0.0)


@dataclass
class ClusterReport:
    """Accumulated results of a managed run."""

    policy: str
    epochs: list[EpochResult] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Cluster wall time: nodes run in parallel, so each epoch costs
        the slowest node's time."""
        return sum(e.makespan_s for e in self.epochs)

    @property
    def total_energy_j(self) -> float:
        """Total energy across all epochs and nodes (joules)."""
        return sum(
            t.total_energy_j for e in self.epochs for t in e.traces.values()
        )

    @property
    def mean_aggregate_rate(self) -> float:
        """Mean over epochs of the cluster's aggregate timestep rate."""
        if not self.epochs:
            return float("nan")
        return sum(e.aggregate_rate for e in self.epochs) / len(self.epochs)

    def budget_compliance(self) -> float:
        """Fraction of epochs whose realized cluster power met the budget."""
        if not self.epochs:
            return float("nan")
        return sum(e.within_budget for e in self.epochs) / len(self.epochs)


class ClusterPowerManager:
    """Allocates a global budget across nodes and runs them in epochs.

    Parameters
    ----------
    nodes:
        The cluster's nodes (names must be unique).
    policy:
        ``"greedy"`` (throughput-maximizing water-filling, default),
        ``"maxmin"`` (makespan-friendly max-min fairness), or
        ``"uniform"``.
    """

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        *,
        policy: AllocationPolicy = "greedy",
    ) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        if policy not in ("uniform", "greedy", "maxmin"):
            raise ValueError(f"unknown allocation policy {policy!r}")
        self.nodes = {n.name: n for n in nodes}
        self.policy = policy
        self._frontiers: dict[str, NodeFrontier] | None = None
        self._pool: FrontierPool | None = None

    def frontiers(self) -> dict[str, NodeFrontier]:
        """Each node's predicted frontier (warmup runs happen here)."""
        if self._frontiers is None:
            self._frontiers = {
                name: node.frontier() for name, node in self.nodes.items()
            }
        return self._frontiers

    def allocate(self, budget_w: float) -> dict[str, float]:
        """Split the budget into per-node caps under the active policy."""
        if self._pool is None:
            self._pool = FrontierPool.from_frontiers(self.frontiers())
        caps = allocate_pool(self._pool, budget_w, self.policy)
        return dict(zip(self._pool.active_names(), caps.tolist()))

    def run(
        self,
        budgets_w: Sequence[float] | Callable[[int], float],
        *,
        n_epochs: int,
        timesteps_per_epoch: int,
        monitor=None,
    ) -> ClusterReport:
        """Run the cluster for ``n_epochs`` epochs.

        ``budgets_w`` is either a per-epoch sequence (length
        ``n_epochs``) or a function of the epoch index.

        ``monitor`` (a :class:`repro.telemetry.monitor.Monitor`) gets
        one tick per epoch on the epoch clock — the simulation analogue
        of the serve CLI's interval thread — so SLOs like budget
        compliance are judged per epoch.
        """
        if n_epochs < 1 or timesteps_per_epoch < 1:
            raise ValueError("n_epochs and timesteps_per_epoch must be >= 1")
        if not callable(budgets_w) and len(budgets_w) != n_epochs:
            raise ValueError("budgets_w sequence must have n_epochs entries")

        report = ClusterReport(policy=self.policy)
        for epoch in range(n_epochs):
            budget = float(
                budgets_w(epoch) if callable(budgets_w) else budgets_w[epoch]
            )
            caps = self.allocate(budget)
            traces = {
                name: self.nodes[name].run(timesteps_per_epoch, cap)
                for name, cap in caps.items()
            }
            result = EpochResult(
                epoch=epoch, budget_w=budget, caps_w=caps, traces=traces
            )
            report.epochs.append(result)
            _EPOCHS.inc()
            _EPOCH_BUDGET.set(budget)
            _EPOCH_POWER.set(result.cluster_power_w)
            _EPOCH_RATE.set(result.aggregate_rate)
            _EPOCH_NODES.set(float(len(traces)))
            # Honour the shared CAP_EPSILON tolerance: a compliant epoch
            # reads exactly 0.0 so the default <= 0 SLO stays quiet.
            _EPOCH_OVER_BUDGET.set(
                0.0
                if result.within_budget
                else result.cluster_power_w - budget
            )
            if monitor is not None:
                monitor.tick(t=float(epoch))
        return report
